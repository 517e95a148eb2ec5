"""RC-vs-RLC repeater design comparison engine.

Given one interconnect and one buffer family, build every design of
interest -- Bakoglu's RC optimum, the paper's closed-form RLC optimum
and our eq. 9-based numerical optimum -- and score them all on the
same axes: model delay, simulated delay, repeater area, and switched
capacitance.

This is the engine behind the repeater experiments and the
``bus_repeaters`` example; it is also where the reproduction's one
documented deviation is visible (see EXPERIMENTS.md): the paper's
eqs. 14/15 and our independent optimization of the paper's stated
objective disagree on the exact (h, k), while both beat the RC design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.canonical import DriverLineLoad
from repro.core.repeater import (
    Buffer,
    RepeaterDesign,
    RepeaterSystem,
    bakoglu_rc_design,
    numerical_optimal_design,
    optimal_rlc_design,
)
from repro.errors import ParameterError

__all__ = ["DesignComparison", "compare_designs"]


@dataclass(frozen=True)
class DesignComparison:
    """One design's scorecard.

    ``simulated_delay`` uses integer sections (quantized ``k``); the
    model delay keeps ``k`` continuous, as in the paper's development.
    """

    label: str
    design: RepeaterDesign
    model_delay: float
    simulated_delay: float | None
    area: float
    switched_capacitance: float

    def delay_vs(self, other: "DesignComparison") -> float:
        """Percent simulated-delay increase of *self* over *other*."""
        if self.simulated_delay is None or other.simulated_delay is None:
            raise ParameterError("both comparisons need simulated delays")
        return 100.0 * (self.simulated_delay - other.simulated_delay) / other.simulated_delay

    def area_vs(self, other: "DesignComparison") -> float:
        """Percent area increase of *self* over *other*."""
        return 100.0 * (self.area - other.area) / other.area


def compare_designs(
    line: DriverLineLoad,
    buffer: Buffer,
    simulate: bool = True,
    n_segments: int = 60,
) -> list[DesignComparison]:
    """Score the standard designs for one line/buffer pair.

    Returns comparisons labeled ``rc-bakoglu``, ``rlc-paper`` and
    ``rlc-numerical``.
    """
    system = RepeaterSystem(line, buffer)
    designs = [
        ("rc-bakoglu", bakoglu_rc_design(line, buffer)),
        ("rlc-paper", optimal_rlc_design(line, buffer)),
        ("rlc-numerical", numerical_optimal_design(line, buffer)),
    ]
    results = []
    for label, design in designs:
        simulated = (
            system.total_delay_simulated(design, n_segments=n_segments)
            if simulate
            else None
        )
        results.append(
            DesignComparison(
                label=label,
                design=design,
                model_delay=system.total_delay(design),
                simulated_delay=simulated,
                area=system.total_area(design),
                switched_capacitance=system.switched_capacitance(design),
            )
        )
    return results
