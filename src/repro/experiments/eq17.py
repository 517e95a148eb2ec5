"""EXP-E17: the delay cost of RC-based repeatering (eqs. 16/17).

The paper's anchors: treating an RLC line as RC when sizing repeaters
costs ~10% extra total delay at ``T_{L/R} = 3``, ~20% at 5, ~30% at 10,
with the closed form eq. 17 capturing the whole curve.

Three evaluations are reported per ``T``:

- ``eq17``: the published closed form;
- ``model``: eq. 16 evaluated with our delay model -- RC design (eq. 11)
  vs our numerically optimized design (guaranteed non-negative);
- ``simulated``: the assumption-free arbiter -- both designs' total
  delays measured by ladder simulation (continuous ``k``).
"""

from __future__ import annotations

import numpy as np

from repro.core.penalty import delay_increase_closed_form, delay_increase_numerical
from repro.core.repeater import (
    RepeaterSystem,
    bakoglu_rc_design,
    normalized_system,
    numerical_optimal_design,
)
from repro.core.simulate import simulated_delay_50_batch
from repro.experiments.common import ExperimentTable

__all__ = ["run", "simulated_delay_increase"]


def simulated_delay_increase(
    tlr: float, n_segments: int = 80, n_samples: int = 3001
) -> float:
    """Percent simulated-delay increase of the RC design over the
    eq. 9-optimal design at a given ``T_{L/R}`` (continuous ``k``)."""
    line, buffer = normalized_system(tlr)
    system = RepeaterSystem(line, buffer)
    rc = bakoglu_rc_design(line, buffer)
    rlc = numerical_optimal_design(line, buffer)
    sections = simulated_delay_50_batch(
        [system.section_line(rc), system.section_line(rlc)],
        n_segments=n_segments, n_samples=n_samples,
    )
    t_rc, t_rlc = rc.k * sections[0], rlc.k * sections[1]
    return float(100.0 * (t_rc - t_rlc) / t_rlc)


def run(tlr_values=None, simulate: bool = True) -> ExperimentTable:
    """Regenerate the eq. 17 penalty curve with all three evaluations."""
    if tlr_values is None:
        tlr_values = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0])
    tlr_values = np.asarray(tlr_values, dtype=float)

    rows = []
    for t in tlr_values:
        closed = float(delay_increase_closed_form(float(t)))
        model = delay_increase_numerical(float(t), use_numerical_optimum=True)
        simulated = simulated_delay_increase(float(t)) if simulate else float("nan")
        rows.append(
            (
                round(float(t), 2),
                round(closed, 2),
                round(model, 2),
                round(simulated, 2),
            )
        )
    notes = (
        "paper anchors: ~10% @ T=3, ~20% @ T=5, ~30% @ T=10 (eq. 17)",
        "model column: RC (eq. 11) vs our eq. 9-numerical optimum; "
        "simulated column: same designs, ladder-simulated sections",
        "all three curves rise monotonically from 0 and saturate -- the "
        "paper's qualitative claim; magnitudes differ (EXPERIMENTS.md)",
    )
    return ExperimentTable(
        experiment_id="EXP-E17",
        title="eq. 17 -- % delay increase from RC-based repeater insertion",
        headers=("T_L/R", "eq17_%", "model_%", "simulated_%"),
        rows=tuple(rows),
        notes=notes,
    )
