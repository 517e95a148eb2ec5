"""EXP-X6: coupled-line crosstalk on inductive global wiring (extension).

Not a paper artifact -- the natural next experiment after it.  The same
wide upper-metal wires whose self-inductance invalidates RC delay models
(Sections II-III) also couple to neighbors; Deutsch [7], the paper's
impedance source, studied exactly such coupled bus structures.  This
study sweeps line-to-line spacing on the 250 nm global layer and
simulates noise and switching-window metrics of a two-line bus with the
full MNA engine (mutual inductances included).
"""

from __future__ import annotations

from repro.analysis.bus import analyze_bus
from repro.bus.spec import BusSpec
from repro.experiments.common import ExperimentTable
from repro.technology.nodes import node_by_name
from repro.technology.parasitics import (
    WireGeometry,
    coupling_capacitance_per_length,
)

__all__ = ["coupling_for_spacing", "run"]


def coupling_for_spacing(
    geometry: WireGeometry, spacing: float, length: float
) -> tuple[float, float]:
    """Total coupling cap and a spacing-decaying inductive coefficient.

    Mutual coupling falls off slowly (log-like) with pitch; the model
    decays from ``km = 0.6`` as the pitch grows past the wire width.
    """
    cct = coupling_capacitance_per_length(
        geometry.thickness, spacing, geometry.eps_r
    ) * length
    pitch = spacing + geometry.width
    km = 0.6 / (1.0 + pitch / (4.0 * geometry.width))
    return cct, km


def run(
    node_name: str = "250nm",
    length: float = 10e-3,
    spacings_um=(0.6, 1.0, 2.0, 4.0),
    driver_size: float = 150.0,
    n_segments: int = 20,
) -> ExperimentTable:
    """Sweep spacing; report victim noise and even/odd delay spread."""
    node = node_by_name(node_name)
    r, l, c = node.wire_rlc("global")
    geometry = node.global_wire
    driver = node.r0 / driver_size

    rows = []
    for spacing_um in spacings_um:
        cct, km = coupling_for_spacing(geometry, spacing_um * 1e-6, length)
        spec = BusSpec(
            n_lines=2,
            rt=r * length,
            lt=l * length,
            ct=c * length,
            cct=cct,
            km=km,
            rtr=driver,
            cl=node.c0 * driver_size,
            n_segments=n_segments,
        )
        report = analyze_bus(spec, victim=0)
        rows.append(
            (
                spacing_um,
                round(cct * 1e15, 1),
                round(km, 2),
                round(100 * report.victim_peak_noise, 1),
                round(100 * report.victim_min_noise, 1),
                round(report.delay_solo * 1e12, 1),
                round(report.delay_even * 1e12, 1),
                round(report.delay_odd * 1e12, 1),
            )
        )
    notes = (
        f"{length * 1e3:.0f} mm pair on the {node_name} global layer, "
        f"h={driver_size:.0f} drivers",
        "positive victim glitches are the capacitive signature, negative "
        "far-end dips the inductive one",
        "odd/even delay ordering flips with spacing: Miller capacitance "
        "dominates at minimum pitch, loop inductance (L*(1-km)) beyond it",
    )
    return ExperimentTable(
        experiment_id="EXP-X6",
        title="coupled-line crosstalk vs spacing (extension study)",
        headers=(
            "spacing_um",
            "Cc_fF",
            "km",
            "noise+_%",
            "noise-_%",
            "t50_quiet_ps",
            "t50_even_ps",
            "t50_odd_ps",
        ),
        rows=tuple(rows),
        notes=notes,
    )
