"""EXP-X7: shield insertion on an inductively coupled bus (extension).

Not a paper artifact -- the countermeasure study the paper's wires call
for.  Mishra et al. ("Effect of Distributed Shield Insertion on
Crosstalk in Inductively Coupled VLSI Interconnects") showed that
grounded shields inserted into a switching bus both intercept the
capacitive coupling and provide a close return path for the magnetic
coupling.  This experiment inserts 0, 1 and 2 evenly spread shields
into the same N-line bus on the 250 nm global layer and measures, by
full MNA transient simulation of the whole structure
(:mod:`repro.analysis.bus`):

- the quiet middle victim's coupled noise (positive = capacitive
  signature, negative = inductive),
- the victim's 50% delay switching alone / with / against its
  neighbors, and the resulting worst-pattern push-out,

trading wiring tracks (the cost column) against noise and timing.
"""

from __future__ import annotations

from repro.analysis.bus import shield_tradeoff
from repro.bus.spec import BusSpec
from repro.experiments.common import ExperimentTable
from repro.technology.nodes import node_by_name
from repro.technology.parasitics import coupling_capacitance_per_length

__all__ = ["make_bus_spec", "run"]


def make_bus_spec(
    node_name: str = "250nm",
    length: float = 8e-3,
    n_lines: int = 6,
    spacing_um: float = 0.8,
    driver_size: float = 150.0,
    n_segments: int = 16,
) -> BusSpec:
    """A minimum-pitch bus on the chosen node's global layer.

    Coupling follows the same geometry model as EXP-X6: sidewall
    capacitance from the parallel-plate estimate at ``spacing_um`` and
    an inductive coefficient decaying with pitch, anchored at
    ``km ~ 0.6`` for minimum spacing.
    """
    node = node_by_name(node_name)
    r, l, c = node.wire_rlc("global")
    geometry = node.global_wire
    spacing = spacing_um * 1e-6
    cct = coupling_capacitance_per_length(
        geometry.thickness, spacing, geometry.eps_r
    ) * length
    pitch = spacing + geometry.width
    km = 0.6 / (1.0 + pitch / (4.0 * geometry.width))
    return BusSpec(
        n_lines=n_lines,
        rt=r * length,
        lt=l * length,
        ct=c * length,
        cct=cct,
        km=km,
        rtr=node.r0 / driver_size,
        cl=node.c0 * driver_size,
        n_segments=n_segments,
    )


def run(
    node_name: str = "250nm",
    length: float = 8e-3,
    n_lines: int = 6,
    shield_counts=(0, 1, 2),
    driver_size: float = 150.0,
    n_segments: int = 16,
    backend: str = "auto",
) -> ExperimentTable:
    """Sweep the shield count; report noise and switching-window metrics."""
    spec = make_bus_spec(
        node_name=node_name,
        length=length,
        n_lines=n_lines,
        driver_size=driver_size,
        n_segments=n_segments,
    )
    rows = []
    for shielded, report in shield_tradeoff(
        spec, shield_counts=shield_counts, backend=backend
    ):
        rows.append(
            (
                report.n_shields,
                shielded.n_physical,
                round(100 * report.victim_peak_noise, 1),
                round(100 * report.victim_min_noise, 1),
                round(report.delay_solo * 1e12, 1),
                round(report.delay_even * 1e12, 1),
                round(report.delay_odd * 1e12, 1),
                round(100 * report.delay_push_out, 1),
            )
        )
    notes = (
        f"{n_lines}-bit bus, {length * 1e3:.0f} mm on the {node_name} "
        f"global layer, h={driver_size:.0f} drivers, victim = middle bit",
        "shields are grounded tracks spread evenly through the bus; the "
        "tracks column is the wiring cost",
        "noise columns: quiet victim, all neighbors rising (positive = "
        "capacitive signature, negative = inductive)",
        "pushout: worst switching-pattern delay over the solo delay",
    )
    return ExperimentTable(
        experiment_id="EXP-X7",
        title="shield insertion vs bus crosstalk (extension study)",
        headers=(
            "shields",
            "tracks",
            "noise+_%",
            "noise-_%",
            "t50_solo_ps",
            "t50_even_ps",
            "t50_odd_ps",
            "pushout_%",
        ),
        rows=tuple(rows),
        notes=notes,
    )
