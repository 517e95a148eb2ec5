"""EXP-X4: penalties grow as technology scales.

The paper's closing claim: "the error between the RC and RLC models
increases as the gate parasitic impedances decrease, which is consistent
with technology scaling trends."  We walk the synthetic node table:
``R0*C0`` shrinks each generation, ``T_{L/R}`` of a fixed thick global
wire rises, and with it the closed-form delay and area penalties (both
penalty columns evaluated in one :mod:`repro.sweep.kernels` batch).
"""

from __future__ import annotations

from repro.analysis.scaling_study import scaling_table
from repro.experiments.common import ExperimentTable

__all__ = ["run"]


def run(layer: str = "global") -> ExperimentTable:
    """Tabulate T_{L/R} and penalties per technology node."""
    rows = tuple(
        (
            row.node,
            round(row.intrinsic_delay * 1e12, 2),
            round(row.tlr, 2),
            round(row.delay_increase_percent, 1),
            round(row.area_increase_percent, 1),
        )
        for row in scaling_table(layer=layer)
    )
    notes = (
        "paper anchor: T_{L/R} ~= 5 'common for a current 0.25 um "
        "technology' -- our synthetic 250nm node lands there by design",
        "penalties are the closed forms (eqs. 17/18) at each node's T",
    )
    return ExperimentTable(
        experiment_id="EXP-X4",
        title="technology scaling -- T_{L/R} and penalties per node",
        headers=("node", "R0C0_ps", "T_L/R", "delay_incr_%", "area_incr_%"),
        rows=rows,
        notes=notes,
    )
