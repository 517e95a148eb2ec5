"""EXP-E18: repeater area (and power) cost of ignoring inductance.

Paper anchors for eq. 18: the RC-based design uses 154% more repeater
area at ``T_{L/R} = 3`` and 435% more at ``T = 5`` than the RLC-aware
design; the paper adds that power follows area.  We tabulate eq. 18, the
area ratio implied by our numerical optimum, and the switched-capacitance
(power) penalty with the wire capacitance included.
"""

from __future__ import annotations

import numpy as np

from repro.core.penalty import (
    area_increase_closed_form,
    area_increase_from_designs,
    power_increase,
)
from repro.core.repeater import (
    bakoglu_rc_design,
    normalized_system,
    numerical_optimal_design,
)
from repro.experiments.common import ExperimentTable

__all__ = ["run"]


def run(tlr_values=None) -> ExperimentTable:
    """Regenerate the eq. 18 area-penalty curve plus power columns."""
    if tlr_values is None:
        tlr_values = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0])
    tlr_values = np.asarray(tlr_values, dtype=float)

    rows = []
    for t in tlr_values:
        closed = float(area_increase_closed_form(float(t)))
        line, buffer = normalized_system(float(t))
        rc = bakoglu_rc_design(line, buffer)
        num = numerical_optimal_design(line, buffer)
        area_num = area_increase_from_designs(rc, num, buffer)
        power_overhead = power_increase(float(t), include_wire=False)
        power_total = power_increase(float(t), include_wire=True)
        rows.append(
            (
                round(float(t), 2),
                round(closed, 1),
                round(area_num, 1),
                round(power_overhead, 1),
                round(power_total, 1),
            )
        )
    notes = (
        "paper anchors (eq. 18): 154% @ T=3, 435% @ T=5",
        "area_num: RC vs our numerical optimum of the stated objective",
        "power columns use eqs. 14/15 designs; repeater-only power "
        "tracks area exactly, wire-inclusive power dilutes it",
    )
    return ExperimentTable(
        experiment_id="EXP-E18",
        title="eq. 18 -- % area and power increase from RC-based insertion",
        headers=("T_L/R", "eq18_area_%", "num_area_%", "power_rep_%", "power_tot_%"),
        rows=tuple(rows),
        notes=notes,
    )
