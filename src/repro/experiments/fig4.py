"""EXP-F4: reproduce Fig. 4 -- repeater error factors h'(T), k'(T).

The paper numerically minimizes the total repeater-system delay and
plots the resulting derating factors ``h' = h_opt/h_rc`` and
``k' = k_opt/k_rc`` against ``T_{L/R}``, with the closed-form fits of
eqs. 14/15 overlaid.

We regenerate both: the published closed forms, and our own numerical
minimization of the paper's stated objective (eq. 19 with eq. 9 section
delays).  The two agree in every qualitative respect (monotone decay
from 1, ``k'`` below ``h'``, both driven by ``T**3``), but the numerical
derating we obtain is shallower than the published fits -- the one
documented deviation of this reproduction; simulation-based arbitration
(EXP-E17 / EXPERIMENTS.md) shows both designs land within a few percent
of the simulated optimum, far ahead of the RC design.
"""

from __future__ import annotations

import numpy as np

from repro.core.repeater import error_factors, numerical_error_factors
from repro.experiments.common import ExperimentTable

__all__ = ["run"]


def run(tlr_values=None) -> ExperimentTable:
    """Regenerate the Fig. 4 curves (both panels)."""
    if tlr_values is None:
        tlr_values = np.concatenate(([0.25, 0.5], np.arange(1.0, 10.5, 1.0)))
    tlr_values = np.asarray(tlr_values, dtype=float)

    rows = []
    for t in tlr_values:
        h_fit, k_fit = error_factors(float(t))
        h_num, k_num = numerical_error_factors(float(t))
        rows.append(
            (
                round(float(t), 3),
                round(h_num, 4),
                round(h_fit, 4),
                round(k_num, 4),
                round(k_fit, 4),
            )
        )
    notes = (
        "h'_num/k'_num: minimization of eq. 19 with eq. 9 section delays "
        "(this work); h'_eq14/k'_eq15: the paper's published fits",
        "both decay monotonically from 1 with k' < h'; the published fits "
        "derate more aggressively than our optimization of the stated "
        "objective -- see EXPERIMENTS.md for the simulation arbitration",
    )
    return ExperimentTable(
        experiment_id="EXP-F4",
        title="Fig. 4 -- repeater error factors vs T_{L/R}",
        headers=("T_L/R", "h'_num", "h'_eq14", "k'_num", "k'_eq15"),
        rows=tuple(rows),
        notes=notes,
    )
