"""Experiment drivers: one module per reproduced table/figure.

Each module exposes ``run(...) -> ExperimentTable``; render any of
them from the command line by its id::

    python -m repro run EXP-T1

The registry below maps DESIGN.md experiment ids to their drivers.
"""

from repro.experiments import (
    ablation,
    bus_repeater_study,
    crosstalk_study,
    eq17,
    eq18,
    fig2,
    fig4,
    htree_study,
    length_dependence,
    refit,
    scaling,
    shield_study,
    table1,
    zeta_collapse,
)
from repro.experiments.common import ExperimentTable, render_table

#: DESIGN.md experiment id -> driver module (each has run()).
REGISTRY = {
    "EXP-T1": table1,
    "EXP-F2": fig2,
    "EXP-F4": fig4,
    "EXP-E17": eq17,
    "EXP-E18": eq18,
    "EXP-X1": length_dependence,
    "EXP-X2": zeta_collapse,
    "EXP-X3": ablation,
    "EXP-X4": scaling,
    "EXP-X5": refit,
    "EXP-X6": crosstalk_study,
    "EXP-X7": shield_study,
    "EXP-X8": bus_repeater_study,
    "EXP-X9": htree_study,
}

__all__ = ["REGISTRY", "ExperimentTable", "render_table"]
