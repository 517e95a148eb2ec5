"""EXP-X3: accuracy ablation -- Elmore vs two-pole vs eq. 9.

The implicit baseline of the paper: existing delay metrics (Elmore's
single-moment estimate, and the two-pole moment-matching model) degrade
on inductive lines; eq. 9 holds a few-percent error across regimes.  We
sweep the Table 1 grid and report each model's error against simulation.
"""

from __future__ import annotations

import numpy as np

from repro.core.awe import awe_delay_50
from repro.core.baselines import sakurai_rc_delay_50
from repro.core.delay import propagation_delay
from repro.core.moments import elmore_delay_50, two_pole_delay_50
from repro.core.simulate import simulated_delay_50
from repro.errors import AnalysisError
from repro.experiments import table1
from repro.experiments.common import ExperimentTable

__all__ = ["run"]


def _awe3(line):
    return awe_delay_50(line, q=3)


_MODELS = (
    ("eq9", propagation_delay),
    ("elmore", elmore_delay_50),
    ("two-pole", two_pole_delay_50),
    ("awe-3", _awe3),
    ("sakurai-rc", sakurai_rc_delay_50),
)


def run(
    route: str = "statespace",
    n_segments: int = 120,
    lt_values=(1e-5, 1e-6, 1e-7, 1e-8),
    backend: str = "auto",
    model: str = "full",
) -> ExperimentTable:
    """Error statistics of each delay model over the Table 1 sweep.

    The full four-decade inductance sweep is included: the strongly
    underdamped ``Lt = 1e-5`` corner is precisely where the RC-era
    metrics collapse (errors near 100%) while eq. 9 stays in budget.
    ``model`` selects the simulation reference's evaluation tier
    (``"full"`` | ``"reduced"`` | ``"auto"``, MNA route only).
    """
    errors: dict[str, list[float]] = {name: [] for name, _ in _MODELS}
    failures: dict[str, int] = {name: 0 for name, _ in _MODELS}
    for r_ratio in table1.RT_VALUES:
        for lt in lt_values:
            for c_ratio in table1.CT_VALUES:
                line = table1.build_case(r_ratio, c_ratio, lt)
                sim = simulated_delay_50(
                    line, route=route, n_segments=n_segments,
                    backend=backend, model=model,
                )
                for name, model_fn in _MODELS:
                    try:
                        err = 100.0 * abs(model_fn(line) - sim) / sim
                    except AnalysisError:
                        # AWE's documented instability: count, don't hide.
                        failures[name] += 1
                        continue
                    errors[name].append(err)

    rows = tuple(
        (
            name,
            round(float(np.mean(errs)), 2),
            round(float(np.median(errs)), 2),
            round(float(np.max(errs)), 2),
            failures[name],
        )
        for name, errs in errors.items()
    )
    notes = (
        "errors vs ladder simulation over the Table 1 grid "
        f"(Lt in {list(lt_values)})",
        "eq. 9 stays in the few-percent band across regimes; the RC-era "
        "metrics blow up as the response becomes underdamped",
        "'failed' counts AWE reductions rejected for instability "
        "(right-half-plane poles), AWE's classic failure mode",
    )
    return ExperimentTable(
        experiment_id="EXP-X3",
        title="delay-model ablation -- error vs simulation",
        headers=("model", "mean_err_%", "median_err_%", "max_err_%", "failed"),
        rows=rows,
        notes=notes,
    )
