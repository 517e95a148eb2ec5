"""EXP-T1: reproduce Table 1 -- eq. 9 vs dynamic circuit simulation.

The paper sweeps ``RT in {0.1, 0.5, 1.0}`` (rows), ``CT in {0.1, 0.5,
1.0}`` (columns) and ``Lt in {1e-5 .. 1e-8} H`` with ``Ct = 1 pF`` and
``Rtr = 500 ohm``, comparing the eq. 9 delay against AS/X simulations;
every error is below 5%.  We regenerate the same 36-cell sweep with our
simulator standing in for AS/X.

Provenance note: the printed first row group of the paper's table is
internally consistent only with ``Rt = 1000 ohm`` (i.e. ``Rtr = 100``)
rather than the caption's ``Rtr/RT = 5000``; we sweep the caption's
stated parameters and verify the *claim* (model within ~5% of
simulation) rather than the anomalous printed cells.  See EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.core.canonical import DriverLineLoad
from repro.core.delay import propagation_delay
from repro.core.simulate import simulated_delay_50
from repro.experiments.common import ExperimentTable
from repro.units import PS

__all__ = [
    "RT_VALUES",
    "CT_VALUES",
    "LT_VALUES",
    "CT_TOTAL",
    "RTR",
    "build_case",
    "run",
]

RT_VALUES = (0.1, 0.5, 1.0)
CT_VALUES = (0.1, 0.5, 1.0)
LT_VALUES = (1e-5, 1e-6, 1e-7, 1e-8)
CT_TOTAL = 1e-12  # paper: Ct = 1 pF
RTR = 500.0  # paper: Rtr = 500 ohm


def build_case(r_ratio: float, c_ratio: float, lt: float) -> DriverLineLoad:
    """One Table 1 cell as a circuit (``Rt = Rtr / RT``)."""
    rt = RTR / r_ratio
    return DriverLineLoad(
        rt=rt, lt=lt, ct=CT_TOTAL, rtr=RTR, cl=c_ratio * CT_TOTAL
    )


def run(
    route: str = "statespace",
    n_segments: int = 150,
    rt_values=RT_VALUES,
    ct_values=CT_VALUES,
    lt_values=LT_VALUES,
    backend: str = "auto",
    model: str = "full",
) -> ExperimentTable:
    """Regenerate Table 1; returns model/simulated delay and error rows.

    ``model`` selects the evaluation tier of the simulation reference
    (``"full"`` | ``"reduced"`` | ``"auto"``, MNA route only) -- see
    :mod:`repro.rom`.
    """
    rows = []
    worst = 0.0
    for r_ratio in rt_values:
        for lt in lt_values:
            for c_ratio in ct_values:
                line = build_case(r_ratio, c_ratio, lt)
                eq9 = propagation_delay(line)
                sim = simulated_delay_50(
                    line, route=route, n_segments=n_segments,
                    backend=backend, model=model,
                )
                error = 100.0 * abs(eq9 - sim) / sim
                worst = max(worst, error)
                rows.append(
                    (
                        r_ratio,
                        c_ratio,
                        lt,
                        round(line.zeta, 4),
                        round(eq9 / PS, 1),
                        round(sim / PS, 1),
                        round(error, 2),
                    )
                )
    notes = (
        f"max |eq9 - simulation| error: {worst:.2f}% "
        f"(paper claims < 5% vs AS/X)",
        f"simulator route: {route}, {n_segments} PI segments",
    )
    return ExperimentTable(
        experiment_id="EXP-T1",
        title="Table 1 -- eq. 9 vs dynamic simulation (Ct=1pF, Rtr=500)",
        headers=("RT", "CT", "Lt_H", "zeta", "eq9_ps", "sim_ps", "err_%"),
        rows=tuple(rows),
        notes=notes,
    )
