"""The benchmark's three workloads: seeded inputs, one request, a reference check.

Each workload turns ``(seed, request index)`` into the inputs of one
request, so the same seed always yields the same request sequence no
matter how many requests a run completes.  ``serve`` answers a request
with one simulated 50% delay (seconds) per point, NaN where a point has
no crossing.  ``check`` compares a seeded sample of answers with an
independent reference route, outside the timed window.

Why these three (see README.md for the layer map):

- ``table1_statespace`` -- the paper's own path: Table 1 rows through
  the default statespace route, one ``simulated_delay_50`` per cell.
- ``ladder_sweep_mna`` -- user sweeps: ``SweepRunner`` over the MNA
  batch path with a thread pool and a disk cache; one request in four
  replays an earlier grid from disk.
- ``bus_box_auto`` -- the reduced-order tier on the EXP-ROM coupled bus;
  three requests in four build a projection, one reuses it.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np

from repro.bus.builder import build_bus_template
from repro.bus.spec import BusSpec
from repro.core import simulate
from repro.core.canonical import DriverLineLoad
from repro.errors import AnalysisError
from repro.experiments import table1
from repro.spice import transient
from repro.sweep import runner as sweep_runner
from repro.sweep.grid import Axis, ParameterGrid, Sweep
from repro.tline.waveform import Waveform

#: Second seed word of the stream that picks the answers to check; any
#: value no request index reaches.
CHECK_STREAM = 2**31


@dataclasses.dataclass(frozen=True)
class Request:
    """The inputs of one request.

    ``replay_of`` names the earlier request whose inputs this one
    repeats; its answers must match that request's exactly.
    """

    index: int
    points: int
    inputs: object
    replay_of: int | None = None


@dataclasses.dataclass(frozen=True)
class Check:
    """Outcome of the reference comparison on a sample of answers."""

    worst_rel_err: float
    tolerance: float
    checked: int
    outside: int
    reference: str


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _sample(done: dict, k: int, seed: int) -> list[int]:
    """A seeded choice of up to ``k`` completed, fully answered, new requests."""
    candidates = sorted(
        i for i, (request, answers) in done.items()
        if np.all(np.isfinite(answers)) and request.replay_of is None
    )
    if not candidates:
        return []
    picks = _rng(seed, CHECK_STREAM).choice(
        candidates, size=min(k, len(candidates)), replace=False
    )
    return sorted(int(i) for i in picks)


def _compare(answers: np.ndarray, references: np.ndarray, tolerance: float,
             reference: str) -> Check:
    errors = np.abs(answers - references) / np.abs(references)
    errors = np.where(np.isfinite(errors), errors, np.inf)
    return Check(
        worst_rel_err=float(errors.max()) if errors.size else 0.0,
        tolerance=tolerance,
        checked=int(errors.size),
        outside=int(np.count_nonzero(errors > tolerance)),
        reference=reference,
    )


class Table1StateSpace:
    """Jittered paper Table 1 rows, one default ``simulated_delay_50`` per cell.

    A request is one row of the table: fixed ``RT`` and ``Lt``, the three
    ``CT`` columns.  Three queries per request make the per-request
    latency a short average, which keeps its run median steady on a
    noisy host (one query per request spread 0.17-0.21 over ten seeds).
    """

    name = "table1_statespace"
    pool_workers = 1
    #: Relative jitter applied to rt, lt and cl of each cell.
    JITTER = 0.1
    ROWS = tuple((r, lt) for r in table1.RT_VALUES for lt in table1.LT_VALUES)
    #: Answers checked against the exact distributed line (route="tline",
    #: about 0.65 s each).
    CHECKED = 3
    #: Statespace (100 segments) vs tline; the worst difference at the
    #: jitter corners of all 36 cells is 0.84%.
    TOLERANCE = 0.02

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Nothing to prepare: each query builds its own ladder model."""

    def request(self, index: int) -> Request:
        r_ratio, lt = self.ROWS[index % len(self.ROWS)]
        columns = table1.CT_VALUES
        jitter = 1.0 + self.JITTER * _rng(self.seed, index).uniform(-1.0, 1.0, (len(columns), 3))
        lines = [
            DriverLineLoad(
                rt=table1.RTR / r_ratio * j[0],
                lt=lt * j[1],
                ct=table1.CT_TOTAL,
                rtr=table1.RTR,
                cl=c_ratio * table1.CT_TOTAL * j[2],
            )
            for c_ratio, j in zip(columns, jitter)
        ]
        return Request(index, len(lines), lines)

    def serve(self, request: Request) -> np.ndarray:
        return np.array([simulate.simulated_delay_50(line) for line in request.inputs])

    def check(self, done: dict) -> Check:
        rng = _rng(self.seed, CHECK_STREAM + 1)
        answers, references = [], []
        for i in _sample(done, self.CHECKED, self.seed):
            request, delays = done[i]
            k = int(rng.integers(request.points))
            answers.append(delays[k])
            references.append(simulate.simulated_delay_50(request.inputs[k], route="tline"))
        return _compare(np.array(answers), np.array(references), self.TOLERANCE,
                        "route=tline")


class LadderSweepMna:
    """Seeded (rt, lt, cl) grids through ``SweepRunner`` on the MNA route."""

    name = "ladder_sweep_mna"
    pool_workers = 2
    OPTIONS = {"route": "mna", "model": "full", "n_samples": 1001}
    SHAPE = (2, 4, 2)  # rt, lt, cl
    CT = 1e-12
    RTR = 500.0
    CHECKED = 8
    #: Trapezoidal MNA at 1001 samples vs the exact-exponential
    #: statespace route at 4001 samples, same 100-segment ladder.  A scan
    #: of the input box found up to 3.2% (near zeta = 1 with rt = 200,
    #: where the coarse step lands on a steep front).
    TOLERANCE = 0.05

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.cache_dir = workdir / "sweep-cache"

    @property
    def points(self) -> int:
        return int(np.prod(self.SHAPE))

    def setup(self) -> None:
        """Nothing to prepare: the ladder template is built on first use."""

    def sweep(self, index: int) -> Sweep:
        rng = _rng(self.seed, index)
        n_rt, n_lt, n_cl = self.SHAPE
        grid = ParameterGrid(
            Axis("rt", np.sort(rng.uniform(200.0, 2000.0, n_rt))),
            Axis("lt", np.sort(10.0 ** rng.uniform(-8.0, -6.0, n_lt))),
            Axis("cl", np.sort(rng.uniform(1e-13, 1e-12, n_cl))),
        )
        return Sweep(
            "simulated_delay_50", grid,
            fixed={"ct": self.CT, "rtr": self.RTR},
            options=self.OPTIONS,
        )

    def request(self, index: int) -> Request:
        if index % 4 == 3:
            earlier = [i for i in range(index) if i % 4 != 3]
            source = int(_rng(self.seed, index).choice(earlier))
            return Request(index, self.points, self.sweep(source), replay_of=source)
        return Request(index, self.points, self.sweep(index))

    def serve(self, request: Request) -> np.ndarray:
        runner = sweep_runner.SweepRunner(
            cache_dir=self.cache_dir, max_workers=self.pool_workers, executor="thread"
        )
        return np.asarray(runner.run(request.inputs).output("delay_s"))

    def check(self, done: dict) -> Check:
        rng = _rng(self.seed, CHECK_STREAM + 1)
        answers, references = [], []
        for i in _sample(done, self.CHECKED, self.seed):
            request, delays = done[i]
            columns = request.inputs.grid.columns()
            k = int(rng.integers(request.points))
            line = DriverLineLoad(
                rt=columns["rt"][k], lt=columns["lt"][k], ct=self.CT,
                rtr=self.RTR, cl=columns["cl"][k],
            )
            answers.append(delays[k])
            references.append(simulate.simulated_delay_50(line, route="statespace"))
        return _compare(np.array(answers), np.array(references), self.TOLERANCE,
                        "route=statespace")


class BusBoxAuto:
    """16x16 (rt, cct) boxes on the EXP-ROM 8x200 bus, ``model="auto"``."""

    name = "bus_box_auto"
    pool_workers = 1
    SPEC = BusSpec(
        n_lines=8, rt=1000.0, lt=1e-6, ct=1e-12, cct=4e-13, km=0.5,
        rtr=100.0, cl=1e-13, n_segments=200,
    )
    PATTERN = tuple("rise" if i % 2 == 0 else "fall" for i in range(8))
    SHAPE = (16, 16)
    T_STOP = 2e-9
    DT = T_STOP / 24
    #: Points per checked request, and requests checked, against the
    #: full tier (EXP-ROM measured 0.61% for the reduced tier).
    CHECKED_POINTS = 8
    CHECKED = 2
    TOLERANCE = 0.02

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.template = None
        self.out = self.SPEC.output_node(0)

    @property
    def points(self) -> int:
        return int(np.prod(self.SHAPE))

    def setup(self) -> None:
        self.template = build_bus_template(self.SPEC, self.PATTERN)

    def box(self, index: int) -> list[dict]:
        rng = _rng(self.seed, index)
        rt_mid, rt_width = rng.uniform(700.0, 1300.0), rng.uniform(0.2, 0.5)
        cct_mid, cct_width = rng.uniform(2e-13, 5e-13), rng.uniform(0.3, 0.6)
        n_rt, n_cct = self.SHAPE
        rts = np.geomspace(rt_mid * (1 - rt_width / 2), rt_mid * (1 + rt_width / 2), n_rt)
        ccts = np.linspace(cct_mid * (1 - cct_width / 2), cct_mid * (1 + cct_width / 2), n_cct)
        return [{"rt": float(rt), "cct": float(cct)} for rt in rts for cct in ccts]

    def request(self, index: int) -> Request:
        if index % 4 == 3:
            return Request(index, self.points, self.box(index - 1), replay_of=index - 1)
        return Request(index, self.points, self.box(index))

    def delays(self, points: list[dict], model: str) -> np.ndarray:
        result = transient.simulate_transient_batch(
            self.template, points, t_stop=self.T_STOP, dt=self.DT,
            record=[self.out], model=model,
        )
        return np.array([_delay_50(result.times, v) for v in result.voltage(self.out)])

    def serve(self, request: Request) -> np.ndarray:
        return self.delays(request.inputs, model="auto")

    def check(self, done: dict) -> Check:
        rng = _rng(self.seed, CHECK_STREAM + 1)
        points, answers = [], []
        for i in _sample(done, self.CHECKED, self.seed):
            request, delays = done[i]
            for k in rng.choice(request.points, self.CHECKED_POINTS, replace=False):
                points.append(request.inputs[k])
                answers.append(delays[k])
        references = self.delays(points, model="full") if points else np.array([])
        return _compare(np.array(answers), references, self.TOLERANCE, "model=full")


def _delay_50(times: np.ndarray, values: np.ndarray) -> float:
    try:
        return Waveform(times, values).delay_50(v_final=1.0)
    except AnalysisError:
        return float("nan")


WORKLOADS = {w.name: w for w in (Table1StateSpace, LadderSweepMna, BusBoxAuto)}
