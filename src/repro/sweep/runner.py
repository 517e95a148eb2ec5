"""Sweep execution: quantity registry, caching, and parallel fan-out.

:class:`SweepRunner` evaluates a :class:`~repro.sweep.grid.Sweep` and
memoizes the result twice over:

- an in-memory LRU keyed by the sweep's :meth:`cache_key`, and
- an optional on-disk JSON store (one file per key under ``cache_dir``)
  that survives across processes.

Closed-form quantities run as single NumPy kernel calls over the whole
grid; the simulator-backed quantity (``simulated_delay_50``) fans out
over a :mod:`concurrent.futures` worker pool in *chunks*: the grid is
partitioned into contiguous chunks, each chunk ships one payload (its
input columns plus a single shared options mapping -- not one payload
dict per point), and the chunk worker hands its points to
:func:`repro.core.simulate.simulated_delay_50_batch`.  That entry point
partitions each chunk into structure-equivalence classes and routes
value-only classes (the ``"mna"`` route) through the stamp-once /
re-value-many template path
(:func:`~repro.spice.transient.simulate_transient_batch`), while
structure-bound routes (``statespace``/``tline``) evaluate per point.
Cache keys include the kernel version, so stale results are
invalidated automatically whenever the numerics change.

Grids may name circuit parameters directly (``rt``/``lt``/``ct``/
``rtr``/``cl``, buffer ``r0``/``c0``, ``tlr``) or describe them
indirectly; the resolver derives what the quantity needs:

- ``node`` (+ ``length``, optional ``layer``): per-unit-length wire
  parasitics of a predefined technology node scaled by wire length,
  plus the node's buffer ``r0``/``c0``;
- ``zeta`` (+ optional ``r_ratio``/``c_ratio``): the Fig. 2
  construction -- ``Lt`` solved from eq. 6 at fixed ``Rt``, ``Ct``;
- ``tlr`` from ``(rt, lt, r0, c0)`` when absent.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pathlib
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro import obs
from repro._cpus import usable_cpus
from repro.errors import ParameterError
from repro.sweep import kernels
from repro.sweep.grid import ParameterGrid, Sweep

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "MAX_CHUNK_POINTS",
    "Quantity",
    "QUANTITIES",
    "RunnerStats",
    "SweepResult",
    "SweepRunner",
]

#: On-disk cache schema version (bumped on format changes).
CACHE_SCHEMA_VERSION = 1

_SIMULATOR_OPTIONS = (
    "route", "n_segments", "n_samples", "window", "dt", "backend",
    "model", "rom_order", "rom_error_bound",
)


def _frozen_column(values, size: int) -> np.ndarray:
    """A length-``size`` read-only copy of a (broadcastable) column.

    Results are shared between the caches and every caller, so all
    result arrays are uniformly immutable; callers copy before editing.
    """
    arr = np.array(np.broadcast_to(np.asarray(values), (size,)))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Quantity:
    """A batch-evaluable quantity: inputs, outputs, and the kernel."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: Callable[..., tuple] | None
    defaults: tuple = ()
    simulated: bool = False

    @property
    def default_values(self) -> dict:
        return dict(self.defaults)


def _line_quantity(name, outputs, fn):
    return Quantity(
        name=name,
        inputs=("rt", "lt", "ct", "rtr", "cl"),
        outputs=outputs,
        fn=fn,
        defaults=(("rtr", 0.0), ("cl", 0.0)),
    )


QUANTITIES: dict[str, Quantity] = {
    q.name: q
    for q in (
        _line_quantity(
            "zeta",
            ("zeta",),
            lambda v: (kernels.batch_zeta(v["rt"], v["lt"], v["ct"], v["rtr"], v["cl"]),),
        ),
        Quantity(
            "omega_n",
            inputs=("lt", "ct", "cl"),
            outputs=("omega_n",),
            fn=lambda v: (kernels.batch_omega_n(v["lt"], v["ct"], v["cl"]),),
            defaults=(("cl", 0.0),),
        ),
        _line_quantity(
            "propagation_delay",
            ("delay_s",),
            lambda v: (
                kernels.batch_propagation_delay(
                    v["rt"], v["lt"], v["ct"], v["rtr"], v["cl"]
                ),
            ),
        ),
        Quantity(
            "rc_limit_delay",
            inputs=("rt", "ct", "rtr", "cl"),
            outputs=("delay_s",),
            fn=lambda v: (
                kernels.batch_rc_limit_delay(v["rt"], v["ct"], v["rtr"], v["cl"]),
            ),
            defaults=(("rtr", 0.0), ("cl", 0.0)),
        ),
        Quantity(
            "lc_limit_delay",
            inputs=("lt", "ct", "cl"),
            outputs=("delay_s",),
            fn=lambda v: (kernels.batch_lc_limit_delay(v["lt"], v["ct"], v["cl"]),),
            defaults=(("cl", 0.0),),
        ),
        Quantity(
            "time_of_flight",
            inputs=("lt", "ct"),
            outputs=("delay_s",),
            fn=lambda v: (kernels.batch_time_of_flight(v["lt"], v["ct"]),),
        ),
        Quantity(
            "error_factors",
            inputs=("tlr",),
            outputs=("h_factor", "k_factor"),
            fn=lambda v: kernels.batch_error_factors(v["tlr"]),
        ),
        Quantity(
            "bakoglu_rc_design",
            inputs=("rt", "ct", "r0", "c0"),
            outputs=("h", "k"),
            fn=lambda v: kernels.batch_bakoglu_rc_design(
                v["rt"], v["ct"], v["r0"], v["c0"]
            ),
        ),
        Quantity(
            "optimal_rlc_design",
            inputs=("rt", "lt", "ct", "r0", "c0"),
            outputs=("h", "k"),
            fn=lambda v: kernels.batch_optimal_rlc_design(
                v["rt"], v["lt"], v["ct"], v["r0"], v["c0"]
            ),
        ),
        Quantity(
            "effective_capacitance",
            inputs=("ct", "cct", "switch_factor", "n_neighbors"),
            outputs=("ct_eff",),
            fn=lambda v: (
                kernels.batch_effective_capacitance(
                    v["ct"], v["cct"], v["switch_factor"], v["n_neighbors"]
                ),
            ),
            defaults=(("switch_factor", 2.0), ("n_neighbors", 2.0)),
        ),
        Quantity(
            "crosstalk_aware_design",
            inputs=("rt", "lt", "ct", "cct", "r0", "c0", "switch_factor", "n_neighbors"),
            outputs=("h", "k"),
            fn=lambda v: kernels.batch_crosstalk_aware_design(
                v["rt"],
                v["lt"],
                v["ct"],
                v["cct"],
                v["r0"],
                v["c0"],
                v["switch_factor"],
                v["n_neighbors"],
            ),
            defaults=(("switch_factor", 2.0), ("n_neighbors", 2.0)),
        ),
        Quantity(
            "delay_increase_percent",
            inputs=("tlr",),
            outputs=("delay_increase_percent",),
            fn=lambda v: (kernels.batch_delay_increase_percent(v["tlr"]),),
        ),
        Quantity(
            "area_increase_percent",
            inputs=("tlr",),
            outputs=("area_increase_percent",),
            fn=lambda v: (kernels.batch_area_increase_percent(v["tlr"]),),
        ),
        Quantity(
            "simulated_delay_50",
            inputs=("rt", "lt", "ct", "rtr", "cl"),
            outputs=("delay_s",),
            fn=None,
            defaults=(("rtr", 0.0), ("cl", 0.0)),
            simulated=True,
        ),
    )
}


@dataclass
class RunnerStats:
    """Cumulative evaluation and cache counters of one runner."""

    kernel_evaluations: int = 0
    simulator_evaluations: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    #: Disk files that parsed but failed validation against the
    #: requesting sweep (stale schema, tampered axes, wrong lengths).
    disk_invalid: int = 0
    misses: int = 0
    #: Wall-clock seconds spent in fresh (non-cached) evaluations.
    elapsed_s: float = 0.0

    @property
    def hits(self) -> int:
        """Cache hits of either tier (memory + disk)."""
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of ``run()`` calls served from a cache (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every counter plus the derived rates."""
        return {
            "kernel_evaluations": self.kernel_evaluations,
            "simulator_evaluations": self.simulator_evaluations,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "disk_invalid": self.disk_invalid,
            "misses": self.misses,
            "elapsed_s": self.elapsed_s,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        """Zero every counter (a fresh accounting window)."""
        self.kernel_evaluations = 0
        self.simulator_evaluations = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.disk_invalid = 0
        self.misses = 0
        self.elapsed_s = 0.0

    def summary(self) -> str:
        """One-line human-readable digest (printed after CLI sweeps)."""
        return (
            f"sweep stats: {self.kernel_evaluations} kernel + "
            f"{self.simulator_evaluations} simulator point evaluations, "
            f"cache {self.memory_hits} memory / {self.disk_hits} disk hits, "
            f"{self.misses} misses"
            + (f", {self.disk_invalid} invalid disk entries" if self.disk_invalid else "")
            + f" ({self.hit_rate:.0%} hit rate), "
            f"{self.elapsed_s:.3f} s evaluating"
        )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The evaluated sweep: expanded inputs, outputs, provenance.

    Attributes
    ----------
    sweep:
        The specification that produced this result.
    columns:
        Resolved per-point input columns (grid axes plus derived
        circuit parameters), each of length ``sweep.grid.size`` in the
        grid's C point order.
    outputs:
        One array per quantity output, same length and order.  Both
        ``columns`` and ``outputs`` arrays are read-only (they are
        shared with the runner's caches); ``.copy()`` before mutating.
    cache_hit:
        ``None`` for a fresh evaluation, ``"memory"`` or ``"disk"``.
    elapsed_s:
        Wall-clock evaluation time of the *original* computation.
    """

    sweep: Sweep
    columns: dict[str, np.ndarray]
    outputs: dict[str, np.ndarray]
    cache_hit: str | None
    elapsed_s: float

    @property
    def size(self) -> int:
        return self.sweep.grid.size

    def output(self, name: str | None = None) -> np.ndarray:
        """One output column; the sole output when ``name`` is omitted."""
        if name is None:
            if len(self.outputs) != 1:
                raise ParameterError(
                    f"result has outputs {sorted(self.outputs)}; name one"
                )
            return next(iter(self.outputs.values()))
        return self.outputs[name]

    def to_table(
        self,
        experiment_id: str = "EXP-SWEEP",
        title: str | None = None,
        max_rows: int | None = None,
    ):
        """Render as an :class:`~repro.experiments.common.ExperimentTable`.

        Rows are the grid axes plus the outputs; with ``max_rows`` the
        grid is subsampled evenly and a note records the truncation.
        """
        from repro.experiments.common import ExperimentTable

        axis_names = [n for n in self.sweep.grid.names if n in self.columns]
        headers = tuple(axis_names) + tuple(self.outputs)
        n = self.size
        if max_rows is not None and 0 < max_rows < n:
            indices = np.unique(
                np.linspace(0, n - 1, max_rows).round().astype(int)
            )
        else:
            indices = np.arange(n)
        series = [self.columns[name] for name in axis_names] + [
            self.outputs[name] for name in self.outputs
        ]
        rows = tuple(
            tuple(
                col[i].item() if isinstance(col[i], np.generic) else col[i]
                for col in series
            )
            for i in indices
        )
        notes = [
            f"{n} grid points, quantity={self.sweep.quantity!r}, "
            f"cache={self.cache_hit or 'miss'}, "
            f"evaluated in {self.elapsed_s * 1e3:.2f} ms",
        ]
        if len(indices) < n:
            notes.append(f"showing {len(indices)} of {n} rows (evenly subsampled)")
        for key, value in self.sweep.fixed:
            notes.append(f"fixed: {key} = {value!r}")
        return ExperimentTable(
            experiment_id=experiment_id,
            title=title or f"parameter sweep of {self.sweep.quantity}",
            headers=headers,
            rows=rows,
            notes=tuple(notes),
        )


def _disk_payload_problem(payload: dict, sweep: Sweep) -> str | None:
    """Validate a parsed cache file against the requesting sweep.

    The file name is derived from the sweep's cache key, but a stale,
    truncated or hand-edited file can still parse cleanly while holding
    the wrong data; replaying it would silently return wrong columns.
    The input columns (grid axes plus derivations) are cheap and
    deterministic to recompute, so they are re-derived here and the
    stored ones must match exactly -- names and values; only the
    expensive *outputs* are taken on trust (their names and lengths are
    still checked).  Returns a human-readable description of the first
    problem found, or ``None`` when the payload is trustworthy.
    """
    columns = payload.get("columns")
    outputs = payload.get("outputs")
    if not isinstance(columns, dict) or not isinstance(outputs, dict):
        return "columns/outputs are not JSON objects"
    if not outputs:
        return "no output columns stored"

    quantity = QUANTITIES.get(sweep.quantity)
    if quantity is not None and set(outputs) != set(quantity.outputs):
        return (
            f"stored outputs {sorted(outputs)} do not match the "
            f"quantity's outputs {sorted(quantity.outputs)}"
        )

    size = sweep.grid.size
    for label, mapping in (("column", columns), ("output", outputs)):
        for name, values in mapping.items():
            if not isinstance(values, list) or len(values) != size:
                length = len(values) if isinstance(values, list) else "non-list"
                return (
                    f"{label} {name!r} has length {length}, "
                    f"expected {size} grid points"
                )

    if quantity is None:  # pragma: no cover - run() validates first
        return None
    try:
        _, expected_columns = _resolve_inputs(sweep, quantity)
    except ParameterError as exc:
        return f"could not re-derive the input columns ({exc})"
    expected = {
        name: np.broadcast_to(np.asarray(col), (size,))
        for name, col in expected_columns.items()
    }
    if set(columns) != set(expected):
        return (
            f"stored columns {sorted(columns)} do not match the "
            f"sweep's columns {sorted(expected)}"
        )
    for name, want in expected.items():
        stored = columns[name]
        if want.dtype.kind in "fc":
            try:
                stored_arr = np.asarray(stored, dtype=float)
            except (TypeError, ValueError):
                return f"column {name!r} is not numeric"
            # JSON round-trips float64 exactly, but re-derived values
            # may drift by an ulp across numpy/libm builds; a tight
            # relative tolerance still catches tampering and staleness
            # without invalidating caches on every toolchain change.
            if not np.allclose(stored_arr, want, rtol=1e-12, atol=0.0):
                return f"column {name!r} does not match the sweep"
        elif [str(v) for v in stored] != [str(v) for v in want]:
            return f"column {name!r} does not match the sweep"
    return None


#: Largest point count handed to one batched chunk evaluation.  Each
#: distinct point in a transient batch holds its numeric factorization
#: alive for the whole run, so chunks are capped to bound peak memory
#: (and to give the worker pool enough chunks to balance).
MAX_CHUNK_POINTS = 32


def _simulate_chunk(payload) -> list[float]:
    """Worker-pool entry point: one chunk of simulator-backed delays.

    The payload carries the chunk's input columns and a single shared
    options mapping (sent once per chunk rather than once per point);
    the batch entry point then groups the chunk's points into
    structure-equivalence classes internally.
    """
    columns, options = payload
    from repro.core.canonical import DriverLineLoad
    from repro.core.simulate import simulated_delay_50_batch

    size = len(next(iter(columns.values())))
    lines = [
        DriverLineLoad(**{name: col[i] for name, col in columns.items()})
        for i in range(size)
    ]
    return [float(v) for v in simulated_delay_50_batch(lines, **options)]


def _simulate_chunk_timed(payload) -> tuple[list[float], float]:
    """:func:`_simulate_chunk` plus the chunk's wall-clock seconds.

    The timing happens inside the worker (this function is module-level
    so it pickles into process pools); the parent feeds the elapsed
    seconds into the ``sweep.chunk_seconds`` histogram, which a worker
    process could not reach (its registry is a different process's).
    """
    start = time.perf_counter()
    chunk = _simulate_chunk(payload)
    return chunk, time.perf_counter() - start


class SweepRunner:
    """Evaluate sweeps with memoization and simulator fan-out.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk JSON cache; ``None`` disables disk
        caching (the in-memory cache still applies).
    max_workers:
        Worker count for simulator-backed sweeps.  ``None`` uses the
        CPUs this process may run on (its affinity mask under
        ``taskset`` or a cgroup cpuset); values <= 1 run serially
        in-process.
    executor:
        ``"thread"`` (default) or ``"process"`` -- the pool flavor for
        simulator fan-out.  Both split a grid into one chunk per
        worker (at most :data:`MAX_CHUNK_POINTS` points each).  Threads
        avoid spawn overhead, but the banded solves (LAPACK through
        f2py) and the sparse history matvec hold the GIL, so thread
        chunks on the default MNA route run one after the other rather
        than side by side; processes sidestep the GIL entirely.
    memory_entries:
        LRU capacity of the in-memory result cache.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        max_workers: int | None = None,
        executor: str = "thread",
        memory_entries: int = 128,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ParameterError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if memory_entries < 1:
            raise ParameterError("memory_entries must be >= 1")
        self.cache_dir = (
            pathlib.Path(cache_dir) if cache_dir is not None else None
        )
        self.max_workers = max_workers
        self.executor = executor
        self.stats = RunnerStats()
        self._memory: OrderedDict[str, SweepResult] = OrderedDict()
        self._memory_entries = memory_entries
        self._lock = threading.Lock()

    # -- public API --------------------------------------------------------

    def run(self, sweep: Sweep, refresh: bool = False) -> SweepResult:
        """Evaluate ``sweep``, consulting the caches unless ``refresh``.

        Concurrent calls are safe but not deduplicated: two threads
        racing on the same not-yet-cached sweep both evaluate it (the
        later result wins the cache slot).
        """
        with obs.span(
            "sweep.run", quantity=sweep.quantity, points=sweep.grid.size
        ) as sp:
            quantity = self._quantity(sweep)
            key = sweep.cache_key()
            if not refresh:
                cached = self._load(key, sweep)
                if cached is not None:
                    sp.set(cache=cached.cache_hit)
                    self.publish_stats()
                    return cached
            with self._lock:
                self.stats.misses += 1
            obs.inc("sweep.cache.misses")
            sp.set(cache="miss")
            columns, outputs, elapsed = self._evaluate(sweep, quantity)
            result = SweepResult(
                sweep=sweep,
                columns=columns,
                outputs=outputs,
                cache_hit=None,
                elapsed_s=elapsed,
            )
            self._store(key, result)
            self.publish_stats()
            return result

    def publish_stats(self) -> None:
        """Mirror :attr:`stats` into the metrics registry (gauges).

        Called automatically after every :meth:`run`; a no-op while the
        observability layer is disabled.  The per-event counters
        (``sweep.cache.*``, ``sweep.evaluations``) increment at their
        sites; the gauges published here carry the cumulative view --
        including the derived ``sweep.cache.hit_rate`` -- so one metrics
        snapshot answers "how effective was the cache" directly.
        """
        if not obs.enabled():
            return
        with self._lock:
            snapshot = self.stats.as_dict()
        for name, value in snapshot.items():
            obs.set_gauge(f"sweep.stats.{name}", value)
        obs.set_gauge("sweep.cache.hit_rate", snapshot["hit_rate"])

    def invalidate(self, sweep: Sweep) -> bool:
        """Drop any cached result for ``sweep``; True if one existed."""
        key = sweep.cache_key()
        removed = False
        with self._lock:
            if self._memory.pop(key, None) is not None:
                removed = True
        path = self._disk_path(key)
        if path is not None and path.exists():
            path.unlink()
            removed = True
        return removed

    def clear(self) -> None:
        """Empty both cache layers (including stale interrupted tmp files)."""
        with self._lock:
            self._memory.clear()
        if self.cache_dir is not None and self.cache_dir.is_dir():
            for path in self.cache_dir.glob("sweep-*.json"):
                path.unlink()
            for path in self.cache_dir.glob("sweep-*.tmp"):
                path.unlink()

    # -- cache layers ------------------------------------------------------

    def _disk_path(self, key: str) -> pathlib.Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"sweep-{key}.json"

    def _load(self, key: str, sweep: Sweep) -> SweepResult | None:
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                obs.inc("sweep.cache.memory_hits")
                return SweepResult(
                    sweep=sweep,
                    columns=hit.columns,
                    outputs=hit.outputs,
                    cache_hit="memory",
                    elapsed_s=hit.elapsed_s,
                )
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("schema") != CACHE_SCHEMA_VERSION:
            # A different on-disk format, not corruption: silently treat
            # as a miss (the same policy as before validation existed).
            return None
        problem = _disk_payload_problem(payload, sweep)
        if problem is not None:
            with self._lock:
                self.stats.disk_invalid += 1
            obs.inc("sweep.cache.disk_invalid")
            warnings.warn(
                f"ignoring sweep cache file {path}: {problem}; re-evaluating",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        size = sweep.grid.size
        result = SweepResult(
            sweep=sweep,
            columns={
                name: _frozen_column(np.asarray(col), size)
                for name, col in payload["columns"].items()
            },
            outputs={
                name: _frozen_column(np.asarray(col, dtype=float), size)
                for name, col in payload["outputs"].items()
            },
            cache_hit="disk",
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
        )
        with self._lock:
            self.stats.disk_hits += 1
        obs.inc("sweep.cache.disk_hits")
        self._remember(key, result)
        return result

    def _store(self, key: str, result: SweepResult) -> None:
        self._remember(key, result)
        path = self._disk_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "spec": result.sweep.spec(),
            "elapsed_s": result.elapsed_s,
            "columns": {
                name: np.asarray(col).tolist()
                for name, col in result.columns.items()
            },
            "outputs": {
                name: np.asarray(col).tolist()
                for name, col in result.outputs.items()
            },
        }
        # Atomic publish: the payload lands in a unique tmp file in the
        # same directory (concurrent writers of the same key must not
        # interleave), is flushed and fsynced so a crash cannot leave a
        # sparse/truncated file behind the rename, and only then
        # replaces the real path.  _load therefore never sees a partial
        # JSON payload, no matter where a run was interrupted.
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "w") as handle:
                handle.write(json.dumps(payload))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _remember(self, key: str, result: SweepResult) -> None:
        with self._lock:
            self._memory[key] = result
            self._memory.move_to_end(key)
            while len(self._memory) > self._memory_entries:
                self._memory.popitem(last=False)

    # -- evaluation --------------------------------------------------------

    @staticmethod
    def _quantity(sweep: Sweep) -> Quantity:
        quantity = QUANTITIES.get(sweep.quantity)
        if quantity is None:
            known = ", ".join(sorted(QUANTITIES))
            raise ParameterError(
                f"unknown sweep quantity {sweep.quantity!r}; known: {known}"
            )
        options = sweep.option_values
        if quantity.simulated:
            unknown = set(options) - set(_SIMULATOR_OPTIONS)
            if unknown:
                raise ParameterError(
                    f"unknown simulator option(s) {sorted(unknown)}; "
                    f"allowed: {list(_SIMULATOR_OPTIONS)}"
                )
            if "route" in options:
                from repro.core.simulate import SimulatorRoute

                try:
                    SimulatorRoute(options["route"])
                except ValueError:
                    known_routes = ", ".join(r.value for r in SimulatorRoute)
                    raise ParameterError(
                        f"unknown simulator route {options['route']!r}; "
                        f"known: {known_routes}"
                    ) from None
            backend_name = options.get("backend")
            if isinstance(backend_name, str) and backend_name.lower() != "auto":
                from repro.spice.backend import resolve_backend

                # Raises ParameterError for unknown names, with the
                # same message the simulation entry points produce.
                # ("auto" needs a system matrix, so it is vetted by the
                # simulation itself.)
                resolve_backend(backend_name)
            if "model" in options:
                from repro.rom.model import resolve_model

                # Same early vetting for the evaluation-model tier.
                resolve_model(options["model"])
        elif options:
            raise ParameterError(
                f"quantity {sweep.quantity!r} takes no options, "
                f"got {sorted(options)}"
            )
        return quantity

    def _evaluate(self, sweep: Sweep, quantity: Quantity):
        size = sweep.grid.size
        inputs, columns = _resolve_inputs(sweep, quantity)
        start = time.perf_counter()
        if quantity.simulated:
            values = self._fan_out(inputs, sweep.option_values, size)
            outputs = {quantity.outputs[0]: _frozen_column(values, size)}
            with self._lock:
                self.stats.simulator_evaluations += size
            obs.inc("sweep.evaluations", size, kind="simulator")
        else:
            raw = quantity.fn(inputs)
            outputs = {
                name: _frozen_column(np.asarray(value, dtype=float), size)
                for name, value in zip(quantity.outputs, raw)
            }
            with self._lock:
                self.stats.kernel_evaluations += size
            obs.inc("sweep.evaluations", size, kind="kernel")
        elapsed = time.perf_counter() - start
        with self._lock:
            self.stats.elapsed_s += elapsed
        full_columns = {
            name: _frozen_column(col, size) for name, col in columns.items()
        }
        return full_columns, outputs, elapsed

    def _fan_out(
        self, inputs: Mapping[str, np.ndarray], options: dict, size: int
    ) -> np.ndarray:
        """Evaluate a simulator-backed sweep in chunked fashion.

        Points are split into contiguous chunks; each chunk is one
        payload (columns as plain tuples plus one shared, read-only
        options mapping) shipped to a worker, keeping pickling cost
        O(chunks) rather than O(points) for process pools.  Inside a
        worker, :func:`repro.core.simulate.simulated_delay_50_batch`
        partitions the chunk into structure-equivalence classes and
        routes value-only classes through the batched template path.
        """
        broadcast = {
            name: np.broadcast_to(np.asarray(value, dtype=float), (size,))
            for name, value in inputs.items()
        }
        workers = self.max_workers
        if workers is None:
            workers = usable_cpus()
        workers = max(1, min(workers, size))
        chunk_size = min(MAX_CHUNK_POINTS, -(-size // workers))
        bounds = list(range(0, size, chunk_size)) + [size]
        payloads = [
            (
                {
                    name: tuple(float(v) for v in col[lo:hi])
                    for name, col in broadcast.items()
                },
                options,
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]
        with obs.span(
            "sweep.fan_out",
            points=size,
            chunks=len(payloads),
            workers=min(workers, len(payloads)),
            executor=self.executor,
        ):
            if workers <= 1 or len(payloads) <= 1:
                timed = [_simulate_chunk_timed(p) for p in payloads]
            else:
                pool_cls = (
                    concurrent.futures.ProcessPoolExecutor
                    if self.executor == "process"
                    else concurrent.futures.ThreadPoolExecutor
                )
                with pool_cls(max_workers=min(workers, len(payloads))) as pool:
                    timed = list(pool.map(_simulate_chunk_timed, payloads))
            if obs.enabled():
                for chunk, seconds in timed:
                    obs.observe("sweep.chunk_seconds", seconds)
                    obs.observe(
                        "sweep.chunk_points",
                        len(chunk),
                        buckets=obs.COUNT_BUCKETS,
                    )
            return np.asarray(
                [value for chunk, _ in timed for value in chunk], dtype=float
            )


# -- input resolution -------------------------------------------------------


def _merge_derived(
    available: dict, derived: dict, new: dict, source: str
) -> None:
    """Merge a derivation, refusing to clobber explicit parameters.

    A derived parameter that collides with an axis or fixed value would
    silently evaluate a different circuit than the caller specified, so
    the conflict is an error rather than a precedence rule.
    """
    conflicts = sorted(name for name in new if name in available)
    if conflicts:
        raise ParameterError(
            f"the {source!r} derivation computes {conflicts}, which are "
            "also given as axes or fixed values; remove one or the other"
        )
    available.update(new)
    derived.update(new)


def _resolve_inputs(sweep: Sweep, quantity: Quantity):
    """Assemble the quantity's input arrays from axes/fixed/derivations.

    Returns ``(inputs, columns)``: the kernel inputs, and the columns to
    record on the result (grid axes plus every derived circuit input).
    """
    available: dict[str, np.ndarray] = dict(sweep.grid.columns())
    axis_names = set(available)
    for name, value in sweep.fixed:
        available[name] = np.asarray(value)

    derived: dict[str, np.ndarray] = {}
    if "node" in available:
        _merge_derived(
            available, derived, _resolve_node(available, quantity), "node"
        )
    if "zeta" in available and quantity.name != "zeta":
        _merge_derived(
            available, derived, _resolve_zeta_construction(available), "zeta"
        )
    if "pattern" in available and "switch_factor" in quantity.inputs:
        _merge_derived(
            available, derived, _resolve_pattern(available), "pattern"
        )
    if "tlr" in quantity.inputs and "tlr" not in available and all(
        name in available for name in ("rt", "lt", "r0", "c0")
    ):
        available["tlr"] = kernels.batch_inductance_time_ratio(
            available["rt"], available["lt"], available["r0"], available["c0"]
        )
        derived["tlr"] = available["tlr"]

    defaults = quantity.default_values
    inputs: dict[str, np.ndarray] = {}
    missing = []
    for name in quantity.inputs:
        if name in available:
            try:
                inputs[name] = np.asarray(available[name], dtype=float)
            except (TypeError, ValueError):
                raise ParameterError(
                    f"input {name!r} of {quantity.name!r} must be numeric, "
                    f"got {np.asarray(available[name]).ravel()[:3]!r}"
                ) from None
        elif name in defaults:
            inputs[name] = np.asarray(defaults[name], dtype=float)
        else:
            missing.append(name)
    if missing:
        raise ParameterError(
            f"sweep of {quantity.name!r} is missing input(s) {missing}; "
            "add axes or fixed values (or a 'node'/'zeta' derivation)"
        )

    columns = {name: available[name] for name in axis_names}
    columns.update(derived)
    for name, value in inputs.items():
        columns.setdefault(name, value)
    return inputs, columns


def _resolve_node(available: dict, quantity: Quantity) -> dict:
    """Expand a ``node`` axis into wire/buffer parameters.

    Provides per-point ``r0``/``c0`` and ``tlr`` always, plus
    ``rt``/``lt``/``ct`` when a ``length`` axis or fixed value names the
    wire length (meters).
    """
    from repro.technology.nodes import node_by_name

    names = np.atleast_1d(np.asarray(available["node"]))
    layer_value = available.get("layer", "global")
    layers = np.broadcast_to(np.atleast_1d(np.asarray(layer_value)), names.shape)
    unique = {}
    for node_name, layer in {(str(n), str(l)) for n, l in zip(names, layers)}:
        node = node_by_name(node_name)
        r, l, c = node.wire_rlc(layer)
        unique[(node_name, layer)] = (r, l, c, node.r0, node.c0)
    per_point = np.array(
        [unique[(str(n), str(l))] for n, l in zip(names, layers)]
    )
    r_pul, l_pul, c_pul, r0, c0 = per_point.T
    derived = {"r0": r0, "c0": c0, "tlr": (l_pul / r_pul) / (r0 * c0)}
    if "length" in available:
        length = np.asarray(available["length"], dtype=float)
        if np.any(length <= 0):
            raise ParameterError("length must be > 0")
        derived["rt"] = r_pul * length
        derived["lt"] = l_pul * length
        derived["ct"] = c_pul * length
    elif any(n in quantity.inputs for n in ("rt", "lt", "ct")):
        raise ParameterError(
            "a 'node' axis needs a 'length' axis or fixed value to "
            f"resolve the line impedances for {quantity.name!r}"
        )
    return derived


def _resolve_pattern(available: dict) -> dict:
    """Expand a ``pattern`` axis into the Miller ``switch_factor``.

    Maps the neighbor-switching pattern names ``even`` / ``quiet`` /
    ``odd`` to their coupling-capacitance multipliers 0 / 1 / 2
    (:data:`repro.core.repeater.MILLER_SWITCH_FACTORS`), so bus
    repeater sweeps can use the designer's vocabulary directly::

        --axis pattern=even,quiet,odd
    """
    from repro.core.repeater import miller_switch_factor

    names = np.atleast_1d(np.asarray(available["pattern"]))
    factors = np.array(
        [
            miller_switch_factor(n.item() if isinstance(n, np.generic) else n)
            for n in names
        ]
    )
    return {"switch_factor": factors}


def _resolve_zeta_construction(available: dict) -> dict:
    """Expand a ``zeta`` axis via the Fig. 2 constant-(RT, CT) circuit.

    Mirrors :meth:`repro.core.canonical.DriverLineLoad.for_zeta`:
    ``Rt``/``Ct`` default to 1, ``rtr = RT*Rt``, ``cl = CT*Ct`` and
    ``Lt`` solves eq. 6 for the requested damping factor.
    """
    zeta = np.asarray(available["zeta"], dtype=float)
    r_ratio = np.asarray(available.get("r_ratio", 0.0), dtype=float)
    c_ratio = np.asarray(available.get("c_ratio", 0.0), dtype=float)
    rt = np.asarray(available.get("rt", 1.0), dtype=float)
    ct = np.asarray(available.get("ct", 1.0), dtype=float)
    lt = kernels.batch_lt_for_zeta(zeta, r_ratio, c_ratio, rt, ct)
    derived = {"lt": lt, "rtr": r_ratio * rt, "cl": c_ratio * ct}
    if "rt" not in available:
        derived["rt"] = rt
    if "ct" not in available:
        derived["ct"] = ct
    return derived
