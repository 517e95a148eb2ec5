"""Transient simulation of linear circuits.

Solves the MNA system ``G x + C dx/dt = b(t)`` on a fixed time grid
``[0, t_stop]`` with the trapezoidal rule, the SPICE default: A-stable
and second order, it preserves the oscillatory energy of underdamped
RLC lines, which is exactly what the paper's experiments probe.  A run
starts at ``t = 0`` from the DC operating point (``initial="dc"``, the
default) or from rest (``initial="zero"``, the way out of a singular DC
matrix).

Each step is one linear solve with a *constant* matrix (fixed step
size), factorized exactly once through a pluggable
:class:`~repro.spice.backend.SimulationBackend` -- dense LU for small
systems, RCM-banded or sparse LU for the long ladder chains where a
dense solve would cost O(n^3)/O(n^2) per run.

:func:`simulate_transient_batch` is the one evaluation path: it takes a
:class:`~repro.spice.mna.CircuitTemplate` (or a bare
:class:`~repro.spice.mna.MnaStructure`), assembles and analyzes the
structure once, and steps every parameter point in lockstep -- one
block-diagonal system over the stacked ``(B * n,)`` state per time
step -- instead of running ``B`` independent simulations.  The scalar
:func:`simulate_transient` is a batch of one over the circuit's own
structure, and ``model="reduced"``/``"auto"`` requests of either go
through the one tier policy, :func:`repro.rom.model.serve_tiered`.

Time grid
---------

The grid always ends *exactly* at ``t_stop``.  ``dt`` is an upper bound
on the step: the span is divided into ``ceil(t_stop / dt)``
equal steps (``numpy.linspace`` style), so a non-divisible span shrinks
the effective step slightly rather than letting the final sample
overshoot past ``t_stop``.  (Historically the last point could land up
to ``dt`` *after* ``t_stop``, silently skewing measurements -- such as
the 50% delay -- that treat the last sample as the steady state.)  A
uniform, slightly smaller step was chosen over one final partial step
so a single matrix factorization still serves every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import ParameterError, SimulationError
from repro.spice.backend import (
    SimulationBackend,
    _inverse_permutation,
    _PatternCsr,
    stack_factorizations,
)
from repro.spice.dc import _dc_solve_rows
from repro.spice.mna import (
    CircuitTemplate,
    MnaStructure,
    _check_initial,
    _concrete_structure,
    _param_columns,
    _recorded_rows,
    _RecordedRows,
)
from repro.spice.netlist import GROUND, Circuit, canonical_node
from repro.tline.waveform import Waveform

__all__ = [
    "TransientResult",
    "TransientBatchResult",
    "simulate_transient",
    "simulate_transient_batch",
]


@dataclass(frozen=True)
class TransientResult:
    """Simulated waveforms for every MNA unknown.

    Attributes
    ----------
    times:
        The simulation grid, shape ``(n_steps + 1,)``; ``times[-1]`` is
        exactly ``t_stop``.
    states:
        Solution matrix, shape ``(n_steps + 1, n_unknowns)``.
    structure:
        The circuit's :class:`~repro.spice.mna.MnaStructure` (for index
        lookups).
    """

    times: np.ndarray
    states: np.ndarray
    structure: MnaStructure

    def voltage(self, node) -> Waveform:
        """Waveform of a node voltage (ground is the zero waveform)."""
        if canonical_node(node) == GROUND:
            return Waveform(self.times, np.zeros_like(self.times))
        row = self.structure.voltage_row(node)
        return Waveform(self.times, self.states[:, row].copy())

    def current(self, element_name: str) -> Waveform:
        """Waveform of a branch current (V sources and inductors)."""
        row = self.structure.current_row(element_name)
        return Waveform(self.times, self.states[:, row].copy())

    @property
    def n_steps(self) -> int:
        """Number of time steps taken."""
        return self.times.size - 1


def simulate_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    initial: str = "dc",
    backend: SimulationBackend | str = "auto",
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> TransientResult:
    """Run a fixed-step trapezoidal transient analysis from ``t = 0``.

    A batch of one: the circuit's structure steps through
    :func:`simulate_transient_batch`, and row 0 of the batch comes back
    as a :class:`TransientResult`.  Circuits holding
    :class:`~repro.spice.netlist.Param` slots are rejected; bind their
    values first, or pass a :class:`~repro.spice.mna.CircuitTemplate`
    to :func:`simulate_transient_batch`.

    Parameters
    ----------
    circuit:
        Netlist to simulate.
    t_stop:
        End time (seconds).  The grid always includes ``t_stop`` as its
        exact last sample (see the module docstring).
    dt:
        Maximum step size; when ``t_stop / dt`` is not an
        integer the actual step shrinks so the grid stays uniform and
        lands exactly on ``t_stop``.  For RLC lines, resolve the
        fastest LC period: a few hundred steps per
        ``2*pi*sqrt(L_seg * C_seg)``.
    initial:
        ``"dc"`` (default; the operating point with sources at ``t = 0``)
        or ``"zero"`` (every unknown at rest, which also sidesteps a
        singular DC matrix); anything else raises
        :class:`~repro.errors.ParameterError`.
    backend:
        Linear-solver implementation: ``"auto"`` (default; picks dense,
        banded or sparse from the system's size and bandwidth), one of
        ``"dense"``/``"sparse"``/``"banded"``, or a
        :class:`~repro.spice.backend.SimulationBackend` instance.
    model:
        Evaluation-model tier: ``"full"`` (default; the exact MNA path),
        ``"reduced"`` (answer from a PRIMA-style projection of order
        ``rom_order``, see :mod:`repro.rom`), or ``"auto"`` (reduced for
        large systems when the a-posteriori error estimate stays under
        ``rom_error_bound``, full otherwise).
        :func:`~repro.rom.model.serve_tiered` records the decision in
        the ``rom.model_selected{model=,rule=}`` and
        ``rom.fallbacks{rule=}`` counters and the span's ``model``,
        ``model_rule`` and ``rom_fallbacks``.
    rom_order:
        Reduced order ``q`` for the non-full tiers (default
        :data:`repro.rom.prima.DEFAULT_ORDER`).
    rom_error_bound:
        Error bound the ``"auto"`` tier enforces before serving a
        reduced answer (default
        :data:`repro.rom.model.DEFAULT_ERROR_BOUND`).

    Returns
    -------
    TransientResult

    Notes
    -----
    With ``initial='dc'`` the operating point sees each source's value at
    ``t = 0``.  An ideal :class:`~repro.spice.netlist.Step` switches
    after its ``t_delay`` (the value at exactly ``t_delay`` is still
    ``v0``), so a unit step at ``t = 0`` -- the paper's input -- starts
    from the pre-step operating point and the first step captures the
    onset.
    """
    structure = _concrete_structure(circuit)
    batch = simulate_transient_batch(
        structure, {}, t_stop, dt, initial=initial, backend=backend,
        model=model, rom_order=rom_order, rom_error_bound=rom_error_bound,
    )
    return TransientResult(
        times=batch.times, states=batch.states[0], structure=structure
    )


# ---------------------------------------------------------------------------
# Batched (lockstep) transient over one circuit template
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransientBatchResult(_RecordedRows):
    """Waveform matrices for a batch of structure-identical circuits.

    Attributes
    ----------
    times:
        Shared grid of shape ``(n_steps + 1,)`` when every batch point
        uses the same span, else per-point grids ``(B, n_steps + 1)``.
        ``n_steps`` counts the steps actually taken: under ``stop_at``
        the grid is the requested one cut after the last point's
        crossing, so it may end before ``t_stop``.
    states:
        Solutions of shape ``(B, n_steps + 1, R)`` where ``R`` is the
        number of recorded MNA rows (all of them unless the simulation
        was given an explicit ``record`` list), over the same steps as
        ``times``.
    structure:
        The shared :class:`~repro.spice.mna.MnaStructure` (for index
        lookups).
    recorded_rows:
        MNA row index of each recorded column, in column order.
    """

    times: np.ndarray
    states: np.ndarray
    structure: MnaStructure
    recorded_rows: tuple[int, ...]

    @property
    def n_steps(self) -> int:
        """Number of time steps taken (shared by every point).

        Fewer than the requested grid's when ``stop_at`` ended the run
        early.
        """
        return self.states.shape[1] - 1

    def times_of(self, point: int) -> np.ndarray:
        """The time grid of one batch point."""
        return self.times if self.times.ndim == 1 else self.times[point]

    def waveform(self, point: int, node) -> Waveform:
        """One point's node voltage as a :class:`~repro.tline.waveform.Waveform`."""
        return Waveform(self.times_of(point), self.voltage(node)[point])


def simulate_transient_batch(
    template: CircuitTemplate | MnaStructure,
    params,
    t_stop,
    dt,
    initial: str = "dc",
    backend: SimulationBackend | str = "auto",
    record: Sequence | None = None,
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
    stop_at: float | None = None,
) -> TransientBatchResult:
    """Step a batch of structure-identical circuits in lockstep.

    The stamp-once / re-value-many counterpart of
    :func:`simulate_transient`: the template's structure is assembled
    and analyzed once (sparsity pattern, RCM/CSC symbolic work, source
    slots), each batch point only rewrites the COO ``data`` arrays and
    refactors numerically, and the time loop advances every point
    together as one block-diagonal system over the stacked ``(B * n,)``
    state, kept in the factorizations' own row order (the RCM order on
    the banded backend): per step, one history matvec, one source add,
    one solve through :func:`~repro.spice.backend.stack_factorizations`
    (a single ``*gttrs`` or ``*gbtrs`` call on the banded backend) and
    one gather of the recorded rows, and points with identical matrices
    share one factorization.  Results match
    :func:`simulate_transient` (itself a batch of one) on
    ``template.bind(point)`` per point (the equivalence suite pins this
    to <= 1e-12 across all backends).

    Parameters
    ----------
    template:
        A :class:`~repro.spice.mna.CircuitTemplate` (or a bare
        :class:`~repro.spice.mna.MnaStructure`).
    params:
        The batch: either a mapping of parameter name to length-``B``
        value columns (scalars broadcast), or a sequence of ``B``
        per-point ``{name: value}`` mappings.  Template defaults fill
        any name not supplied.
    t_stop, dt:
        End time and maximum step, each a scalar or a length-``B``
        array; every grid starts at ``t = 0``.  Every point must resolve to the *same number of steps*
        (lockstep); per-point spans with a shared sample count -- e.g.
        ``dt = span / (n_samples - 1)`` -- satisfy this naturally.
    initial, backend:
        As in :func:`simulate_transient`.
    record:
        Optional sequence of node names (or raw MNA row indices) to
        record; ``None`` records every unknown.  Recording only the
        probed nodes keeps the result at ``O(B * n_steps)`` memory for
        large systems.
    model, rom_order, rom_error_bound:
        Evaluation-model tier, as in :func:`simulate_transient`.  The
        reduced tier composes with the template split: the projection
        is built once (and cached across chunked calls), each value
        point pays only ``O(groups * q^2)`` projected revaluation, and
        under ``model="auto"`` individual points whose error estimate
        exceeds the bound are transparently re-run on the full path.
    stop_at:
        Stop stepping after the step where every point's recorded value
        has risen through this level -- a sample strictly below it
        followed by one at or above it, the transition rule of
        :func:`~repro.tline.waveform.first_crossing` -- and return
        ``times`` and ``states`` cut to the steps taken.  Every returned
        sample is the full run's, so a first-crossing measurement on the
        result is unchanged; if any point never crosses, the whole
        window is stepped.  Needs exactly one recorded row
        (``record=[node]``) and a finite level.  Only the full-tier loop
        stops early: a batch served by the reduced tier, and the
        ``model="auto"`` per-point fallback, keep the whole window.
        ``None`` (the default) always steps the whole window.

    Notes
    -----
    Each *distinct* batch point is factored once, and its factorization
    stays alive for the whole run (a banded batch keeps one copy of the
    LU band per point, duplicates included, side by side); for systems
    of many thousands of unknowns keep batches to a few dozen points and
    chunk larger sweeps (the sweep runner does this automatically).
    """
    initial = _check_initial(initial)
    structure, columns, n_points = _param_columns(template, params)
    size = structure.size

    t_stop = np.broadcast_to(
        np.asarray(t_stop, dtype=float).ravel(), (n_points,)
    )
    dt = np.broadcast_to(np.asarray(dt, dtype=float).ravel(), (n_points,))
    if np.any(dt <= 0) or not np.all(np.isfinite(dt)):
        raise ParameterError("dt must be positive and finite for every point")
    if np.any(t_stop <= 0.0):
        raise ParameterError("t_stop must be positive for every point")
    if stop_at is not None:
        n_recorded = size if record is None else len(record)
        if n_recorded != 1:
            raise ParameterError(
                "stop_at needs exactly one recorded row (record=[node]), "
                f"got {n_recorded}"
            )
        if not math.isfinite(stop_at):
            raise ParameterError(f"stop_at must be finite, got {stop_at}")

    steps = np.maximum(
        1, np.ceil((t_stop / dt) * (1.0 - 1e-12)).astype(int)
    )
    if np.unique(steps).size != 1:
        raise ParameterError(
            f"lockstep batch needs one shared step count, got {sorted(set(steps.tolist()))}; "
            "derive dt from the span (dt = span / n_steps) per point"
        )
    n_steps = int(steps[0])
    dt_eff = t_stop / n_steps
    shared_grid = bool(np.all(t_stop == t_stop[0]))
    if shared_grid:
        times: np.ndarray = np.linspace(0.0, float(t_stop[0]), n_steps + 1)
    else:
        # Per-point grids, each the linspace its point would get alone,
        # so batch and per-point runs sample identical instants.
        times = np.empty((n_points, n_steps + 1))
        for j in range(n_points):
            times[j] = np.linspace(0.0, float(t_stop[j]), n_steps + 1)

    from repro.rom.model import resolve_model

    model = resolve_model(model)

    with obs.span("transient.batch", points=n_points, steps=n_steps) as sp:
        if model != "full":
            reduced_result = _transient_batch_reduced(
                structure, columns, n_points, times, dt_eff, t_stop, dt,
                initial, backend, record, model, rom_order, rom_error_bound,
                sp,
            )
            if reduced_result is not None:
                return reduced_result
        g_data, c_data = structure.revalue_many(columns)
        pattern = structure.combined_pattern()
        backend = structure.resolve_backend(backend)
        factorizer = backend.factorizer(pattern)
        sp.set(n=size, backend=backend.name)
        obs.inc("spice.transient.batch_runs")
        obs.inc("spice.transient.batch_points", n_points)
        obs.observe(
            "spice.transient.batch_width", n_points, buckets=obs.COUNT_BUCKETS
        )
        obs.observe(
            "spice.transient.steps_per_run", n_steps, buckets=obs.COUNT_BUCKETS
        )

        weight = 2.0 / dt_eff

        # Structure-identical points with identical values share one
        # numeric factorization.
        group_of: dict[tuple, int] = {}
        group_members: list[list[int]] = []
        owner = np.empty(n_points, dtype=np.intp)
        for j in range(n_points):
            key = (g_data[j].tobytes(), c_data[j].tobytes(), float(dt_eff[j]))
            slot = group_of.setdefault(key, len(group_members))
            if slot == len(group_members):
                group_members.append([])
            group_members[slot].append(j)
            owner[j] = slot

        factors = []
        for members in group_members:
            j = members[0]
            lhs = np.concatenate([g_data[j], weight[j] * c_data[j]])
            try:
                factors.append(factorizer.refactorize(lhs))
            except SimulationError as exc:
                raise SimulationError(
                    f"singular transient system matrix (backend={backend.name}) "
                    f"at batch point {j}"
                ) from exc
        sp.set(groups=len(factors))
        obs.inc("spice.transient.factorizations", len(factors))
        obs.inc(
            "spice.transient.shared_factorization_reuse",
            n_points - len(factors),
        )
        # The whole batch steps as one block-diagonal system over the
        # stacked (B * n,) state -- point j's vector is x[j * size:(j + 1)
        # * size] -- in the stacked factorization's own row order.  The
        # order is applied once here, to the history operator, the state
        # and the source and recorded rows, so a step is one matvec, one
        # source add, one solve and one gather, each block equal bit for
        # bit to stepping its point alone.  The order keeps every block
        # in place, so its first block is each point's own order.
        stacked = stack_factorizations(factors, owner)
        del factors  # a banded stack holds copies; free the originals
        order, stacked = stacked.in_factor_order()
        hist_op = _PatternCsr(pattern).block_diagonal(
            np.concatenate([-g_data, weight[:, None] * c_data], axis=1),
            None if order is None else order[:size],
        )
        x = _batch_initial_state(
            structure, g_data, initial, backend, group_members
        )

        rec_rows = _recorded_rows(structure, record)
        states = np.empty((n_points, n_steps + 1, rec_rows.size))
        states[:, 0, :] = x[:, rec_rows]
        src_rows, src_terms = _source_terms(structure, times)
        src_terms = np.broadcast_to(
            src_terms, (n_steps, n_points, src_rows.size)
        ).reshape(n_steps, -1)
        x = x.reshape(-1)
        offsets = size * np.arange(n_points)[:, None]
        src_at = (offsets + src_rows).ravel()
        rec_at = (offsets + rec_rows).ravel()
        if order is not None:
            x = x[order]
            position = _inverse_permutation(order)
            src_at, rec_at = position[src_at], position[rec_at]

        steps_run = n_steps
        if stop_at is not None:
            below = states[:, 0, 0] < stop_at
            crossed = np.zeros(n_points, dtype=bool)
        for k in range(n_steps):
            rhs = hist_op @ x
            rhs[src_at] += src_terms[k]
            x = stacked.solve(rhs)
            states[:, k + 1, :] = x[rec_at].reshape(n_points, -1)
            if stop_at is not None:
                value = states[:, k + 1, 0]
                crossed |= below & (value >= stop_at)
                if crossed.all():
                    steps_run = k + 1
                    break
                below = value < stop_at

        if steps_run < n_steps:
            states = states[:, : steps_run + 1]
            times = times[..., : steps_run + 1]
        sp.set(steps_run=steps_run, stopped_early=steps_run < n_steps)
        obs.inc("spice.transient.batch_steps", steps_run)

        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(x))):
            raise SimulationError(
                "batched transient solution diverged (non-finite values); reduce dt"
            )
        return TransientBatchResult(
            times=times,
            states=states,
            structure=structure,
            recorded_rows=rec_rows,
        )


def _transient_batch_reduced(
    structure: MnaStructure,
    columns: dict,
    n_points: int,
    times: np.ndarray,
    dt_eff: np.ndarray,
    t_stop: np.ndarray,
    dt: np.ndarray,
    initial: str,
    backend,
    record,
    model: str,
    rom_order: int | None,
    rom_error_bound: float | None,
    sp,
):
    """Serve a lockstep batch from the reduced tier, or decline.

    Supplies the build, serve and full-rerun callables of
    :func:`~repro.rom.model.serve_tiered`, which makes every tier
    decision.  Returns a :class:`TransientBatchResult`, or ``None`` when
    the whole batch must run on the full path.  The projection is
    resolved through :func:`repro.rom.prima.cached_reduced_template`,
    so chunked sweeps over the same structure pay the Arnoldi build
    once.
    """
    from repro import rom as rom_pkg

    size = structure.size
    # One basis serves the whole batch: project at the box midpoint and
    # enrich so accuracy holds across the value range, not just near
    # one point.  On a shared time grid the enrichment is POD-style --
    # full-path transient trajectories at the box center and corners
    # feed the basis (snapshots track strongly coupled structures far
    # better per column than corner Krylov unions) -- and the snapshot
    # collection cost is paid only on a projection-cache miss.
    # Per-point grids keep the corner-Krylov enrichment instead.
    nominal, samples = rom_pkg.corner_samples(columns)
    sample_params: tuple = samples
    snapshot_key = None
    snapshot_builder = None
    if samples and times.ndim == 1:
        n_steps = times.shape[0] - 1
        snapshot_key = (samples, n_steps, float(t_stop[0]), initial)
        sample_params = ()
        snap_points = [nominal] + [dict(point) for point in samples]

        def snapshot_builder():
            result = simulate_transient_batch(
                structure,
                snap_points,
                float(t_stop[0]),
                float(t_stop[0]) / n_steps,
                initial=initial,
                backend=backend,
                model="full",
            )
            return result.states.reshape(-1, size).T

    def build():
        return rom_pkg.cached_reduced_template(
            structure, rom_order, nominal, backend=backend,
            sample_params=sample_params,
            snapshot_key=snapshot_key,
            snapshot_builder=snapshot_builder,
        )

    rec_rows = _recorded_rows(structure, record)

    def serve(reduced_template, estimates):
        return rom_pkg.reduced_transient_batch(
            reduced_template, columns, times, dt_eff, initial, rec_rows,
            estimates=estimates,
        )

    def full_rerun(bad):
        return simulate_transient_batch(
            structure,
            columns.take(bad),
            t_stop[bad],
            dt[bad],
            initial=initial,
            backend=backend,
            record=record,
            model="full",
        ).states

    states = rom_pkg.serve_tiered(
        model, size, n_points, rom_error_bound, build, serve, full_rerun, sp
    )
    if states is None:
        return None
    return TransientBatchResult(
        times=times,
        states=states,
        structure=structure,
        recorded_rows=rec_rows,
    )


def _source_terms(
    structure: MnaStructure, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each step's source increment ``b``, at the source rows only.

    Returns ``(rows, terms)``: step ``k`` adds ``terms[k]`` -- ``b`` at
    ``t_{k+1}`` plus ``b`` at ``t_k``, the trapezoidal rule's -- to
    ``rows`` of every point's right-hand side.  ``terms[k]`` has shape
    ``(1, R)`` on a shared grid and ``(B, R)`` on per-point grids.  The
    other rows of ``b`` are zero, and the history product they would be
    added to is never ``-0.0``, so skipping them changes no bit.  Every
    source waveform is evaluated once over the whole grid; evaluation is
    elementwise, so each value equals a per-step evaluation's.
    """
    rows, b = structure.source_rhs(np.atleast_2d(times))  # (1 or B, K + 1, R)
    return rows, (b[:, 1:] + b[:, :-1]).transpose(1, 0, 2)


def _batch_initial_state(
    structure: MnaStructure,
    g_data: np.ndarray,
    initial: str,
    backend: SimulationBackend,
    group_members: list[list[int]],
) -> np.ndarray:
    """Per-point start states at ``t = 0`` as a ``(B, n)`` matrix."""
    size = structure.size
    n_points = g_data.shape[0]
    if initial == "zero":
        return np.zeros((n_points, size))
    # One DC solve per distinct G among the factorization groups.
    leaders = [members[0] for members in group_members]
    solved = _dc_solve_rows(
        backend.factorizer(structure.g_pattern()),
        g_data[leaders],
        structure.rhs(),
        lambda i: (
            "singular DC system while computing the initial operating "
            f"point of batch point {leaders[i]}; pass initial='zero'"
        ),
    )
    x = np.empty((n_points, size))
    for members, x0 in zip(group_members, solved):
        x[members] = x0[None, :]
    return x
