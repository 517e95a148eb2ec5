"""Small-signal AC analysis.

Solves the phasor system ``(G + j*omega*C) X = B`` over a frequency sweep,
with every independent source replaced by its AC magnitude (unit for the
designated input source, zero for the rest -- the classic SPICE ``.AC``
semantics with a single stimulated source).

Each frequency point assembles ``G + j*omega*C`` directly in triplet
form and factors it through a pluggable
:class:`~repro.spice.backend.SimulationBackend`; no dense matrix is
ever rebuilt per frequency unless the dense backend itself is the best
fit.  The backend is resolved once per sweep from the (frequency
independent) union pattern of ``G`` and ``C``, so a 1000-segment ladder
sweep runs on the banded or sparse path end to end.

:func:`ac_sweep_batch` is the one evaluation path; the scalar
:func:`ac_sweep` is a batch of one over the circuit's own structure, and
``model="reduced"``/``"auto"`` requests of either go through the one
tier policy, :func:`repro.rom.model.serve_tiered`.

The primary use here is validation: the AC response of an ``n``-segment
ladder must match the cascaded lumped two-port of :mod:`repro.tline.abcd`
exactly, and must converge to the exact distributed line as ``n`` grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import NetlistError, SimulationError
from repro.spice.backend import SimulationBackend, resolve_backend
from repro.spice.mna import (
    CircuitTemplate,
    MnaStructure,
    _concrete_structure,
    _param_columns,
    _recorded_rows,
    _RecordedRows,
)
from repro.spice.netlist import GROUND, Circuit, VoltageSource, canonical_node

__all__ = ["AcResult", "AcBatchResult", "ac_sweep", "ac_sweep_batch"]

#: Most frequencies, spread evenly over a sweep (ends included), at
#: which ``model="auto"`` checks the exact residual of every point.
_AC_PROBES = 8


@dataclass(frozen=True)
class AcResult:
    """Complex node spectra from an AC sweep.

    Attributes
    ----------
    omegas:
        The angular-frequency grid, shape ``(F,)``.
    states:
        Solutions of shape ``(F, n_unknowns)``, complex.
    structure:
        The circuit's :class:`~repro.spice.mna.MnaStructure` (for index
        lookups).
    """

    omegas: np.ndarray
    states: np.ndarray
    structure: MnaStructure

    def voltage(self, node) -> np.ndarray:
        """Complex voltage spectrum of ``node``."""
        if canonical_node(node) == GROUND:
            return np.zeros_like(self.omegas, dtype=complex)
        return self.states[:, self.structure.voltage_row(node)].copy()

    def current(self, element_name: str) -> np.ndarray:
        """Complex branch-current spectrum (V sources, inductors, ...)."""
        return self.states[:, self.structure.current_row(element_name)].copy()

    def transfer(self, node_out, node_in) -> np.ndarray:
        """``V(node_out) / V(node_in)`` across the sweep."""
        vin = self.voltage(node_in)
        if np.any(vin == 0):
            raise SimulationError("input node has zero AC voltage at some point")
        return self.voltage(node_out) / vin


def ac_sweep(
    circuit: Circuit,
    omegas,
    input_source: str | None = None,
    backend: SimulationBackend | str = "auto",
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> AcResult:
    """Run an AC sweep over angular frequencies ``omegas``.

    A batch of one: the circuit's structure runs through
    :func:`ac_sweep_batch`, and row 0 of the batch comes back as an
    :class:`AcResult`.  Circuits holding
    :class:`~repro.spice.netlist.Param` slots are rejected; bind their
    values first, or pass a :class:`~repro.spice.mna.CircuitTemplate`
    to :func:`ac_sweep_batch`.

    Parameters
    ----------
    circuit:
        The netlist.  Exactly one voltage source is stimulated with unit
        magnitude; the others are shorted (zero AC value).
    omegas:
        Angular frequencies (rad/s); zero is allowed if the DC system is
        nonsingular.
    input_source:
        Name of the stimulated voltage source.  May be omitted when the
        circuit contains exactly one voltage source.
    backend:
        Linear-solver implementation (``"auto"``, ``"dense"``,
        ``"sparse"``, ``"banded"``, or a
        :class:`~repro.spice.backend.SimulationBackend` instance),
        shared by every frequency point.
    model:
        Evaluation-model tier: ``"full"`` (default; per-frequency
        factorizations of ``G + j*omega*C``), ``"reduced"`` (phasor
        solves on a PRIMA projection, see :mod:`repro.rom`), or
        ``"auto"`` (reduced for large systems when the error estimate
        of :func:`ac_sweep_batch` stays under ``rom_error_bound``, full
        otherwise).  :func:`~repro.rom.model.serve_tiered` records the
        decision in the ``rom.model_selected{model=,rule=}`` and
        ``rom.fallbacks{rule=}`` counters and the span's ``model``,
        ``model_rule`` and ``rom_fallbacks``.
    rom_order:
        Reduced order ``q`` for the non-full tiers (default
        :data:`repro.rom.prima.DEFAULT_ORDER`).
    rom_error_bound:
        Error bound the ``"auto"`` tier enforces before serving a
        reduced answer (default
        :data:`repro.rom.model.DEFAULT_ERROR_BOUND`).
    """
    structure = _concrete_structure(circuit)
    batch = ac_sweep_batch(
        structure, {}, omegas,
        input_source=_resolve_input_source(circuit, input_source),
        backend=backend, model=model, rom_order=rom_order,
        rom_error_bound=rom_error_bound,
    )
    return AcResult(
        omegas=batch.omegas, states=batch.states[0], structure=structure
    )


def _resolve_input_source(circuit: Circuit, input_source: str | None) -> str:
    """Pick (or validate) the stimulated voltage source's name."""
    v_sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
    if input_source is None:
        if len(v_sources) != 1:
            raise NetlistError(
                "input_source must be named when the circuit has "
                f"{len(v_sources)} voltage sources"
            )
        return v_sources[0].name
    if input_source not in {e.name for e in v_sources}:
        raise NetlistError(f"no voltage source named {input_source!r}")
    return input_source


@dataclass(frozen=True)
class AcBatchResult(_RecordedRows):
    """Complex node spectra for a batch of structure-identical circuits.

    Attributes
    ----------
    omegas:
        The shared angular-frequency grid, shape ``(F,)``.
    states:
        Solutions of shape ``(B, F, R)`` where ``R`` is the number of
        recorded MNA rows (all of them unless ``record`` was given).
    structure:
        The shared :class:`~repro.spice.mna.MnaStructure`.
    recorded_rows:
        MNA row index of each recorded column, in column order.
    """

    omegas: np.ndarray
    states: np.ndarray
    structure: MnaStructure
    recorded_rows: tuple[int, ...]

    def transfer(self, node_out, node_in) -> np.ndarray:
        """``V(node_out) / V(node_in)`` per point, shape ``(B, F)``."""
        vin = self.voltage(node_in)
        if np.any(vin == 0):
            raise SimulationError("input node has zero AC voltage at some point")
        return self.voltage(node_out) / vin


def ac_sweep_batch(
    template: CircuitTemplate | MnaStructure,
    params,
    omegas,
    input_source: str | None = None,
    backend: SimulationBackend | str = "auto",
    record: Sequence | None = None,
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> AcBatchResult:
    """Run an AC sweep over a batch of structure-identical circuits.

    The stamp-once / re-value-many counterpart of :func:`ac_sweep`:
    the template's MNA structure, the backend choice, and the
    pattern-dependent factorization work are all shared across every
    ``(point, frequency)`` pair; each pair pays only a numeric
    refactorization of the revalued ``G + j*omega*C`` data.  Results
    match per-point :func:`ac_sweep` runs over ``template.bind(point)``
    to <= 1e-12 on every backend (pinned by the equivalence suite);
    :func:`ac_sweep` itself is this function on a batch of one.

    Parameters
    ----------
    template:
        The parameterized circuit
        (:class:`~repro.spice.mna.CircuitTemplate`), or a bare
        :class:`~repro.spice.mna.MnaStructure`.
    params:
        Batch parameter values: a mapping of name to length-``B``
        columns (scalars broadcast) or a sequence of per-point dicts;
        template defaults fill missing names.
    omegas:
        Angular frequencies (rad/s), shared by every point.
    input_source:
        Stimulated voltage source name; may be omitted when a template
        has exactly one voltage source (a bare structure needs it).
    backend:
        Linear-solver implementation, resolved once on the union
        pattern.
    record:
        Optional node names (or MNA row indices) to record; ``None``
        records every unknown.
    model, rom_order, rom_error_bound:
        Evaluation-model tier, as in :func:`ac_sweep`.  The reduced
        tier composes with the template split: the projection is built
        once per structure (cached across calls, enriched at the value
        box corners), every ``(point, frequency)`` pair is a dense
        ``q x q`` phasor solve, and under ``model="auto"`` individual
        points whose error estimate (moment error, nested-suborder
        defect and exact probe residual) exceeds the bound are
        transparently re-run on the full path.
    """
    from repro.rom.model import resolve_model

    model = resolve_model(model)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    structure, columns, n_points = _param_columns(template, params)

    with obs.span(
        "ac.batch", points=n_points, frequencies=omegas.size
    ) as sp:
        if isinstance(template, CircuitTemplate):
            input_source = _resolve_input_source(
                template.circuit, input_source
            )
        elif input_source is None:
            raise NetlistError(
                "input_source must be named for an MnaStructure"
            )
        input_row = structure.current_row(input_source)
        rec_rows = _recorded_rows(structure, record)
        if model != "full":
            reduced_result = _ac_batch_reduced(
                structure, columns, n_points, omegas, input_row, backend,
                rec_rows, model, rom_order, rom_error_bound, sp,
            )
            if reduced_result is not None:
                return reduced_result

        states, backend_name, shared_reuse = _ac_batch_full_states(
            structure, columns, omegas, input_row, backend, rec_rows
        )
        sp.set(n=structure.size, backend=backend_name)
        obs.inc("spice.ac.batch_runs")
        obs.inc("spice.ac.batch_points", n_points)
        obs.observe(
            "spice.ac.batch_width", n_points, buckets=obs.COUNT_BUCKETS
        )
        if shared_reuse:
            obs.inc("spice.ac.shared_sweep_reuse", shared_reuse)
        return AcBatchResult(
            omegas=omegas,
            states=states,
            structure=structure,
            recorded_rows=rec_rows,
        )


def _ac_batch_full_states(
    structure: MnaStructure,
    columns,
    omegas: np.ndarray,
    input_row: int,
    backend,
    rec_rows: np.ndarray,
) -> tuple[np.ndarray, str, int]:
    """Full-MNA per-point AC spectra for one value batch.

    The revalue / per-point phasor loop shared by the ``model="full"``
    path of :func:`ac_sweep_batch` and the per-point fallback of the
    ``"auto"`` tier.  Returns ``(states, backend_name, shared_reuse)``
    with ``states`` of shape ``(B, F, R)``; the shared-sweep reuse
    count is tallied locally and reported by the caller so the
    per-point path stays free of instrumentation (OBS001).
    """
    g_data, c_data = structure.revalue_many(columns)
    n_points = g_data.shape[0]
    pattern = structure.combined_pattern()
    backend = resolve_backend(backend, pattern.scaled(1.0 + 0.0j))
    factorizer = backend.factorizer(pattern)
    b = np.zeros(structure.size, dtype=complex)
    b[input_row] = 1.0

    states = np.empty((n_points, omegas.size, rec_rows.size), dtype=complex)
    seen: dict[bytes, int] = {}
    shared_reuse = 0
    for j in range(n_points):
        key = g_data[j].tobytes() + c_data[j].tobytes()
        first = seen.setdefault(key, j)
        if first != j:
            states[j] = states[first]
            shared_reuse += 1
            continue
        g_j = g_data[j].astype(complex)
        c_j = c_data[j]
        for k, w in enumerate(omegas):
            data = np.concatenate([g_j, 1j * w * c_j])
            try:
                x = factorizer.refactorize(data).solve(b)
            except SimulationError as exc:
                raise SimulationError(
                    f"singular AC system at omega = {w:g} (batch point {j})"
                ) from exc
            states[j, k] = x[rec_rows]
    return states, backend.name, shared_reuse


def _ac_batch_solve(
    gq: np.ndarray, cq: np.ndarray, vq: np.ndarray, omegas: np.ndarray
) -> np.ndarray:
    """Stacked reduced phasor solves, one frequency at a time.

    ``gq``/``cq`` are ``(B, q, q)`` projected matrices, ``vq`` the
    shared projected stimulus ``(q,)``.  Looping over frequencies keeps
    the working set at one ``(B, q, q)`` complex block instead of
    materializing all ``B * F`` systems at once.  Returns reduced
    states of shape ``(B, F, q)``.
    """
    n_points, q = gq.shape[0], gq.shape[1]
    z = np.empty((n_points, omegas.size, q), dtype=complex)
    rhs = np.broadcast_to(vq, (n_points, q))[:, :, None]
    for k, w in enumerate(omegas):
        try:
            z[:, k, :] = np.linalg.solve(gq + 1j * w * cq, rhs)[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"singular reduced AC system at omega = {w:g}"
            ) from exc
    return z


def _ac_batch_reduced(
    structure: MnaStructure,
    columns,
    n_points: int,
    omegas: np.ndarray,
    input_row: int,
    backend,
    rec_rows: np.ndarray,
    model: str,
    rom_order: int | None,
    rom_error_bound: float | None,
    sp,
):
    """Serve a batched AC sweep from the reduced tier, or decline.

    Supplies the build, serve and full-rerun callables of
    :func:`~repro.rom.model.serve_tiered`, which makes every tier
    decision and forms every estimate.  Returns an
    :class:`AcBatchResult`, or ``None`` when the whole batch must run on
    the full path.  The projection comes from
    :func:`repro.rom.prima.cached_reduced_template` at the value box
    midpoint, Krylov-enriched at the box corners, so repeated sweeps
    over one structure pay the build once; per-point projected matrices
    are ``O(groups * q^2)`` revaluations.  Each point's ``"auto"``
    evidence is the larger of its nested-suborder convergence defect
    and its exact relative residual
    ``||(G_j + jw C_j) V z - e_input|| / ||e_input||`` at up to
    :data:`_AC_PROBES` frequencies spread across the sweep
    (:meth:`~repro.rom.prima.ReducedTemplate.ac_residuals`).
    """
    from repro import rom as rom_pkg
    from repro.rom.prima import _suborder_defect

    nominal, samples = rom_pkg.corner_samples(columns)

    def build():
        return rom_pkg.cached_reduced_template(
            structure, rom_order, nominal, backend=backend,
            sample_params=samples,
        )

    def serve(reduced, estimates):
        q = reduced.order
        gq, cq = reduced.reduce_many(columns)
        vq = reduced.projected_unit_rhs(input_row).astype(complex)
        z = _ac_batch_solve(gq, cq, vq, omegas)
        rec_basis = reduced.basis[rec_rows]
        states = z @ rec_basis.T
        if not estimates:
            return states, None
        evidence = np.zeros(n_points)
        q2 = reduced.suborder()
        if q2 < q:
            try:
                z2 = _ac_batch_solve(
                    gq[:, :q2, :q2], cq[:, :q2, :q2], vq[:q2], omegas
                )
                evidence = _suborder_defect(states, z2 @ rec_basis[:, :q2].T)
            except SimulationError:
                evidence[:] = np.inf
        n_probes = min(omegas.size, _AC_PROBES)
        probes = np.unique(
            np.linspace(0, omegas.size - 1, n_probes).astype(np.intp)
        )
        g_data, c_data = structure.revalue_many(columns)
        for j in range(n_points):
            residuals = reduced.ac_residuals(
                input_row, omegas[probes], z[j, probes],
                structure.g_plan.coo(g_data[j]).to_csr(),
                structure.c_plan.coo(c_data[j]).to_csr(),
            )
            evidence[j] = np.maximum(evidence[j], np.max(residuals))
        return states, evidence

    def full_rerun(bad):
        full_states, _backend_name, shared_reuse = _ac_batch_full_states(
            structure, columns.take(bad),
            omegas, input_row, backend, rec_rows,
        )
        if shared_reuse:
            obs.inc("spice.ac.shared_sweep_reuse", shared_reuse)
        return full_states

    states = rom_pkg.serve_tiered(
        model, structure.size, n_points, rom_error_bound, build, serve,
        full_rerun, sp,
    )
    if states is None:
        return None
    return AcBatchResult(
        omegas=omegas,
        states=states,
        structure=structure,
        recorded_rows=rec_rows,
    )
