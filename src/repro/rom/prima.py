"""PRIMA-style block-Arnoldi model-order reduction of MNA systems.

Projects the full MNA description ``G x + C dx/dt = B w(t)`` onto an
orthonormal basis ``V`` of the block Krylov space

    span{ G^-1 B, (G^-1 C) G^-1 B, (G^-1 C)^2 G^-1 B, ... }

truncated at order ``q << n`` (PRIMA: passive reduced-order interconnect
macromodeling, Odabasioglu/Celik/Pileggi).  The congruence-projected
system

    Gq z + Cq dz/dt = Bq w(t),    Gq = V^T G V,  Cq = V^T C V,  Bq = V^T B

matches the first ``floor(q / m)`` block moments of the original
transfer function (``m`` input columns) and answers transient, AC and
delay queries from dense ``q x q`` solves; full-space waveforms are
recovered as ``x ~= V z``.

:class:`ReducedTemplate` is the one projection object.  It composes
with the stamp-once / re-value-many split of
:class:`~repro.spice.mna.MnaStructure`: the basis is built once at a
nominal parameter point and each COO revaluation *group* is
pre-projected to a ``q x q`` matrix, so a value-only batch point costs
``O(groups * q^2)`` -- no O(nnz) work per point -- and the batched
reduced recurrence (:func:`reduced_transient_batch`) integrates every
point with stacked ``q x q`` operations.  A concrete circuit is
projected with ``ReducedTemplate(build_mna_structure(circuit), order=q)``.

Every reduced answer carries pinned a-posteriori error evidence: the
build-time error (:attr:`ReducedTemplate.base_error`, the
moment-matching defect of a Krylov basis), the nested-suborder
convergence defect (:func:`_suborder_defect`; basis prefixes stay
orthonormal, so re-answering with the weakest trailing direction
dropped and comparing outputs costs only ``O(q^2)`` per point), and
for AC the exact per-point residual ``||(G + jwC) V z - e|| / ||e||``
at probe frequencies (:meth:`ReducedTemplate.ac_residuals`).
:func:`repro.rom.model.serve_tiered` folds them into one estimate per
point, and ``model="auto"`` falls back to full MNA wherever it exceeds
the requested bound.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

import numpy as np
import scipy.linalg
import scipy.sparse

from repro import obs
from repro._cpus import usable_cpus
from repro.errors import ParameterError, SimulationError
from repro.spice.backend import SimulationBackend, resolve_backend
from repro.spice.mna import (
    CircuitTemplate,
    MnaStructure,
    _check_initial,
    _key_values,
    _MatrixPlan,
    _param_columns,
)

__all__ = [
    "DEFAULT_ORDER",
    "ReducedTemplate",
    "corner_samples",
    "cached_reduced_template",
    "reduced_transient_batch",
]

#: Default reduced order ``q``.  With ``m`` input columns this matches
#: ``floor(q / m)`` block moments; 48 holds the paper's bus workloads
#: (8 coupled drivers) to well under the auto-tier error bound.
DEFAULT_ORDER = 48

#: A candidate basis vector whose norm collapses below this fraction of
#: its pre-orthogonalization norm is linearly dependent on the span
#: already collected and is deflated (dropped).
_DEFLATION_TOL = 1e-10

#: Block-moment orders compared in the build-time matching check.
_MOMENT_CHECK_MAX = 5

#: Retained entries in the cross-call projection cache.
_CACHE_LIMIT = 4

#: Relative singular-value cutoff when merging per-sample Arnoldi bases
#: into one orthonormal union.  Directions below the cutoff are noise
#: from near-parallel sample bases; keeping them destabilizes the
#: projected recurrence (observed blow-up with a plain QR union), while
#: cutting too aggressively (1e-4..1e-6) leaves visible waveform error.
_UNION_TOL = 1e-8

#: Looser cutoff used when trajectory snapshots are in the union: the
#: snapshot Gram spectrum decays smoothly and the directions below
#: 1e-6 of the leading one carry no signal, only round-off that makes
#: the projected DC matrix needlessly ill-conditioned.
_SNAPSHOT_TOL = 1e-6

#: Default cap on the achieved order of a snapshot-enriched basis.
#: Batched per-point integration work grows as ``q^2``..``q^3``; on the
#: bus acceptance workload the measured trade-off runs ~0.95% worst-case
#: 50% delay error at q = 88, ~0.61% at q = 92, ~0.46% at q = 96, with
#: each step of 4 costing ~5% more batch time -- q = 92 keeps the
#: reduced tier >20x faster than the full chunked batch path with a
#: comfortable margin inside the 1% delay budget.
_SNAPSHOT_ORDER_CAP = 92

#: Points per block of the batched reduced serve
#: (:func:`reduced_transient_batch`).  A block's step operators (about
#: ``16 * q^2`` doubles, ~1 MB at q = 92) stay cache-resident across the
#: recurrence, where one 256-wide stack streams ~17 MB from memory on
#: every step.  The size must stay a multiple of the BLAS kernels' row
#: unroll, so that each point's rounding does not depend on its block
#: and blocked serves agree bit for bit with one wide stack (measured
#: with OpenBLAS on x86-64: 8, 12, 16 and 32 agree, 5 does not).  8, 16
#: and 32 served the 256-point bus batch within noise of each other;
#: 256 (unblocked) was about 1.5x slower.  Blocks are independent and
#: run concurrently (:func:`_run_blocks`); a point's bits depend on
#: neither its block nor the worker count.
_SERVE_BLOCK = 16

#: Corner-sample budget for parameter boxes: with ``k`` varying
#: parameters a box has ``2^k`` corners, so full enumeration is capped
#: and wide boxes degrade to the all-min / all-max diagonal corners.
_CORNER_LIMIT = 4


def _row_signs(branch_index: Mapping[str, int], n: int) -> np.ndarray:
    """Row-sign vector ``d`` restoring definiteness of the MNA stamps.

    This repo's MNA assembly stamps inductor branch rows as
    ``v_a - v_b - L dI/dt = 0``, which puts ``-L`` on the diagonal of
    ``C`` -- so neither ``C`` nor ``G + G^T`` is positive semidefinite
    and a plain congruence projection carries *no* stability guarantee
    (observed: reduced bus models with perfect moment matching whose
    transients overflow).  Negating the branch rows recovers the
    classic passive form (``C' = diag(C_nodes, L)`` PSD,
    ``G' + G'^T`` PSD), and then a congruence projection with any
    full-column-rank basis yields a stable reduced pencil.  The Krylov
    space is untouched: ``(DG)^{-1}(DC) = G^{-1}C``.
    """
    d = np.ones(n)
    for row in branch_index.values():
        d[row] = -1.0
    return d


def _block_arnoldi(g_fact, c_csr, b_dense: np.ndarray, q_max: int) -> np.ndarray:
    """Orthonormal block-Krylov basis ``V`` of ``span{(G^-1 C)^k G^-1 B}``.

    ``g_fact`` is a :class:`~repro.spice.backend.LinearFactorization` of
    ``G``; each block is orthogonalized against the accumulated basis
    with two modified-Gram-Schmidt passes and deflated per column.
    Returns ``V`` with at most ``q_max`` columns (fewer if the Krylov
    space is exhausted first).
    """
    n = b_dense.shape[0]
    v = np.empty((n, q_max))
    k = 0
    block = np.atleast_2d(np.asarray(g_fact.solve_many(b_dense), dtype=float))
    if block.shape[0] != n:
        block = block.T
    while k < q_max and block.shape[1]:
        kept: list[int] = []
        for i in range(block.shape[1]):
            cand = block[:, i].copy()
            norm0 = float(np.linalg.norm(cand))
            if norm0 == 0.0 or not np.isfinite(norm0):
                continue
            for _ in range(2):
                if k:
                    cand -= v[:, :k] @ (v[:, :k].T @ cand)
            norm = float(np.linalg.norm(cand))
            if norm <= _DEFLATION_TOL * norm0:
                continue
            v[:, k] = cand / norm
            kept.append(k)
            k += 1
            if k == q_max:
                break
        if not kept or k == q_max:
            break
        block = np.asarray(g_fact.solve_many(c_csr @ v[:, kept]), dtype=float)
        if block.ndim == 1:
            block = block[:, None]
    return v[:, :k].copy()


def _union_basis(parts: list[np.ndarray], tol: float = _UNION_TOL) -> np.ndarray:
    """Orthonormal union of several bases, rank-revealed via the Gram matrix.

    Columns come back ordered by decreasing singular value of the
    stacked input, so truncating trailing columns drops the directions
    the sample bases agree least about -- the ordering the nested
    suborder check relies on for enriched bases.  The rank revelation
    runs on the small ``k x k`` Gram matrix rather than a full ``n x k``
    SVD: for the n ~ 5000 snapshot unions of the batch path that is the
    difference between a few tens of milliseconds and several hundred,
    and the kept directions sit at least ``tol`` above the noise floor
    so the squared conditioning of the Gram route stays harmless.
    """
    stacked = np.hstack([p for p in parts if p.shape[1]])
    gram = stacked.T @ stacked
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    keep = eigvals > (tol * tol) * eigvals[0]
    return stacked @ (eigvecs[:, keep] / np.sqrt(eigvals[keep]))


def _moment_defect(g_fact, c_csr, b_dense, basis, gq_lu, cq, bq, n_orders) -> float:
    """Worst relative mismatch of the first ``n_orders`` block moments.

    Runs the full recurrence ``N_{i+1} = G^-1 C N_i`` (from
    ``N_0 = G^-1 B``) and the reduced counterpart with *shared* per-order
    Frobenius normalization, so high orders never underflow; each order
    contributes ``||N_i - V n_i||_F`` with ``||N_i||_F = 1``.  Near
    machine epsilon for a well-conditioned build; growth signals
    ill-conditioning in the projection.
    """
    full = np.asarray(g_fact.solve_many(b_dense), dtype=float)
    if full.ndim == 1:
        full = full[:, None]
    red = scipy.linalg.lu_solve(gq_lu, bq, check_finite=False)
    worst = 0.0
    for i in range(n_orders):
        scale = float(np.linalg.norm(full))
        if scale == 0.0 or not np.isfinite(scale):
            break
        full = full / scale
        red = red / scale
        worst = max(worst, float(np.linalg.norm(full - basis @ red)))
        if i + 1 < n_orders:
            full = np.asarray(g_fact.solve_many(c_csr @ full), dtype=float)
            if full.ndim == 1:
                full = full[:, None]
            red = scipy.linalg.lu_solve(gq_lu, cq @ red, check_finite=False)
    return worst


def _build_projection(
    structure: MnaStructure,
    nominal: dict[str, float],
    order: int | None,
    backend: SimulationBackend | str,
    sample_params: tuple,
    snapshots: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """PRIMA basis of ``structure`` at ``nominal``: ``(V, signs, Bq, defect)``.

    Factors ``G`` once through the resolved backend, grows the block
    Krylov basis from the independent-source columns, forms the
    sign-corrected projected input map (see :func:`_row_signs`) and runs
    the build-time moment-matching check; see :class:`ReducedTemplate`
    for the sample and snapshot enrichment.
    """
    with obs.span("rom.build") as sp:
        n = structure.size
        if sample_params and snapshots is not None:
            raise ParameterError(
                "pass sample_params or snapshots, not both: a snapshot "
                "basis has no Krylov block to enrich"
            )
        # (G as COO, C as CSR) at the nominal point, then at each sample.
        g_data, c_data = structure.revalue_many(
            [nominal, *({**nominal, **dict(p)} for p in sample_params)]
        )
        pencils = [
            (structure.g_plan.coo(g), structure.c_plan.coo(c).to_csr())
            for g, c in zip(g_data, c_data)
        ]
        (g_coo, c_csr), samples = pencils[0], pencils[1:]
        m = len(structure.source_rows)
        if m == 0:
            raise SimulationError(
                "reduced-order projection needs at least one independent "
                "source (the Krylov space starts from the source columns)"
            )
        if order is None:
            q_req = DEFAULT_ORDER if snapshots is None else _SNAPSHOT_ORDER_CAP
        else:
            q_req = int(order)
        if q_req < 1:
            raise ParameterError(f"rom order must be >= 1, got {order!r}")
        backend = resolve_backend(backend, g_coo)
        try:
            g_fact = backend.factorize(g_coo)
        except SimulationError as exc:
            raise SimulationError(
                "singular DC (G) matrix; cannot build a reduced-order basis "
                f"(backend={backend.name})"
            ) from exc
        b_dense = np.zeros((n, m))
        for s, (row, sign, _waveform) in enumerate(structure.source_rows):
            b_dense[row, s] = sign

        arnoldi_q = min(q_req, n)
        if snapshots is None:
            basis = _block_arnoldi(g_fact, c_csr, b_dense, arnoldi_q)
        else:
            # No Krylov block joins a snapshot basis: under the order cap
            # every unit-norm Krylov column the energy cut admits
            # displaces a snapshot direction, and the snapshots already
            # hold the DC operating points (the trajectories start
            # there).  Measured on the bus acceptance workload, mixing
            # 16 Krylov columns in nearly triples the worst-case 50%
            # delay error at the same q (1.21% vs 0.46% at q = 96).
            basis = np.empty((n, 0))
        moment_depth = basis.shape[1]
        if samples:
            parts = [basis]
            for sample_g, sample_c in samples:
                try:
                    sample_fact = backend.factorize(sample_g)
                except SimulationError as exc:
                    raise SimulationError(
                        "singular DC (G) matrix at a sample point; cannot "
                        f"enrich the reduced basis (backend={backend.name})"
                    ) from exc
                parts.append(
                    _block_arnoldi(sample_fact, sample_c, b_dense, arnoldi_q)
                )
            basis = _union_basis(parts)
            moment_depth = basis.shape[1]
        if snapshots is not None:
            snap = np.asarray(snapshots, dtype=float)
            if snap.ndim != 2 or snap.shape[0] != n:
                raise ParameterError(
                    f"snapshots must have shape ({n}, k), got {snap.shape}"
                )
            norms = np.linalg.norm(snap, axis=0)
            live = norms > 0.0
            if np.any(live):
                # POD cut by energy alone.  Moment matching becomes
                # approximate -- the one-order build-time defect reports
                # how approximate, which is what the auto tier folds
                # into its estimates.
                # Contiguous, so sparse products need no copy of it and
                # the cached template keeps no wider parent array alive.
                basis = np.ascontiguousarray(
                    _union_basis([snap[:, live] / norms[live]], _SNAPSHOT_TOL)[
                        :, :q_req
                    ]
                )
        if basis.shape[1] == 0 or not np.all(np.isfinite(basis)):
            raise SimulationError(
                "block-Arnoldi basis construction failed (empty or "
                "non-finite basis)"
            )
        g_csr = g_coo.to_csr()
        signs = _row_signs(structure.branch_index, n)
        gq = basis.T @ (signs[:, None] * (g_csr @ basis))
        cq = basis.T @ (signs[:, None] * (c_csr @ basis))
        bq = basis.T @ (signs[:, None] * b_dense)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            gq_lu = scipy.linalg.lu_factor(gq, check_finite=False)
        n_orders = max(1, min(moment_depth // m, _MOMENT_CHECK_MAX))
        moment_error = _moment_defect(
            g_fact, c_csr, b_dense, basis, gq_lu, cq, bq, n_orders
        )
        if not np.isfinite(moment_error):
            raise SimulationError(
                "reduced-order moment check produced non-finite values "
                "(singular projected Gq?)"
            )
        obs.inc("rom.projection_builds")
        obs.observe("rom.order", basis.shape[1], buckets=obs.COUNT_BUCKETS)
        sp.set(
            n=n,
            order=basis.shape[1],
            inputs=m,
            backend=backend.name,
            samples=len(sample_params),
            snapshots=0 if snapshots is None else int(snapshots.shape[1]),
        )
        return basis, signs, bq, float(moment_error)


def _project_plan(
    plan: _MatrixPlan, basis: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, tuple[tuple[tuple, np.ndarray], ...]]:
    """Pre-project one revaluation plan onto the sign-corrected basis.

    A revalued matrix is ``A(p) = scatter(const) + sum_g expr_g(p) *
    scatter(coeffs_g)``, so its congruence projection splits the same
    way: ``V^T D A(p) V = Mconst + sum_g expr_g(p) * M_g`` with each
    ``M_g = V^T D scatter(coeffs_g) V`` a fixed ``q x q`` matrix
    (``D = diag(signs)`` as in :func:`_row_signs`).  This is the key to
    O(groups * q^2) per-point revaluation in reduced space: the O(nnz)
    projection work happens exactly once here.

    Each part touches only its own rows: with ``R`` the distinct rows of
    its nonzero slots and ``S`` those slots as an ``|R| x n`` CSR
    (duplicate slots summed), ``M = (D V)[R]^T (S V)``.  Zero ``const``
    slots (every parameter-dependent one) cost nothing, and no
    ``(nnz, q)`` gather of the basis is ever formed.
    """
    q = basis.shape[1]

    def project(rows: np.ndarray, cols: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        keep = coeffs != 0.0
        if not keep.any():
            return np.zeros((q, q))
        uniq, local = np.unique(rows[keep], return_inverse=True)
        s = scipy.sparse.csr_matrix(
            (coeffs[keep], (local, cols[keep])), shape=(uniq.size, plan.size)
        )
        return (signs[uniq, None] * basis[uniq]).T @ (s @ basis)

    const = project(plan.rows, plan.cols, plan.const)
    groups = tuple(
        (key, project(plan.rows[idx], plan.cols[idx], coeffs))
        for key, idx, coeffs in plan.groups
    )
    return const, groups


class ReducedTemplate:
    """A PRIMA projection of one MNA structure, ready for q-space queries.

    Builds the orthonormal basis ``V`` (``n x q``) once at a *nominal*
    parameter point: factors ``G`` once through the resolved backend,
    grows the block Krylov basis from the independent-source columns,
    forms the sign-corrected congruence projections (see
    :func:`_row_signs` -- this is what makes the reduced pencil provably
    stable) and runs the build-time moment-matching check.  It then
    pre-projects the ``G``/``C`` revaluation plans, so any value point's
    projected matrices come from :meth:`reduce_many` in
    ``O(groups * q^2)`` -- the reduced-tier analogue of
    :meth:`~repro.spice.mna.MnaStructure.revalue_many` -- and
    :meth:`reconstruct` lifts reduced states back to MNA rows.  Raises
    :class:`~repro.errors.SimulationError` when the projection cannot be
    built (no sources, singular ``G``, or a non-finite basis) --
    ``model="auto"`` callers treat that as an automatic fallback to full
    MNA.

    The basis is exact at the nominal point and approximate elsewhere:
    a single-point basis loses roughly a percent of 50% delay per 50%
    parameter excursion, which is exactly what value sweeps cannot
    afford.  ``sample_params`` names extra parameter points (typically
    the box corners the batch dispatch derives via
    :func:`corner_samples`); each contributes its own order-``q``
    Krylov basis, and :func:`_union_basis` merges them so one basis
    stays accurate across the whole sampled box.  The achieved order
    then exceeds ``q`` (up to ``q * (1 + len(sample_params))``).

    ``snapshots`` is an optional ``(n, k)`` matrix of full-space state
    snapshots (e.g. transient trajectories at a few sample points, as
    collected by the batch dispatch).  Its normalized columns form the
    basis, POD-style, in place of the Arnoldi block, capped at
    ``order`` columns (default :data:`_SNAPSHOT_ORDER_CAP`) and kept in
    decreasing singular-value order; passing ``sample_params`` as well
    raises :class:`~repro.errors.ParameterError`.  Snapshot bases track
    the actual waveforms far more efficiently per column than corner
    Krylov unions on strongly coupled structures.  The per-point
    nested-suborder convergence check in the batch paths is what keeps
    ``model="auto"`` honest for points the samples did not bracket.
    """

    def __init__(
        self,
        template: CircuitTemplate | MnaStructure,
        order: int | None = None,
        params: Mapping[str, float] | None = None,
        backend: SimulationBackend | str = "auto",
        sample_params: tuple = (),
        snapshots: np.ndarray | None = None,
    ) -> None:
        structure, columns, n_points = _param_columns(template, params or {})
        if n_points != 1:
            raise ParameterError(
                f"a projection is built at one nominal point, got {n_points}"
            )
        nominal = {name: float(col[0]) for name, col in columns.items()}
        self._structure = structure
        basis, signs, bq, moment_error = _build_projection(
            structure, nominal, order, backend, sample_params, snapshots
        )
        self._basis = basis
        self._signs = signs
        self._bq = bq
        self._moment_error = moment_error
        self._snapshot_enriched = snapshots is not None
        self._g_const, self._g_groups = _project_plan(
            structure.g_plan, basis, signs
        )
        self._c_const, self._c_groups = _project_plan(
            structure.c_plan, basis, signs
        )

    @property
    def structure(self) -> MnaStructure:
        """The shared :class:`~repro.spice.mna.MnaStructure`."""
        return self._structure

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal projection basis ``V``, shape ``(n, q)``."""
        return self._basis

    @property
    def bq(self) -> np.ndarray:
        """Projected input map ``V^T D B``, shape ``(q, m)``."""
        return self._bq

    @property
    def order(self) -> int:
        """Achieved reduced order ``q`` (deflation may trim the request)."""
        return self._basis.shape[1]

    @property
    def moment_error(self) -> float:
        """Build-time block-moment matching defect (a-posteriori check)."""
        return self._moment_error

    @property
    def base_error(self) -> float:
        """Build-time error every answer of this projection carries.

        :attr:`moment_error` for a moment-matched Krylov basis; 0 for a
        snapshot (POD) basis, which does not aim at moments, so its
        moment defect is descriptive build evidence rather than a
        fidelity bound -- there the per-point nested-suborder defect is
        the whole a-posteriori story.  ``model="auto"`` folds it into
        every point's estimate (:func:`repro.rom.model.serve_tiered`).
        """
        return 0.0 if self._snapshot_enriched else self._moment_error

    def suborder(self) -> int:
        """Nested comparison order ``q2 = q - 1`` for convergence checks.

        Basis prefixes stay orthonormal, so the leading ``q2 x q2``
        principal blocks of ``Gq``/``Cq`` are themselves a valid
        Galerkin projection; re-answering a query with the weakest
        trailing direction removed (the last Arnoldi vector, or the
        smallest-singular-value union direction for sample-enriched
        bases) and comparing outputs estimates convergence in the basis
        with no full-space work.  Dropping exactly one direction keeps
        the estimate sharp -- deeper truncations of an enriched basis
        can go unstable and read as huge defects on projections whose
        true error is tiny.  A heuristic, not a bound: an unconverged
        answer can in principle move little under the drop, which is
        why ``model="auto"`` folds it with :attr:`base_error` rather
        than trusting it alone.
        """
        q = self.order
        if q <= 1:
            return q
        return q - 1

    def projected_unit_rhs(self, input_row: int) -> np.ndarray:
        """Projection ``W^T e_row`` of a unit stimulus at one MNA row.

        With the sign-corrected test basis ``W = D V`` (see
        :func:`_row_signs`), the projection of a unit right-hand side at
        ``input_row`` is exactly ``signs[row] * V[row]`` -- no matvec
        needed.  Shape ``(q,)``; slice to a prefix for suborder solves.
        """
        return self._signs[input_row] * self._basis[input_row]

    def reconstruct(self, z: np.ndarray, rows=None) -> np.ndarray:
        """Lift reduced states back to MNA rows: ``x = V[:, :q_used] z``.

        ``z`` has shape ``(..., q_used)`` (``q_used`` inferred from the
        last axis, so suborder states lift correctly); ``rows`` selects
        full-space rows (``None`` reconstructs all of them).
        """
        z = np.asarray(z)
        basis = self._basis if rows is None else self._basis[np.asarray(rows)]
        return z @ basis[:, : z.shape[-1]].T

    def ac_residuals(
        self, input_row: int, omegas, z: np.ndarray, g_csr, c_csr
    ) -> np.ndarray:
        """Exact per-frequency relative residuals of reduced AC states.

        ``z`` holds reduced phasor solutions (``(F, q_used)``) for a unit
        stimulus at ``input_row``; each lifted solution is checked
        against the *full* system ``g_csr``/``c_csr`` (one batch point's
        own revalued ``G_j``/``C_j``):
        ``||(G + jw C) V z_k - e_input|| / ||e_input||`` with
        ``||e_input|| = 1``.  Only sparse matvecs -- no full solve -- so
        ``model="auto"`` can pin its fallback decision on an exact
        a-posteriori quantity at the swept frequencies themselves.
        """
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        x = self.reconstruct(z).T  # (n, F), complex
        resid = (g_csr @ x) + 1j * omegas[None, :] * (c_csr @ x)
        resid[input_row, :] -= 1.0
        return np.linalg.norm(resid, axis=0)

    def batch_dc_states(
        self,
        columns: Mapping[str, np.ndarray],
        wq0: np.ndarray,
        order: int | None = None,
    ) -> np.ndarray:
        """Reduced DC operating points ``(B, q)`` for a value batch.

        ``Gq`` only varies through the conductance value groups, and
        grid-style value sweeps revisit each distinct conductance
        combination many times (a 16 x 16 grid over one G parameter and
        one C parameter has 16 unique DC systems, not 256), so the
        factorizations run once per unique value row and scatter back
        to all points sharing it.  ``order`` restricts the solve to a
        basis prefix (the leading principal blocks, as for the nested
        suborder); ``wq0`` then holds that many entries.
        """
        columns, n_points = self._structure.param_columns(columns)
        q = self.order if order is None else int(order)
        vals = _key_values(
            [key for key, _mat in self._g_groups], columns, n_points
        )
        if not np.isfinite(vals).all():
            raise ParameterError(
                "some parameter points produce non-finite projected matrices "
                "(zero resistance or non-finite value?)"
            )
        uniq, inverse = np.unique(vals, axis=0, return_inverse=True)
        gq = np.broadcast_to(
            self._g_const[:q, :q], (uniq.shape[0], q, q)
        ).copy()
        for i, (_key, mat) in enumerate(self._g_groups):
            gq += uniq[:, i, None, None] * mat[:q, :q]
        z0 = _batch_dc_solve(gq, np.broadcast_to(wq0, (uniq.shape[0], q)))
        return z0[inverse]

    def reduce_many(
        self, columns: Mapping[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Projected ``(Gq, Cq)`` of a value batch, stacked ``(B, q, q)``.

        ``columns`` maps every structure parameter to a length-``B``
        array (scalars broadcast), exactly like
        :meth:`~repro.spice.mna.MnaStructure.revalue_many` -- but the
        per-point cost is ``O(groups * q^2)`` instead of ``O(nnz)``.
        """
        columns, n_points = self._structure.param_columns(columns)
        q = self.order

        def assemble(const: np.ndarray, groups) -> np.ndarray:
            # One (B, k+1) @ (k+1, q*q) product instead of k broadcasted
            # (B, q, q) multiply-adds: the latter moves ~k * B * q^2
            # doubles through memory twice per matrix and dominates the
            # warm batch cost for q ~ 100.  The constant part rides
            # along as an all-ones column so no separate add pass runs.
            if not groups:
                return np.broadcast_to(const, (n_points, q, q)).copy()
            vals = _key_values(
                [key for key, _mat in groups], columns, n_points, lead=1
            )
            vals[:, 0] = 1.0
            mats = np.empty((len(groups) + 1, q * q))
            mats[0] = const.ravel()
            for i, (_key, mat) in enumerate(groups):
                mats[i + 1] = mat.ravel()
            return (vals @ mats).reshape(n_points, q, q)

        with np.errstate(divide="ignore", invalid="ignore"):
            gq = assemble(self._g_const, self._g_groups)
            cq = assemble(self._c_const, self._c_groups)
        if not (np.isfinite(gq).all() and np.isfinite(cq).all()):
            raise ParameterError(
                "some parameter points produce non-finite projected matrices "
                "(zero resistance or non-finite value?)"
            )
        return gq, cq

    def __repr__(self) -> str:
        return (
            f"ReducedTemplate(order={self.order}, "
            f"n={self._basis.shape[0]}, "
            f"groups={len(self._g_groups) + len(self._c_groups)})"
        )


def corner_samples(
    columns: Mapping[str, np.ndarray],
) -> tuple[dict[str, float], tuple[tuple[tuple[str, float], ...], ...]]:
    """Nominal point and box samples bracketing a parameter batch.

    ``columns`` is the batch as
    :meth:`~repro.spice.mna.MnaStructure.param_columns` normalizes it,
    and the nominal lists the names in its order.  The nominal is the
    box midpoint (first value for parameters that do not vary); the
    samples are the box corners over the varying
    parameters, returned as hashable sorted item tuples so they can key
    the projection cache.  Corners-plus-center is deliberately the
    whole budget: at a fixed order cap, richer sample clouds (e.g.
    per-axis edge midpoints) spread the POD energy thinner and
    measurably *raise* the worst-case interior error.  Full ``2^k``
    corner enumeration is capped at :data:`_CORNER_LIMIT`; wider boxes
    fall back to the all-min / all-max diagonal corners, leaving the
    a-posteriori checks to catch the unbracketed mixed corners.
    """
    nominal: dict[str, float] = {}
    varying: list[tuple[str, float, float]] = []
    for name, col in columns.items():
        lo, hi = float(np.min(col)), float(np.max(col))
        if hi > lo:
            varying.append((name, lo, hi))
            nominal[name] = 0.5 * (lo + hi)
        else:
            nominal[name] = float(col[0])
    if not varying:
        return nominal, ()
    if 2 ** len(varying) <= _CORNER_LIMIT:
        corners = itertools.product(
            *([(name, lo), (name, hi)] for name, lo, hi in varying)
        )
        points = [dict(corner) for corner in corners]
    else:
        points = [
            {name: lo for name, lo, _hi in varying},
            {name: hi for name, _lo, hi in varying},
        ]
    seen: set = set()
    samples = []
    for point in points:
        item = tuple(sorted({**nominal, **point}.items()))
        if item not in seen:
            seen.add(item)
            samples.append(item)
    return nominal, tuple(samples)


#: Cross-call projection cache: a chunked sweep re-enters the batch
#: entry point once per chunk, and rebuilding the basis per chunk would
#: eat most of the reduced tier's speedup.  Keyed by structure identity
#: (with a weakref guard against id reuse), requested order, backend,
#: the nominal point and the enrichment samples; bounded FIFO.  Sweep
#: chunks call in from pool threads, so every read and write of the
#: dict holds :data:`_TEMPLATE_CACHE_LOCK` (the build itself does not).
_TEMPLATE_CACHE: dict[tuple, tuple[weakref.ref, ReducedTemplate]] = {}
_TEMPLATE_CACHE_LOCK = threading.Lock()


def cached_reduced_template(
    structure: MnaStructure,
    order: int | None,
    nominal: Mapping[str, float],
    backend: SimulationBackend | str = "auto",
    sample_params: tuple = (),
    snapshot_key: tuple | None = None,
    snapshot_builder=None,
) -> ReducedTemplate:
    """Memoized :class:`ReducedTemplate` lookup for one structure.

    Returns a cached projection when the same structure instance was
    already projected with the same order, backend, nominal point and
    enrichment inputs (counting a ``rom.projection_reuse`` hit); builds
    and caches a new one otherwise.  ``snapshot_builder`` is a
    zero-argument callable returning an ``(n, k)`` snapshot matrix for
    POD enrichment; it is invoked *only on a cache miss* (snapshot
    collection runs full transients, so a hit must skip it), with
    ``snapshot_key`` standing in for the matrix identity -- callers
    pass everything the trajectories depend on (sample points, time
    grid, initial state).  The cache holds strong references to
    at most :data:`_CACHE_LIMIT` projections and drops entries whose
    structure has been garbage collected.  Thread-safe; two threads
    that miss on the same key both build, and the later one is kept.
    """
    q_req = DEFAULT_ORDER if order is None else int(order)
    backend_name = backend if isinstance(backend, str) else backend.name
    sample_key = tuple(
        tuple(sorted((k, float(v)) for k, v in dict(point).items()))
        for point in sample_params
    )
    key = (
        id(structure),
        q_req,
        backend_name,
        tuple(sorted((k, float(v)) for k, v in dict(nominal).items())),
        sample_key,
        snapshot_key,
    )
    with _TEMPLATE_CACHE_LOCK:
        entry = _TEMPLATE_CACHE.get(key)
    if entry is not None and entry[0]() is structure:
        obs.inc("rom.projection_reuse")
        return entry[1]
    template = ReducedTemplate(
        structure,
        order=order,
        params=nominal,
        backend=backend,
        sample_params=sample_key,
        snapshots=None if snapshot_builder is None else snapshot_builder(),
    )
    with _TEMPLATE_CACHE_LOCK:
        dead = [k for k, (ref, _t) in _TEMPLATE_CACHE.items() if ref() is None]
        for k in dead:
            del _TEMPLATE_CACHE[k]
        while len(_TEMPLATE_CACHE) >= _CACHE_LIMIT:
            del _TEMPLATE_CACHE[next(iter(_TEMPLATE_CACHE))]
        _TEMPLATE_CACHE[key] = (weakref.ref(structure), template)
    return template


def _serve_blocks(n_points: int) -> list[slice]:
    """Point slices of :data:`_SERVE_BLOCK` for the blocked reduced serve.

    A trailing single point joins the block before it: numpy hands a
    one-row matmul to a different BLAS routine (``gemv``/``dot``
    instead of ``gemm``/``gemv``), whose rounding differs from the row's
    place inside a wider product, so a lone block would break bit-for-
    bit agreement with the unblocked serve.
    """
    edges = list(range(0, n_points, _SERVE_BLOCK)) + [n_points]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _run_blocks(serve, blocks: list[slice]) -> None:
    """Call ``serve(blk)`` for every block, concurrently where that helps.

    Blocks are independent and their stacked LAPACK/BLAS calls release
    the GIL, so up to one worker per usable CPU serves them at once; one
    block or one CPU runs inline.  The pool lives only for this call --
    a long-lived pool's threads would not survive into a ``fork``ed
    worker process, whose first serve would then wait on them forever.
    Each block runs in a copy of the caller's context, so its spans nest
    under the caller's open span.  The first failing block's exception
    (in block order, as inline) propagates after the unstarted blocks
    are cancelled and the running ones finish.
    """
    workers = min(len(blocks), usable_cpus())
    if workers <= 1:
        for blk in blocks:
            serve(blk)
        return
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="rom-serve")
    try:
        futures = [
            pool.submit(contextvars.copy_context().run, serve, blk) for blk in blocks
        ]
        for future in futures:
            future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _batch_recurrence(
    gq: np.ndarray,
    cq: np.ndarray,
    weight: np.ndarray,
    drive: np.ndarray,
    w_terms: np.ndarray | None,
    z0: np.ndarray,
    rec_basis: np.ndarray,
    z0_sub: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Stacked reduced trapezoidal integration over one point block.

    ``gq``/``cq`` are ``(b, q, q)``, ``weight`` the per-point ``2 /
    dt``; ``rec_basis`` is ``V[recorded_rows, :q]`` and ``z0`` the
    ``(b, q)`` start states.  The companion update is ``z' = lhs^-1
    (hist z + b)`` with ``lhs = G + w C`` and ``hist = lhs - 2 G``,
    i.e. ``z' = z - 2 (lhs^-1 G) z + lhs^-1 b``: one stacked LU
    serves ``lhs^-1 [G | drive]``, where the ``(b, q, c)`` ``drive``
    holds either the ``m`` projected input columns ``Bq`` (then
    ``w_terms``, the ``(b, K, m)`` source samples combined per step,
    recombines them: ``lhs^-1 Bq w^T``) or, when ``m >= K``, the ``K``
    per-step source terms themselves (``w_terms is None``).  Every step
    is then one batched ``q x q`` mat-vec plus two vector updates.

    With ``z0_sub`` (``(b, q - 1)`` start states) the same solve also
    serves the nested suborder: the unit column ``e_q`` is bordered onto
    the right-hand side and :func:`_drop_last_direction` turns the
    solution into the ``q - 1`` operators in ``O(q^2)`` per point, so
    both orders share one factorization.  Returns ``(states,
    states_sub)``, each ``(b, K+1, R)``; ``states_sub`` is ``None``
    without ``z0_sub`` and may be non-finite where the suborder pencil
    is singular.
    """
    n_points, q = gq.shape[0], gq.shape[1]
    n_drive = drive.shape[-1]
    bordered = z0_sub is not None
    rhs = np.empty((n_points, q, q + n_drive + bordered))
    rhs[:, :, :q] = gq
    rhs[:, :, q : q + n_drive] = drive
    if bordered:
        rhs[:, :, -1] = 0.0
        rhs[:, -1, -1] = 1.0
    lhs = weight[:, None, None] * cq
    lhs += gq
    try:
        solved = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(
            "singular reduced transient system matrix in batch"
        ) from exc
    # A diverging recurrence of either order overflows quietly: the
    # caller turns non-finite states into an infinite error estimate
    # (a full-path rerun under model="auto", an error under "reduced").
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        states = _step_states(
            solved[:, :, :q], solved[:, :, q : q + n_drive], w_terms, z0,
            rec_basis,
        )
        if not bordered:
            return states, None
        sub = _drop_last_direction(solved, q + n_drive)
        states_sub = _step_states(
            sub[:, :, : q - 1], sub[:, :, q:], w_terms, z0_sub,
            rec_basis[:, : q - 1],
        )
    return states, states_sub


def _drop_last_direction(solved: np.ndarray, width: int) -> np.ndarray:
    """Suborder operators ``A11^-1 T[:q-1]`` from a bordered solve.

    ``solved = lhs^-1 [T | e_q]`` with ``T = [G | drive]`` (``width``
    columns) and ``A11`` the leading ``(q-1) x (q-1)`` block of ``lhs =
    [[A11, a12], [a21, a22]]``.  Write ``S = lhs^-1 T`` and ``y = lhs^-1
    e_q``.  Zeroing row ``q-1`` of ``T`` gives ``U = S - y (x) T[q-1]``,
    whose top rows satisfy ``A11 U1 + a12 u2 = T[:q-1]``; with ``A11 y1
    + a12 y2 = 0`` that yields ``A11^-1 T[:q-1] = U1 - (y1 / y2) (x)
    u2``, where the ``T[q-1]`` terms cancel: ``S1 - (y1 / y2) (x)
    S[q-1]``, one rank-1 correction, ``O(q^2)`` per point.  Returns
    ``(b, q-1, width)``: columns ``:q-1`` are the suborder's ``lhs2^-1
    G2`` and columns ``q:`` its ``lhs2^-1 drive2``.  A singular ``A11``
    has ``y2 = 0`` and yields non-finite columns (callers silence the
    warnings).
    """
    last = solved.shape[1] - 1
    y = solved[:, :, -1]
    sub = (y[:, :last] / y[:, last, None])[:, :, None] * solved[:, last, None, :width]
    return np.subtract(solved[:, :last, :width], sub, out=sub)


def _step_states(
    step_g: np.ndarray,
    solved_drive: np.ndarray,
    w_terms: np.ndarray | None,
    z: np.ndarray,
    rec_basis: np.ndarray,
) -> np.ndarray:
    """Run the recurrence ``z' = z - 2 S_G z + S_b`` and record outputs."""
    if w_terms is None:
        step_in = solved_drive
    else:
        # drive^T = Bq w^T, so lhs^-1 drive^T = (lhs^-1 Bq) w^T.
        step_in = np.matmul(solved_drive, np.swapaxes(w_terms, -1, -2))
    n_steps = step_in.shape[2]
    out = np.empty((z.shape[0], n_steps + 1, rec_basis.shape[0]))
    out[:, 0] = z @ rec_basis.T
    for k in range(n_steps):
        z = z - 2.0 * np.matmul(step_g, z[:, :, None])[:, :, 0] + step_in[:, :, k]
        out[:, k + 1] = z @ rec_basis.T
    return out


def _start_states(
    template: "ReducedTemplate",
    columns: Mapping[str, np.ndarray],
    initial: str,
    wq: np.ndarray,
    n_points: int,
    q: int,
) -> np.ndarray | None:
    """Reduced start states ``(B, q)`` at order ``q`` (mirrors the full path).

    ``"zero"`` starts at rest.  DC starts on a shared grid dedup over
    the conductance-value rows (:meth:`ReducedTemplate.batch_dc_states`);
    on per-point grids they need each point's own ``Gq`` and source
    sample, so ``None`` asks the caller to solve them block by block
    with :func:`_batch_dc_solve`.
    """
    if initial == "zero":
        return np.zeros((n_points, q))
    if wq.ndim == 2:
        return template.batch_dc_states(columns, wq[0, :q], order=q)
    return None


def _block_start(
    z0: np.ndarray | None, blk: slice, gq: np.ndarray, wq: np.ndarray, q: int
) -> np.ndarray:
    """One block's order-``q`` start states: rows of ``z0``, or DC solves.

    ``z0 is None`` marks DC starts on per-point grids (see
    :func:`_start_states`): each point's leading ``q x q`` block of its
    own ``Gq`` against its own first source sample.
    """
    if z0 is not None:
        return z0[blk]
    return _batch_dc_solve(gq[:, :q, :q], wq[blk, 0, :q])


def _suborder_defect(states: np.ndarray, states_sub: np.ndarray) -> np.ndarray:
    """Per-point nested-suborder defect ``max|y_q - y_q2| / max|y_q|``.

    ``states`` and ``states_sub`` are ``(B, K, R)`` outputs at orders
    ``q`` and ``q2`` (real transients or complex spectra); a point whose
    ``y_q`` is all zero divides by 1.  Non-finite inputs give a
    non-finite defect, without a warning.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = np.max(np.abs(states), axis=(1, 2))
        denom = np.where(denom > 0.0, denom, 1.0)
        return np.max(np.abs(states - states_sub), axis=(1, 2)) / denom


def _batch_dc_solve(gq: np.ndarray, wq0: np.ndarray) -> np.ndarray:
    """Stacked reduced DC solve ``(B, q)`` with per-point lstsq rescue."""
    n_points, q = gq.shape[0], gq.shape[1]
    # Trailing singleton keeps the stacked solve unambiguous: (B, q, q)
    # against (B, q, 1) vectors, not one (B, q) matrix.
    try:
        z0 = np.linalg.solve(gq, wq0[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        z0 = np.full((n_points, q), np.nan)
    bad = ~np.all(np.isfinite(z0), axis=1)
    # Points whose projected DC matrix is numerically rank-deficient
    # (possible with snapshot-enriched bases) get the minimum-residual
    # operating point instead -- same answer where solve works, finite
    # where it does not.
    for j in np.flatnonzero(bad):
        try:
            z0[j] = np.linalg.lstsq(gq[j], wq0[j], rcond=1e-10)[0]
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                "singular reduced DC system while computing batch initial "
                "operating points; pass initial='zero'"
            ) from exc
    if not np.all(np.isfinite(z0)):
        raise SimulationError(
            "singular reduced DC system while computing batch initial "
            "operating points; pass initial='zero'"
        )
    return z0


def reduced_transient_batch(
    template: ReducedTemplate,
    columns: Mapping[str, np.ndarray],
    times: np.ndarray,
    dt_eff: np.ndarray,
    initial: str,
    rec_rows: np.ndarray,
    estimates: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reduced-tier lockstep transient over one parameter batch.

    The q-space counterpart of the full batch integrator (trapezoidal,
    from ``initial`` ``"dc"`` or ``"zero"`` at ``t = 0``), served in
    blocks of :data:`_SERVE_BLOCK` points: per block, projected matrices
    via :meth:`ReducedTemplate.reduce_many`, one stacked factorization
    and the recurrence at full order ``q`` -- and, when ``estimates``
    is requested, at the nested suborder ``q2 = q - 1`` from the *same*
    factorization (:func:`_batch_recurrence` borders ``e_q`` onto the
    right-hand side), yielding each point's convergence defect
    (:func:`_suborder_defect`).  The blocks run concurrently
    (:func:`_run_blocks`).  ``times`` is the already-validated grid from
    the caller (``(K+1,)`` shared or ``(B, K+1)``); ``rec_rows`` the
    recorded MNA rows.  Returns ``(states, defect)`` with ``states`` of
    shape ``(B, K+1, len(rec_rows))`` and ``defect`` of shape ``(B,)``
    (zeros when the order has no suborder); ``estimates=False`` (the
    ``model="reduced"`` fast path, which never falls back) skips the
    suborder and returns ``None``.
    :func:`~repro.rom.model.serve_tiered` folds the defect with
    :attr:`ReducedTemplate.base_error` into the ``model="auto"``
    estimate.

    Error contract: a diverged point or a singular suborder pencil (its
    leading ``q2 x q2`` block has no inverse, so the bordered solve
    yields non-finite suborder states for that point alone) gives that
    point non-finite states or a non-finite defect, never an exception,
    so ``model="auto"`` falls back to the full tier for exactly those
    points.  A singular full-order pencil still raises
    :class:`~repro.errors.SimulationError`.
    """
    initial = _check_initial(initial)
    columns, n_points = template.structure.param_columns(columns)
    w_samples = template.structure.source_samples(times)
    bq = template.bq
    wq = w_samples @ bq.T
    rec_basis = template.basis[np.asarray(rec_rows, dtype=np.intp)]
    q = template.order
    q_sub = q - 1 if estimates and template.suborder() < q else 0
    n_steps = wq.shape[-2] - 1

    # The per-step source terms live in the m-dimensional span of Bq,
    # so when m < K the solve carries only the m input columns and the
    # terms come from a cheap recombination afterwards.
    if bq.shape[1] < n_steps:
        drive = bq
        w_terms = w_samples[..., 1:, :] + w_samples[..., :-1, :]
        w_terms = np.broadcast_to(w_terms, (n_points,) + w_terms.shape[-2:])
    else:
        w_terms = None
        drive = wq[..., 1:, :] + wq[..., :-1, :]
        drive = np.swapaxes(drive, -1, -2)
    drive = np.broadcast_to(drive, (n_points,) + drive.shape[-2:])

    z0 = _start_states(template, columns, initial, wq, n_points, q)
    z0_sub = (
        _start_states(template, columns, initial, wq, n_points, q_sub)
        if q_sub
        else None
    )
    weight = 2.0 / dt_eff
    states = np.empty((n_points, n_steps + 1, rec_basis.shape[0]))
    defect = np.zeros(n_points)
    blocks = _serve_blocks(n_points)
    attrs = dict(order=q, suborder=q_sub, blocks=len(blocks))

    def serve(blk: slice) -> None:
        # Writes only this block's rows of ``states`` and ``defect``.
        with obs.span("rom.reduce_many", **attrs):
            gq, cq = template.reduce_many(columns.take(blk))
        with obs.span("rom.recurrence", **attrs):
            states[blk], states_sub = _batch_recurrence(
                gq,
                cq,
                weight[blk],
                drive[blk],
                None if w_terms is None else w_terms[blk],
                _block_start(z0, blk, gq, wq, q),
                rec_basis,
                _block_start(z0_sub, blk, gq, wq, q_sub) if q_sub else None,
            )
        if q_sub:
            defect[blk] = _suborder_defect(states[blk], states_sub)

    _run_blocks(serve, blocks)
    return states, defect if estimates else None
