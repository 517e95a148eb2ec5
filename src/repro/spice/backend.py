"""Pluggable linear-solver backends for the MNA engine.

The MNA matrices of ladder-style interconnect circuits are sparse and,
after a bandwidth-reducing reordering, tightly *banded*: a chain of
``n`` PI segments yields a path graph whose reverse-Cuthill-McKee
profile is a handful of diagonals, while the naive unknown ordering
(all node voltages first, then all branch currents) scatters the
inductor-branch couplings to the far corner of the matrix.  A dense
LU factorization is therefore an O(n^3) / O(n^2)-per-solve detour for
a problem SPICE-class tools solve in O(n).

This module abstracts the "factor once, solve many" step behind
:class:`SimulationBackend` so transient, AC and DC analyses can share
one of three interchangeable implementations.  For revaluation-heavy
workloads (parameter sweeps over a fixed topology, AC sweeps over a
fixed pattern) each backend additionally exposes a
:class:`PatternFactorizer` via :meth:`SimulationBackend.factorizer`:
the structure-dependent work -- the RCM reordering and banded index
maps, the COO-to-CSC duplicate-summing map feeding SuperLU, the dense
scatter pattern -- is done once per sparsity pattern, and
:meth:`PatternFactorizer.refactorize` then accepts fresh COO ``data``
arrays and performs only the numeric factorization.  Factorizations
solve one right-hand side (:meth:`LinearFactorization.solve`) or a
whole ``(n, k)`` block at once (:meth:`LinearFactorization.solve_many`).

The three implementations:

``dense``
    :func:`scipy.linalg.lu_factor` on the materialized matrix -- the
    reference implementation, fastest for small systems where BLAS-3
    beats any sparse bookkeeping.

``sparse``
    ``scipy.sparse`` CSC + SuperLU (:func:`scipy.sparse.linalg.splu`)
    with its own fill-reducing ordering; the robust choice for large
    systems of arbitrary structure (coupled buses, meshes).

``banded``
    Reverse-Cuthill-McKee reordering + LAPACK banded LU.  A tridiagonal
    profile (``kl = ku = 1``: every ladder chain) factors with the
    tridiagonal ``*gttrf``/``*gttrs``, a wider band (coupled buses) with
    ``*gbtrf``/``*gbtrs``; either way the permuted system is solved in
    O(n * bw^2), the fastest path for the paper's workloads.

Matrices move through the module in backend-neutral triplet
(:class:`CooMatrix`) form; each backend materializes only the storage
format it needs.  :func:`resolve_backend` picks an implementation from
the system size and the RCM bandwidth when asked for ``"auto"``.

All backends report an exactly singular matrix uniformly by raising
:class:`~repro.errors.SimulationError` from :meth:`factorize`, so the
``initial="dc"`` / floating-node error paths behave identically no
matter which implementation is active.

Every factorization solves a complex right-hand side, also against a
real factor (as its real and imaginary parts).
"""

from __future__ import annotations

import abc
import copy
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro import obs
from repro.errors import ParameterError, SimulationError

__all__ = [
    "DENSE_SIZE_CUTOFF",
    "CooMatrix",
    "BandProfile",
    "LinearFactorization",
    "PatternFactorizer",
    "SimulationBackend",
    "BackendSelection",
    "DenseLuBackend",
    "SparseLuBackend",
    "BandedLuBackend",
    "BACKENDS",
    "resolve_backend",
    "rcm_band_profile",
    "stack_factorizations",
]


def _count(op: str, backend: str, n: float = 1.0) -> None:
    """Gated solver-telemetry counter (``spice.backend.<op>{backend=}``)."""
    obs.inc(f"spice.backend.{op}", n, backend=backend)

#: Systems at or below this size always resolve to the dense backend:
#: one BLAS-3 factorization of a tiny matrix beats any sparse setup.
DENSE_SIZE_CUTOFF = 128


@dataclass(frozen=True)
class CooMatrix:
    """A square matrix in coordinate (triplet) form.

    Duplicate ``(row, col)`` entries are implicitly summed by every
    consumer (the standard COO convention), so assembly code may stamp
    the same position repeatedly.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        dtype = complex if np.iscomplexobj(self.data) else float
        data = np.asarray(self.data, dtype=dtype)
        if not (rows.shape == cols.shape == data.shape) or rows.ndim != 1:
            raise ParameterError("rows, cols and data must be equal-length 1-D")
        n, m = self.shape
        if n != m:
            raise ParameterError(f"CooMatrix must be square, got {self.shape}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", (int(n), int(m)))

    @property
    def nnz(self) -> int:
        """Stored entry count (duplicates not collapsed)."""
        return self.data.size

    def scaled(self, factor) -> "CooMatrix":
        """``factor * self`` (complex factors promote the dtype)."""
        return CooMatrix(self.rows, self.cols, factor * self.data, self.shape)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (duplicates summed)."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.rows, self.cols), self.data)
        return out

    def to_csr(self) -> scipy.sparse.csr_matrix:
        """Materialize as CSR (for matvecs and graph analysis)."""
        return scipy.sparse.csr_matrix(
            (self.data, (self.rows, self.cols)), shape=self.shape
        )

    def to_csc(self) -> scipy.sparse.csc_matrix:
        """Materialize as CSC (for sparse LU factorization)."""
        return scipy.sparse.csc_matrix(
            (self.data, (self.rows, self.cols)), shape=self.shape
        )


def _compressed_dedup_map(
    major: np.ndarray, minor: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """Triplet-to-compressed-sparse index map for one frozen pattern.

    Sorts entry positions by ``(major, minor)`` axis (rows for CSR,
    columns for CSC), collapses duplicates, and returns
    ``(order, slot, n_unique, indices, indptr)``: feed a data array
    through :func:`_scatter_dedup` with ``order``/``slot`` to obtain
    canonical compressed-sparse data in one scatter-add.
    """
    order = np.lexsort((minor, major))
    major_sorted = major[order]
    minor_sorted = minor[order]
    if order.size:
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        first[1:] = (np.diff(major_sorted) != 0) | (np.diff(minor_sorted) != 0)
    else:
        first = np.empty(0, dtype=bool)
    slot = np.cumsum(first) - 1 if order.size else order
    indices = minor_sorted[first].astype(np.int32, copy=False)
    counts = np.bincount(major_sorted[first], minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32, copy=False)
    return order, slot, int(first.sum()), indices, indptr


def _scatter_dedup(
    order: np.ndarray, slot: np.ndarray, n_unique: int, data: np.ndarray
) -> np.ndarray:
    """Accumulate triplet ``data`` into its deduplicated sparse slots."""
    data = np.asarray(data)
    if np.iscomplexobj(data):
        acc = np.zeros(n_unique, dtype=data.dtype)
        np.add.at(acc, slot, data[order])
        return acc
    return np.bincount(slot, weights=data[order], minlength=n_unique)


class _PatternCsr:
    """CSR assembly map for one COO pattern, reused across revaluations.

    ``scipy.sparse.csr_matrix`` construction from triplets re-sorts and
    re-deduplicates on every call; for revaluation loops over a frozen
    pattern this map hoists that work out, so a batch of ``data`` arrays
    becomes one block-diagonal CSR matrix at one scatter-add per point.
    """

    def __init__(self, pattern: CooMatrix) -> None:
        self._shape = pattern.shape
        (
            self._order,
            self._slot,
            self._n_unique,
            self._indices,
            self._indptr,
        ) = _compressed_dedup_map(pattern.rows, pattern.cols, pattern.shape[0])

    def block_diagonal(
        self, data: np.ndarray, order: np.ndarray | None = None
    ) -> scipy.sparse.csr_matrix:
        """Block-diagonal CSR of ``B`` revaluations, one per row of ``data``.

        Block ``j`` is the canonical CSR matrix of ``data[j]``: its
        duplicates summed in triplet order, every row's entries in
        column order.  A matvec with the stacked ``(B * n,)`` vector
        therefore reproduces each point's own matvec bit for bit.

        With ``order`` (a permutation of the ``n`` rows) every block is
        ``M_j[order][:, order]`` instead, each row keeping its entries'
        order, so its matvec with ``x_j[order]`` is ``(M_j @
        x_j)[order]`` bit for bit.
        """
        n_points = data.shape[0]
        n = self._shape[0]
        acc = np.empty((n_points, self._n_unique), dtype=data.dtype)
        for j in range(n_points):
            acc[j] = _scatter_dedup(self._order, self._slot, self._n_unique, data[j])
        indices, indptr = self._indices, self._indptr
        if order is not None:
            counts = np.diff(indptr)[order]
            starts = indptr[order]
            indptr = np.concatenate(([0], np.cumsum(counts)))
            take = np.arange(self._n_unique) + np.repeat(starts - indptr[:-1], counts)
            indices = _inverse_permutation(order)[indices[take]]
            acc = acc[:, take]
        offsets = np.arange(n_points)[:, None]
        indices = (indices + n * offsets).ravel()
        indptr = np.concatenate((
            [0], (indptr[1:] + self._n_unique * offsets).ravel()
        ))
        return scipy.sparse.csr_matrix(
            (acc.ravel(), indices, indptr), shape=(n_points * n, n_points * n)
        )


def _inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """Where each index lands under ``perm``: ``inverse[perm[i]] = i``."""
    inverse = np.empty(perm.size, dtype=np.intp)
    inverse[perm] = np.arange(perm.size, dtype=np.intp)
    return inverse


@dataclass(frozen=True)
class BandProfile:
    """An RCM permutation and the resulting lower/upper bandwidths."""

    perm: np.ndarray
    kl: int
    ku: int

    @property
    def band_width(self) -> int:
        """Total stored diagonals of the permuted matrix."""
        return self.kl + self.ku + 1


def rcm_band_profile(matrix: CooMatrix) -> BandProfile:
    """Reverse-Cuthill-McKee profile of a matrix's sparsity pattern.

    The pattern is symmetrized internally (RCM operates on undirected
    graphs); the returned bandwidths describe ``A[perm][:, perm]``.
    """
    n = matrix.shape[0]
    if matrix.nnz == 0:
        return BandProfile(perm=np.arange(n, dtype=np.intp), kl=0, ku=0)
    pattern = scipy.sparse.csr_matrix(
        (np.ones(matrix.nnz), (matrix.rows, matrix.cols)), shape=matrix.shape
    )
    perm = np.asarray(reverse_cuthill_mckee(pattern, symmetric_mode=False))
    inverse = _inverse_permutation(perm)
    prows = inverse[matrix.rows]
    pcols = inverse[matrix.cols]
    kl = int(max(0, np.max(prows - pcols)))
    ku = int(max(0, np.max(pcols - prows)))
    return BandProfile(perm=perm, kl=kl, ku=ku)


class LinearFactorization(abc.ABC):
    """A factored matrix ready for repeated right-hand-side solves."""

    @abc.abstractmethod
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for one right-hand side."""

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A X = rhs`` for a block of right-hand sides.

        ``rhs`` has shape ``(n, k)`` (or ``(n,)``, treated as one
        column); the result has the same shape.  The base
        implementation loops over columns; the built-in backends
        override it with a single vectorized LAPACK/SuperLU call.
        """
        rhs = np.asarray(rhs)
        if rhs.ndim == 1:
            return self.solve(rhs)
        if rhs.shape[1] == 0:
            return rhs.copy()
        return np.stack(
            [self.solve(rhs[:, k]) for k in range(rhs.shape[1])], axis=1
        )

    def in_factor_order(self) -> tuple[np.ndarray | None, "LinearFactorization"]:
        """This factorization over vectors in its own row order.

        Returns ``(order, factor)``: ``factor.solve(b[order])`` equals
        ``self.solve(b)[order]`` bit for bit, but skips the gather and
        scatter a caller-order solve pays around the kernel, so a loop
        that keeps its vectors in ``order`` solves without permutation
        work.  ``order`` is ``None`` when the factorization already
        works in the caller's order (dense and sparse); a banded
        factorization returns its RCM permutation.
        """
        return None, self


class PatternFactorizer(abc.ABC):
    """Per-pattern symbolic/structural state, reused across revaluations.

    Obtained from :meth:`SimulationBackend.factorizer` for one COO
    sparsity pattern (``rows``/``cols``/``shape``; the data of the
    matrix handed over is ignored).  Each :meth:`refactorize` call then
    maps a fresh ``data`` array -- same triplet order -- to a
    :class:`LinearFactorization`, repeating only the numeric work.
    """

    @abc.abstractmethod
    def refactorize(self, data: np.ndarray) -> LinearFactorization:
        """Numerically factor the pattern with new entry values.

        Raises
        ------
        SimulationError
            If the revalued matrix is exactly singular.
        """


@dataclass(frozen=True)
class BackendSelection:
    """Why ``resolve_backend("auto")`` picked a backend (the evidence).

    Attached to the chosen backend (:attr:`SimulationBackend.selection`)
    and surfaced in its ``repr``, so "why dense here?" is answerable
    from any object that escaped the selection -- and recorded in the
    metrics registry (``spice.backend.auto_selected{backend=,rule=}``)
    while instrumentation is enabled.

    Attributes
    ----------
    backend:
        The chosen registry name (``dense``/``banded``/``sparse``).
    rule:
        Which decision rule fired: ``"small-system"`` (dense),
        ``"narrow-band"`` (banded) or ``"general-sparse"`` (fallback).
    size, nnz:
        Unknown count and stored-entry count of the deciding matrix.
    band_width, band_limit:
        RCM band width of the pattern and the ``max(24, n // 8)``
        threshold it was compared against; ``None`` when the size
        cutoff decided first (no RCM profile was computed).
    """

    backend: str
    rule: str
    size: int
    nnz: int
    band_width: int | None = None
    band_limit: int | None = None

    def reason(self) -> str:
        """One-line human-readable justification of the choice."""
        if self.rule == "small-system":
            return (
                f"n={self.size} <= dense cutoff {DENSE_SIZE_CUTOFF}"
            )
        comparison = "<=" if self.rule == "narrow-band" else ">"
        return (
            f"n={self.size}, rcm band {self.band_width} {comparison} "
            f"limit {self.band_limit}"
        )


class SimulationBackend(abc.ABC):
    """Strategy interface: how MNA linear systems are factored/solved."""

    #: Registry / user-facing name of the implementation.
    name: str = "abstract"

    #: The ``resolve_backend("auto")`` decision that produced this
    #: instance, or ``None`` for explicitly constructed backends.
    selection: BackendSelection | None = None

    def factorize(self, matrix: CooMatrix) -> LinearFactorization:
        """Factor ``matrix`` once for many solves.

        One structure-reusing :meth:`factorizer` call and one
        refactorization of the matrix's own data; counted as
        ``spice.backend.factorize{backend=}``.

        Raises
        ------
        SimulationError
            If the matrix is exactly singular.
        """
        _count("factorize", self.name)
        return self.factorizer(matrix).refactorize(matrix.data)

    @abc.abstractmethod
    def factorizer(self, pattern: CooMatrix) -> PatternFactorizer:
        """Structure-reusing factorizer for one sparsity pattern.

        Implementations hoist their pattern-dependent work -- RCM
        profiles and banded index maps, COO-to-CSC duplicate-summing
        maps, dense scatter indices -- out of the revaluation loop.
        """

    def __repr__(self) -> str:
        if self.selection is None:
            return f"{type(self).__name__}()"
        return (
            f"{type(self).__name__}(auto: {self.selection.reason()} "
            f"-> {self.selection.backend})"
        )


def _typed_solve(solve, rhs, dtype: np.dtype) -> np.ndarray:
    """``solve(rhs)`` for a factor of ``dtype``, ``rhs`` cast to it.

    A complex ``rhs`` against a real factor is solved as its real and
    imaginary parts: casting it would drop the imaginary part.
    """
    rhs = np.asarray(rhs)
    if np.iscomplexobj(rhs) and dtype.kind != "c":
        out = np.empty(rhs.shape, dtype=np.result_type(dtype, 1j))
        out.real = solve(np.asarray(rhs.real, dtype=dtype))
        out.imag = solve(np.asarray(rhs.imag, dtype=dtype))
        return out
    return solve(np.asarray(rhs, dtype=dtype))


def _checked(solution: tuple[np.ndarray, int], kind: str) -> np.ndarray:
    """The solution of a LAPACK ``(x, info)`` solve, vetted."""
    x, info = solution
    if info != 0:  # pragma: no cover - the factorization vetted the factor
        raise SimulationError(f"{kind} solve failed (LAPACK info={info})")
    return x


class _DenseFactorization(LinearFactorization):
    """Dense LU solved through the raw ``*getrs``.

    :func:`scipy.linalg.lu_solve` makes the same ``*getrs`` call behind
    a batch-aware wrapper whose per-call overhead dominates a lockstep
    step on a few hundred unknowns.
    """

    def __init__(self, lu: np.ndarray, piv: np.ndarray) -> None:
        self._lu = lu
        self._piv = piv
        (self._getrs,) = get_lapack_funcs(("getrs",), (lu,))

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        if not self._lu.size:  # getrs rejects an empty system
            return rhs.copy()
        return _checked(self._getrs(self._lu, self._piv, rhs), "dense")

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return _typed_solve(self._lu_solve, rhs, self._lu.dtype)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        _count("solve", "dense")
        return self._solve(rhs)

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Single ``*getrs`` call over the whole ``(n, k)`` block."""
        rhs = np.asarray(rhs)
        _count("solve_many", "dense")
        _count("solve_many_rhs", "dense", rhs.shape[1] if rhs.ndim > 1 else 1)
        return self._solve(rhs)


class _DenseFactorizer(PatternFactorizer):
    def __init__(self, pattern: CooMatrix) -> None:
        self._rows = pattern.rows
        self._cols = pattern.cols
        self._shape = pattern.shape

    def refactorize(self, data: np.ndarray) -> LinearFactorization:
        _count("refactorize", "dense")
        data = np.asarray(data)
        dense = np.zeros(self._shape, dtype=data.dtype)
        np.add.at(dense, (self._rows, self._cols), data)
        with warnings.catch_warnings():
            # An exactly zero pivot makes lu_factor warn instead of
            # raise; singularity is detected (and raised) below.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(dense, check_finite=False)
        if self._shape[0] and np.any(np.diagonal(lu) == 0.0):
            raise SimulationError("singular matrix (dense LU: zero pivot)")
        return _DenseFactorization(lu, piv)


class DenseLuBackend(SimulationBackend):
    """Reference implementation: dense LAPACK LU (``*getrf``/``*getrs``)."""

    name = "dense"

    def factorizer(self, pattern: CooMatrix) -> PatternFactorizer:
        """Dense scatter pattern; refactorize rebuilds and refactors."""
        _count("factorizer", "dense")
        obs.observe(
            "spice.backend.pattern_nnz", pattern.nnz,
            buckets=obs.COUNT_BUCKETS, backend="dense",
        )
        return _DenseFactorizer(pattern)


class _SparseFactorization(LinearFactorization):
    def __init__(self, lu, dtype) -> None:
        self._lu = lu
        self._dtype = dtype

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return _typed_solve(self._lu.solve, rhs, self._dtype)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        _count("solve", "sparse")
        return self._solve(rhs)

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Single SuperLU solve over the whole ``(n, k)`` block."""
        rhs = np.asarray(rhs)
        _count("solve_many", "sparse")
        _count("solve_many_rhs", "sparse", rhs.shape[1] if rhs.ndim > 1 else 1)
        return self._solve(rhs)


class _SparseFactorizer(PatternFactorizer):
    """COO-to-CSC duplicate-summing map computed once per pattern.

    SuperLU's symbolic analysis is not exposed for reuse by SciPy, but
    the assembly that feeds it is: the lexsort of the triplets, the
    unique-entry index map, and the CSC ``indices``/``indptr`` arrays
    depend only on the pattern and are hoisted here; each refactorize
    is then one scatter-add plus the numeric ``splu``.
    """

    def __init__(self, pattern: CooMatrix) -> None:
        self._shape = pattern.shape
        # CSC: columns are the compressed (major) axis.
        (
            self._order,
            self._slot,
            self._n_unique,
            self._indices,
            self._indptr,
        ) = _compressed_dedup_map(pattern.cols, pattern.rows, pattern.shape[0])

    def refactorize(self, data: np.ndarray) -> LinearFactorization:
        _count("refactorize", "sparse")
        acc = _scatter_dedup(self._order, self._slot, self._n_unique, data)
        csc = scipy.sparse.csc_matrix(
            (acc, self._indices, self._indptr), shape=self._shape
        )
        try:
            lu = scipy.sparse.linalg.splu(csc)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SimulationError(f"singular matrix (sparse LU: {exc})") from exc
        return _SparseFactorization(lu, csc.dtype)


class SparseLuBackend(SimulationBackend):
    """CSC + SuperLU (:func:`scipy.sparse.linalg.splu`)."""

    name = "sparse"

    def factorizer(self, pattern: CooMatrix) -> PatternFactorizer:
        """CSC assembly map reused across revaluations of one pattern."""
        _count("factorizer", "sparse")
        obs.observe(
            "spice.backend.pattern_nnz", pattern.nnz,
            buckets=obs.COUNT_BUCKETS, backend="sparse",
        )
        return _SparseFactorizer(pattern)


class _RcmFactorization(LinearFactorization):
    """A banded LU of ``A[perm][:, perm]`` that solves ``A x = b``.

    Subclasses supply the LAPACK kernel; this base gathers the
    right-hand side into the RCM order ``perm`` and scatters the
    solution back.  A factorization with ``perm = None`` (from
    :meth:`in_factor_order`) hands its right-hand sides to the kernel
    as they are.
    """

    def __init__(self, perm: np.ndarray | None, dtype: np.dtype) -> None:
        self._perm = perm
        self._dtype = dtype

    @abc.abstractmethod
    def _kernel(self, rhs: np.ndarray, overwrite: bool) -> tuple[np.ndarray, int]:
        """LAPACK's ``(x, info)`` for ``rhs`` in factor order."""

    def _permuted_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._perm is None:
            return _checked(self._kernel(rhs, overwrite=False), "banded")
        # The permuted copy is fresh, so the kernel may overwrite it.
        x = _checked(self._kernel(rhs[self._perm], overwrite=True), "banded")
        out = np.empty_like(x)
        out[self._perm] = x
        return out

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return _typed_solve(self._permuted_solve, rhs, self._dtype)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        _count("solve", "banded")
        return self._solve(rhs)

    def solve_many(self, rhs: np.ndarray) -> np.ndarray:
        """Single multi-RHS kernel call over the ``(n, k)`` block."""
        rhs = np.asarray(rhs)
        _count("solve_many", "banded")
        _count("solve_many_rhs", "banded", rhs.shape[1] if rhs.ndim > 1 else 1)
        return self._solve(rhs)

    def in_factor_order(self) -> tuple[np.ndarray | None, LinearFactorization]:
        if self._perm is None:
            return None, self
        twin = copy.copy(self)
        twin._perm = None
        return self._perm, twin


class _BandedFactorization(_RcmFactorization):
    """General banded LU (``*gbtrf``) of a wider RCM profile."""

    def __init__(self, lu_band, piv, kl, ku, perm, gbtrs, dtype) -> None:
        super().__init__(perm, dtype)
        self._lu_band = lu_band
        self._piv = piv
        self._kl = kl
        self._ku = ku
        self._gbtrs = gbtrs

    def _kernel(self, rhs: np.ndarray, overwrite: bool) -> tuple[np.ndarray, int]:
        return self._gbtrs(
            self._lu_band, self._kl, self._ku, rhs, self._piv,
            overwrite_b=overwrite,
        )

    @classmethod
    def stack(cls, factors: list["_BandedFactorization"], owner: np.ndarray):
        """The per-point bands side by side, pivots offset by ``j * n``.

        The band cells that reach across a block boundary lie outside
        each point's matrix; ``gbtrf`` never writes them, so they hold
        exact zeros and every cross-block update is ``x - 0 * y``.
        """
        first = factors[0]
        n = first._perm.size
        offsets = n * np.arange(owner.size)
        lu_band = np.empty(
            (first._lu_band.shape[0], owner.size * n),
            dtype=first._lu_band.dtype, order="F",
        )
        for j, g in enumerate(owner):
            lu_band[:, j * n:(j + 1) * n] = factors[g]._lu_band
        piv = np.concatenate(
            [factors[g]._piv + offset for g, offset in zip(owner, offsets)]
        ).astype(first._piv.dtype, copy=False)
        return cls(
            lu_band, piv, first._kl, first._ku, _stacked_perm(first._perm, owner),
            first._gbtrs, first._dtype,
        )


class _TridiagonalFactorization(_RcmFactorization):
    """Tridiagonal LU (``*gttrf``) of a ``kl = ku = 1`` RCM profile.

    ``dl``/``d``/``du``/``du2`` and ``ipiv`` are ``*gttrf``'s outputs
    for the permuted matrix: the multipliers, ``U``'s diagonal and its
    first and second super-diagonals, and the row interchanges.
    """

    def __init__(self, dl, d, du, du2, ipiv, perm, gttrs, dtype) -> None:
        super().__init__(perm, dtype)
        self._dl = dl
        self._d = d
        self._du = du
        self._du2 = du2
        self._ipiv = ipiv
        self._gttrs = gttrs

    def _kernel(self, rhs: np.ndarray, overwrite: bool) -> tuple[np.ndarray, int]:
        return self._gttrs(
            self._dl, self._d, self._du, self._du2, self._ipiv, rhs,
            overwrite_b=overwrite,
        )

    @classmethod
    def stack(cls, factors: list["_TridiagonalFactorization"], owner: np.ndarray):
        """The per-point factors end to end, pivots offset by ``j * n``.

        Each block boundary gets one zero ``dl``/``du`` entry and two
        zero ``du2`` entries, and a point's last pivot never swaps
        (``ipiv[n - 1] = n``), so every cross-block update is
        ``x - 0 * y``.
        """
        n = factors[0]._perm.size

        def end_to_end(name: str) -> np.ndarray:
            parts = [getattr(f, name) for f in factors]
            out = np.zeros((owner.size, n), dtype=parts[0].dtype)
            for j, g in enumerate(owner):
                out[j, :parts[g].size] = parts[g]
            # The last block keeps no boundary padding.
            return out.ravel()[: out.size - n + parts[0].size]

        ipiv = end_to_end("_ipiv") + np.repeat(
            n * np.arange(owner.size, dtype=factors[0]._ipiv.dtype), n
        )
        return cls(
            end_to_end("_dl"), end_to_end("_d"), end_to_end("_du"),
            end_to_end("_du2"), ipiv, _stacked_perm(factors[0]._perm, owner),
            factors[0]._gttrs, factors[0]._dtype,
        )


def _stacked_perm(perm: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """``perm`` repeated per batch point, offset by ``j * n`` for block ``j``."""
    n = perm.size
    return (perm[None, :] + n * np.arange(owner.size)[:, None]).ravel()


class BandedLuBackend(SimulationBackend):
    """RCM reordering + LAPACK banded LU.

    A tridiagonal RCM profile (``kl = ku = 1``, every ladder chain)
    factors with the tridiagonal ``*gttrf``/``*gttrs``, and a wider band
    with ``*gbtrf``/``*gbtrs``; the profile alone picks the kernel.

    The permutation depends only on a matrix's sparsity pattern, so the
    last few computed profiles are memoized against the exact triplet
    pattern (byte-for-byte): an AC sweep factoring ``G + jwC`` per
    frequency reorders once, a transient batch's stepping pattern and
    the bare ``G`` of its DC start each reorder once per instance, and
    a different-structure system safely triggers a fresh reordering.
    """

    name = "banded"

    #: Patterns whose profiles stay memoized (the oldest is dropped).
    _MEMO_SLOTS = 4

    def __init__(self) -> None:
        # A key -> profile dict that is never mutated once published:
        # each insertion replaces it wholesale, so a single atomic
        # attribute assignment keeps concurrent factorize calls from
        # ever pairing a key with another pattern's profile.
        self._memo: dict[tuple, BandProfile] = {}

    @staticmethod
    def _pattern_key(matrix: CooMatrix) -> tuple:
        return (matrix.shape, matrix.rows.tobytes(), matrix.cols.tobytes())

    def _profile_for(self, matrix: CooMatrix) -> BandProfile:
        key = self._pattern_key(matrix)
        profile = self._memo.get(key)
        if profile is None:
            profile = rcm_band_profile(matrix)
            self._remember(key, profile)
        return profile

    def _remember(self, key: tuple, profile: BandProfile) -> None:
        kept = list(self._memo.items())[-(self._MEMO_SLOTS - 1):]
        self._memo = dict(kept + [(key, profile)])

    def _seed_profile(self, matrix: CooMatrix, profile: BandProfile) -> None:
        """Adopt a profile already computed for ``matrix``'s pattern."""
        self._remember(self._pattern_key(matrix), profile)

    def factorizer(self, pattern: CooMatrix) -> PatternFactorizer:
        """RCM profile and banded index map reused across revaluations."""
        profile = self._profile_for(pattern)
        _count("factorizer", "banded")
        obs.observe(
            "spice.backend.pattern_nnz", pattern.nnz,
            buckets=obs.COUNT_BUCKETS, backend="banded",
        )
        obs.observe(
            "spice.backend.band_width", profile.band_width,
            buckets=obs.COUNT_BUCKETS, backend="banded",
        )
        return _BandedFactorizer(pattern, profile)


class _BandedFactorizer(PatternFactorizer):
    """Permutation + banded scatter indices computed once per pattern."""

    def __init__(self, pattern: CooMatrix, profile: BandProfile) -> None:
        n = pattern.shape[0]
        inverse = _inverse_permutation(profile.perm)
        prows = inverse[pattern.rows]
        pcols = inverse[pattern.cols]
        kl, ku = profile.kl, profile.ku
        self._n = n
        self._kl = kl
        self._ku = ku
        self._perm = profile.perm
        # LAPACK banded storage with kl extra rows for pivoting fill:
        # A[i, j] lives at ab[kl + ku + i - j, j]; flattened indices feed
        # a bincount-based scatter-add (measurably faster than np.add.at
        # in revaluation-heavy loops).
        self._band_flat = (kl + ku + prows - pcols) * n + pcols

    def _assemble(self, data: np.ndarray) -> np.ndarray:
        kl, ku, n = self._kl, self._ku, self._n
        length = (2 * kl + ku + 1) * n
        if np.iscomplexobj(data):
            ab = np.bincount(
                self._band_flat, weights=data.real, minlength=length
            ) + 1j * np.bincount(
                self._band_flat, weights=data.imag, minlength=length
            )
        else:
            ab = np.bincount(self._band_flat, weights=data, minlength=length)
        return ab.reshape(2 * kl + ku + 1, n)

    def refactorize(self, data: np.ndarray) -> LinearFactorization:
        _count("refactorize", "banded")
        data = np.asarray(data)
        kl, ku = self._kl, self._ku
        ab = self._assemble(data)
        if kl == ku == 1:
            # Rows 1-3 of the band are the super-, main and sub-diagonals.
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (ab,))
            *lu, info = gttrf(
                ab[3, :-1], ab[2], ab[1, 1:],
                overwrite_dl=True, overwrite_d=True, overwrite_du=True,
            )
            _check_pivots(info)
            return _TridiagonalFactorization(*lu, self._perm, gttrs, ab.dtype)
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu_band, piv, info = gbtrf(ab, kl, ku)
        _check_pivots(info)
        return _BandedFactorization(
            lu_band, piv, kl, ku, self._perm, gbtrs, ab.dtype
        )


def _check_pivots(info: int) -> None:
    """Raise for a failed ``*gttrf``/``*gbtrf`` (``info != 0``)."""
    if info > 0:
        raise SimulationError(
            f"singular matrix (banded LU: zero pivot at row {info})"
        )
    if info < 0:  # pragma: no cover - argument error, not data-driven
        raise SimulationError(f"banded factorization failed (info={info})")


class _StackedFactorization(LinearFactorization):
    """Block-diagonal solves over a batch of per-point factorizations.

    Block ``j`` of a ``(B * n,)`` right-hand side is solved with
    ``factors[owner[j]]``.  Points that share a factorization are solved
    together with one multi-RHS :meth:`LinearFactorization.solve_many`
    call, and a point of its own with one
    :meth:`LinearFactorization.solve`.
    """

    def __init__(
        self, factors: list[LinearFactorization], owner: np.ndarray
    ) -> None:
        self._n_points = owner.size
        self._groups = [
            (fact, np.flatnonzero(owner == g)) for g, fact in enumerate(factors)
        ]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        blocks = np.asarray(rhs).reshape(self._n_points, -1)
        solved = [
            fact.solve(blocks[members[0]])
            if members.size == 1
            else fact.solve_many(blocks[members].T).T
            for fact, members in self._groups
        ]
        out = np.empty(blocks.shape, dtype=np.result_type(*solved))
        for (_, members), x in zip(self._groups, solved):
            out[members] = x
        return out.reshape(-1)


def stack_factorizations(
    factors: list[LinearFactorization], owner
) -> LinearFactorization:
    """One block-diagonal factorization over a batch of points.

    ``factors`` are the per-point factorizations of *distinct* matrices
    sharing one sparsity pattern (one :class:`PatternFactorizer`), and
    ``owner[j]`` names the factorization of batch point ``j``.  The
    result's :meth:`~LinearFactorization.solve` takes the ``B`` points'
    right-hand sides stacked into one ``(B * n,)`` vector and returns
    their solutions stacked the same way, equal bit for bit to solving
    each block with its own factorization.

    The banded backend's factorizations stack into one factorization of
    their own kind, the per-point LU factors laid end to end with each
    point's pivots offset by ``j * n``, so one ``*gttrs`` or ``*gbtrs``
    call solves every point.  Other backends keep one solve per distinct
    factorization, looped over.  A batch of one is its own
    factorization.
    """
    owner = np.asarray(owner, dtype=np.intp)
    if owner.size == 1:
        return factors[owner[0]]
    for kind in (_TridiagonalFactorization, _BandedFactorization):
        if all(type(f) is kind for f in factors):
            return kind.stack(factors, owner)
    return _StackedFactorization(factors, owner)


#: Name -> class registry of the selectable implementations.
BACKENDS: dict[str, type[SimulationBackend]] = {
    backend.name: backend
    for backend in (DenseLuBackend, SparseLuBackend, BandedLuBackend)
}


def _record_selection(selection: BackendSelection) -> None:
    """Count one ``"auto"`` decision (``spice.backend.auto_selected``)."""
    obs.inc(
        "spice.backend.auto_selected",
        backend=selection.backend,
        rule=selection.rule,
    )


def resolve_backend(
    backend: SimulationBackend | str,
    matrix: CooMatrix | None = None,
) -> SimulationBackend:
    """Resolve a backend request to a concrete implementation.

    Parameters
    ----------
    backend:
        A :class:`SimulationBackend` instance (returned unchanged), one
        of the registry names (``"dense"``, ``"sparse"``, ``"banded"``),
        or ``"auto"``.
    matrix:
        The system (or a same-pattern representative, e.g. the union
        pattern of an AC sweep) that will be factored.  Required for
        ``"auto"``, ignored otherwise.

    ``"auto"`` picks dense for systems of at most
    :data:`DENSE_SIZE_CUTOFF` unknowns; above that it computes the RCM
    bandwidth and picks banded when the band holds under ``size / 8``
    of the matrix (ladder chains reorder to a few diagonals), falling
    back to sparse for everything else.
    """
    if isinstance(backend, SimulationBackend):
        return backend
    if not isinstance(backend, str):
        raise ParameterError(
            f"backend must be a name or SimulationBackend, got {backend!r}"
        )
    name = backend.lower()
    if name == "auto":
        if matrix is None:
            raise ParameterError("backend='auto' needs the system matrix")
        n = matrix.shape[0]
        if n <= DENSE_SIZE_CUTOFF:
            chosen: SimulationBackend = DenseLuBackend()
            selection = BackendSelection(
                backend="dense", rule="small-system", size=n, nnz=matrix.nnz
            )
        else:
            profile = rcm_band_profile(matrix)
            band_limit = max(24, n // 8)
            if profile.band_width <= band_limit:
                chosen = BandedLuBackend()
                chosen._seed_profile(matrix, profile)
                selection = BackendSelection(
                    backend="banded",
                    rule="narrow-band",
                    size=n,
                    nnz=matrix.nnz,
                    band_width=profile.band_width,
                    band_limit=band_limit,
                )
            else:
                chosen = SparseLuBackend()
                selection = BackendSelection(
                    backend="sparse",
                    rule="general-sparse",
                    size=n,
                    nnz=matrix.nnz,
                    band_width=profile.band_width,
                    band_limit=band_limit,
                )
        chosen.selection = selection
        _record_selection(selection)
        return chosen
    try:
        return BACKENDS[name]()
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ParameterError(
            f"unknown simulation backend {backend!r}; known: auto, {known}"
        ) from None
