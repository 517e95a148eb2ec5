"""The banded backend's tridiagonal kernel (``*gttrf``/``*gttrs``).

:class:`~repro.spice.backend.BandedLuBackend` factors every pattern
whose RCM profile is tridiagonal (``kl = ku = 1``) with LAPACK's
tridiagonal LU, and wider bands with ``*gbtrf``.  These tests pin:

- which ladder and bus patterns take which kernel;
- agreement with the dense reference where row interchanges fire,
  for real and complex data, ``solve`` and ``solve_many``;
- stacked solves equal to per-point solves bit for bit;
- the singular-matrix error text of the ``*gbtrf`` path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bus.builder import build_bus_template
from repro.bus.spec import BusSpec
from repro.errors import SimulationError
from repro.spice.backend import (
    BandedLuBackend,
    CooMatrix,
    DenseLuBackend,
    _BandedFactorization,
    _TridiagonalFactorization,
    rcm_band_profile,
    stack_factorizations,
)
from repro.spice.ladder import LadderSpec, LadderTopology, build_ladder_circuit
from repro.spice.transient import _param_columns

from mna_matrices import combine, triplets


def _ladder_matrix(topology, loaded: bool, n_segments: int = 40) -> CooMatrix:
    spec = LadderSpec(
        rt=1000.0, lt=1e-7, ct=1e-12, rtr=100.0,
        cl=2e-13 if loaded else 0.0, n_segments=n_segments, topology=topology,
    )
    _, g_coo, c_coo = triplets(build_ladder_circuit(spec))
    return combine((1.0, g_coo), (1e11, c_coo))


def _tridiagonal(n: int, rng, complex_data: bool = False, zero_col=None) -> CooMatrix:
    """A tridiagonal whose off-diagonals dominate its diagonal.

    ``*gttrf`` swaps rows wherever the sub-diagonal entry outweighs
    the (updated) pivot, so either RCM orientation exercises
    interchanges.
    """
    i = np.arange(n - 1)
    rows = np.concatenate([np.arange(n), i + 1, i])
    cols = np.concatenate([np.arange(n), i, i + 1])

    def draw():
        magnitude = np.concatenate([
            rng.uniform(0.05, 0.2, n), rng.uniform(1.0, 2.0, 2 * (n - 1))
        ])
        return magnitude * rng.choice([-1.0, 1.0], magnitude.size)

    data = draw() + 1j * draw() if complex_data else draw()
    if zero_col is not None:
        data[cols == zero_col] = 0.0
    return CooMatrix(rows, cols, data, (n, n))


def _rhs(rng, shape, complex_data: bool):
    rhs = rng.standard_normal(shape)
    return rhs + 1j * rng.standard_normal(shape) if complex_data else rhs


def _relative_error(x, reference) -> float:
    return float(np.max(np.abs(x - reference)) / np.max(np.abs(reference)))


class TestKernelChoice:
    @pytest.mark.parametrize("loaded", [True, False])
    @pytest.mark.parametrize("topology", list(LadderTopology))
    def test_ladders_are_tridiagonal(self, topology, loaded):
        matrix = _ladder_matrix(topology, loaded)
        profile = rcm_band_profile(matrix)
        assert (profile.kl, profile.ku) == (1, 1)
        factor = BandedLuBackend().factorize(matrix)
        assert isinstance(factor, _TridiagonalFactorization)

    def test_ac_ladder_takes_the_complex_kernel(self):
        matrix = _ladder_matrix(LadderTopology.PI, True).scaled(1.0 + 0.5j)
        factor = BandedLuBackend().factorize(matrix)
        assert isinstance(factor, _TridiagonalFactorization)
        assert factor._d.dtype == np.complex128

    def test_bus_stays_on_the_general_band(self):
        spec = BusSpec(
            n_lines=4, rt=1000.0, lt=1e-6, ct=1e-12, cct=4e-13, km=0.5,
            rtr=100.0, cl=1e-13, n_segments=10,
        )
        template = build_bus_template(spec, ("rise", "fall", "rise", "quiet"))
        structure, columns, _ = _param_columns(template, [{}])
        g_data, c_data = structure.revalue_many(columns)
        factor = BandedLuBackend().factorizer(structure.combined_pattern()).refactorize(
            np.concatenate([g_data[0], 1e11 * c_data[0]])
        )
        assert type(factor) is _BandedFactorization
        assert factor._kl > 1


@pytest.mark.parametrize("complex_data", [False, True])
class TestAgainstDense:
    def test_solve_and_solve_many(self, rng, complex_data):
        matrix = _tridiagonal(60, rng, complex_data)
        factor = BandedLuBackend().factorize(matrix)
        assert isinstance(factor, _TridiagonalFactorization)
        n = matrix.shape[0]
        assert np.any(factor._ipiv != np.arange(1, n + 1))  # rows swapped
        reference = DenseLuBackend().factorize(matrix)
        rhs = _rhs(rng, n, complex_data)
        block = _rhs(rng, (n, 5), complex_data)
        assert _relative_error(factor.solve(rhs), reference.solve(rhs)) <= 1e-12
        assert _relative_error(
            factor.solve_many(block), reference.solve_many(block)
        ) <= 1e-12
        assert np.allclose(matrix.to_dense() @ factor.solve(rhs), rhs, atol=1e-10)


@pytest.mark.parametrize("complex_data", [False, True])
def test_stacked_equals_per_point_bit_for_bit(rng, complex_data):
    matrices = [_tridiagonal(30, rng, complex_data) for _ in range(3)]
    factorizer = BandedLuBackend().factorizer(matrices[0])
    factors = [factorizer.refactorize(m.data) for m in matrices]
    for owner in ([0, 1, 0, 2, 1], [2, 2], [1, 0]):
        stacked = stack_factorizations(factors, owner)
        assert isinstance(stacked, _TridiagonalFactorization)
        rhs = _rhs(rng, len(owner) * 30, complex_data)
        blocks = rhs.reshape(len(owner), -1)
        expected = np.concatenate(
            [factors[g].solve(blocks[j]) for j, g in enumerate(owner)]
        )
        assert np.array_equal(stacked.solve(rhs), expected)


@pytest.mark.parametrize("zero_col, row", [(0, 8), (3, 5), (7, 1)])
def test_singular_point_keeps_the_banded_error_text(zero_col, row):
    # The rows are those the *gbtrf path reported for the same matrices.
    matrix = _tridiagonal(8, np.random.default_rng(5), zero_col=zero_col)
    with pytest.raises(SimulationError) as caught:
        BandedLuBackend().factorize(matrix)
    assert str(caught.value) == (
        f"singular matrix (banded LU: zero pivot at row {row})"
    )
