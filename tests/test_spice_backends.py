"""Backend-equivalence suite for repro.spice.backend.

Every analysis (transient, AC, DC) must produce the same numbers on all
three linear-solver backends, on RC, RLC and coupled-line circuits --
including the singular-``G`` error paths, which must raise the same
exception class no matter which implementation is active.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.bus import BusSpec, build_bus_circuit
from repro.errors import ParameterError, SimulationError
from repro.spice.ac import ac_sweep
from repro.spice.backend import (
    BACKENDS,
    BandedLuBackend,
    CooMatrix,
    DenseLuBackend,
    SparseLuBackend,
    rcm_band_profile,
    resolve_backend,
)
from repro.spice.dc import dc_operating_point
from repro.spice.ladder import LadderSpec, build_ladder_circuit
from repro.spice.mna import build_mna_structure
from repro.spice.netlist import Circuit, Step
from repro.spice.transient import simulate_transient

from mna_matrices import combine, triplets

BACKEND_NAMES = sorted(BACKENDS)  # banded, dense, sparse


def mna_matrix(circuit: Circuit, c_weight: float) -> CooMatrix:
    """Triplet form of ``G + c_weight * C`` at the circuit's values."""
    _, g_coo, c_coo = triplets(circuit)
    return combine((1.0, g_coo), (c_weight, c_coo))


def rc_circuit() -> Circuit:
    ckt = Circuit()
    ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
    ckt.add_resistor("r1", "in", "out", 1000.0)
    ckt.add_capacitor("c1", "out", "0", 1e-12)
    return ckt


def rlc_circuit() -> Circuit:
    ckt = Circuit()
    ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
    ckt.add_resistor("r1", "in", "mid", 20.0)
    ckt.add_inductor("l1", "mid", "out", 1e-9)
    ckt.add_capacitor("c1", "out", "0", 1e-12)
    ckt.add_resistor("rload", "out", "0", 1e6)
    return ckt


def ladder_circuit() -> Circuit:
    spec = LadderSpec(
        rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13, n_segments=24
    )
    return build_ladder_circuit(spec)


def coupled_circuit() -> Circuit:
    spec = BusSpec(
        n_lines=2,
        rt=100.0,
        lt=25e-9,
        ct=2e-12,
        cct=1e-12,
        km=0.5,
        rtr=50.0,
        cl=5e-14,
        n_segments=6,
    )
    return build_bus_circuit(spec, ("rise", "quiet"))


def floating_node_circuit() -> Circuit:
    """Capacitor-only island: G has a structurally zero row."""
    ckt = Circuit()
    ckt.add_voltage_source("v1", "a", "0", Step(0.0, 1.0))
    ckt.add_resistor("r1", "a", "b", 1.0)
    ckt.add_capacitor("c1", "b", "c", 1e-12)
    ckt.add_capacitor("c2", "c", "0", 1e-12)
    return ckt


CIRCUITS = {
    "rc": rc_circuit,
    "rlc": rlc_circuit,
    "ladder": ladder_circuit,
    "coupled": coupled_circuit,
}

TRANSIENT_SETTINGS = {
    "rc": dict(t_stop=5e-9, dt=2e-12),
    "rlc": dict(t_stop=2e-9, dt=2e-13),
    "ladder": dict(t_stop=2e-9, dt=2e-12),
    "coupled": dict(t_stop=5e-9, dt=5e-12),
}


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
class TestEquivalence:
    def test_transient_states_match_dense(self, circuit_name, backend):
        settings = TRANSIENT_SETTINGS[circuit_name]
        reference = simulate_transient(
            CIRCUITS[circuit_name](), backend="dense", **settings
        )
        result = simulate_transient(
            CIRCUITS[circuit_name](), backend=backend, **settings
        )
        assert np.array_equal(result.times, reference.times)
        assert result.times[-1] == settings["t_stop"]
        assert np.max(np.abs(result.states - reference.states)) <= 1e-10

    def test_transient_initial_zero(self, circuit_name, backend):
        settings = TRANSIENT_SETTINGS[circuit_name]
        result = simulate_transient(
            CIRCUITS[circuit_name](), backend=backend, initial="zero", **settings
        )
        assert np.all(result.states[0] == 0.0)

    def test_ac_states_match_dense(self, circuit_name, backend):
        omegas = np.geomspace(1e6, 1e10, 9)
        kwargs = {}
        if circuit_name == "coupled":
            kwargs["input_source"] = "vinb0_"
        reference = ac_sweep(
            CIRCUITS[circuit_name](), omegas, backend="dense", **kwargs
        )
        result = ac_sweep(
            CIRCUITS[circuit_name](), omegas, backend=backend, **kwargs
        )
        assert np.max(np.abs(result.states - reference.states)) <= 1e-10

    def test_dc_matches_dense(self, circuit_name, backend):
        reference = dc_operating_point(CIRCUITS[circuit_name](), backend="dense")
        solution = dc_operating_point(CIRCUITS[circuit_name](), backend=backend)
        assert np.max(np.abs(solution.vector - reference.vector)) <= 1e-10


@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestSingularPaths:
    def test_dc_floating_node_raises(self, backend):
        with pytest.raises(SimulationError, match="singular"):
            dc_operating_point(floating_node_circuit(), backend=backend)

    def test_transient_initial_dc_singular_g_raises(self, backend):
        with pytest.raises(SimulationError, match="initial operating"):
            simulate_transient(
                floating_node_circuit(),
                t_stop=1e-9,
                dt=1e-11,
                initial="dc",
                backend=backend,
            )

    def test_transient_initial_zero_sidesteps_singular_g(self, backend):
        # The transient LHS (G + a*C) is nonsingular even when G alone
        # is not; initial='zero' must therefore succeed.
        result = simulate_transient(
            floating_node_circuit(),
            t_stop=1e-9,
            dt=1e-11,
            initial="zero",
            backend=backend,
        )
        assert np.all(np.isfinite(result.states))


@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestComplexRhsAgainstRealFactor:
    """A real factor solves a complex RHS in full, imaginary part kept."""

    @staticmethod
    def _check(backend, rng, n_rhs):
        spec = LadderSpec(
            rt=1000.0, lt=1e-7, ct=1e-12, rtr=100.0, cl=1e-13, n_segments=20
        )
        matrix = mna_matrix(build_ladder_circuit(spec), 1e11)
        factor = resolve_backend(backend).factorize(matrix)
        shape = (matrix.shape[0],) + ((n_rhs,) if n_rhs else ())
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.linalg.solve(matrix.to_dense().astype(complex), rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            x = factor.solve_many(rhs) if n_rhs else factor.solve(rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_solve(self, backend, rng):
        self._check(backend, rng, None)

    def test_solve_many(self, backend, rng):
        self._check(backend, rng, 3)


def test_dense_empty_system_solves_to_empty():
    empty = np.zeros(0, dtype=np.intp)
    factor = resolve_backend("dense").factorize(
        CooMatrix(empty, empty, np.zeros(0), (0, 0))
    )
    assert factor.solve(np.zeros(0)).shape == (0,)
    assert factor.solve_many(np.zeros((0, 3))).shape == (0, 3)


def _chain_matrix(n: int) -> CooMatrix:
    i = np.arange(n - 1)
    rows = np.concatenate([np.arange(n), i, i + 1])
    cols = np.concatenate([np.arange(n), i + 1, i])
    data = np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0)])
    return CooMatrix(rows, cols, data, (n, n))


def _expander_matrix(n: int) -> CooMatrix:
    """Diagonal + two random-permutation couplings (degree-4 expander).

    Random expanders have no small separators, so no reordering -- RCM
    included -- can compress them into a narrow band.
    """
    rng = np.random.default_rng(42)
    p1, p2 = rng.permutation(n), rng.permutation(n)
    i = np.arange(n)
    rows = np.concatenate([i, i, p1, i, p2])
    cols = np.concatenate([i, p1, i, p2, i])
    data = np.concatenate([np.full(n, 6.0)] + [np.full(n, -1.0)] * 4)
    return CooMatrix(rows, cols, data, (n, n))


class TestResolution:
    def test_small_system_resolves_dense(self):
        assert isinstance(
            resolve_backend("auto", _chain_matrix(16)), DenseLuBackend
        )

    def test_large_chain_resolves_banded(self):
        assert isinstance(
            resolve_backend("auto", _chain_matrix(600)), BandedLuBackend
        )

    def test_large_unstructured_resolves_sparse(self):
        matrix = _expander_matrix(600)
        profile = rcm_band_profile(matrix)
        assert profile.band_width > 600 // 8  # precondition of the pick
        assert isinstance(resolve_backend("auto", matrix), SparseLuBackend)

    def test_explicit_names(self):
        for name, cls in BACKENDS.items():
            assert isinstance(resolve_backend(name), cls)

    def test_instance_passthrough(self):
        backend = SparseLuBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ParameterError, match="unknown simulation backend"):
            resolve_backend("cholesky")
        with pytest.raises(ParameterError, match="unknown simulation backend"):
            simulate_transient(rc_circuit(), 1e-9, 1e-11, backend="cholesky")

    def test_ladder_auto_selects_banded(self):
        spec = LadderSpec(
            rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13, n_segments=200
        )
        matrix = mna_matrix(build_ladder_circuit(spec), 1.0)
        backend = resolve_backend("auto", matrix)
        assert isinstance(backend, BandedLuBackend)


class TestCooMatrix:
    def test_duplicate_entries_sum_everywhere(self):
        coo = CooMatrix([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], (2, 2))
        expected = np.array([[3.0, 0.0], [0.0, 5.0]])
        assert np.array_equal(coo.to_dense(), expected)
        assert np.array_equal(coo.to_csr().toarray(), expected)
        assert np.array_equal(coo.to_csc().toarray(), expected)

    def test_scaled_promotes_complex(self):
        coo = CooMatrix([0], [0], [2.0], (1, 1)).scaled(1j)
        assert coo.data.dtype.kind == "c"
        assert coo.to_dense()[0, 0] == 2j

    def test_combined_pattern_weights_g_then_c(self):
        structure = build_mna_structure(ladder_circuit())
        g_data, c_data = structure.revalue()
        pattern = structure.combined_pattern()
        combined = CooMatrix(
            pattern.rows, pattern.cols,
            np.concatenate([2.0 * g_data, 3.0 * c_data]), pattern.shape,
        )
        g = structure.g_plan.coo(g_data).to_dense()
        c = structure.c_plan.coo(c_data).to_dense()
        assert np.allclose(combined.to_dense(), 2.0 * g + 3.0 * c)
