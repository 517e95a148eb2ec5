"""Equivalence suite for the symbolic/numeric (template) split.

Pins the stamp-once / re-value-many machinery against fresh builds:

- ``Param`` / ``ParamAffine`` algebra and element validation,
- template revaluation vs the structure of the bound circuit (exact
  matrix equality),
- property-style transient/AC/DC equivalence on randomized ladders and
  buses, <= 1e-12 across all three backends,
- pattern factorizers (``refactorize``) and multi-RHS ``solve_many``,
- lockstep batch semantics (step-count mismatch, record subsets,
  per-point spans, duplicated points).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bus.builder import build_bus_circuit, build_bus_template
from repro.bus.spec import BusSpec
from repro.errors import NetlistError, ParameterError, SimulationError
from repro.spice.ac import ac_sweep, ac_sweep_batch
from repro.spice.backend import BACKENDS, CooMatrix
from repro.spice.dc import dc_operating_point
from repro.spice.ladder import LadderSpec, build_ladder_circuit, build_ladder_template
from repro.spice.mna import CircuitTemplate, build_mna_structure
from repro.spice.netlist import Circuit, Param, ParamAffine, Step
from repro.spice.transient import simulate_transient, simulate_transient_batch

TOL = 1e-12
ALL_BACKENDS = ("dense", "sparse", "banded")


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _dense(structure, params=None) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(G, C)`` of ``structure`` revalued at ``params``."""
    g_data, c_data = structure.revalue(params)
    return (
        structure.g_plan.coo(g_data).to_dense(),
        structure.c_plan.coo(c_data).to_dense(),
    )


def _random_ladder_params(rng) -> dict:
    return {
        "rt": float(rng.uniform(100.0, 3000.0)),
        "lt": float(rng.uniform(1e-7, 3e-6)),
        "ct": float(rng.uniform(3e-13, 3e-12)),
        "rtr": float(rng.uniform(10.0, 400.0)),
        "cl": float(rng.uniform(2e-14, 4e-13)),
    }


class TestParamAlgebra:
    def test_scaling_and_division(self):
        p = Param("rt")
        assert (p * 2.0).scale == 2.0
        assert (3.0 * p).scale == 3.0
        assert (p / 4.0).scale == 0.25
        assert (p * 2.0).resolve({"rt": 5.0}) == 10.0

    def test_addition_builds_affine(self):
        total = Param("ct", 0.5) + Param("cl")
        assert isinstance(total, ParamAffine)
        assert total.resolve({"ct": 2.0, "cl": 3.0}) == pytest.approx(4.0)

    def test_duplicate_names_merge(self):
        total = Param("ct", 0.5) + Param("ct", 0.25)
        assert total.terms == (("ct", 0.75),)

    def test_invalid_params_rejected(self):
        with pytest.raises(NetlistError):
            Param("")
        with pytest.raises(NetlistError):
            Param("rt", 0.0)
        with pytest.raises(NetlistError):
            Param("rt", float("nan"))

    def test_missing_value_raises(self):
        with pytest.raises(NetlistError, match="missing value"):
            Param("rt").resolve({})

    def test_element_validation(self):
        ckt = Circuit("params")
        # Params bypass the positivity check (value unknown until bind).
        ckt.add_resistor("r1", "a", "0", Param("rt"))
        ckt.add_capacitor("c1", "a", "0", Param("ct", 0.5) + Param("cl"))
        ckt.add_inductor("l1", "a", "b", Param("lt"))
        assert ckt.parameter_names() == ("cl", "ct", "lt", "rt")
        # Reciprocal/sqrt stamps cannot take sums.
        with pytest.raises(NetlistError):
            ckt.add_resistor("r2", "a", "b", Param("x") + Param("y"))
        with pytest.raises(NetlistError):
            ckt.add_inductor("l2", "a", "b", Param("x") + Param("y"))


class TestStructureRevaluation:
    def _template_circuit(self) -> Circuit:
        ckt = Circuit("template under test")
        ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
        ckt.add_resistor("rdrv", "in", "a", Param("rtr"))
        ckt.add_resistor("r1", "a", "b", Param("rt", 0.5))
        ckt.add_inductor("l1", "b", "c", Param("lt"))
        ckt.add_inductor("l2", "c", "d", Param("lt", 2.0))
        ckt.add_mutual_inductance("k12", "l1", "l2", 0.4)
        ckt.add_capacitor("cmid", "c", "0", Param("ct", 0.5))
        ckt.add_capacitor("cfar", "d", "0", Param("ct", 0.5) + Param("cl"))
        return ckt

    def test_revalue_matches_bound_build(self):
        params = {"rtr": 80.0, "rt": 900.0, "lt": 1e-6, "ct": 1e-12, "cl": 2e-13}
        template = CircuitTemplate(self._template_circuit())
        g, c = _dense(template.structure, template.resolve_params(params))
        fresh = build_mna_structure(template.bind(params))
        g_fresh, c_fresh = _dense(fresh)
        # Mutual-inductance stamps round sqrt(s1*s2)*lt vs sqrt(L1*L2)
        # differently by one ulp; everything else is bit-identical.
        np.testing.assert_allclose(g, g_fresh, rtol=TOL, atol=0.0)
        np.testing.assert_allclose(c, c_fresh, rtol=TOL, atol=0.0)
        assert template.structure.node_index == fresh.node_index
        assert template.structure.branch_index == fresh.branch_index

    def test_concrete_structure_revalues_to_its_stamps(self):
        spec = LadderSpec(rt=700.0, lt=1e-6, ct=1e-12, rtr=90.0, cl=1e-13, n_segments=7)
        structure = build_mna_structure(build_ladder_circuit(spec))
        assert structure.param_names == ()
        g_data, c_data = structure.revalue()
        np.testing.assert_array_equal(g_data, structure.g_plan.const)
        np.testing.assert_array_equal(c_data, structure.c_plan.const)

    def test_revalue_validates_names(self):
        template = CircuitTemplate(self._template_circuit())
        structure = template.structure
        with pytest.raises(ParameterError, match="missing parameter"):
            structure.revalue({"rt": 1.0})
        with pytest.raises(ParameterError, match="unknown parameter"):
            structure.revalue(
                {"rtr": 1.0, "rt": 1.0, "lt": 1.0, "ct": 1.0, "cl": 0.0, "bogus": 1.0}
            )

    def test_revalue_rejects_nonfinite_stamps(self):
        template = CircuitTemplate(self._template_circuit())
        with pytest.raises(ParameterError, match="non-finite"):
            template.structure.revalue(
                {"rtr": 0.0, "rt": 1.0, "lt": 1.0, "ct": 1.0, "cl": 0.0}
            )

    def test_revalue_many_matches_scalar(self):
        template = CircuitTemplate(self._template_circuit())
        structure = template.structure
        rng = _rng(3)
        columns = {
            "rtr": rng.uniform(10, 100, 5),
            "rt": rng.uniform(100, 1000, 5),
            "lt": rng.uniform(1e-7, 1e-6, 5),
            "ct": rng.uniform(1e-13, 1e-12, 5),
            "cl": rng.uniform(0.0, 1e-13, 5),
        }
        g_many, c_many = structure.revalue_many(columns)
        for j in range(5):
            g, c = structure.revalue({k: v[j] for k, v in columns.items()})
            np.testing.assert_array_equal(g_many[j], g)
            np.testing.assert_array_equal(c_many[j], c)

    def test_concrete_analyses_reject_unbound_params(self):
        with pytest.raises(NetlistError, match="unbound parameters"):
            dc_operating_point(self._template_circuit())

    def test_controlled_source_gains_stay_concrete(self):
        ckt = Circuit("bad gain")
        ckt.add_voltage_source("vin", "in", "0", 1.0)
        ckt.add_resistor("r1", "in", "out", 10.0)
        ckt.add_vccs("g1", "out", "0", "in", "0", 0.1)
        object.__setattr__(ckt.elements[-1], "transconductance", Param("gm"))
        with pytest.raises(NetlistError, match="cannot be a parameter"):
            build_mna_structure(ckt)

    def test_template_defaults_overlay(self):
        template = CircuitTemplate(
            self._template_circuit(),
            defaults={"rtr": 50.0, "rt": 500.0, "lt": 1e-6, "ct": 1e-12, "cl": 0.0},
        )
        merged = template.resolve_params({"rt": 900.0})
        assert merged["rt"] == 900.0 and merged["rtr"] == 50.0
        with pytest.raises(ParameterError, match="unknown parameter"):
            template.resolve_params({"bogus": 1.0})
        with pytest.raises(ParameterError, match="default for unknown"):
            CircuitTemplate(self._template_circuit(), defaults={"bogus": 1.0})

    def test_bind_drops_zero_capacitors(self):
        template = CircuitTemplate(self._template_circuit())
        bound = template.bind(
            {"rtr": 50.0, "rt": 500.0, "lt": 1e-6, "ct": 1e-12, "cl": 0.0}
        )
        # cfar keeps its ct share; a pure-cl capacitor would vanish.
        names = {e.name for e in bound.elements}
        assert "cfar" in names
        spec_names = {e.name for e in template.circuit.elements}
        assert names == spec_names


class TestLadderEquivalence:
    """template.bind results == fresh builds, all analyses, all backends."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("topology", ["L", "PI", "T"])
    def test_random_ladder_transient_matches(self, seed, topology):
        rng = _rng(10 * seed + hash(topology) % 7)
        params = _random_ladder_params(rng)
        n = int(rng.integers(3, 16))
        spec = LadderSpec(**params, n_segments=n, topology=topology)
        circuit = build_ladder_circuit(spec)
        template = build_ladder_template(n, topology, loaded=True)
        t_stop, dt = 2e-9, 2e-11
        batch = simulate_transient_batch(
            template, [params], t_stop=t_stop, dt=dt, backend="dense"
        )
        for backend in ALL_BACKENDS:
            ref = simulate_transient(circuit, t_stop=t_stop, dt=dt, backend=backend)
            b = simulate_transient_batch(
                template, [params], t_stop=t_stop, dt=dt, backend=backend
            )
            assert np.max(np.abs(b.states[0] - ref.states)) <= TOL
        assert np.max(np.abs(batch.states[0])) > 0.0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_ladder_ac_matches(self, backend):
        rng = _rng(42)
        params = _random_ladder_params(rng)
        spec = LadderSpec(**params, n_segments=9)
        omegas = np.geomspace(1e7, 3e10, 12)
        template = build_ladder_template(9, "PI", loaded=True)
        batch = ac_sweep_batch(template, [params], omegas, backend=backend)
        ref = ac_sweep(build_ladder_circuit(spec), omegas, backend=backend)
        assert np.max(np.abs(batch.states[0] - ref.states)) <= TOL

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_ladder_dc_matches(self, backend):
        rng = _rng(7)
        params = _random_ladder_params(rng)
        spec = LadderSpec(**params, n_segments=6)
        template = build_ladder_template(6, "PI", loaded=True)
        bound = template.bind(params)
        fresh = dc_operating_point(build_ladder_circuit(spec), backend=backend)
        via_bind = dc_operating_point(bound, backend=backend)
        assert abs(via_bind.voltage(spec.output_node) - fresh.voltage(spec.output_node)) <= TOL

    def test_heterogeneous_batch_matches_scalar_loop(self):
        rng = _rng(11)
        points = [_random_ladder_params(rng) for _ in range(6)]
        points[3] = dict(points[0])  # exercise the shared-factorization path
        template = build_ladder_template(8, "PI", loaded=True)
        batch = simulate_transient_batch(
            template, points, t_stop=2e-9, dt=2e-11, backend="banded"
        )
        for j, params in enumerate(points):
            spec = LadderSpec(**params, n_segments=8)
            ref = simulate_transient(
                build_ladder_circuit(spec), t_stop=2e-9, dt=2e-11, backend="banded"
            )
            assert np.max(np.abs(batch.states[j] - ref.states)) <= TOL
        np.testing.assert_array_equal(batch.states[3], batch.states[0])


class TestBusEquivalence:
    def _spec(self, rng, n_lines=3, shields=()) -> BusSpec:
        return BusSpec(
            n_lines=n_lines,
            rt=float(rng.uniform(100.0, 1500.0)),
            lt=float(rng.uniform(1e-7, 2e-6)),
            ct=float(rng.uniform(3e-13, 2e-12)),
            cct=float(rng.uniform(0.0, 8e-13)),
            km=float(rng.uniform(0.0, 0.7)),
            rtr=float(rng.uniform(20.0, 200.0)),
            cl=float(rng.uniform(0.0, 2e-13)),
            n_segments=int(rng.integers(2, 7)),
            shields=shields,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_template_bind_matches_concrete_builder(self, seed):
        rng = _rng(100 + seed)
        shields = (1,) if seed % 2 else ()
        spec = self._spec(rng, n_lines=2 + seed % 2, shields=shields)
        pattern = ["rise", "fall", "quiet"][: spec.n_lines]
        concrete = build_bus_circuit(spec, pattern)
        bound = build_bus_template(spec, tuple(pattern)).bind()
        assert [e.name for e in bound.elements] == [
            e.name for e in concrete.elements
        ]
        g_bound, c_bound = _dense(build_mna_structure(bound))
        g_fresh, c_fresh = _dense(build_mna_structure(concrete))
        scale_g = max(1.0, np.max(np.abs(g_fresh)))
        scale_c = np.max(np.abs(c_fresh))
        assert np.max(np.abs(g_bound - g_fresh)) <= TOL * scale_g
        assert np.max(np.abs(c_bound - c_fresh)) <= TOL * scale_c

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_bus_batch_transient_matches_fresh_builds(self, backend):
        rng = _rng(55)
        spec = self._spec(rng, n_lines=3, shields=(2,))
        template = build_bus_template(spec, "rise")
        sweeps = [
            {"rt": spec.rt[0] * f, "cct": spec.cct * (2.0 - f)}
            for f in (0.75, 1.0, 1.25)
        ]
        batch = simulate_transient_batch(
            template, sweeps, t_stop=2e-9, dt=4e-11, backend=backend
        )
        from dataclasses import replace

        for j, point in enumerate(sweeps):
            concrete_spec = replace(spec, rt=point["rt"], cct=point["cct"])
            ref = simulate_transient(
                build_bus_circuit(concrete_spec, "rise"),
                t_stop=2e-9,
                dt=4e-11,
                backend=backend,
            )
            out = concrete_spec.output_node(0)
            assert (
                np.max(np.abs(batch.voltage(out)[j] - ref.voltage(out).values))
                <= TOL
            )

    def test_nonuniform_spec_rejected(self):
        spec = BusSpec(
            n_lines=2, rt=(100.0, 200.0), lt=1e-7, ct=1e-12, cct=1e-13,
            km=0.3, rtr=50.0, n_segments=3,
        )
        with pytest.raises(ParameterError, match="uniform"):
            build_bus_template(spec)
        # The concrete builder still serves per-line values.
        assert build_bus_circuit(spec).validate() is None


class TestBatchSemantics:
    def _template(self):
        return build_ladder_template(6, "PI", loaded=True)

    def _params(self, k=3):
        rng = _rng(5)
        return [_random_ladder_params(rng) for _ in range(k)]

    def test_mismatched_step_counts_rejected(self):
        with pytest.raises(ParameterError, match="lockstep"):
            simulate_transient_batch(
                self._template(),
                self._params(2),
                t_stop=np.array([1e-9, 2e-9]),
                dt=1e-11,
            )

    def test_inconsistent_point_dicts_rejected(self):
        params = self._params(2)
        del params[0]["cl"]  # point 0 misses a name point 1 provides
        with pytest.raises(ParameterError, match="same parameter names"):
            simulate_transient_batch(
                self._template(), params, t_stop=1e-9, dt=1e-11
            )

    def test_record_subset_matches_full(self):
        params = self._params(2)
        full = simulate_transient_batch(
            self._template(), params, t_stop=1e-9, dt=1e-11
        )
        sub = simulate_transient_batch(
            self._template(), params, t_stop=1e-9, dt=1e-11, record=["n6"]
        )
        np.testing.assert_array_equal(sub.voltage("n6"), full.voltage("n6"))
        with pytest.raises(ParameterError, match="not recorded"):
            sub.voltage("n1")

    def test_initial_zero_and_arrays_rejected(self):
        params = self._params(2)
        template = self._template()
        z = simulate_transient_batch(
            template, params, t_stop=1e-9, dt=1e-11, initial="zero"
        )
        assert np.max(np.abs(z.states[:, 0, :])) == 0.0
        size = template.structure.size
        for x0 in (np.zeros((2, size)), np.zeros(size)):
            with pytest.raises(ParameterError, match="initial must be 'dc' or 'zero'"):
                simulate_transient_batch(
                    template, params, t_stop=1e-9, dt=1e-11, initial=x0
                )

    def test_column_params_broadcast(self):
        template = self._template()
        batch = simulate_transient_batch(
            template,
            {
                "rt": np.array([500.0, 1000.0]),
                "lt": 1e-6,
                "ct": 1e-12,
                "rtr": 100.0,
                "cl": 1e-13,
            },
            t_stop=1e-9,
            dt=1e-11,
            record=["n6"],
        )
        assert batch.n_points == 2
        assert not np.allclose(batch.voltage("n6")[0], batch.voltage("n6")[1])


class TestFactorizersAndSolveMany:
    def _random_system(self, rng, n=12, complex_data=False):
        density = rng.uniform(0.2, 0.5)
        mask = rng.random((n, n)) < density
        np.fill_diagonal(mask, True)
        rows, cols = np.nonzero(mask)
        data = rng.normal(size=rows.size)
        if complex_data:
            data = data + 1j * rng.normal(size=rows.size)
        data = data + 0.0  # ensure float/complex dtype
        # Make it diagonally dominant so every backend factors it.
        coo = CooMatrix(rows, cols, data, (n, n))
        dense = coo.to_dense()
        dense += np.diag(np.sum(np.abs(dense), axis=1) + 1.0)
        rows2, cols2 = np.nonzero(np.ones((n, n)))
        return CooMatrix(rows2, cols2, dense.ravel(), (n, n)), dense

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_refactorize_matches_fresh_factorize(self, name, complex_data):
        rng = _rng(17)
        backend = BACKENDS[name]()
        matrix, dense = self._random_system(rng, complex_data=complex_data)
        factorizer = backend.factorizer(matrix)
        rhs = rng.normal(size=matrix.shape[0])
        for scale in (1.0, 2.5, 0.3):
            data = matrix.data * scale
            x = factorizer.refactorize(data).solve(rhs.astype(data.dtype))
            expected = np.linalg.solve(dense * scale, rhs)
            assert np.max(np.abs(x - expected)) <= 1e-9

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_solve_many_matches_column_loop(self, name):
        rng = _rng(23)
        backend = BACKENDS[name]()
        matrix, _ = self._random_system(rng)
        fact = backend.factorize(matrix)
        block = rng.normal(size=(matrix.shape[0], 5))
        together = fact.solve_many(block)
        assert together.shape == block.shape
        for k in range(5):
            np.testing.assert_allclose(
                together[:, k], fact.solve(block[:, k]), rtol=0.0, atol=1e-13
            )

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_refactorize_singular_raises(self, name):
        backend = BACKENDS[name]()
        n = 4
        rows, cols = np.nonzero(np.ones((n, n)))
        matrix = CooMatrix(rows, cols, np.ones(rows.size), (n, n))
        factorizer = backend.factorizer(matrix)
        with pytest.raises(SimulationError):
            factorizer.refactorize(np.zeros(rows.size))
