"""The stacked lockstep step against the per-group loop it replaced.

:func:`repro.spice.transient.simulate_transient_batch` steps a whole
full-tier batch as one block-diagonal system over the stacked
``(B * n,)`` state: one history matvec, one source add and one solve per
step, through :func:`repro.spice.backend.stack_factorizations` (one
``*gttrs`` call for tridiagonal bands such as every ladder's, one
``*gbtrs`` call for wider ones).  These tests pin that change:

- ``times`` and ``states`` are ``==`` to a frozen copy of the previous
  loop (one ``solve`` per distinct point per step) over PI/L/T ladders,
  a 4-line bus, H-tree, fanout and mesh templates, duplicate points,
  shared and per-point grids, every backend, ``record=None``/``[node]``,
  ``stop_at=None``/``0.5`` and both ``initial`` forms;
- stepping in the stacked factorization's own row order (the banded
  backend's RCM order; dense and sparse keep the identity) keeps those
  ``==`` on a tridiagonal ladder and the 8-line bus (``kl = ku = 11``)
  over every backend, and the 50% delays read from them are finite;
- sweep delays through :class:`~repro.sweep.SweepRunner` on thread and
  process executors equal the frozen loop's;
- a singular point and a singular DC start raise the same errors;
- a banded batch makes one ``spice.backend.solve`` call per step.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse

from repro import obs
from repro.bus.builder import build_bus_template
from repro.bus.spec import BusSpec
from repro.errors import SimulationError
from repro.spice import transient
from repro.spice.backend import (
    LinearFactorization,
    _compressed_dedup_map,
    _scatter_dedup,
    resolve_backend,
    stack_factorizations,
)
from repro.spice.ladder import build_ladder_template
from repro.spice.mna import CircuitTemplate
from repro.spice.netlist import Circuit, Param, PiecewiseLinear, Sine, Step
from repro.spice.transient import (
    _batch_initial_state,
    _param_columns,
    _recorded_rows,
    simulate_transient_batch,
)
from repro.sweep import Axis, ParameterGrid, Sweep, SweepRunner
from repro.tline.waveform import first_crossing
from repro.topology import (
    build_fanout_template,
    build_htree_template,
    build_mesh_template,
)

BACKENDS = ["dense", "sparse", "banded", "auto"]

# ---------------------------------------------------------------------------
# Frozen copy of the previous full-tier loop: one solve per group per step.
# ---------------------------------------------------------------------------


def _old_rhs_matrix(structure, times):
    b = np.zeros((times.size, structure.size))
    for row, sign, waveform in structure.source_rows:
        b[:, row] += sign * np.asarray(waveform(times), dtype=float)
    return b


def _old_rhs_rows(structure, t_points):
    b = np.zeros((t_points.size, structure.size))
    for row, sign, waveform in structure.source_rows:
        b[:, row] += sign * np.asarray(waveform(t_points), dtype=float)
    return b


def _old_csr(pattern, data):
    order, slot, n_unique, indices, indptr = _compressed_dedup_map(
        pattern.rows, pattern.cols, pattern.shape[0]
    )
    acc = _scatter_dedup(order, slot, n_unique, data)
    return scipy.sparse.csr_matrix((acc, indices, indptr), shape=pattern.shape)


def _old_batch(template, params, t_stop, dt, initial="dc", backend="auto",
               record=None, stop_at=None):
    structure, columns, n_points = _param_columns(template, params)
    t_stop = np.broadcast_to(np.asarray(t_stop, dtype=float).ravel(), (n_points,))
    dt = np.broadcast_to(np.asarray(dt, dtype=float).ravel(), (n_points,))
    n_steps = int(np.maximum(1, np.ceil((t_stop / dt) * (1.0 - 1e-12)).astype(int))[0])
    dt_eff = t_stop / n_steps
    shared_grid = bool(np.all(t_stop == t_stop[0]))
    if shared_grid:
        times = np.linspace(0.0, float(t_stop[0]), n_steps + 1)
    else:
        times = np.empty((n_points, n_steps + 1))
        for j in range(n_points):
            times[j] = np.linspace(0.0, float(t_stop[j]), n_steps + 1)

    g_data, c_data = structure.revalue_many(columns)
    pattern = structure.combined_pattern()
    backend = resolve_backend(backend, pattern)
    factorizer = backend.factorizer(pattern)
    weight = 2.0 / dt_eff
    group_of: dict[tuple, int] = {}
    group_members: list[list[int]] = []
    for j in range(n_points):
        key = (g_data[j].tobytes(), c_data[j].tobytes(), float(dt_eff[j]))
        slot = group_of.setdefault(key, len(group_members))
        if slot == len(group_members):
            group_members.append([])
        group_members[slot].append(j)
    groups = []
    for members in group_members:
        j = members[0]
        lhs = np.concatenate([g_data[j], weight[j] * c_data[j]])
        hist = np.concatenate([-1.0 * g_data[j], weight[j] * c_data[j]])
        groups.append((members, factorizer.refactorize(lhs), _old_csr(pattern, hist)))
    x = _batch_initial_state(structure, g_data, initial, backend, group_members)
    rec_rows = _recorded_rows(structure, record)
    states = np.empty((n_points, n_steps + 1, rec_rows.size))
    states[:, 0, :] = x[:, rec_rows]
    if shared_grid:
        b_all = _old_rhs_matrix(structure, times)
    else:
        b_prev = _old_rhs_rows(structure, times[:, 0])
    steps_run = n_steps
    if stop_at is not None:
        below = states[:, 0, 0] < stop_at
        crossed = np.zeros(n_points, dtype=bool)
    for k in range(n_steps):
        if shared_grid:
            b_term = b_all[k + 1] + b_all[k]
        else:
            b_next = _old_rhs_rows(structure, times[:, k + 1])
            b_term = b_next + b_prev
            b_prev = b_next
        x_next = np.empty_like(x)
        for members, fact, hist_op in groups:
            if len(members) == 1:
                j = members[0]
                rhs = hist_op @ x[j]
                rhs += b_term if shared_grid else b_term[j]
                x_next[j] = fact.solve(rhs)
            else:
                rhs = hist_op @ x[members].T
                if shared_grid:
                    rhs += b_term[:, None]
                else:
                    rhs += b_term[members].T
                x_next[members] = fact.solve_many(rhs).T
        x = x_next
        states[:, k + 1, :] = x[:, rec_rows]
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
    return times, states


def _assert_same(template, params, t_stop, dt, **kwargs):
    """The stacked batch equals the frozen loop, ``times`` and ``states``."""
    new = simulate_transient_batch(template, params, t_stop, dt, **kwargs)
    times, states = _old_batch(template, params, t_stop, dt, **kwargs)
    assert np.array_equal(new.times, times)
    assert np.array_equal(new.states, states)
    return new


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


def _ladder_points(rng, n, duplicate=True):
    points = [
        {"rt": float(rt), "lt": float(lt), "ct": 1e-12, "rtr": 250.0, "cl": 2e-13}
        for rt, lt in zip(
            rng.uniform(200.0, 2000.0, n), 10.0 ** rng.uniform(-8.0, -6.0, n)
        )
    ]
    if duplicate:
        points.insert(1, dict(points[0]))
        points.append(dict(points[0]))
    return points


def _grid(points, shared_grid, n_steps=200, t_stop=2e-9):
    """``(t_stop, dt)`` for a shared grid or per-point spans of ``n_steps``."""
    if shared_grid:
        return t_stop, t_stop / n_steps
    spans = t_stop * np.linspace(0.5, 1.5, len(points))
    # Duplicate points keep equal spans, so they still share a factorization.
    for j, point in enumerate(points):
        for i in range(j):
            if points[i] == point:
                spans[j] = spans[i]
                break
    return spans, spans / n_steps


BUS = BusSpec(
    n_lines=4, rt=1000.0, lt=1e-6, ct=1e-12, cct=4e-13, km=0.5,
    rtr=100.0, cl=1e-13, n_segments=30,
)


def _bus_points(rng):
    points = [
        {"rt": float(rt), "cct": float(cct)}
        for rt, cct in zip(rng.uniform(600.0, 1400.0, 3), rng.uniform(2e-13, 6e-13, 3))
    ]
    return points + [dict(points[1])]


class TestLadders:
    @pytest.mark.parametrize("n_segments", [20, 100, 150])
    @pytest.mark.parametrize("topology", ["PI", "L", "T"])
    def test_topologies(self, rng, topology, n_segments):
        template = build_ladder_template(n_segments, topology, loaded=True)
        points = _ladder_points(rng, 4)
        node = f"n{n_segments}"
        for shared_grid in (True, False):
            t_stop, dt = _grid(points, shared_grid)
            for stop_at in (None, 0.5):
                _assert_same(
                    template, points, t_stop, dt, record=[node], stop_at=stop_at
                )

    @pytest.mark.parametrize("shared_grid", [True, False])
    @pytest.mark.parametrize("record", [None, ["n20"]])
    @pytest.mark.parametrize("initial", ["dc", "zero"])
    def test_initial_and_record(self, rng, initial, record, shared_grid):
        template = build_ladder_template(20, "PI", loaded=True)
        points = _ladder_points(rng, 3)
        t_stop, dt = _grid(points, shared_grid)
        _assert_same(template, points, t_stop, dt, initial=initial, record=record)

    def test_stop_cuts_the_run(self, rng):
        template = build_ladder_template(100, "PI", loaded=True)
        points = _ladder_points(rng, 4)
        t_stop, dt = _grid(points, shared_grid=False, n_steps=1500, t_stop=2e-8)
        result = _assert_same(template, points, t_stop, dt, record=["n100"], stop_at=0.5)
        assert 0 < result.n_steps < 1500


class TestBus:
    # The falling line starts at 1, so the DC start is not the rest state.
    @pytest.mark.parametrize("initial", ["dc", "zero"])
    @pytest.mark.parametrize("shared_grid", [True, False])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_grids(self, rng, backend, shared_grid, initial):
        template = build_bus_template(BUS, ("rise", "fall", "rise", "quiet"))
        points = _bus_points(rng)
        t_stop, dt = _grid(points, shared_grid, n_steps=120)
        for record, stop_at in ((None, None), ([BUS.output_node(0)], 0.5)):
            _assert_same(
                template, points, t_stop, dt, initial=initial, backend=backend,
                record=record, stop_at=stop_at,
            )

    def test_band_is_wider_than_a_vector(self):
        template = build_bus_template(BUS, ("rise", "fall", "rise", "quiet"))
        backend = resolve_backend("banded")
        pattern = template.structure.combined_pattern()
        profile = backend._profile_for(pattern)
        assert profile.kl > 4 and profile.ku > 4


class TestTopologies:
    @pytest.mark.parametrize("shared_grid", [True, False])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_htree(self, rng, backend, shared_grid):
        template = build_htree_template(2, n_segments=6)
        points = [
            {"rt": float(rt), "lt": 1e-7, "ct": 1e-12, "rtr": 100.0, "cl": 1e-13}
            for rt in rng.uniform(200.0, 2000.0, 3)
        ]
        points.append(dict(points[0]))
        t_stop, dt = _grid(points, shared_grid, n_steps=150)
        _assert_same(template, points, t_stop, dt, backend=backend)

    @pytest.mark.parametrize("shared_grid", [True, False])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fanout(self, rng, backend, shared_grid):
        template = build_fanout_template(4, trunk_segments=4, branch_segments=6)
        points = [
            {"brt": float(brt), "blt": 1e-7, "bct": 2e-13, "rtr": 100.0,
             "cl": 1e-13, "rt": 300.0, "lt": 1e-7, "ct": 5e-13}
            for brt in rng.uniform(100.0, 1000.0, 3)
        ]
        t_stop, dt = _grid(points, shared_grid, n_steps=150)
        _assert_same(template, points, t_stop, dt, backend=backend, record=["s0"])

    @pytest.mark.parametrize("shared_grid", [True, False])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mesh(self, rng, backend, shared_grid):
        template = build_mesh_template(4, 5, inductive=True, loaded=True)
        points = [
            {"re": float(re), "le": 1e-9, "cn": 1e-13, "rtr": 50.0, "cl": 1e-13}
            for re in rng.uniform(5.0, 50.0, 3)
        ]
        t_stop, dt = _grid(points, shared_grid, n_steps=150)
        _assert_same(template, points, t_stop, dt, backend=backend)


BUS8 = BusSpec(
    n_lines=8, rt=1000.0, lt=1e-6, ct=1e-12, cct=4e-13, km=0.5,
    rtr=100.0, cl=1e-13, n_segments=10,
)


class TestFactorOrder:
    """Factor-order stepping on tridiagonal and wider bands."""

    CASES = {
        "ladder": (
            lambda: build_ladder_template(60, "PI", loaded=True), "n60", (1, 1),
        ),
        "bus8": (
            lambda: build_bus_template(BUS8, tuple("rise" if i % 2 == 0 else "fall"
                                                   for i in range(8))),
            BUS8.output_node(0), (11, 11),
        ),
    }

    def _points(self, rng, case):
        if case == "ladder":
            return _ladder_points(rng, 5)
        return _bus_points(rng) + [
            {"rt": float(rt), "cct": 4e-13} for rt in rng.uniform(600.0, 1400.0, 2)
        ]

    @pytest.mark.parametrize("shared_grid", [True, False])
    @pytest.mark.parametrize("backend", ["dense", "sparse", "banded"])
    @pytest.mark.parametrize("case", ["ladder", "bus8"])
    def test_states_and_delays_match(self, rng, case, backend, shared_grid):
        build, node, band = self.CASES[case]
        template = build()
        profile = resolve_backend("banded")._profile_for(
            template.structure.combined_pattern()
        )
        assert (profile.kl, profile.ku) == band
        points = self._points(rng, case)
        t_stop, dt = _grid(points, shared_grid, n_steps=400, t_stop=4e-9)
        for record, stop_at in ((None, None), ([node], None), ([node], 0.5)):
            new = _assert_same(
                template, points, t_stop, dt,
                backend=backend, record=record, stop_at=stop_at,
            )
            assert new.recorded_rows == tuple(
                _recorded_rows(template.structure, record).tolist()
            )
            column = new.recorded_rows.index(template.structure.voltage_row(node))
            delays = [
                first_crossing(new.times_of(j), new.states[j, :, column], 0.5)
                for j in range(len(points))
            ]
            assert np.isfinite(delays).all()

    def test_in_factor_order_contract(self, rng):
        template = build_ladder_template(20, "PI", loaded=True)
        pattern = template.structure.combined_pattern()
        g_data, c_data = template.structure.revalue_many(
            {k: np.asarray([p[k] for p in _ladder_points(rng, 2, duplicate=False)])
             for k in ("rt", "lt", "ct", "rtr", "cl")}
        )
        rhs = rng.standard_normal(2 * template.structure.size)
        for name in ("dense", "sparse", "banded"):
            factorizer = resolve_backend(name).factorizer(pattern)
            stacked = stack_factorizations(
                [factorizer.refactorize(np.concatenate([g_data[j], 1e11 * c_data[j]]))
                 for j in range(2)],
                [0, 1],
            )
            order, in_order = stacked.in_factor_order()
            assert (order is None) == (name != "banded")
            if order is None:
                assert in_order is stacked
                continue
            assert np.array_equal(in_order.solve(rhs[order]), stacked.solve(rhs)[order])


def _sourced_template() -> CircuitTemplate:
    """An RLC line driven by a sine, a PWL and a step on one row each."""
    ckt = Circuit("sources")
    ckt.add_voltage_source("vs", "a", "0", Sine(0.1, 0.5, 2e9))
    ckt.add_resistor("ra", "a", "m", Param("r"))
    ckt.add_inductor("la", "m", "out", Param("l"))
    ckt.add_capacitor("ca", "out", "0", 1e-12)
    ckt.add_current_source("ip", "0", "out", PiecewiseLinear(((0.0, 0.0), (1e-9, 1e-3), (3e-9, -1e-3))))
    ckt.add_current_source("is", "out", "0", Step(0.0, 2e-4, 5e-10))
    return CircuitTemplate(ckt)


class TestSources:
    # The sine's 0.1 V offset makes the DC start differ from rest.
    @pytest.mark.parametrize("initial", ["dc", "zero"])
    @pytest.mark.parametrize("shared_grid", [True, False])
    def test_waveforms_evaluated_once(self, rng, shared_grid, initial):
        template = _sourced_template()
        points = [{"r": float(r), "l": 1e-8} for r in rng.uniform(10.0, 100.0, 3)]
        t_stop, dt = _grid(points, shared_grid, n_steps=300, t_stop=4e-9)
        _assert_same(template, points, t_stop, dt, initial=initial)


class TestSweepRunner:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_sweep_delays(self, rng, monkeypatch, executor):
        rts = np.sort(rng.uniform(200.0, 2000.0, 2))
        lts = np.sort(10.0 ** rng.uniform(-8.0, -6.0, 3))
        sweep = Sweep(
            "simulated_delay_50",
            ParameterGrid(Axis("rt", rts), Axis("lt", lts), Axis("cl", [3e-13])),
            fixed={"ct": 1e-12, "rtr": 500.0},
            options={"route": "mna", "model": "full", "n_samples": 1001},
        )
        stacked = SweepRunner(max_workers=2, executor=executor).run(sweep)

        def frozen(template, params, t_stop, dt, model="full", rom_order=None,
                   rom_error_bound=None, **kwargs):
            times, states = _old_batch(template, params, t_stop, dt, **kwargs)
            structure = template.structure
            return transient.TransientBatchResult(
                times=times, states=states, structure=structure,
                recorded_rows=tuple(
                    int(r) for r in _recorded_rows(structure, kwargs.get("record"))
                ),
            )

        monkeypatch.setattr(transient, "simulate_transient_batch", frozen)
        reference = SweepRunner(max_workers=2, executor="thread").run(sweep)
        assert np.array_equal(stacked.output("delay_s"), reference.output("delay_s"))


# ---------------------------------------------------------------------------
# Error and observability contracts
# ---------------------------------------------------------------------------


def _floating_template() -> CircuitTemplate:
    """Node ``c`` hangs on capacitors only: singular when both are zero."""
    ckt = Circuit("floating")
    ckt.add_voltage_source("v1", "a", "0", Step(0.0, 1.0))
    ckt.add_resistor("r1", "a", "b", 1.0)
    ckt.add_capacitor("c1", "b", "c", Param("c1"))
    ckt.add_capacitor("c2", "c", "0", Param("c2"))
    return CircuitTemplate(ckt)


@pytest.mark.parametrize("backend", ["dense", "sparse", "banded"])
class TestErrors:
    def test_singular_point_named(self, backend):
        points = [{"c1": 1e-12, "c2": 1e-12}, {"c1": 1e-12, "c2": 1e-12},
                  {"c1": 0.0, "c2": 0.0}]
        with pytest.raises(SimulationError) as caught:
            simulate_transient_batch(
                _floating_template(), points, 1e-9, 1e-11,
                initial="zero", backend=backend,
            )
        assert str(caught.value) == (
            f"singular transient system matrix (backend={backend}) at batch point 2"
        )

    def test_singular_dc_start(self, backend):
        points = [{"c1": 1e-12, "c2": 1e-12}, {"c1": 2e-12, "c2": 1e-12}]
        with pytest.raises(SimulationError) as caught:
            simulate_transient_batch(
                _floating_template(), points, 1e-9, 1e-11, backend=backend,
            )
        assert str(caught.value) == (
            "singular DC system while computing the initial operating point "
            "of batch point 0; pass initial='zero'"
        )


class TestObservability:
    def test_one_banded_solve_per_step(self, rng):
        template = build_ladder_template(100, "PI", loaded=True)
        points = _ladder_points(rng, 6)
        t_stop, dt = _grid(points, shared_grid=False, n_steps=300)
        with obs.capture():
            result = simulate_transient_batch(
                template, points, t_stop, dt, backend="banded",
                record=["n100"], stop_at=0.5,
            )
            solves = obs.REGISTRY.counter("spice.backend.solve", backend="banded")
            factorizations = obs.REGISTRY.counter("spice.transient.factorizations")
            reuse = obs.REGISTRY.counter("spice.transient.shared_factorization_reuse")
            (span,) = [s for s in obs.trace_roots() if s.name == "transient.batch"]
        # One DC start solve per distinct point, then one per step.
        assert solves == len(points) - 2 + result.n_steps
        assert factorizations == len(points) - 2
        assert reuse == 2
        assert span.attrs["groups"] == len(points) - 2

    def test_stacked_factorization_is_a_linear_factorization(self, rng):
        template = build_ladder_template(20, "PI", loaded=True)
        structure = template.structure
        g_data, c_data = structure.revalue_many(
            {k: np.asarray([p[k] for p in _ladder_points(rng, 2)])
             for k in ("rt", "lt", "ct", "rtr", "cl")}
        )
        pattern = structure.combined_pattern()
        for name in ("dense", "sparse", "banded"):
            factorizer = resolve_backend(name).factorizer(pattern)
            factors = [
                factorizer.refactorize(np.concatenate([g_data[j], 1e11 * c_data[j]]))
                for j in (0, 2)
            ]
            owner = [0, 1, 0, 1]
            stacked = stack_factorizations(factors, owner)
            assert isinstance(stacked, LinearFactorization)
            rhs = rng.standard_normal(len(owner) * structure.size)
            blocks = rhs.reshape(len(owner), -1)
            # The previous loop's calls: one solve_many per shared factor
            # (dense getrs on two columns is not bit-equal to two solves).
            expected = np.empty_like(blocks)
            for g, factor in enumerate(factors):
                members = np.flatnonzero(np.asarray(owner) == g)
                expected[members] = factor.solve_many(blocks[members].T).T
            assert np.array_equal(stacked.solve(rhs), expected.ravel())

    def test_auto_backend_resolved_once_per_structure(self, rng, monkeypatch):
        import repro.spice.backend as backend_module

        template = build_ladder_template(100, "PI", loaded=True)
        points = _ladder_points(rng, 2, duplicate=False)
        t_stop, dt = _grid(points, shared_grid=True, n_steps=20)
        simulate_transient_batch(template, points, t_stop, dt)  # warm the memo
        calls = []
        original = backend_module.rcm_band_profile

        def counting(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(backend_module, "rcm_band_profile", counting)
        with obs.capture():
            for _ in range(3):
                simulate_transient_batch(template, points, t_stop, dt)
            selected = obs.REGISTRY.counter(
                "spice.backend.auto_selected", backend="banded", rule="narrow-band"
            )
        assert calls == []
        assert selected == 3
