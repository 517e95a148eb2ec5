"""Conformance suite for the reduced-order evaluation-model tier.

Pins the ``model="full" | "reduced" | "auto"`` plumbing end to end:

- :func:`repro.rom.model.resolve_model` validation,
- reduced-vs-full equivalence for transient, AC and delay queries on
  ladders, coupled buses, H-trees, fanout trees and meshes, across all
  three linear-solver backends,
- the ``"auto"`` decision rules (small-system shortcut, within-bound
  service, per-query and per-point error fallback) with their recorded
  counters,
- projection caching (``rom.projection_builds`` / ``projection_reuse``),
- cross-validation against AWE on the canonical driver--line--load
  circuit, including the documented order crossover (AWE capped near
  q ~ 8, the projection tier comfortable far beyond),
- the sweep runner's ``model=`` option (validation, caching, results).

Tolerances are pinned ~10x above measured errors so they guard real
regressions without flaking on backend noise.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro import rom as rom_pkg
from repro.bus.builder import build_bus_circuit, build_bus_template
from repro.bus.spec import BusSpec
from repro.core.awe import awe_delay_50, awe_reduce
from repro.core.canonical import DriverLineLoad
from repro.core.simulate import simulated_delay_50, simulated_delay_50_batch
from repro.errors import AnalysisError, ParameterError
from repro.rom import (
    DEFAULT_ERROR_BOUND,
    MODELS,
    ROM_SIZE_CUTOFF,
    ReducedTemplate,
    cached_reduced_template,
    resolve_model,
)
from repro.rom import prima
from repro.rom.model import _fold_estimates
from repro.spice.ac import ac_sweep, ac_sweep_batch
from repro.spice.ladder import (
    LadderSpec,
    build_ladder_circuit,
    build_ladder_template,
)
from repro.spice.mna import build_mna_structure
from repro.spice.parser import parse_netlist_file, suggest_transient_window
from repro.spice.transient import simulate_transient, simulate_transient_batch
from repro.sweep import Axis, ParameterGrid, Sweep, SweepRunner
from repro.topology import (
    FanoutTreeSpec,
    HTreeSpec,
    MeshSpec,
    build_fanout_circuit,
    build_htree_circuit,
    build_mesh_circuit,
)

ALL_BACKENDS = ("dense", "sparse", "banded")

NETLIST_DIR = pathlib.Path(__file__).parent / "netlists"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"

#: RC-dominated Table 1 corner: smooth response, fast Krylov convergence.
OVERDAMPED = dict(rt=1000.0, lt=1e-8, ct=1e-12, rtr=500.0, cl=5e-13)
#: Strongly inductive corner: oscillatory, the hard case for any ROM.
UNDERDAMPED = dict(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def _rom_counters() -> dict:
    """The rom.* counter snapshot as {name: {labels-tuple: value}}."""
    snap = obs.REGISTRY.snapshot()["counters"]
    return {
        name: {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for entry in entries
        }
        for name, entries in snap.items()
        if name.startswith("rom.")
    }


def _ladder(params: dict, n: int):
    spec = LadderSpec(**params, n_segments=n)
    circuit = build_ladder_circuit(spec)
    t_stop, dt = suggest_transient_window(circuit, n_samples=600)
    return spec, circuit, t_stop, dt


# ---------------------------------------------------------------------------
# resolve_model
# ---------------------------------------------------------------------------


class TestResolveModel:
    def test_valid_names_normalize(self):
        assert MODELS == ("full", "reduced", "auto")
        for name in MODELS:
            assert resolve_model(name) == name
            assert resolve_model(name.upper()) == name

    def test_unknown_model_names_the_tiers(self):
        with pytest.raises(ParameterError, match="unknown evaluation model"):
            resolve_model("fast")
        try:
            resolve_model("fast")
        except ParameterError as exc:
            for name in MODELS:
                assert name in str(exc)

    def test_non_string_rejected(self):
        with pytest.raises(ParameterError, match="model must be"):
            resolve_model(3)


class TestPrimaApi:
    def test_projection_shapes_and_checks(self):
        _, circuit, _, _ = _ladder(OVERDAMPED, 40)
        structure = build_mna_structure(circuit)
        rom = ReducedTemplate(structure, order=12)
        n = structure.size
        assert rom.basis.shape == (n, rom.order)
        assert 0 < rom.order <= n
        assert np.isfinite(rom.moment_error)
        z = np.zeros((5, rom.order))
        assert rom.reconstruct(z).shape == (5, n)
        assert f"q={rom.order}" in repr(rom) or str(rom.order) in repr(rom)

    def test_projected_unit_rhs_matches_test_basis(self):
        _, circuit, _, _ = _ladder(OVERDAMPED, 24)
        rom = ReducedTemplate(build_mna_structure(circuit), order=10)
        row = 3
        vq = rom.projected_unit_rhs(row)
        assert vq.shape == (rom.order,)
        # W = D V with unit +-1 signs, so |W^T e_row| == |V[row]|.
        assert np.allclose(np.abs(vq), np.abs(rom.basis[row]))

    def test_snapshots_exclude_sample_params(self):
        template = build_ladder_template(40, "PI", loaded=True)
        nominal = dict(OVERDAMPED)
        snapshots = np.ones((template.structure.size, 3))
        with pytest.raises(ParameterError, match="not both"):
            ReducedTemplate(
                template, params=nominal,
                sample_params=({**nominal, "rt": 2.0 * nominal["rt"]},),
                snapshots=snapshots,
            )

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: on a Krylov space that saturates below n "
        "(C singular), the explicit reduced transient diverges on every "
        "backend (final about -8.5e12 V dense, -7.6e83 V sparse, 1e218 V "
        "banded, against 1 V full), so banded and dense disagree",
    )
    def test_banded_explicit_reduced_matches_dense(self):
        circuit = parse_netlist_file(NETLIST_DIR / "rlc_param.cir").bind()
        t_stop, dt = suggest_transient_window(circuit)
        finals = {
            backend: simulate_transient(
                circuit, t_stop, dt, backend=backend, model="reduced",
                rom_order=6,
            ).voltage("out").final_value
            for backend in ("dense", "banded")
        }
        assert abs(finals["banded"] - finals["dense"]) <= 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: explicit model='reduced' at rom_order=6 on "
        "the bound rlc_param.cir diverges from the full answer on dense "
        "as well as banded; its Krylov space saturates below n",
    )
    @pytest.mark.parametrize("backend", ["dense", "banded"])
    def test_explicit_reduced_matches_full(self, backend):
        circuit = parse_netlist_file(NETLIST_DIR / "rlc_param.cir").bind()
        t_stop, dt = suggest_transient_window(circuit)
        full, reduced = (
            simulate_transient(
                circuit, t_stop, dt, backend=backend, model=model,
                rom_order=6,
            ).voltage("out").final_value
            for model in ("full", "reduced")
        )
        assert abs(reduced - full) <= 1e-6


# ---------------------------------------------------------------------------
# Reduced vs full: transient
# ---------------------------------------------------------------------------


class TestReducedTransientEquivalence:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_ladder_waveform(self, backend):
        spec, circuit, t_stop, dt = _ladder(OVERDAMPED, 60)
        full = simulate_transient(circuit, t_stop, dt, backend=backend)
        red = simulate_transient(
            circuit, t_stop, dt, backend=backend,
            model="reduced", rom_order=24,
        )
        out = spec.output_node
        err = np.abs(
            red.voltage(out).values - full.voltage(out).values
        ).max()
        assert err <= 1e-3  # measured ~6e-5

    def test_htree_waveform(self):
        spec = HTreeSpec(
            levels=2, rt=200.0, lt=2e-8, ct=2e-12, rtr=50.0, cl=2e-13,
            n_segments=6,
        )
        circuit = build_htree_circuit(spec)
        t_stop, dt = suggest_transient_window(circuit, n_samples=600)
        full = simulate_transient(circuit, t_stop, dt)
        red = simulate_transient(
            circuit, t_stop, dt, model="reduced", rom_order=24
        )
        out = spec.output_node
        err = np.abs(
            red.voltage(out).values - full.voltage(out).values
        ).max()
        assert err <= 1e-4  # measured ~4e-7

    def test_fanout_waveform(self):
        spec = FanoutTreeSpec(
            fanout=4, brt=150.0, blt=1.5e-8, bct=1.5e-12, rtr=40.0,
            cl=1e-13, rt=100.0, lt=1e-8, ct=1e-12,
            trunk_segments=5, branch_segments=5,
        )
        circuit = build_fanout_circuit(spec)
        t_stop, dt = suggest_transient_window(circuit, n_samples=600)
        full = simulate_transient(circuit, t_stop, dt)
        red = simulate_transient(
            circuit, t_stop, dt, model="reduced", rom_order=24
        )
        out = spec.output_node
        err = np.abs(
            red.voltage(out).values - full.voltage(out).values
        ).max()
        assert err <= 1e-6  # measured ~1e-10

    def test_mesh_waveform(self):
        spec = MeshSpec(
            rows=4, cols=5, r_edge=20.0, rtr=25.0, l_edge=5e-10,
            c_node=5e-14, cl=2e-13,
        )
        circuit = build_mesh_circuit(spec)
        t_stop, dt = suggest_transient_window(circuit, n_samples=600)
        full = simulate_transient(circuit, t_stop, dt)
        red = simulate_transient(
            circuit, t_stop, dt, model="reduced", rom_order=24
        )
        out = spec.output_node
        err = np.abs(
            red.voltage(out).values - full.voltage(out).values
        ).max()
        assert err <= 5e-3  # measured ~5e-4

    def test_coupled_bus_all_states(self):
        spec = BusSpec(
            n_lines=3, rt=100.0, lt=25e-9, ct=2e-12, cct=1e-12, km=0.5,
            rtr=50.0, cl=5e-14, n_segments=8,
        )
        circuit = build_bus_circuit(spec, "rise")
        t_stop, dt = suggest_transient_window(circuit, n_samples=600)
        full = simulate_transient(circuit, t_stop, dt)
        red = simulate_transient(
            circuit, t_stop, dt, model="reduced", rom_order=48
        )
        # Three independent sources -> block Krylov; q=48 of n=81.
        assert np.abs(red.states - full.states).max() <= 0.02  # ~3e-3

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batch_matches_full_batch(self, backend):
        template = build_ladder_template(60, "PI", loaded=True)
        points = [
            dict(OVERDAMPED, rt=OVERDAMPED["rt"] * s)
            for s in (0.7, 1.0, 1.4)
        ]
        _, circuit, t_stop, dt = _ladder(OVERDAMPED, 60)
        full = simulate_transient_batch(
            template, points, t_stop, dt, backend=backend
        )
        red = simulate_transient_batch(
            template, points, t_stop, dt, backend=backend,
            model="reduced", rom_order=24,
        )
        # One corner-enriched projection serves the whole value box.
        assert np.abs(red.states - full.states).max() <= 0.05  # ~6e-3


# ---------------------------------------------------------------------------
# Reduced vs full: AC
# ---------------------------------------------------------------------------


class TestReducedAcEquivalence:
    OMEGAS = np.geomspace(1e6, 1e10, 25)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_scalar_sweep(self, backend):
        _, circuit, _, _ = _ladder(OVERDAMPED, 60)
        full = ac_sweep(circuit, self.OMEGAS, backend=backend)
        red = ac_sweep(
            circuit, self.OMEGAS, backend=backend,
            model="reduced", rom_order=24,
        )
        assert np.abs(red.states - full.states).max() <= 1e-8  # ~8e-14

    def test_batch_sweep(self):
        template = build_ladder_template(60, "PI", loaded=True)
        points = [
            dict(OVERDAMPED, rt=OVERDAMPED["rt"] * s)
            for s in (0.7, 1.0, 1.4)
        ]
        full = ac_sweep_batch(template, points, self.OMEGAS)
        red = ac_sweep_batch(
            template, points, self.OMEGAS, model="reduced", rom_order=24
        )
        assert np.abs(red.states - full.states).max() <= 1e-6  # ~1e-9

    def test_auto_small_system_is_bit_exact(self):
        _, circuit, _, _ = _ladder(OVERDAMPED, 20)
        full = ac_sweep(circuit, self.OMEGAS)
        auto = ac_sweep(circuit, self.OMEGAS, model="auto")
        np.testing.assert_array_equal(auto.states, full.states)


# ---------------------------------------------------------------------------
# Reduced vs full: delay entry points
# ---------------------------------------------------------------------------


class TestReducedDelay:
    def test_scalar_delay_overdamped(self):
        line = DriverLineLoad(**OVERDAMPED)
        full = simulated_delay_50(line, route="mna", n_segments=120)
        red = simulated_delay_50(
            line, route="mna", n_segments=120,
            model="reduced", rom_order=24,
        )
        assert abs(red - full) / full <= 1e-4  # measured ~1e-7

    def test_scalar_delay_underdamped(self):
        # The oscillatory corner needs a deeper basis; 1% target at q=40.
        line = DriverLineLoad(**UNDERDAMPED)
        full = simulated_delay_50(line, route="mna", n_segments=120)
        red = simulated_delay_50(
            line, route="mna", n_segments=120,
            model="reduced", rom_order=40,
        )
        assert abs(red - full) / full <= 0.03  # measured ~0.6%

    def test_batch_delay(self):
        lines = [
            DriverLineLoad(**dict(OVERDAMPED, rt=OVERDAMPED["rt"] * s))
            for s in (0.8, 1.0, 1.3)
        ]
        full = simulated_delay_50_batch(lines, route="mna", n_segments=120)
        red = simulated_delay_50_batch(
            lines, route="mna", n_segments=120,
            model="reduced", rom_order=24,
        )
        assert np.abs(red - full).max() / full.min() <= 1e-4  # ~2e-7

    def test_batch_delay_independent_of_hash_seed(self):
        # Nine lines on per-point grids: the auto tier builds one
        # corner-sample Krylov union, whose column order once followed
        # the hash-seeded iteration order of the parameter names.
        probe = (
            "import numpy as np, sys\n"
            "from repro.core.canonical import DriverLineLoad\n"
            "from repro.core.simulate import simulated_delay_50_batch\n"
            "lines = [DriverLineLoad(rt=rt, lt=lt, ct=1e-12, rtr=100.0,"
            " cl=1e-13) for rt in (700.0, 1000.0, 1400.0)"
            " for lt in (0.5e-6, 1e-6, 2e-6)]\n"
            "d = simulated_delay_50_batch(lines, route='mna', model='auto',"
            " n_samples=1001)\n"
            "sys.stdout.write(d.tobytes().hex())\n"
        )
        delays = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(SRC_DIR) + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            done = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True,
                text=True, timeout=300, env=env, check=True,
            )
            delays.append(np.frombuffer(bytes.fromhex(done.stdout)))
        assert delays[0].shape == (9,)
        assert np.array_equal(delays[0], delays[1])

    def test_model_validated_before_simulation(self):
        line = DriverLineLoad(**OVERDAMPED)
        with pytest.raises(ParameterError, match="unknown evaluation model"):
            simulated_delay_50(line, route="mna", model="turbo")


# ---------------------------------------------------------------------------
# The "auto" decision rules
# ---------------------------------------------------------------------------


class TestAutoTier:
    def test_small_system_serves_full_exactly(self):
        _, circuit, t_stop, dt = _ladder(OVERDAMPED, 60)
        obs.enable()
        auto = simulate_transient(circuit, t_stop, dt, model="auto")
        full = simulate_transient(circuit, t_stop, dt)
        np.testing.assert_array_equal(auto.states, full.states)
        counters = _rom_counters()["rom.model_selected"]
        key = (("model", "full"), ("rule", "auto-small-system"))
        assert counters[key] >= 1.0

    def test_large_system_served_reduced_within_bound(self):
        # 140 PI segments -> ~282 unknowns, past ROM_SIZE_CUTOFF.
        spec, circuit, t_stop, dt = _ladder(OVERDAMPED, 140)
        assert build_mna_structure(circuit).size > ROM_SIZE_CUTOFF
        obs.enable()
        auto = simulate_transient(circuit, t_stop, dt, model="auto")
        full = simulate_transient(circuit, t_stop, dt)
        out = spec.output_node
        err = np.abs(
            auto.voltage(out).values - full.voltage(out).values
        ).max()
        assert err <= DEFAULT_ERROR_BOUND  # the bound it promised
        counters = _rom_counters()["rom.model_selected"]
        key = (("model", "reduced"), ("rule", "auto-within-bound"))
        assert counters[key] >= 1.0

    def test_error_fallback_is_bit_exact_full(self):
        # A deliberately starved projection (q=4) on the hard corner
        # with a tight bound: auto must detect and serve full MNA.
        _, circuit, t_stop, dt = _ladder(UNDERDAMPED, 140)
        obs.enable()
        auto = simulate_transient(
            circuit, t_stop, dt, model="auto",
            rom_order=4, rom_error_bound=1e-6,
        )
        full = simulate_transient(circuit, t_stop, dt)
        np.testing.assert_array_equal(auto.states, full.states)
        counters = _rom_counters()
        assert counters["rom.fallbacks"][(("rule", "auto-error-fallback"),)] >= 1.0
        key = (("model", "full"), ("rule", "auto-error-fallback"))
        assert counters["rom.model_selected"][key] >= 1.0

    def test_batch_per_point_fallback_merges_full_results(self):
        template = build_ladder_template(140, "PI", loaded=True)
        points = [
            dict(UNDERDAMPED, rt=UNDERDAMPED["rt"] * s)
            for s in (0.8, 1.0, 1.25)
        ]
        _, circuit, t_stop, dt = _ladder(UNDERDAMPED, 140)
        obs.enable()
        full = simulate_transient_batch(template, points, t_stop, dt)
        auto = simulate_transient_batch(
            template, points, t_stop, dt, model="auto",
            rom_order=4, rom_error_bound=1e-8,
        )
        np.testing.assert_array_equal(auto.states, full.states)
        counters = _rom_counters()
        key = (("model", "full"), ("rule", "auto-error-fallback"))
        assert counters["rom.model_selected"][key] == len(points)


#: The 8x200 coupled bus of the ``bus_box_auto`` benchmark workload.
EFFECTIVITY_BUS = BusSpec(
    n_lines=8, rt=1000.0, lt=1e-6, ct=1e-12, cct=4e-13, km=0.5,
    rtr=100.0, cl=1e-13, n_segments=200,
)


def _effectivity_box(index: int) -> list[dict]:
    """The 4x4 sub-grid at rt and cct indices 0, 5, 10, 15 of the
    benchmark's seed-1 16x16 box ``index``: the same corners, so the
    same snapshot projection as the whole box."""
    rng = np.random.default_rng([1, index])
    rt_mid, rt_width = rng.uniform(700.0, 1300.0), rng.uniform(0.2, 0.5)
    cct_mid, cct_width = rng.uniform(2e-13, 5e-13), rng.uniform(0.3, 0.6)
    rts = np.geomspace(rt_mid * (1 - rt_width / 2), rt_mid * (1 + rt_width / 2), 16)
    ccts = np.linspace(cct_mid * (1 - cct_width / 2), cct_mid * (1 + cct_width / 2), 16)
    picks = [0, 5, 10, 15]
    return [
        {"rt": float(rt), "cct": float(cct)} for rt in rts[picks] for cct in ccts[picks]
    ]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: on the 8x200 bus the auto tier's suborder "
    "estimate understates the true waveform error by 2x to 12x at every "
    "point (estimates <= 3.4e-4, true errors up to 2.1e-3 at q = 92)",
)
def test_auto_estimate_bounds_true_error_on_bus_boxes(monkeypatch):
    template = build_bus_template(
        EFFECTIVITY_BUS, tuple("rise" if i % 2 == 0 else "fall" for i in range(8))
    )
    out = EFFECTIVITY_BUS.output_node(0)
    served = []
    serve = rom_pkg.reduced_transient_batch

    def spy(reduced, *args, **kwargs):
        states, defect = serve(reduced, *args, **kwargs)
        served.append((reduced.order, _fold_estimates(reduced, states, defect)))
        return states, defect

    monkeypatch.setattr(rom_pkg, "reduced_transient_batch", spy)
    effectivity = []
    for index in range(3):
        points = _effectivity_box(index)
        kwargs = dict(t_stop=2e-9, dt=2e-9 / 24, record=[out])
        served.clear()
        auto = simulate_transient_batch(template, points, model="auto", **kwargs)
        full = simulate_transient_batch(template, points, **kwargs)
        if len(served) != 1 or served[0][0] != 92:
            pytest.fail(f"box {index} was not served once at q = 92: {served}")
        est = served[0][1]
        if not np.all(est <= DEFAULT_ERROR_BOUND):
            pytest.fail(f"box {index} fell back: estimates {est}")
        y_full = full.voltage(out)
        true = np.max(np.abs(auto.voltage(out) - y_full), axis=1) / np.max(
            np.abs(y_full), axis=1
        )
        effectivity.append(true / est)
    assert np.all(np.concatenate(effectivity) <= 1.0)


# ---------------------------------------------------------------------------
# Projection caching and counters
# ---------------------------------------------------------------------------


class TestProjectionCache:
    def test_second_batch_reuses_the_projection(self):
        template = build_ladder_template(80, "PI", loaded=True)
        points = [
            dict(OVERDAMPED, rt=OVERDAMPED["rt"] * s) for s in (0.9, 1.1)
        ]
        _, circuit, t_stop, dt = _ladder(OVERDAMPED, 80)
        obs.enable()
        first = simulate_transient_batch(
            template, points, t_stop, dt, model="reduced", rom_order=16
        )
        second = simulate_transient_batch(
            template, points, t_stop, dt, model="reduced", rom_order=16
        )
        np.testing.assert_array_equal(first.states, second.states)
        counters = _rom_counters()
        assert counters["rom.projection_builds"][()] == 1.0
        assert counters["rom.projection_reuse"][()] >= 1.0

    def test_selection_recording_is_noop_while_disabled(self):
        _, circuit, t_stop, dt = _ladder(OVERDAMPED, 40)
        simulate_transient(
            circuit, t_stop, dt, model="reduced", rom_order=12
        )
        assert obs.REGISTRY.snapshot()["counters"] == {}

    def test_concurrent_lookups_raise_nothing(self):
        """Pool threads share the cache: lookups, evictions of dead and
        oldest entries, and insertions race under a tiny switch
        interval without raising."""
        circuits = [
            build_ladder_circuit(LadderSpec(**OVERDAMPED, n_segments=n))
            for n in (2, 3, 4)
        ]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(seed):
            try:
                barrier.wait(timeout=60)
                structures = []
                for i in range(50):
                    if i % 10 == 0:  # drop the last set: dead entries
                        structures = [build_mna_structure(c) for c in circuits]
                    structure = structures[(seed + i) % len(structures)]
                    template = cached_reduced_template(structure, 4, {})
                    assert template.structure is structure
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            prima._TEMPLATE_CACHE.clear()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


# ---------------------------------------------------------------------------
# Cross-validation against AWE (satellite: two independent ROMs agree)
# ---------------------------------------------------------------------------


class TestAweCrossValidation:
    def test_overdamped_delay_agreement(self):
        # Two independent reductions of the same physics: AWE's moment
        # matching (q=4) and the PRIMA projection (q=24) must agree on
        # the 50% delay to within each other's error budget.
        line = DriverLineLoad(**OVERDAMPED)
        awe = awe_delay_50(line, q=4)
        red = simulated_delay_50(
            line, route="mna", n_segments=120,
            model="reduced", rom_order=24,
        )
        assert abs(awe - red) / red <= 0.01  # measured ~0.15%

    def test_underdamped_delay_agreement(self):
        line = DriverLineLoad(**UNDERDAMPED)
        awe = awe_delay_50(line, q=5)
        red = simulated_delay_50(
            line, route="mna", n_segments=120,
            model="reduced", rom_order=40,
        )
        assert abs(awe - red) / red <= 0.05  # measured ~2%

    def test_order_crossover(self):
        # The documented division of labor: AWE's Hankel conditioning
        # caps it near q ~ 8; the projection tier keeps going.
        line = DriverLineLoad(**OVERDAMPED)
        with pytest.raises(AnalysisError, match="order"):
            awe_reduce(line, q=40)
        red = simulated_delay_50(
            line, route="mna", n_segments=120,
            model="reduced", rom_order=40,
        )
        full = simulated_delay_50(line, route="mna", n_segments=120)
        assert abs(red - full) / full <= 1e-4


# ---------------------------------------------------------------------------
# Sweep runner integration
# ---------------------------------------------------------------------------


class TestSweepIntegration:
    GRID = ParameterGrid(Axis("rt", [800.0, 1000.0, 1200.0]))
    FIXED = {"lt": 1e-8, "ct": 1e-12, "rtr": 500.0, "cl": 5e-13}
    OPTIONS = dict(route="mna", n_segments=40, n_samples=801)

    def _sweep(self, **extra) -> Sweep:
        return Sweep(
            "simulated_delay_50",
            self.GRID,
            fixed=self.FIXED,
            options=dict(self.OPTIONS, **extra),
        )

    def test_bad_model_option_rejected_before_running(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        with pytest.raises(ParameterError, match="unknown evaluation model"):
            runner.run(self._sweep(model="bogus"))

    def test_model_option_is_part_of_the_cache_key(self):
        assert (
            self._sweep(model="auto").cache_key()
            != self._sweep().cache_key()
        )
        assert (
            self._sweep(model="reduced").cache_key()
            != self._sweep(model="auto").cache_key()
        )

    def test_auto_sweep_matches_full_sweep(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        full = runner.run(self._sweep())
        auto = runner.run(self._sweep(model="auto"))
        # Small ladders: the auto rule picks full, bit for bit.
        np.testing.assert_array_equal(auto.output(), full.output())
