"""Tests for the repro.sweep batch-evaluation engine."""

from __future__ import annotations

import json
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.canonical import DriverLineLoad, omega_n, zeta
from repro.core.delay import (
    lc_limit_delay,
    propagation_delay,
    rc_limit_delay,
    scaled_delay,
)
from repro.core.penalty import (
    area_increase_closed_form,
    delay_increase_closed_form,
)
from repro.core.repeater import (
    Buffer,
    bakoglu_rc_design,
    error_factors,
    inductance_time_ratio,
    optimal_rlc_design,
)
from repro.core.simulate import simulated_delay_50
from repro.errors import ParameterError
from repro.sweep import (
    Axis,
    ParameterGrid,
    Sweep,
    SweepRunner,
    batch_error_factors,
    batch_lt_for_zeta,
    batch_omega_n,
    batch_optimal_rlc_design,
    batch_propagation_delay,
    batch_rc_limit_delay,
    batch_scaled_delay,
    batch_zeta,
)
from repro.technology.nodes import node_by_name


class TestAxis:
    def test_explicit_values_coerced_to_float(self):
        axis = Axis("rt", [1, 2.5, np.float64(3)])
        assert axis.values == (1.0, 2.5, 3.0)
        assert axis.is_numeric

    def test_string_axis(self):
        axis = Axis("node", ["250nm", "180nm"])
        assert axis.values == ("250nm", "180nm")
        assert not axis.is_numeric

    def test_linear_and_log(self):
        assert Axis.linear("x", 0.0, 1.0, 3).values == (0.0, 0.5, 1.0)
        log = Axis.log("x", 1.0, 100.0, 3)
        assert log.values == pytest.approx((1.0, 10.0, 100.0))

    def test_validation(self):
        with pytest.raises(ParameterError):
            Axis("", [1.0])
        with pytest.raises(ParameterError):
            Axis("x", [])
        with pytest.raises(ParameterError):
            Axis("x", [np.inf])
        with pytest.raises(ParameterError):
            Axis.log("x", -1.0, 10.0, 3)
        with pytest.raises(ParameterError, match="mixes numeric"):
            Axis("rt", [10.0, "1o0"])  # a typo'd number, not a name axis

    def test_non_numeric_input_is_a_parameter_error(self):
        from repro.sweep import SweepRunner

        grid = ParameterGrid(Axis("rt", [10.0, 100.0]))
        with pytest.raises(ParameterError, match="must be numeric"):
            SweepRunner().run(
                Sweep(
                    "propagation_delay",
                    grid,
                    fixed={"lt": 1e-9, "ct": "abc"},
                )
            )


class TestParameterGrid:
    def test_cartesian_order_first_axis_slowest(self):
        grid = ParameterGrid(Axis("a", [1.0, 2.0]), Axis("b", [10.0, 20.0, 30.0]))
        assert grid.size == 6 and grid.shape == (2, 3)
        cols = grid.columns()
        assert cols["a"].tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        assert cols["b"].tolist() == [10.0, 20.0, 30.0, 10.0, 20.0, 30.0]

    def test_zipped_axes_advance_together(self):
        grid = ParameterGrid(
            (Axis("rt", [1.0, 2.0]), Axis("lt", [5.0, 6.0])),
            Axis("ct", [7.0, 8.0]),
        )
        assert grid.size == 4
        cols = grid.columns()
        assert cols["rt"].tolist() == [1.0, 1.0, 2.0, 2.0]
        assert cols["lt"].tolist() == [5.0, 5.0, 6.0, 6.0]
        assert cols["ct"].tolist() == [7.0, 8.0, 7.0, 8.0]

    def test_points_iteration(self):
        grid = ParameterGrid(Axis("a", [1.0]), Axis("n", ["x", "y"]))
        points = list(grid.points())
        assert points == [{"a": 1.0, "n": "x"}, {"a": 1.0, "n": "y"}]

    def test_validation(self):
        with pytest.raises(ParameterError):
            ParameterGrid()
        with pytest.raises(ParameterError):
            ParameterGrid(Axis("a", [1.0]), Axis("a", [2.0]))
        with pytest.raises(ParameterError):
            ParameterGrid((Axis("a", [1.0]), Axis("b", [1.0, 2.0])))


class TestSweepSpec:
    GRID = ParameterGrid(Axis("rt", [1.0, 2.0]))

    def test_fixed_and_axes_must_not_overlap(self):
        with pytest.raises(ParameterError):
            Sweep("zeta", self.GRID, fixed={"rt": 1.0})

    def test_cache_key_is_deterministic(self):
        a = Sweep("zeta", self.GRID, fixed={"lt": 1e-9, "ct": 1e-12})
        b = Sweep("zeta", self.GRID, fixed={"ct": 1e-12, "lt": 1e-9})
        assert a.cache_key() == b.cache_key()

    def test_cache_key_tracks_every_spec_field(self):
        base = Sweep("zeta", self.GRID, fixed={"lt": 1e-9, "ct": 1e-12})
        keys = {
            base.cache_key(),
            Sweep("omega_n", self.GRID, fixed={"lt": 1e-9, "ct": 1e-12}).cache_key(),
            Sweep("zeta", self.GRID, fixed={"lt": 2e-9, "ct": 1e-12}).cache_key(),
            Sweep(
                "zeta",
                ParameterGrid(Axis("rt", [1.0, 3.0])),
                fixed={"lt": 1e-9, "ct": 1e-12},
            ).cache_key(),
        }
        assert len(keys) == 4

    def test_spec_is_json_serializable(self):
        sweep = Sweep(
            "simulated_delay_50",
            self.GRID,
            fixed={"lt": 1e-9, "ct": 1e-12},
            options={"route": "tline"},
        )
        assert json.loads(json.dumps(sweep.spec()))["quantity"] == (
            "simulated_delay_50"
        )


class TestKernelsMatchScalarImplementations:
    """The batch kernels ARE the scalar implementations -- bit for bit."""

    RNG = np.random.default_rng(7)

    def _random_lines(self, n=64):
        rt = np.concatenate([[0.0, 0.0], 10 ** self.RNG.uniform(0, 4, n - 2)])
        lt = 10 ** self.RNG.uniform(-10, -6, n)
        ct = 10 ** self.RNG.uniform(-13, -11, n)
        rtr = np.concatenate([[0.0, 50.0], 10 ** self.RNG.uniform(0, 3, n - 2)])
        cl = np.concatenate([[0.0], 10 ** self.RNG.uniform(-14, -12, n - 1)])
        return rt, lt, ct, rtr, cl

    def test_zeta_and_omega_n(self):
        rt, lt, ct, rtr, cl = self._random_lines()
        z = batch_zeta(rt, lt, ct, rtr, cl)
        w = batch_omega_n(lt, ct, cl)
        for i in range(rt.size):
            assert z[i] == zeta(rt[i], lt[i], ct[i], rtr[i], cl[i])
            assert w[i] == omega_n(lt[i], ct[i], cl[i])

    def test_propagation_delay(self):
        rt, lt, ct, rtr, cl = self._random_lines()
        batch = batch_propagation_delay(rt, lt, ct, rtr, cl)
        for i in range(rt.size):
            line = DriverLineLoad(
                rt=rt[i], lt=lt[i], ct=ct[i], rtr=rtr[i], cl=cl[i]
            )
            # The scalar fast path may differ from the array ufuncs by
            # a few ULP in exp/power; everything else is bitwise.
            assert batch[i] == pytest.approx(
                propagation_delay(line), rel=1e-13
            )

    def test_limit_delays(self):
        rt, lt, ct, rtr, cl = self._random_lines()
        keep = rt > 0
        rc = batch_rc_limit_delay(rt[keep], ct[keep], rtr[keep], cl[keep])
        for i, j in enumerate(np.flatnonzero(keep)):
            line = DriverLineLoad(
                rt=rt[j], lt=lt[j], ct=ct[j], rtr=rtr[j], cl=cl[j]
            )
            assert rc[i] == rc_limit_delay(line)
            assert lc_limit_delay(line) == 1.0 / omega_n(lt[j], ct[j], cl[j])

    def test_scaled_delay_scalar_and_array_round_trip(self):
        zs = np.array([0.0, 0.3, 1.0, 5.0])
        assert np.array_equal(batch_scaled_delay(zs), scaled_delay(zs))
        assert isinstance(scaled_delay(1.0), float)
        with pytest.raises(ParameterError):
            scaled_delay(-0.1)
        with pytest.raises(ParameterError):
            batch_scaled_delay(np.nan)

    def test_repeater_design_kernels(self):
        buffer = Buffer(r0=5000.0, c0=1e-14)
        rts = np.array([100.0, 500.0, 2000.0])
        lts = np.array([1e-8, 1.25e-7, 1e-9])
        cts = np.array([2e-12, 1e-11, 5e-12])
        h, k = batch_optimal_rlc_design(rts, lts, cts, buffer.r0, buffer.c0)
        hp, kp = batch_error_factors(
            np.array(
                [
                    inductance_time_ratio(
                        DriverLineLoad(rt=r, lt=l, ct=c), buffer
                    )
                    for r, l, c in zip(rts, lts, cts)
                ]
            )
        )
        for i in range(rts.size):
            line = DriverLineLoad(rt=rts[i], lt=lts[i], ct=cts[i])
            design = optimal_rlc_design(line, buffer)
            rc = bakoglu_rc_design(line, buffer)
            assert h[i] == pytest.approx(design.h, rel=1e-12)
            assert k[i] == pytest.approx(design.k, rel=1e-12)
            scalar_hp, scalar_kp = error_factors(
                inductance_time_ratio(line, buffer)
            )
            assert hp[i] == pytest.approx(scalar_hp, rel=1e-13)
            assert kp[i] == pytest.approx(scalar_kp, rel=1e-13)
            assert (h[i] / hp[i]) == pytest.approx(rc.h, rel=1e-12)

    def test_penalty_kernels_back_the_closed_forms(self):
        tlrs = np.array([0.0, 1.0, 3.0, 5.0, 10.0])
        delays = delay_increase_closed_form(tlrs)
        areas = area_increase_closed_form(tlrs)
        assert delays[3] == pytest.approx(20.0, abs=2.0)  # paper: ~20% at T=5
        assert areas[3] == pytest.approx(435.0, abs=10.0)  # paper: 435% at T=5
        assert isinstance(delay_increase_closed_form(5.0), float)
        with pytest.raises(ParameterError):
            delay_increase_closed_form(-1.0)

    def test_lt_for_zeta_matches_constructor(self):
        for z, r_ratio, c_ratio in [(0.3, 0.0, 0.0), (1.0, 0.5, 1.0), (2.5, 1.0, 0.25)]:
            line = DriverLineLoad.for_zeta(z, r_ratio=r_ratio, c_ratio=c_ratio)
            assert float(batch_lt_for_zeta(z, r_ratio, c_ratio)) == line.lt

    def test_validation_domains(self):
        with pytest.raises(ParameterError):
            batch_zeta(-1.0, 1e-9, 1e-12)
        with pytest.raises(ParameterError):
            batch_zeta(1.0, 0.0, 1e-12)
        with pytest.raises(ParameterError):
            batch_rc_limit_delay(0.0, 1e-12, rtr=10.0)
        with pytest.raises(ParameterError):
            batch_omega_n(1e-9, -1e-12)


class TestSweepRunner:
    def _sweep(self, values=(100.0, 500.0, 2000.0)):
        grid = ParameterGrid(Axis("rt", values), Axis("lt", [1e-9, 1e-7]))
        return Sweep(
            "propagation_delay",
            grid,
            fixed={"ct": 1e-12, "rtr": 100.0, "cl": 1e-13},
        )

    def test_fresh_run_counts_kernel_evaluations(self):
        runner = SweepRunner()
        result = runner.run(self._sweep())
        assert result.cache_hit is None
        assert runner.stats.kernel_evaluations == 6
        assert runner.stats.misses == 1
        assert result.output("delay_s").shape == (6,)

    def test_memory_cache_hit_skips_evaluation(self):
        runner = SweepRunner()
        runner.run(self._sweep())
        before = runner.stats.kernel_evaluations
        again = runner.run(self._sweep())
        assert again.cache_hit == "memory"
        assert runner.stats.kernel_evaluations == before
        assert runner.stats.memory_hits == 1

    def test_disk_cache_round_trip(self, tmp_path):
        first = SweepRunner(cache_dir=tmp_path)
        fresh = first.run(self._sweep())
        second = SweepRunner(cache_dir=tmp_path)
        replayed = second.run(self._sweep())
        assert replayed.cache_hit == "disk"
        assert second.stats.kernel_evaluations == 0
        assert np.array_equal(replayed.output(), fresh.output())
        assert np.array_equal(
            replayed.columns["rt"], fresh.columns["rt"]
        )

    def test_concurrent_cache_hits_are_all_counted(self, tmp_path):
        sweep = self._sweep()
        SweepRunner(cache_dir=tmp_path).run(sweep)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                runner = SweepRunner(cache_dir=tmp_path)
                barrier = threading.Barrier(8)
                errors = []

                def replay():
                    try:
                        barrier.wait(timeout=30)
                        runner.run(sweep)
                    except Exception as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=replay) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                assert runner.stats.memory_hits + runner.stats.disk_hits == 8
        finally:
            sys.setswitchinterval(interval)

    def test_spec_change_misses_cache(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(self._sweep())
        changed = runner.run(self._sweep(values=(100.0, 500.0, 2500.0)))
        assert changed.cache_hit is None
        assert runner.stats.misses == 2

    def test_invalidate_and_refresh(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(self._sweep())
        assert runner.invalidate(self._sweep())
        assert not runner.invalidate(self._sweep())
        result = runner.run(self._sweep())
        assert result.cache_hit is None
        refreshed = runner.run(self._sweep(), refresh=True)
        assert refreshed.cache_hit is None
        assert runner.stats.kernel_evaluations == 18

    def test_memory_lru_eviction(self):
        runner = SweepRunner(memory_entries=1)
        runner.run(self._sweep())
        runner.run(self._sweep(values=(1.0, 2.0, 3.0)))
        evicted = runner.run(self._sweep())
        assert evicted.cache_hit is None  # pushed out by the second sweep

    def test_unknown_quantity_and_missing_inputs(self):
        grid = ParameterGrid(Axis("rt", [1.0]))
        with pytest.raises(ParameterError, match="unknown sweep quantity"):
            SweepRunner().run(Sweep("nope", grid))
        with pytest.raises(ParameterError, match="missing input"):
            SweepRunner().run(Sweep("propagation_delay", grid))
        with pytest.raises(ParameterError, match="takes no options"):
            SweepRunner().run(
                Sweep(
                    "propagation_delay",
                    ParameterGrid(Axis("rt", [1.0])),
                    fixed={"lt": 1e-9, "ct": 1e-12},
                    options={"route": "tline"},
                )
            )

    def test_node_axis_resolution(self):
        grid = ParameterGrid(Axis("node", ["250nm", "180nm"]))
        result = SweepRunner().run(
            Sweep("propagation_delay", grid, fixed={"length": 0.01})
        )
        for i, name in enumerate(("250nm", "180nm")):
            node = node_by_name(name)
            expected = propagation_delay(node.line(0.01))
            assert result.output()[i] == pytest.approx(expected, rel=1e-12)
        tlr_result = SweepRunner().run(Sweep("area_increase_percent", grid))
        expected_tlr = node_by_name("250nm").tlr()
        assert tlr_result.columns["tlr"][0] == pytest.approx(
            expected_tlr, rel=1e-12
        )

    def test_derivation_conflicts_are_rejected(self):
        zeta_grid = ParameterGrid(Axis("zeta", [0.5]))
        with pytest.raises(ParameterError, match="derivation computes"):
            SweepRunner().run(
                Sweep("propagation_delay", zeta_grid, fixed={"rtr": 50.0})
            )
        node_grid = ParameterGrid(Axis("node", ["250nm"]))
        with pytest.raises(ParameterError, match="derivation computes"):
            SweepRunner().run(
                Sweep(
                    "propagation_delay",
                    node_grid,
                    fixed={"length": 0.01, "rt": 999.0},
                )
            )

    def test_unknown_simulator_route_is_a_parameter_error(self):
        grid = ParameterGrid(Axis("zeta", [0.5]))
        with pytest.raises(ParameterError, match="unknown simulator route"):
            SweepRunner().run(
                Sweep("simulated_delay_50", grid, options={"route": "bogus"})
            )

    def test_result_arrays_are_read_only(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        result = runner.run(self._sweep())
        with pytest.raises(ValueError):
            result.output()[0] = 0.0
        with pytest.raises(ValueError):
            result.columns["rt"][0] = 0.0
        replayed = SweepRunner(cache_dir=tmp_path).run(self._sweep())
        with pytest.raises(ValueError):
            replayed.output()[0] = 0.0
        assert result.output().copy().flags.writeable

    def test_to_table_truncation(self):
        result = SweepRunner().run(self._sweep())
        table = result.to_table(max_rows=3)
        assert len(table.rows) == 3
        assert table.headers[-1] == "delay_s"
        assert any("showing 3 of 6 rows" in note for note in table.notes)

    def test_unknown_simulator_backend_is_a_parameter_error(self):
        grid = ParameterGrid(Axis("zeta", [0.5]))
        with pytest.raises(ParameterError, match="unknown simulation backend"):
            SweepRunner().run(
                Sweep("simulated_delay_50", grid, options={"backend": "bogus"})
            )

    # -- disk-cache validation (stale / hand-edited files) -----------------

    def _cache_file(self, tmp_path):
        files = list(tmp_path.glob("sweep-*.json"))
        assert len(files) == 1
        return files[0]

    def _tampered_replay(self, tmp_path, mutate):
        """Seed the disk cache, corrupt it with ``mutate``, replay."""
        fresh = SweepRunner(cache_dir=tmp_path).run(self._sweep())
        path = self._cache_file(tmp_path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        replayer = SweepRunner(cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="ignoring sweep cache file"):
            replayed = replayer.run(self._sweep())
        assert replayed.cache_hit is None  # fell back to re-evaluation
        assert replayer.stats.disk_invalid == 1
        assert replayer.stats.kernel_evaluations == 6
        assert np.array_equal(replayed.output(), fresh.output())
        return replayer

    def test_tampered_axis_values_are_rejected(self, tmp_path):
        def mutate(payload):
            payload["columns"]["rt"][0] = 123.456

        self._tampered_replay(tmp_path, mutate)

    def test_truncated_output_is_rejected(self, tmp_path):
        def mutate(payload):
            payload["outputs"]["delay_s"] = payload["outputs"]["delay_s"][:-1]

        self._tampered_replay(tmp_path, mutate)

    def test_missing_axis_column_is_rejected(self, tmp_path):
        def mutate(payload):
            del payload["columns"]["lt"]

        self._tampered_replay(tmp_path, mutate)

    def test_injected_extra_column_is_rejected(self, tmp_path):
        def mutate(payload):
            payload["columns"]["phantom"] = payload["columns"]["rt"]

        self._tampered_replay(tmp_path, mutate)

    def test_tampered_derived_column_is_rejected(self, tmp_path):
        # Non-axis columns (fixed/derived inputs) are validated too.
        def mutate(payload):
            payload["columns"]["ct"] = [9e-9] * len(payload["columns"]["rt"])

        self._tampered_replay(tmp_path, mutate)

    def test_renamed_output_is_rejected(self, tmp_path):
        def mutate(payload):
            payload["outputs"]["wrong_name"] = payload["outputs"].pop("delay_s")

        self._tampered_replay(tmp_path, mutate)

    def test_valid_replay_stays_silent(self, tmp_path):
        SweepRunner(cache_dir=tmp_path).run(self._sweep())
        replayer = SweepRunner(cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replayed = replayer.run(self._sweep())
        assert replayed.cache_hit == "disk"
        assert replayer.stats.disk_invalid == 0


class TestAtomicDiskCache:
    def _sweep(self):
        grid = ParameterGrid(Axis("rt", [100.0, 500.0]))
        return Sweep("propagation_delay", grid, fixed={"lt": 1e-6, "ct": 1e-12})

    def test_no_tmp_litter_after_store(self, tmp_path):
        SweepRunner(cache_dir=tmp_path).run(self._sweep())
        assert list(tmp_path.glob("sweep-*.json"))
        assert not list(tmp_path.glob("sweep-*.tmp"))

    def test_stale_tmp_file_is_ignored_and_cleared(self, tmp_path):
        # A crash between write and rename leaves only a *.tmp file;
        # _load must treat the cache as a miss and clear() must sweep
        # the leftover away.
        runner = SweepRunner(cache_dir=tmp_path)
        first = runner.run(self._sweep())
        path = next(tmp_path.glob("sweep-*.json"))
        stale = path.with_suffix(".123.456.tmp")
        path.rename(stale)  # simulate: publish never happened
        fresh = SweepRunner(cache_dir=tmp_path).run(self._sweep())
        assert fresh.cache_hit is None
        assert np.array_equal(fresh.output(), first.output())
        runner.clear()
        assert not list(tmp_path.glob("sweep-*.tmp"))

    def test_truncated_payload_is_replayed_safely(self, tmp_path):
        # Even a torn *published* file (e.g. pre-fsync kernels) must not
        # poison the runner: it re-evaluates instead of crashing.
        SweepRunner(cache_dir=tmp_path).run(self._sweep())
        path = next(tmp_path.glob("sweep-*.json"))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        result = SweepRunner(cache_dir=tmp_path).run(self._sweep())
        assert result.cache_hit is None

    def test_failed_write_leaves_no_partial_cache(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_mod

        def exploding_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(runner_mod.os, "fsync", exploding_fsync)
        runner = SweepRunner(cache_dir=tmp_path)
        with pytest.raises(OSError, match="disk full"):
            runner.run(self._sweep())
        assert not list(tmp_path.glob("sweep-*"))


class TestSimulatedFanOut:
    def _sweep(self):
        grid = ParameterGrid(
            Axis("zeta", [0.5, 2.0]), Axis("r_ratio", [0.0, 1.0])
        )
        return Sweep(
            "simulated_delay_50",
            grid,
            fixed={"c_ratio": 0.5},
            options={"route": "tline", "n_segments": 20, "n_samples": 1501},
        )

    def test_matches_direct_simulation(self):
        runner = SweepRunner(max_workers=1)
        result = runner.run(self._sweep())
        assert runner.stats.simulator_evaluations == 4
        line = DriverLineLoad.for_zeta(2.0, r_ratio=1.0, c_ratio=0.5)
        direct = simulated_delay_50(
            line, route="tline", n_segments=20, n_samples=1501
        )
        assert result.output()[3] == pytest.approx(direct, rel=1e-12)

    def test_worker_pool_agrees_with_serial(self):
        serial = SweepRunner(max_workers=1).run(self._sweep())
        pooled = SweepRunner(max_workers=3, executor="thread").run(self._sweep())
        assert np.array_equal(serial.output(), pooled.output())

    def _mna_sweep(self, n_points=5, options=None):
        grid = ParameterGrid(Axis.log("rt", 200.0, 2000.0, n_points))
        opts = {"route": "mna", "n_segments": 12, "n_samples": 401}
        opts.update(options or {})
        return Sweep(
            "simulated_delay_50",
            grid,
            fixed={"lt": 1e-6, "ct": 1e-12, "rtr": 100.0, "cl": 1e-13},
            options=opts,
        )

    def test_mna_batch_route_matches_per_point(self):
        """The chunked template path reproduces scalar evaluations."""
        result = SweepRunner(max_workers=1).run(self._mna_sweep())
        for rt, delay in zip(result.columns["rt"], result.output()):
            line = DriverLineLoad(rt=rt, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)
            direct = simulated_delay_50(
                line, route="mna", n_segments=12, n_samples=401
            )
            assert delay == pytest.approx(direct, rel=1e-12)

    def test_mna_mixed_structure_classes(self):
        """cl = 0 and cl > 0 points split into structure classes."""
        grid = ParameterGrid(
            (Axis("rt", [500.0, 500.0, 900.0]), Axis("cl", [0.0, 1e-13, 0.0]))
        )
        sweep = Sweep(
            "simulated_delay_50",
            grid,
            fixed={"lt": 1e-6, "ct": 1e-12, "rtr": 100.0},
            options={"route": "mna", "n_segments": 10, "n_samples": 301},
        )
        result = SweepRunner(max_workers=1).run(sweep)
        for rt, cl, delay in zip(
            result.columns["rt"], result.columns["cl"], result.output()
        ):
            line = DriverLineLoad(rt=rt, lt=1e-6, ct=1e-12, rtr=100.0, cl=cl)
            direct = simulated_delay_50(
                line, route="mna", n_segments=10, n_samples=301
            )
            assert delay == pytest.approx(direct, rel=1e-12)

    def test_chunked_pool_agrees_with_serial_mna(self):
        serial = SweepRunner(max_workers=1).run(self._mna_sweep())
        pooled = SweepRunner(max_workers=3, executor="thread").run(
            self._mna_sweep()
        )
        assert np.array_equal(serial.output(), pooled.output())

    def test_chunk_partition_covers_all_points_in_order(self):
        from repro.sweep import runner as runner_mod

        recorded = []
        original = runner_mod._simulate_chunk

        def tracking(payload):
            columns, options = payload
            recorded.append(len(next(iter(columns.values()))))
            return original(payload)

        runner = SweepRunner(max_workers=2)
        sweep = self._mna_sweep(n_points=5)
        try:
            runner_mod._simulate_chunk = tracking
            result = runner.run(sweep)
        finally:
            runner_mod._simulate_chunk = original
        assert sum(recorded) == 5
        assert len(recorded) >= 2  # chunked, not one monolithic payload
        # Order preserved: strictly increasing rt maps to its own delay.
        ref = SweepRunner(max_workers=1).run(self._mna_sweep(n_points=5))
        assert np.array_equal(result.output(), ref.output())

    def test_default_pool_follows_cpu_affinity(self, monkeypatch):
        """``max_workers=None`` counts the CPUs the process may use."""
        import os

        from repro import obs
        from repro.sweep import runner as runner_mod

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        threads = set()
        original = runner_mod._simulate_chunk

        def tracking(payload):
            threads.add(threading.get_ident())
            return original(payload)

        monkeypatch.setattr(runner_mod, "_simulate_chunk", tracking)
        with obs.capture():
            result = SweepRunner().run(self._mna_sweep(n_points=5))
            (fan_out,) = [
                child
                for root in obs.trace_roots()
                for child in root.children
                if child.name == "sweep.fan_out"
            ]
        obs.reset()
        assert fan_out.attrs["workers"] == 1
        assert fan_out.attrs["chunks"] == 1
        assert threads == {threading.get_ident()}  # inline, no pool
        assert result.output().shape == (5,)

    def test_mna_route_accepts_backend_option(self):
        grid = ParameterGrid(Axis("zeta", [1.0]))
        results = {}
        for backend in ("dense", "sparse"):
            sweep = Sweep(
                "simulated_delay_50",
                grid,
                fixed={"r_ratio": 0.5, "c_ratio": 0.5},
                options={
                    "route": "mna",
                    "n_segments": 12,
                    "n_samples": 801,
                    "backend": backend,
                },
            )
            results[backend] = SweepRunner(max_workers=1).run(sweep).output()[0]
        assert results["sparse"] == pytest.approx(results["dense"], rel=1e-9)


class TestSweepCli:
    def test_list_quantities(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "propagation_delay" in out and "simulated_delay_50" in out

    def test_basic_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "propagation_delay",
                "--axis",
                "rt=log:100:5000:3",
                "--axis",
                "lt=1e-9,1e-8",
                "--fixed",
                "ct=1e-12",
                "--fixed",
                "rtr=100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXP-SWEEP" in out and "delay_s" in out
        assert "6 grid points" in out

    def test_zipped_axes(self, capsys):
        code = main(
            [
                "sweep",
                "propagation_delay",
                "--axis",
                "rt=100,200",
                "--axis",
                "lt=1e-9,2e-9",
                "--zip",
                "rt,lt",
                "--fixed",
                "ct=1e-12",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 grid points" in out

    def test_node_axis(self, capsys):
        code = main(
            [
                "sweep",
                "propagation_delay",
                "--axis",
                "node=250nm,180nm",
                "--fixed",
                "length=0.01",
            ]
        )
        assert code == 0
        assert "250nm" in capsys.readouterr().out

    def test_disk_cache_across_invocations(self, capsys, tmp_path):
        argv = [
            "sweep",
            "zeta",
            "--axis",
            "rt=lin:100:1000:4",
            "--fixed",
            "lt=1e-8",
            "--fixed",
            "ct=1e-12",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        assert "cache=miss" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache=disk" in capsys.readouterr().out

    def test_missing_quantity(self, capsys):
        assert main(["sweep"]) == 2
        assert "quantity is required" in capsys.readouterr().err

    def test_unknown_quantity(self, capsys):
        assert main(["sweep", "nope", "--axis", "rt=1,2"]) == 2
        assert "unknown sweep quantity" in capsys.readouterr().err

    def test_bad_axis_spec(self, capsys):
        assert main(["sweep", "zeta", "--axis", "rt"]) == 2
        assert "bad axis" in capsys.readouterr().err

    def test_bad_zip(self, capsys):
        code = main(
            ["sweep", "zeta", "--axis", "rt=1,2", "--zip", "rt,missing"]
        )
        assert code == 2
        assert "bad --zip" in capsys.readouterr().err


class TestAnalysisIntegration:
    def test_delay_versus_length_engine_equals_loop(self):
        from repro.analysis.length_dependence import delay_versus_length

        lengths = np.geomspace(1e-3, 1e-2, 5)
        r, l, c = 2000.0, 3e-7, 1.8e-10
        engine = delay_versus_length(r, l, c, lengths, rtr=10.0, cl=1e-14)
        loop = [
            propagation_delay(
                DriverLineLoad.from_per_unit_length(
                    r, l, c, length, rtr=10.0, cl=1e-14
                )
            )
            for length in lengths
        ]
        np.testing.assert_allclose(engine, loop, rtol=1e-13)

    def test_sensitivity_batch_equals_loop(self, underdamped_line):
        from repro.analysis.sensitivity import delay_elasticities

        step = 1e-4
        batched = delay_elasticities(underdamped_line, relative_step=step)
        base = propagation_delay(underdamped_line)
        for name, elasticity in batched.items():
            value = getattr(underdamped_line, name)
            if value == 0:
                assert elasticity == 0.0
                continue
            up = propagation_delay(replace(underdamped_line, **{name: value * (1 + step)}))
            down = propagation_delay(replace(underdamped_line, **{name: value * (1 - step)}))
            looped = (up - down) / (2.0 * step * base)
            assert elasticity == pytest.approx(looped, rel=1e-9)

    def test_collapse_spread_runs_through_runner(self):
        from repro.analysis.zeta_collapse import collapse_spread

        runner = SweepRunner(max_workers=2)
        points = collapse_spread(
            [0.5, 2.0],
            ratio_grid=(0.0, 1.0),
            n_segments=20,
            runner=runner,
        )
        assert runner.stats.simulator_evaluations == 8
        assert len(points) == 2
        assert points[0].minimum <= points[0].mean <= points[0].maximum
        again = collapse_spread(
            [0.5, 2.0], ratio_grid=(0.0, 1.0), n_segments=20, runner=runner
        )
        assert runner.stats.simulator_evaluations == 8  # cache hit
        assert again[0].mean == points[0].mean
