"""Tests for the observability layer (repro.obs) and its call sites."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.__main__ import main
from repro.spice.backend import BackendSelection, resolve_backend
from repro.spice.ladder import LadderSpec, build_ladder_circuit
from repro.spice.mna import build_mna_structure
from repro.sweep.grid import Axis, ParameterGrid, Sweep
from repro.sweep.runner import SweepRunner


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends disabled with empty telemetry."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _sweep(values=(100.0, 500.0, 2000.0)):
    grid = ParameterGrid(Axis("rt", values), Axis("lt", [1e-9, 1e-7]))
    return Sweep(
        "propagation_delay",
        grid,
        fixed={"ct": 1e-12, "rtr": 100.0, "cl": 1e-13},
    )


class TestSpanTracing:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything", n=3) is obs.NOOP_SPAN
        with obs.span("outer") as sp:
            assert sp is obs.NOOP_SPAN
            sp.set(key="value")  # silently ignored
        assert obs.trace_roots() == []

    def test_spans_nest_through_the_context(self):
        obs.enable()
        with obs.span("outer", kind="root") as outer:
            assert obs.current_span() is outer
            with obs.span("inner") as inner:
                assert obs.current_span() is inner
            assert obs.current_span() is outer
        assert obs.current_span() is None

        roots = obs.trace_roots()
        assert [s.name for s in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        assert roots[0].attrs == {"kind": "root"}
        assert roots[0].end_ns is not None
        assert roots[0].duration_ns >= roots[0].children[0].duration_ns

    def test_span_records_exception_type(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        (root,) = obs.trace_roots()
        assert root.attrs["error"] == "ValueError"
        assert root.end_ns is not None  # closed despite the raise

    def test_set_attaches_attributes_late(self):
        obs.enable()
        with obs.span("work") as sp:
            sp.set(points=7, backend="dense")
        (root,) = obs.trace_roots()
        assert root.attrs == {"points": 7, "backend": "dense"}

    def test_clear_trace_drops_roots(self):
        obs.enable()
        with obs.span("one"):
            pass
        obs.clear_trace()
        assert obs.trace_roots() == []

    def test_render_trace_tree_shape(self):
        obs.enable()
        with obs.span("parent", n=2):
            with obs.span("child.a"):
                pass
            with obs.span("child.b"):
                pass
        text = obs.render_trace()
        lines = text.splitlines()
        assert lines[0].startswith("parent")
        assert "n=2" in lines[0]
        assert lines[1].startswith("+- child.a")
        assert lines[2].startswith("`- child.b")

    def test_render_trace_empty(self):
        assert obs.render_trace() == "(no spans recorded)"


class TestMetricsRegistry:
    def test_disabled_helpers_record_nothing(self):
        obs.inc("x.count")
        obs.set_gauge("x.level", 1.0)
        obs.observe("x.seconds", 0.5)
        assert obs.REGISTRY.counter("x.count") == 0.0
        assert obs.REGISTRY.gauge("x.level") is None
        assert obs.REGISTRY.histogram("x.seconds") is None

    def test_labeled_series_are_distinct(self):
        obs.enable()
        obs.inc("solves", backend="dense")
        obs.inc("solves", 2, backend="banded")
        assert obs.REGISTRY.counter("solves", backend="dense") == 1.0
        assert obs.REGISTRY.counter("solves", backend="banded") == 2.0
        assert obs.REGISTRY.counter("solves") == 0.0  # unlabeled series
        assert obs.REGISTRY.counter_total("solves") == 3.0

    def test_histogram_buckets_and_stats(self):
        obs.enable()
        for v in (1.5, 3.0, 40.0):
            obs.observe("widths", v, buckets=obs.COUNT_BUCKETS)
        hist = obs.REGISTRY.histogram("widths")
        assert hist.count == 3
        assert hist.min == 1.5
        assert hist.max == 40.0
        assert hist.mean == pytest.approx((1.5 + 3.0 + 40.0) / 3)
        summary = hist.as_dict()
        tallied = {bound: n for bound, n in summary["buckets"] if n}
        assert tallied == {2: 1, 5: 1, 50: 1}
        assert summary["overflow"] == 0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            obs.Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            obs.Histogram(())

    def test_snapshot_and_reset(self):
        obs.enable()
        obs.inc("c", 2, kind="a")
        obs.set_gauge("g", 0.5)
        obs.observe("h", 1e-3)
        snap = obs.REGISTRY.snapshot()
        assert snap["counters"]["c"] == [{"labels": {"kind": "a"}, "value": 2.0}]
        assert snap["gauges"]["g"] == [{"labels": {}, "value": 0.5}]
        assert snap["histograms"]["h"][0]["count"] == 1
        obs.reset()
        empty = obs.REGISTRY.snapshot()
        assert empty == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_capture_restores_disabled_state(self):
        with obs.capture():
            assert obs.enabled()
            obs.inc("scoped")
        assert not obs.enabled()
        assert obs.REGISTRY.counter("scoped") == 1.0  # kept for inspection

    def test_metrics_payload_round_trips_json(self):
        obs.enable()
        obs.inc("events", backend="dense")
        obs.observe("seconds", 2e-3)
        payload = obs.metrics_payload(extra={"context": "unit-test"})
        encoded = json.loads(json.dumps(payload))
        assert encoded["schema"] == obs.METRICS_SCHEMA_VERSION
        assert encoded["context"] == "unit-test"
        names = [b["name"] for b in encoded["benchmarks"]]
        assert "seconds" in names
        assert "repro.obs.counters" in names


class TestBackendSelectionRecording:
    def _matrix(self, n_segments):
        spec = LadderSpec(
            rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13,
            n_segments=n_segments,
        )
        structure = build_mna_structure(build_ladder_circuit(spec))
        return structure.g_plan.coo(structure.revalue()[0])

    def test_small_system_reason_on_repr(self):
        backend = resolve_backend("auto", self._matrix(10))
        assert backend.name == "dense"
        assert backend.selection.rule == "small-system"
        assert "dense cutoff" in repr(backend)

    def test_narrow_band_reason_on_repr(self):
        backend = resolve_backend("auto", self._matrix(300))
        assert backend.name == "banded"
        assert backend.selection.rule == "narrow-band"
        assert backend.selection.band_width is not None
        assert "rcm band" in repr(backend)

    def test_selection_lands_in_registry(self):
        obs.enable()
        backend = resolve_backend("auto", self._matrix(300))
        assert (
            obs.REGISTRY.counter(
                "spice.backend.auto_selected",
                backend=backend.name,
                rule=backend.selection.rule,
            )
            == 1.0
        )

    def test_named_backends_have_no_selection(self):
        backend = resolve_backend("dense")
        assert backend.selection is None
        assert repr(backend) == "DenseLuBackend()"

    def test_selection_reason_text(self):
        sel = BackendSelection(
            backend="banded", rule="narrow-band", size=400, nnz=1200,
            band_width=3, band_limit=50,
        )
        assert sel.reason() == "n=400, rcm band 3 <= limit 50"


class TestSweepCacheAccounting:
    def test_miss_then_memory_hit_deltas(self):
        obs.enable()
        runner = SweepRunner()
        runner.run(_sweep())
        reg = obs.REGISTRY
        assert reg.counter("sweep.cache.misses") == 1.0
        assert reg.counter("sweep.cache.memory_hits") == 0.0
        assert reg.counter("sweep.evaluations", kind="kernel") == 6.0

        runner.run(_sweep())
        assert reg.counter("sweep.cache.misses") == 1.0
        assert reg.counter("sweep.cache.memory_hits") == 1.0
        assert reg.counter("sweep.evaluations", kind="kernel") == 6.0
        assert reg.gauge("sweep.cache.hit_rate") == 0.5

    def test_disk_hit_delta(self, tmp_path):
        obs.enable()
        SweepRunner(cache_dir=tmp_path).run(_sweep())
        obs.reset()
        obs.enable()

        replay = SweepRunner(cache_dir=tmp_path)
        result = replay.run(_sweep())
        assert result.cache_hit == "disk"
        reg = obs.REGISTRY
        assert reg.counter("sweep.cache.disk_hits") == 1.0
        assert reg.counter("sweep.cache.misses") == 0.0
        assert reg.counter_total("sweep.evaluations") == 0.0

    def test_disk_invalid_reevaluates_and_counts(self, tmp_path):
        obs.enable()
        SweepRunner(cache_dir=tmp_path).run(_sweep())
        (cache_file,) = tmp_path.glob("sweep-*.json")
        payload = json.loads(cache_file.read_text())
        payload["outputs"]["delay_s"] = payload["outputs"]["delay_s"][:-1]
        cache_file.write_text(json.dumps(payload))
        obs.reset()
        obs.enable()

        replay = SweepRunner(cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="ignoring sweep cache"):
            result = replay.run(_sweep())
        assert result.cache_hit is None  # fell through to evaluation
        reg = obs.REGISTRY
        assert reg.counter("sweep.cache.disk_invalid") == 1.0
        assert reg.counter("sweep.cache.misses") == 1.0
        assert reg.counter("sweep.evaluations", kind="kernel") == 6.0

    def test_runner_stats_api(self):
        runner = SweepRunner()
        runner.run(_sweep())
        runner.run(_sweep())
        stats = runner.stats.as_dict()
        assert stats["kernel_evaluations"] == 6
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["elapsed_s"] > 0.0

        line = runner.stats.summary()
        assert "6 kernel" in line
        assert "1 memory" in line
        assert "50% hit rate" in line

        runner.stats.reset()
        assert runner.stats.as_dict() == {
            "kernel_evaluations": 0,
            "simulator_evaluations": 0,
            "memory_hits": 0,
            "disk_hits": 0,
            "disk_invalid": 0,
            "misses": 0,
            "elapsed_s": 0.0,
            "hit_rate": 0.0,
        }


class TestInstrumentedSimulation:
    POINTS = [
        {"rt": 500.0, "lt": 1e-7, "ct": 1e-12, "rtr": 100.0, "cl": 1e-13},
        {"rt": 500.0, "lt": 1e-7, "ct": 1e-12, "rtr": 100.0, "cl": 1e-13},
        {"rt": 2000.0, "lt": 1e-7, "ct": 1e-12, "rtr": 100.0, "cl": 1e-13},
    ]

    def test_transient_batch_counters(self):
        from repro.spice.ladder import build_ladder_template
        from repro.spice.transient import simulate_transient_batch

        template = build_ladder_template(8, "PI", loaded=True)
        obs.enable()
        simulate_transient_batch(
            template, self.POINTS, t_stop=1e-9, dt=1e-11
        )
        reg = obs.REGISTRY
        assert reg.counter("spice.transient.batch_runs") == 1.0
        assert reg.counter("spice.transient.batch_points") == 3.0
        # Two identical points share one factorization.
        assert reg.counter("spice.transient.factorizations") == 2.0
        assert reg.counter("spice.transient.shared_factorization_reuse") == 1.0
        assert reg.histogram("spice.transient.batch_width").count == 1
        (root,) = [
            s for s in obs.trace_roots() if s.name == "transient.batch"
        ]
        assert root.attrs["points"] == 3
        assert root.attrs["groups"] == 2

    def test_ac_batch_counters(self):
        from repro.spice.ladder import build_ladder_template
        from repro.spice.ac import ac_sweep_batch

        template = build_ladder_template(6, "PI", loaded=True)
        obs.enable()
        ac_sweep_batch(
            template, self.POINTS, omegas=np.array([1e8, 1e9])
        )
        reg = obs.REGISTRY
        assert reg.counter("spice.ac.batch_runs") == 1.0
        assert reg.counter("spice.ac.batch_points") == 3.0
        assert reg.counter("spice.ac.shared_sweep_reuse") == 1.0
        # 2 distinct points x 2 frequencies refactorize.
        assert (
            obs.REGISTRY.counter_total("spice.backend.refactorize") == 4.0
        )


class TestCliIntegration:
    CLI = [
        "sweep", "propagation_delay",
        "--axis", "rt=log:100:5000:5",
        "--fixed", "lt=1e-8", "--fixed", "ct=1e-12",
    ]

    def test_stats_summary_always_printed(self, capsys):
        assert main(self.CLI) == 0
        out = capsys.readouterr().out
        assert "sweep stats:" in out

    def test_trace_prints_span_tree(self, capsys):
        assert main(self.CLI + ["--trace"]) == 0
        out = capsys.readouterr().out
        assert "sweep.run" in out
        assert "quantity=propagation_delay" in out

    def test_metrics_out_writes_artifact(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main(self.CLI + ["--metrics-out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == obs.METRICS_SCHEMA_VERSION
        assert payload["stats"]["misses"] == 1
        assert payload["sweep"]["quantity"] == "propagation_delay"
        counters = payload["metrics"]["counters"]
        assert "sweep.cache.misses" in counters
        assert "metrics written to" in capsys.readouterr().out

    def test_run_metrics_footer(self, capsys):
        assert main(["run", "EXP-X4", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "-- telemetry" in out
