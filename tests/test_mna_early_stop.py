"""Early stop of lockstep MNA delay batches once every point has crossed 50%.

``simulated_delay_50_batch(route="mna")`` passes ``stop_at=0.5`` to
``simulate_transient_batch``, which stops stepping after the step where
the last point of the batch first rises through the level.  Every
sample it does compute is the full run's, so the delays must equal --
bit for bit, with ``==`` -- the 50% delays read off a full-window batch.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core.canonical import DriverLineLoad
from repro.core.simulate import _time_window, simulated_delay_50_batch
from repro.errors import AnalysisError, ParameterError
from repro.spice import transient
from repro.spice.ladder import build_ladder_template
from repro.spice.mna import CircuitTemplate
from repro.spice.netlist import Circuit, Param, PiecewiseLinear
from repro.spice.transient import simulate_transient_batch
from repro.sweep import Axis, ParameterGrid, Sweep, SweepRunner
from repro.tline.waveform import Waveform

N_SAMPLES = 1001


def _outcome(fn):
    """``fn()``'s value, or the text of the ``AnalysisError`` it raised."""
    try:
        return fn()
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"


def _sweep_lines(rng, n_grids=3) -> list[list[DriverLineLoad]]:
    """(rt, lt, cl) grids drawn as the ``ladder_sweep_mna`` benchmark draws them."""
    grids = []
    for _ in range(n_grids):
        rts = np.sort(rng.uniform(200.0, 2000.0, 2))
        lts = np.sort(10.0 ** rng.uniform(-8.0, -6.0, 4))
        cls = np.sort(rng.uniform(1e-13, 1e-12, 2))
        grids.append([
            DriverLineLoad(rt=rt, lt=lt, ct=1e-12, rtr=500.0, cl=cl)
            for rt in rts for lt in lts for cl in cls
        ])
    return grids


def _batch(lines, n_segments=100, topology="PI", shared_grid=False,
           window=12.0, **kwargs):
    """A far-end-recorded batch run with ``simulated_delay_50_batch``'s grid."""
    specs = [line.ladder(n_segments=n_segments, topology=topology) for line in lines]
    loaded = specs[0].cl > 0
    spans = np.asarray([_time_window(line, window) for line in lines])
    if shared_grid:
        spans = np.full(len(lines), spans.max())
    params = [
        {"rt": s.rt, "lt": s.lt, "ct": s.ct, "rtr": s.rtr,
         **({"cl": s.cl} if loaded else {})}
        for s in specs
    ]
    node = specs[0].output_node
    result = simulate_transient_batch(
        build_ladder_template(n_segments, topology, loaded=loaded), params,
        t_stop=spans[0] if shared_grid else spans, dt=spans / (N_SAMPLES - 1),
        record=[node], **kwargs,
    )
    return result, node


def _delays(result, node) -> list:
    """Each point's ``delay_50(v_final=1.0)``, or its ``AnalysisError`` text."""
    voltages = result.voltage(node)
    return [
        _outcome(lambda k=k: Waveform(result.times_of(k), voltages[k]).delay_50(v_final=1.0))
        for k in range(result.n_points)
    ]


def _crossing_steps(result, node, level=0.5) -> list:
    """Per point, the first step that rises through ``level`` (or None)."""
    steps = []
    for v in result.voltage(node):
        hits = np.nonzero((v[:-1] < level) & (v[1:] >= level))[0]
        steps.append(int(hits[0]) + 1 if hits.size else None)
    return steps


def _assert_prefix(early, full, node):
    """``early`` is ``full`` cut after ``early.n_steps`` steps, sample for sample."""
    n = early.n_steps + 1
    assert early.times.shape[-1] == early.states.shape[1] == n
    np.testing.assert_array_equal(early.times, full.times[..., :n])
    np.testing.assert_array_equal(early.states, full.states[:, :n])


class TestDelayBitIdentity:
    def test_sweep_grids(self, rng):
        for lines in _sweep_lines(rng):
            full, node = _batch(lines)
            assert np.all(full.voltage(node)[:, 0] == 0.0)  # ladders start at rest
            reference = _delays(full, node)
            delays = simulated_delay_50_batch(lines, route="mna", n_samples=N_SAMPLES)
            assert list(delays) == reference

    @pytest.mark.parametrize("n_segments", [1, 7, 100])
    @pytest.mark.parametrize("loaded", [True, False])
    @pytest.mark.parametrize("topology", ["L", "PI", "T"])
    def test_topologies(self, topology, loaded, n_segments):
        lines = [
            DriverLineLoad(rt=rt, lt=lt, ct=1e-12, rtr=250.0, cl=2e-13 if loaded else 0.0)
            for rt, lt in ((500.0, 1e-7), (100.0, 1e-6), (2000.0, 1e-8))
        ]
        full, node = _batch(lines, n_segments, topology)
        early, _ = _batch(lines, n_segments, topology, stop_at=0.5)
        _assert_prefix(early, full, node)
        assert _delays(early, node) == _delays(full, node)
        if topology == "PI":
            delays = simulated_delay_50_batch(
                lines, route="mna", n_segments=n_segments, n_samples=N_SAMPLES
            )
            assert list(delays) == _delays(full, node)

    @pytest.mark.parametrize("shared_grid", [True, False])
    @pytest.mark.parametrize("backend", ["dense", "sparse", "banded"])
    def test_grids_backends(self, rng, backend, shared_grid):
        lines = _sweep_lines(rng, n_grids=1)[0][::2]
        options = dict(shared_grid=shared_grid, backend=backend)
        full, node = _batch(lines, **options)
        early, _ = _batch(lines, stop_at=0.5, **options)
        assert early.times.ndim == (1 if shared_grid else 2)
        assert early.n_steps < full.n_steps
        _assert_prefix(early, full, node)
        assert _delays(early, node) == _delays(full, node)
        if not shared_grid:
            delays = simulated_delay_50_batch(
                lines, route="mna", n_samples=N_SAMPLES, backend=backend
            )
            assert list(delays) == _delays(full, node)


class TestNoCrossing:
    def test_one_point_without_crossing_steps_whole_window(self, rng):
        lines = _sweep_lines(rng, n_grids=1)[0][:4]
        full, node = _batch(lines)
        # Point 0 keeps its step count on a hundredth of the span.
        specs = [line.ladder(n_segments=100) for line in lines]
        spans = np.asarray([_time_window(line, 12.0) for line in lines])
        spans[0] /= 100.0
        kwargs = dict(
            params=[{"rt": s.rt, "lt": s.lt, "ct": s.ct, "rtr": s.rtr, "cl": s.cl}
                    for s in specs],
            t_stop=spans, dt=spans / (N_SAMPLES - 1), record=[node],
        )
        template = build_ladder_template(100, "PI", loaded=True)
        short = simulate_transient_batch(template, **kwargs)
        early = simulate_transient_batch(template, stop_at=0.5, **kwargs)
        assert _crossing_steps(short, node)[0] is None
        assert early.n_steps == short.n_steps == N_SAMPLES - 1
        np.testing.assert_array_equal(early.states, short.states)
        delays = _delays(early, node)
        assert delays[0].startswith("AnalysisError: waveform never crosses")
        assert delays[1:] == _delays(full, node)[1:]

    def test_error_text_unchanged(self, rng):
        window = 0.2
        lines = _sweep_lines(rng, n_grids=1)[0][:3]
        with pytest.raises(AnalysisError) as caught:
            simulated_delay_50_batch(
                lines, route="mna", n_samples=N_SAMPLES, window=window
            )
        assert str(caught.value) == (
            f"no 50% crossing within window={window} "
            f"(zeta={lines[0].zeta:.3g}); increase the window"
        )
        # The cause reports the range of the whole window's samples.
        full, node = _batch(lines, window=window)
        assert f"AnalysisError: {caught.value.__cause__}" == _delays(full, node)[0]


class TestResultCut:
    @pytest.mark.parametrize("shared_grid", [True, False])
    def test_n_steps_is_last_crossing_step(self, rng, shared_grid):
        lines = _sweep_lines(rng, n_grids=1)[0]
        full, node = _batch(lines, shared_grid=shared_grid)
        early, _ = _batch(lines, shared_grid=shared_grid, stop_at=0.5)
        assert early.n_steps == max(_crossing_steps(full, node))
        assert early.n_points == len(lines)
        assert early.times.shape[-1] == early.states.shape[1] == early.n_steps + 1
        if not shared_grid:
            assert early.times.shape[0] == len(lines)
        _assert_prefix(early, full, node)
        for k in range(len(lines)):
            assert early.waveform(k, node).times.size == early.n_steps + 1


class TestStopAtValidation:
    def test_none_returns_full_grid(self, underdamped_line):
        result, _ = _batch([underdamped_line] * 2)
        assert result.n_steps == N_SAMPLES - 1
        assert result.times.shape == (N_SAMPLES,)

    @pytest.mark.parametrize("v_start", [0.5, 0.6])
    def test_start_at_or_above_level_waits_for_transition(self, v_start):
        # The source starts at v_start, so the DC start puts the output
        # there too; it then dips to 0 and rises to 1.
        span = 2e-9
        ckt = Circuit("dip")
        ckt.add_voltage_source("vs", "in", "0", PiecewiseLinear(
            ((0.0, v_start), (span / 4, 0.0), (span / 2, 1.0))
        ))
        ckt.add_resistor("r1", "in", "out", Param("r"))
        ckt.add_capacitor("c1", "out", "0", 1e-12)
        template = CircuitTemplate(ckt)
        node = "out"
        params = [{"r": 100.0}] * 2
        kwargs = dict(t_stop=span, dt=span / (N_SAMPLES - 1), record=[node])
        full = simulate_transient_batch(template, params, **kwargs)
        early = simulate_transient_batch(template, params, stop_at=0.5, **kwargs)
        v = early.voltage(node)[0]
        assert v[0] == v_start
        assert np.any(v[1:-1] < 0.5)
        assert v[-2] < 0.5 <= v[-1]
        assert early.n_steps < full.n_steps
        _assert_prefix(early, full, node)

    def test_never_below_level_steps_whole_window(self, underdamped_line):
        result, _ = _batch([underdamped_line] * 2, stop_at=-1.0)
        assert result.n_steps == N_SAMPLES - 1

    def test_two_recorded_rows_rejected(self, underdamped_line):
        spec = underdamped_line.ladder(n_segments=7)
        template = build_ladder_template(7, "PI", loaded=True)
        point = dict(rt=spec.rt, lt=spec.lt, ct=spec.ct, rtr=spec.rtr, cl=spec.cl)
        with pytest.raises(ParameterError, match="exactly one recorded row"):
            simulate_transient_batch(
                template, [point], 1e-9, 1e-11,
                record=["n1", spec.output_node], stop_at=0.5,
            )
        with pytest.raises(ParameterError, match="exactly one recorded row"):
            simulate_transient_batch(template, [point], 1e-9, 1e-11, stop_at=0.5)

    def test_non_finite_level_rejected(self, underdamped_line):
        with pytest.raises(ParameterError, match="finite"):
            _batch([underdamped_line], stop_at=float("nan"))


class TestModelTiers:
    def test_reduced_keeps_full_window(self, underdamped_line):
        lines = [underdamped_line, dataclasses.replace(underdamped_line, rt=800.0)]
        result, node = _batch(lines, shared_grid=True, model="reduced", stop_at=0.5)
        assert result.n_steps == N_SAMPLES - 1
        assert result.times.shape == (N_SAMPLES,)
        assert result.states.shape == (2, N_SAMPLES, 1)

    def test_auto_fallback_keeps_full_window(self, underdamped_line):
        lines = [underdamped_line, dataclasses.replace(underdamped_line, rt=800.0)]
        options = dict(shared_grid=True, model="auto", rom_order=4, rom_error_bound=1e-8)
        with obs.capture():
            result, node = _batch(lines, stop_at=0.5, **options)
            fallbacks = obs.REGISTRY.counter("rom.fallbacks", rule="auto-error-fallback")
        assert fallbacks == len(lines)
        assert result.n_steps == N_SAMPLES - 1
        assert result.states.shape == (2, N_SAMPLES, 1)
        full, _ = _batch(lines, shared_grid=True)
        np.testing.assert_array_equal(result.states, full.states)

    def test_auto_small_system_runs_full_tier_and_stops(self, underdamped_line):
        lines = [underdamped_line, dataclasses.replace(underdamped_line, rt=800.0)]
        full, node = _batch(lines, n_segments=7)
        early, _ = _batch(lines, n_segments=7, model="auto", stop_at=0.5)
        assert early.n_steps < full.n_steps
        _assert_prefix(early, full, node)


class TestSweepReplay:
    def test_disk_replay_matches_fresh_and_full_window(self, rng, tmp_path, monkeypatch):
        rts = np.sort(rng.uniform(200.0, 2000.0, 2))
        lts = np.sort(10.0 ** rng.uniform(-8.0, -6.0, 2))
        sweep = Sweep(
            "simulated_delay_50",
            ParameterGrid(Axis("rt", rts), Axis("lt", lts), Axis("cl", [3e-13])),
            fixed={"ct": 1e-12, "rtr": 500.0},
            options={"route": "mna", "model": "full", "n_samples": N_SAMPLES},
        )

        def runner(cache_dir):
            return SweepRunner(cache_dir=cache_dir, max_workers=2, executor="thread")

        fresh = runner(tmp_path / "cache").run(sweep)
        replayed = runner(tmp_path / "cache").run(sweep)
        assert fresh.cache_hit is None and replayed.cache_hit == "disk"
        np.testing.assert_array_equal(replayed.output("delay_s"), fresh.output("delay_s"))

        # The same sweep with every batch stepping its whole window.
        original = transient.simulate_transient_batch

        def whole_window(*args, stop_at=None, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(transient, "simulate_transient_batch", whole_window)
        reference = runner(None).run(sweep)
        np.testing.assert_array_equal(fresh.output("delay_s"), reference.output("delay_s"))


class TestObservability:
    def test_span_attrs_and_counter(self, underdamped_line):
        lines = [underdamped_line, dataclasses.replace(underdamped_line, rt=800.0)]
        with obs.capture():
            early, _ = _batch(lines, stop_at=0.5)
            full, _ = _batch(lines)
            steps = obs.REGISTRY.counter("spice.transient.batch_steps")
            spans = [s for s in obs.trace_roots() if s.name == "transient.batch"]
        assert early.n_steps < full.n_steps == N_SAMPLES - 1
        assert steps == early.n_steps + full.n_steps
        assert [s.attrs["steps_run"] for s in spans] == [early.n_steps, full.n_steps]
        assert [s.attrs["stopped_early"] for s in spans] == [True, False]
        assert [s.attrs["steps"] for s in spans] == [N_SAMPLES - 1] * 2
