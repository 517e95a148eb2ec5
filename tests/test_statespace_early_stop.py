"""Early stop of statespace delay queries at the first 50% crossing.

``simulated_delay_50`` (statespace route) and
``RepeaterSystem.total_delay_simulated`` stop stepping once the far-end
voltage first rises through 50%.  Every sample they do compute is the
full run's, so the delays must equal -- bit for bit, with ``==`` -- the
50% delay read off the full ``simulate_step`` waveform.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import obs
from repro.core.canonical import DriverLineLoad
from repro.core.delay import scaled_delay
from repro.core.repeater import Buffer, RepeaterDesign, RepeaterSystem, optimal_rlc_design
from repro.core.simulate import (
    _time_window,
    simulated_delay_50,
    simulated_delay_50_batch,
    simulated_step_waveform,
)
from repro.errors import AnalysisError, ParameterError
from repro.experiments import table1
from repro.spice.ladder import build_ladder_state_space
from repro.spice.statespace import StateSpace, simulate_step


def _outcome(fn):
    """``fn()``'s value, or the text of the ``AnalysisError`` it raised."""
    try:
        return fn()
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"


def _ladder_wave(line, n_segments, window, topology="PI", n_samples=4001, stop_at=None):
    model = build_ladder_state_space(line.ladder(n_segments=n_segments, topology=topology))
    span = _time_window(line, window)
    return simulate_step(model, span, n_samples=n_samples, stop_at=stop_at)[0]


def _full_delay(line, n_segments=100, window=12.0, topology="PI"):
    """The 50% delay of the full 4001-sample waveform (the reference)."""
    wave = _ladder_wave(line, n_segments, window, topology)
    assert wave.times.size == 4001
    return wave.delay_50(v_final=1.0)


def _table1_lines(rng) -> list[DriverLineLoad]:
    """The 36 Table 1 cells with seeded +-10% jitter on rt, lt and cl."""
    lines = []
    for r_ratio, lt, c_ratio in itertools.product(
        table1.RT_VALUES, table1.LT_VALUES, table1.CT_VALUES
    ):
        j = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, 3)
        lines.append(
            DriverLineLoad(
                rt=table1.RTR / r_ratio * j[0],
                lt=lt * j[1],
                ct=table1.CT_TOTAL,
                rtr=table1.RTR,
                cl=c_ratio * table1.CT_TOTAL * j[2],
            )
        )
    return lines


class TestDelayBitIdentity:
    def test_table1_cells(self, rng):
        lines = _table1_lines(rng)
        delays = [simulated_delay_50(line) for line in lines]
        for line, delay in zip(lines, delays):
            assert delay == _full_delay(line), line
        batch = simulated_delay_50_batch(lines, route="statespace")
        np.testing.assert_array_equal(batch, delays)

    @pytest.mark.parametrize("window", [3.0, 12.0])
    @pytest.mark.parametrize("n_segments", [1, 7, 100])
    @pytest.mark.parametrize("loaded", [True, False])
    @pytest.mark.parametrize("topology", ["L", "PI", "T"])
    def test_topologies(self, topology, loaded, n_segments, window):
        line = DriverLineLoad(
            rt=500.0, lt=1e-7, ct=1e-12, rtr=250.0, cl=2e-13 if loaded else 0.0
        )
        full = _outcome(lambda: _full_delay(line, n_segments, window, topology))
        early = _outcome(
            lambda: _ladder_wave(
                line, n_segments, window, topology, stop_at=0.5
            ).delay_50(v_final=1.0)
        )
        assert early == full
        if topology == "PI" and isinstance(full, float):
            assert simulated_delay_50(line, n_segments=n_segments, window=window) == full

    def test_waveform_query_keeps_full_window(self, underdamped_line):
        wave = simulated_step_waveform(underdamped_line)
        assert wave.times.size == 4001
        assert wave.delay_50(v_final=1.0) == simulated_delay_50(underdamped_line)


class TestNoCrossing:
    def test_short_window_error_text(self, underdamped_line):
        window = 0.2
        with pytest.raises(AnalysisError) as caught:
            simulated_delay_50(underdamped_line, window=window)
        assert str(caught.value) == (
            f"no 50% crossing within window={window} "
            f"(zeta={underdamped_line.zeta:.3g}); increase the window"
        )
        # The cause is the full-window measurement's own error.
        full = _outcome(lambda: _full_delay(underdamped_line, window=window))
        assert f"AnalysisError: {caught.value.__cause__}" == full

    def test_short_window_steps_whole_window(self, underdamped_line):
        wave = _ladder_wave(underdamped_line, 100, 0.2, stop_at=0.5)
        assert wave.times.size == 4001


def _series_rlc(r=10.0, l=1e-9, c=1e-12) -> StateSpace:
    """States (i, v_c); zeta ~ 0.16, so the capacitor voltage rings."""
    return StateSpace(
        a=[[-r / l, -1.0 / l], [1.0 / c, 0.0]], b=[1.0 / l, 0.0], c=[0.0, 1.0]
    )


class TestSimulateStepStopAt:
    def test_none_returns_all_samples(self):
        waves = simulate_step(_series_rlc(), 2e-9, n_samples=501)
        assert waves[0].times.size == 501

    def test_stops_at_first_transition(self):
        model = _series_rlc()
        full = simulate_step(model, 2e-9, n_samples=2001)[0]
        early = simulate_step(model, 2e-9, n_samples=2001, stop_at=0.5)[0]
        n = early.times.size
        assert n < 2001
        np.testing.assert_array_equal(early.times, full.times[:n])
        np.testing.assert_array_equal(early.values, full.values[:n])
        assert early.values[-2] < 0.5 <= early.values[-1]
        assert np.all(early.values[:-1] < 0.5)

    @pytest.mark.parametrize("v_start", [0.5, 0.6])
    def test_start_at_or_above_level_waits_for_transition(self, v_start):
        # The feedthrough starts the output at v_start; the rising loop
        # current then pulls it below 0.5 before v_c drives it back up
        # through the level to 1.
        rlc = _series_rlc()
        model = StateSpace(a=rlc.a, b=rlc.b, c=[[-20.0, 1.0 - v_start]], d=[[v_start]])
        full = simulate_step(model, 2e-9, n_samples=2001)[0]
        early = simulate_step(model, 2e-9, n_samples=2001, stop_at=0.5)[0]
        n = early.times.size
        assert early.values[0] == v_start
        assert np.any(early.values[1:-1] < 0.5)
        assert early.values[-2] < 0.5 <= early.values[-1]
        np.testing.assert_array_equal(early.values, full.values[:n])
        assert early.crossing(0.5) == full.crossing(0.5)

    def test_multi_output_rejected(self):
        model = StateSpace(a=[[-1.0, 0.0], [0.0, -2.0]], b=[1.0, 1.0], c=np.eye(2))
        with pytest.raises(ParameterError, match="single-output"):
            simulate_step(model, 1.0, stop_at=0.5)
        assert len(simulate_step(model, 1.0)) == 2

    def test_non_finite_level_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            simulate_step(_series_rlc(), 2e-9, stop_at=float("nan"))


class TestRepeaterEarlyStop:
    @staticmethod
    def _full_window_total(system, design, n_segments=64, n_samples=3001, window=12.0):
        """The full-window simulated total delay, computed step by step."""
        design = design.quantized()
        section = system.section_line(design)
        model = build_ladder_state_space(section.ladder(n_segments=n_segments))
        scale = max(scaled_delay(section.zeta) / section.omega_n, 1.0 / section.omega_n)
        wave = simulate_step(model, window * scale, n_samples=n_samples)[0]
        assert wave.times.size == n_samples
        return design.k * wave.delay_50(v_final=1.0)

    @pytest.mark.parametrize("lt", [1e-9, 1e-8, 1e-7])
    def test_matches_full_window(self, lt):
        line = DriverLineLoad(rt=100.0, lt=lt, ct=2e-12)
        buffer = Buffer(r0=1000.0, c0=1e-14)
        system = RepeaterSystem(line, buffer)
        optimum = optimal_rlc_design(line, buffer)
        for design in (optimum, RepeaterDesign(h=optimum.h / 2, k=optimum.k + 2)):
            assert system.total_delay_simulated(design) == self._full_window_total(
                system, design
            )


class TestObservability:
    def test_counter_and_span(self, underdamped_line):
        with obs.capture():
            simulated_delay_50(underdamped_line)
            early = obs.REGISTRY.counter("spice.statespace.samples")
            simulated_step_waveform(underdamped_line)
            total = obs.REGISTRY.counter("spice.statespace.samples")
            spans = [s for s in obs.trace_roots() if s.name == "statespace.step"]
        assert 1 < early < 4001
        assert total == early + 4001
        assert [s.attrs["samples"] for s in spans] == [early, 4001]
        assert [s.attrs["stopped_early"] for s in spans] == [True, False]
