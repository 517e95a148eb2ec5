"""Tests for repro.tline.waveform: measurement utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, ParameterError
from repro.tline.waveform import (
    Waveform,
    first_crossing,
    overshoot,
    propagation_delay_50,
    rise_time,
    settling_time,
)
from repro.tline.waveform import _first_crossings


def exponential_rise(tau: float = 1.0, t_end: float = 10.0, n: int = 2001):
    t = np.linspace(0.0, t_end, n)
    return t, 1.0 - np.exp(-t / tau)


class TestFirstCrossing:
    def test_linear_ramp_exact(self):
        t = np.array([0.0, 1.0, 2.0])
        v = np.array([0.0, 1.0, 2.0])
        assert first_crossing(t, v, 0.5) == pytest.approx(0.5)
        assert first_crossing(t, v, 1.5) == pytest.approx(1.5)

    def test_starts_above_level_is_not_a_crossing(self):
        # Starting beyond the level is not a transition; the historical
        # behavior returned t[0] here, reporting a crossing that never
        # happened.
        t = np.array([0.0, 1.0])
        v = np.array([2.0, 3.0])
        with pytest.raises(AnalysisError, match="actual transition"):
            first_crossing(t, v, 1.0)

    def test_starts_above_level_later_recrossing_found(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([2.0, 0.0, 0.0, 1.0])
        # Rising search skips the initial above-level sample and finds
        # the genuine upward transition between t=2 and t=3.
        assert first_crossing(t, v, 0.5) == pytest.approx(2.5)

    def test_starts_at_level_departing_in_direction(self):
        # Starting exactly at the level and moving through it counts as
        # a crossing at t[0] -- for both directions.
        t = np.array([0.0, 1.0, 2.0])
        up = np.array([1.0, 2.0, 3.0])
        down = np.array([1.0, 0.5, 0.0])
        assert first_crossing(t, up, 1.0, rising=True) == 0.0
        assert first_crossing(t, down, 1.0, rising=False) == 0.0

    def test_starts_at_level_departing_against_direction(self):
        # A waveform that starts at the level and *rises* never crosses
        # it falling: the seed reported t[0] here.
        t = np.array([0.0, 1.0, 2.0])
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(AnalysisError, match="never crosses"):
            first_crossing(t, v, 1.0, rising=False)

    def test_falling_crossing(self):
        t = np.array([0.0, 1.0, 2.0])
        v = np.array([2.0, 1.0, 0.0])
        assert first_crossing(t, v, 0.5, rising=False) == pytest.approx(1.5)

    def test_never_crosses(self):
        t = np.array([0.0, 1.0])
        v = np.array([0.0, 0.4])
        with pytest.raises(AnalysisError, match="never crosses"):
            first_crossing(t, v, 0.5)

    def test_first_of_many_crossings(self):
        t = np.linspace(0.0, 4 * np.pi, 4001)
        v = np.sin(t)
        got = first_crossing(t, v, 0.5)
        assert got == pytest.approx(np.arcsin(0.5), abs=1e-3)

    def test_validation_mismatched(self):
        with pytest.raises(ParameterError):
            first_crossing([0.0, 1.0], [0.0], 0.5)

    def test_validation_nonmonotone_time(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            first_crossing([0.0, 1.0, 0.5], [0.0, 1.0, 2.0], 0.5)

    def test_validation_nonfinite(self):
        with pytest.raises(ParameterError, match="finite"):
            first_crossing([0.0, 1.0], [0.0, np.nan], 0.5)

    @settings(max_examples=30, deadline=None)
    @given(level=st.floats(min_value=0.05, max_value=0.95))
    def test_interpolation_property(self, level):
        """On a dense exponential, crossing matches the analytic inverse."""
        t, v = exponential_rise()
        got = first_crossing(t, v, level)
        assert got == pytest.approx(-np.log(1.0 - level), abs=5e-3)


def _frozen_first_crossings(t, v, level, rising):
    """The row crossing kernel as it stood before its fast path: the
    reference its replacement must match bit for bit."""
    rows = np.arange(v.shape[0])
    rising = np.asarray(rising, dtype=bool).reshape(-1, 1)
    satisfied = np.where(rising, v >= level, v <= level)
    transitions = satisfied[:, 1:] & ~satisfied[:, :-1]
    i = transitions.argmax(axis=1)
    v0, v1, t0 = v[rows, i], v[rows, i + 1], t[i]
    with np.errstate(all="ignore"):
        frac = (level - v0) / (v1 - v0)
        crossings = t0 + frac * (t[i + 1] - t0)
    crossings[~transitions[rows, i]] = math.nan
    (start,) = np.nonzero(v[:, 0] == level)
    if start.size:
        off = v[start, (v[start] != level).argmax(axis=1)]
        up = np.broadcast_to(rising[:, 0], rows.shape)[start]
        crossings[start[np.where(up, off > level, off < level)]] = t[0]
    return crossings


def _crossing_rows(rng, n_rows, n, level):
    """Rows of every kind the kernel tells apart: smooth rises and falls,
    rows that start at the level, plateaus on it, rows that never cross."""
    kind = rng.integers(6, size=n_rows)
    coarse = level + 0.25 * rng.integers(-2, 3, size=(n_rows, n)).cumsum(axis=1)
    smooth = level + rng.normal(scale=0.3, size=(n_rows, n)).cumsum(axis=1)
    v = np.where(kind[:, None] < 3, coarse, smooth)
    v[kind == 1, 0] = level  # starts at the level
    plateau = kind == 2
    v[plateau, n // 3: n // 2] = level
    v[kind == 4] = level - 1.0 - rng.random((np.sum(kind == 4), n))  # never rises
    v[kind == 5] = level + rng.random((np.sum(kind == 5), n))  # starts beyond
    return v


class TestCrossingKernel:
    @pytest.mark.parametrize("n", [2, 3, 25, 401])
    def test_matches_the_frozen_kernel(self, n):
        rng = np.random.default_rng(20261020 + n)
        t = np.cumsum(rng.random(n) + 0.1)
        for level in (0.5, 0.0, float(rng.normal())):
            v = _crossing_rows(rng, 64, n, level)
            flags = rng.random(64) < 0.5
            for rising in (True, False, np.bool_(True), np.array(False), 1, flags,
                           list(flags)):
                got = _first_crossings(t, v, level, rising)
                want = _frozen_first_crossings(t, v, level, rising)
                np.testing.assert_array_equal(got, want)
            for row, up in zip(v, flags):
                # One row, one flag: the first_crossing call.
                got = _first_crossings(t, row[np.newaxis], level, up)
                want = _frozen_first_crossings(t, row[np.newaxis], level, up)
                np.testing.assert_array_equal(got, want)

    def test_columns_of_a_transposed_array(self):
        """The bus measurement passes a transposed (strided) view."""
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 1.0, 50)
        columns = _crossing_rows(rng, 16, 50, 0.5).T.copy()
        flags = rng.random(16) < 0.5
        np.testing.assert_array_equal(
            _first_crossings(t, columns.T, 0.5, flags),
            _frozen_first_crossings(t, columns.T, 0.5, flags),
        )


class TestDelayAndRise:
    def test_exponential_delay_50(self):
        t, v = exponential_rise()
        assert propagation_delay_50(t, v, v_final=1.0) == pytest.approx(
            np.log(2.0), abs=1e-3
        )

    def test_default_final_value(self):
        t, v = exponential_rise(t_end=20.0)
        assert propagation_delay_50(t, v) == pytest.approx(np.log(2.0), abs=1e-2)

    def test_delay_requires_rise(self):
        t = np.array([0.0, 1.0])
        v = np.array([1.0, 1.0])
        with pytest.raises(AnalysisError, match="does not exceed"):
            propagation_delay_50(t, v, v_final=1.0)

    def test_exponential_rise_time(self):
        t, v = exponential_rise()
        expected = np.log(0.9 / 0.1)  # ln 9
        assert rise_time(t, v, v_final=1.0) == pytest.approx(expected, abs=2e-3)

    def test_custom_thresholds(self):
        t, v = exponential_rise()
        got = rise_time(t, v, v_final=1.0, low=0.2, high=0.8)
        assert got == pytest.approx(np.log(0.8 / 0.2), abs=2e-3)

    def test_rise_threshold_validation(self):
        t, v = exponential_rise()
        with pytest.raises(ParameterError):
            rise_time(t, v, low=0.9, high=0.1)


class TestOvershootAndSettling:
    def test_no_overshoot(self):
        t, v = exponential_rise()
        assert overshoot(t, v, v_final=1.0) == 0.0

    def test_damped_oscillation_overshoot(self):
        t = np.linspace(0.0, 20.0, 4001)
        v = 1.0 - np.exp(-0.3 * t) * np.cos(2.0 * t)
        got = overshoot(t, v, v_final=1.0)
        # peak near t = pi/2 ... first max of 1 + e^{-0.3t}; analytic peak:
        peak = np.max(v)
        assert got == pytest.approx(peak - 1.0, abs=1e-9)
        assert 0.2 < got < 0.8

    def test_settling_time(self):
        t, v = exponential_rise(t_end=12.0, n=4001)
        got = settling_time(t, v, v_final=1.0, band=0.05)
        assert got == pytest.approx(-np.log(0.05), abs=2e-2)

    def test_settling_unsettled(self):
        t = np.linspace(0.0, 1.0, 100)
        v = t  # still rising at the end
        with pytest.raises(AnalysisError, match="not settled"):
            settling_time(t, v, v_final=2.0)


class TestWaveformClass:
    def test_construction_and_measurements(self):
        t, v = exponential_rise()
        w = Waveform(t, v)
        assert w.delay_50(v_final=1.0) == pytest.approx(np.log(2.0), abs=1e-3)
        assert w.final_value == pytest.approx(1.0, abs=1e-4)

    def test_from_samples(self):
        w = Waveform.from_samples([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])
        assert w.crossing(0.25) == pytest.approx(0.5)

    def test_resampled(self):
        t, v = exponential_rise()
        w = Waveform(t, v).resampled(np.linspace(0.0, 5.0, 11))
        assert w.times.size == 11
        assert w.values[0] == pytest.approx(0.0)

    def test_immutable_validation(self):
        with pytest.raises(ParameterError):
            Waveform(np.array([1.0]), np.array([1.0]))

    def test_stores_read_only_views(self):
        t, v = exponential_rise()
        w = Waveform(t, v)
        for stored, given in ((w.times, t), (w.values, v)):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 5.0
            assert given.flags.writeable

    def test_methods_match_the_validating_functions(self):
        t = np.linspace(0.0, 10.0, 2001)
        v = 1.0 - np.exp(-0.4 * t) * np.cos(2.0 * t)
        w = Waveform(t, v)
        assert w.delay_50() == propagation_delay_50(t, v)
        assert w.delay_50(v_final=1.0) == propagation_delay_50(t, v, 1.0)
        assert w.crossing(0.3, rising=True) == first_crossing(t, v, 0.3)
        assert w.rise_time(1.0) == rise_time(t, v, 1.0)
        assert w.overshoot(1.0) == overshoot(t, v, 1.0)
        assert w.settling_time(1.0, band=0.1) == settling_time(t, v, 1.0, band=0.1)

    def test_methods_do_not_revalidate(self, monkeypatch):
        import repro.tline.waveform as waveform

        t, v = exponential_rise()
        w = Waveform(t, v)
        calls = []
        original = waveform._validate
        monkeypatch.setattr(
            waveform, "_validate", lambda *a: calls.append(1) or original(*a)
        )
        w.delay_50()
        w.crossing(0.5)
        w.rise_time()
        w.overshoot()
        w.settling_time()
        assert calls == []
        propagation_delay_50(t, v)
        assert calls == [1]
