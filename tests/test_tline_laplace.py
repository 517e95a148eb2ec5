"""Tests for repro.tline.laplace: inversion against analytic pairs.

``dehoog`` is the inversion the library uses; ``talbot``, an
independent contour method, is the oracle it is checked against.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.tline.laplace import dehoog, step_response, talbot

METHODS = [talbot, dehoog]
METHOD_IDS = ["talbot", "dehoog"]

TIMES = np.array([0.05, 0.3, 1.0, 2.5, 6.0])


def transform_pairs():
    """(F(s), f(t)) analytic pairs used across methods."""
    return [
        (lambda s: 1.0 / (s + 1.0), lambda t: np.exp(-t)),
        (lambda s: 1.0 / s**2, lambda t: t),
        (lambda s: 2.0 / (s + 0.5) ** 2, lambda t: 2.0 * t * np.exp(-0.5 * t)),
        (
            lambda s: 3.0 / ((s + 0.2) ** 2 + 9.0),
            lambda t: np.exp(-0.2 * t) * np.sin(3.0 * t),
        ),
        (
            lambda s: s / (s**2 + 4.0),
            lambda t: np.cos(2.0 * t),
        ),
    ]


class TestAnalyticPairs:
    @pytest.mark.parametrize("method", METHODS, ids=METHOD_IDS)
    @pytest.mark.parametrize("pair_index", range(5))
    def test_pair(self, method, pair_index):
        F, f = transform_pairs()[pair_index]
        # de Hoog shares one Fourier window across all times, so its
        # resolution at t << max(t) is bounded by T/(2M); keep the sweep
        # within ~1.5 decades for the shared-window method.
        times = TIMES[1:] if method is dehoog else TIMES
        got = method(F, times)
        expected = f(times)
        tolerance = 2e-5 if method is dehoog else 1e-6
        assert np.allclose(got, expected, atol=tolerance, rtol=1e-4)

    def test_dehoog_early_time_with_matched_window(self):
        """Early times are accurate when the window matches them."""
        F, f = transform_pairs()[0]
        got = dehoog(F, np.array([0.05, 0.1]), M=40)
        assert np.allclose(got, f(np.array([0.05, 0.1])), atol=1e-6)

    @pytest.mark.parametrize("method", METHODS, ids=METHOD_IDS)
    def test_scalar_time(self, method):
        got = method(lambda s: 1.0 / (s + 1.0), 1.0)
        assert got.shape == (1,)
        assert np.isclose(got[0], np.exp(-1.0), atol=1e-6)


class TestDelayedStep:
    """exp(-s)/s -> u(t - 1): discontinuous, the hard case."""

    def test_dehoog_resolves_discontinuity(self):
        F = lambda s: np.exp(-s) / s
        t = np.array([0.5, 0.8, 1.2, 1.5])
        got = dehoog(F, t, M=60)
        assert abs(got[0]) < 0.02
        assert abs(got[1]) < 0.06
        assert abs(got[2] - 1.0) < 0.06
        assert abs(got[3] - 1.0) < 0.02


class TestValidation:
    def test_rejects_zero_time(self):
        with pytest.raises(ParameterError, match="positive times"):
            talbot(lambda s: 1 / s, [0.0, 1.0])

    def test_rejects_negative_time(self):
        with pytest.raises(ParameterError):
            dehoog(lambda s: 1 / s, [-1.0])

    def test_rejects_2d_times(self):
        with pytest.raises(ParameterError, match="1-D"):
            dehoog(lambda s: 1 / s, np.ones((2, 2)))

    def test_talbot_rejects_tiny_order(self):
        with pytest.raises(ParameterError, match="M >= 2"):
            talbot(lambda s: 1 / s, [1.0], M=1)

    def test_rejects_nonfinite_times(self):
        with pytest.raises(ParameterError):
            talbot(lambda s: 1 / s, [np.nan])


class TestStepResponse:
    def test_first_order_step(self):
        # H = 1/(1 + s) -> step response 1 - exp(-t)
        t = np.array([0.0, 0.5, 1.0, 3.0])
        got = step_response(lambda s: 1.0 / (1.0 + s), t)
        assert got[0] == 0.0
        assert np.allclose(got[1:], 1.0 - np.exp(-t[1:]), atol=1e-5)

    def test_rejects_negative_times(self):
        with pytest.raises(ParameterError, match="non-negative"):
            step_response(lambda s: 1.0 / (1.0 + s), [-0.1, 1.0])

    def test_is_dehoog_of_h_over_s_with_kwargs_forwarded(self):
        H = lambda s: 1.0 / (1.0 + s)
        t = np.array([0.5, 1.0, 3.0])
        got = step_response(H, t, M=25)
        assert np.array_equal(got, dehoog(lambda s: H(s) / s, t, M=25))


class TestLinearity:
    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=-5, max_value=5),
        b=st.floats(min_value=0.1, max_value=4.0),
        c=st.floats(min_value=-5, max_value=5),
        d=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_dehoog_matches_talbot_on_linear_combination(self, a, b, c, d):
        """Inversion is linear: invert(a*F1 + c*F2) = a*f1 + c*f2."""
        F = lambda s: a / (s + b) + c / (s + d)
        t = np.array([0.4, 1.3])
        expected = a * np.exp(-b * t) + c * np.exp(-d * t)
        oracle = talbot(F, t)
        assert np.allclose(oracle, expected, atol=1e-7, rtol=1e-6)
        assert np.allclose(dehoog(F, t), oracle, atol=2e-5, rtol=1e-4)
