"""Tests for repro.spice.statespace: exact LTI integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.spice.statespace import StateSpace, simulate_step


def first_order(tau: float = 1e-9) -> StateSpace:
    """dx/dt = (u - x)/tau, y = x -- the RC low-pass."""
    return StateSpace(a=[[-1.0 / tau]], b=[1.0 / tau], c=[1.0])


def series_rlc(r: float, l: float, c: float) -> StateSpace:
    """States (i, v_c); step drives through R-L into C."""
    a = [[-r / l, -1.0 / l], [1.0 / c, 0.0]]
    b = [1.0 / l, 0.0]
    c_row = [0.0, 1.0]
    return StateSpace(a=a, b=b, c=c_row)


class TestConstruction:
    def test_dimensions(self):
        model = series_rlc(10.0, 1e-9, 1e-12)
        assert model.order == 2
        assert model.n_inputs == 1
        assert model.n_outputs == 1

    def test_1d_promotion(self):
        model = first_order()
        assert model.b.shape == (1, 1)
        assert model.c.shape == (1, 1)
        assert model.d.shape == (1, 1)

    def test_shape_validation(self):
        with pytest.raises(ParameterError, match="square"):
            StateSpace(a=np.zeros((2, 3)), b=np.zeros(2), c=np.zeros(2))
        with pytest.raises(ParameterError, match="rows"):
            StateSpace(a=np.zeros((2, 2)), b=np.zeros(3), c=np.zeros(2))
        with pytest.raises(ParameterError, match="columns"):
            StateSpace(a=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(3))

    def test_d_validation(self):
        with pytest.raises(ParameterError, match="D"):
            StateSpace(a=np.zeros((1, 1)), b=np.zeros(1), c=np.zeros(1),
                       d=np.zeros((2, 2)))


class TestDiscretize:
    def test_matches_scalar_exponential(self):
        tau = 1e-9
        e, f = first_order(tau).discretize(1e-10)
        assert e[0, 0] == pytest.approx(np.exp(-0.1))
        assert f[0, 0] == pytest.approx(1.0 - np.exp(-0.1))

    def test_singular_a_handled(self):
        """Pure integrator: A = 0, F = B*dt via the augmented expm."""
        model = StateSpace(a=[[0.0]], b=[2.0], c=[1.0])
        e, f = model.discretize(0.5)
        assert e[0, 0] == pytest.approx(1.0)
        assert f[0, 0] == pytest.approx(1.0)

    def test_bad_dt(self):
        with pytest.raises(ParameterError):
            first_order().discretize(-1.0)


class TestSimulateStep:
    def test_first_order_exact_at_samples(self):
        tau = 1e-9
        (w,) = simulate_step(first_order(tau), t_stop=5e-9, n_samples=51)
        expected = 1.0 - np.exp(-w.times / tau)
        assert np.max(np.abs(w.values - expected)) < 1e-12

    def test_rlc_against_analytic(self):
        r, l, c = 20.0, 1e-9, 1e-12
        (w,) = simulate_step(series_rlc(r, l, c), t_stop=1e-9, n_samples=401)
        alpha = r / (2 * l)
        omega_d = np.sqrt(1.0 / (l * c) - alpha**2)
        expected = 1.0 - np.exp(-alpha * w.times) * (
            np.cos(omega_d * w.times) + alpha / omega_d * np.sin(omega_d * w.times)
        )
        assert np.max(np.abs(w.values - expected)) < 1e-10

    def test_validation(self):
        with pytest.raises(ParameterError, match="n_samples"):
            simulate_step(first_order(), 1e-9, n_samples=1)
        with pytest.raises(ParameterError, match="t_stop"):
            simulate_step(first_order(), -1e-9)


class TestTransferAt:
    def test_first_order_transfer(self):
        tau = 1e-9
        model = first_order(tau)
        s = np.array([1j / tau])
        h = model.transfer_at(s)[:, 0, 0]
        expected = 1.0 / (1.0 + 1j)
        assert np.allclose(h, expected)

    def test_rlc_transfer_matches_formula(self):
        r, l, c = 50.0, 2e-9, 1e-12
        model = series_rlc(r, l, c)
        s = np.array([1e9j, 1e8 + 3e9j])
        h = model.transfer_at(s)[:, 0, 0]
        expected = 1.0 / (1.0 + s * r * c + s * s * l * c)
        assert np.allclose(h, expected)
