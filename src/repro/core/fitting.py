"""The paper's curve-fitting methodology, reproducible end to end.

Eq. 9 was produced by fitting ``t' = exp(-a*zeta**b) + c*zeta`` to AS/X
simulations of the scaled delay; eqs. 14/15 by fitting
``1/(1 + alpha*T**3)**beta`` to the numerically optimized repeater error
factors; eq. 17 by fitting a saturating rational-exponential form to the
numerically evaluated delay penalty.

This module re-runs each of those fits against *our* simulators and
optimizers (experiment EXP-X5), closing the methodological loop: if our
substrate is faithful, the re-fitted constants should land near the
published (2.9, 1.35, 1.48), (0.16, 0.24) and (0.18, 0.30).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import delay as delay_mod
from repro.errors import ConvergenceError, ParameterError

__all__ = [
    "FitResult",
    "delay_model_form",
    "fit_delay_model",
    "error_factor_form",
    "fit_error_factor",
]


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus goodness-of-fit diagnostics.

    Attributes
    ----------
    parameters:
        The fitted coefficients, in the order of the model function.
    max_relative_error:
        Largest ``|model - data| / data`` over the fit points.
    rms_relative_error:
        Root-mean-square relative error over the fit points.
    """

    parameters: tuple[float, ...]
    max_relative_error: float
    rms_relative_error: float


def _diagnostics(model_values: np.ndarray, data: np.ndarray) -> tuple[float, float]:
    rel = np.abs(model_values - data) / np.abs(data)
    return float(np.max(rel)), float(np.sqrt(np.mean(rel**2)))


def delay_model_form(zeta_values, a: float, b: float, c: float):
    """The eq. 9 template ``exp(-a * zeta**b) + c * zeta``."""
    z = np.asarray(zeta_values, dtype=float)
    return np.exp(-a * z**b) + c * z


def fit_delay_model(
    zeta_values,
    scaled_delays,
    initial_guess: tuple[float, float, float] = (
        delay_mod.FIT_EXPONENT_COEFFICIENT,
        delay_mod.FIT_EXPONENT_POWER,
        delay_mod.FIT_LINEAR_COEFFICIENT,
    ),
) -> FitResult:
    """Fit the eq. 9 coefficients to (zeta, scaled-delay) data.

    ``scaled_delays`` are dimensionless ``t_50 * omega_n`` values from
    any simulator route.  Raises :class:`ConvergenceError` on failure.
    """
    z = np.asarray(zeta_values, dtype=float)
    d = np.asarray(scaled_delays, dtype=float)
    if z.shape != d.shape or z.ndim != 1:
        raise ParameterError("zeta_values and scaled_delays must be equal 1-D arrays")
    if z.size < 4:
        raise ParameterError("need at least 4 fit points")
    from scipy.optimize import curve_fit  # deferred: keeps ``import repro`` light

    try:
        params, _ = curve_fit(
            delay_model_form, z, d, p0=initial_guess, maxfev=20000
        )
    except RuntimeError as exc:
        raise ConvergenceError(f"delay-model fit failed: {exc}") from exc
    max_err, rms_err = _diagnostics(delay_model_form(z, *params), d)
    return FitResult(tuple(float(p) for p in params), max_err, rms_err)


def error_factor_form(tlr_values, alpha: float, beta: float):
    """The eqs. 14/15 template ``1 / (1 + alpha * T**3)**beta``."""
    t = np.asarray(tlr_values, dtype=float)
    return (1.0 + alpha * t**3) ** (-beta)


def fit_error_factor(
    tlr_values,
    factors,
    initial_guess: tuple[float, float] = (0.17, 0.27),
) -> FitResult:
    """Fit an eqs. 14/15-style derating curve to (T, factor) data.

    ``factors`` are the numerically optimized ``h'`` or ``k'`` values
    from :func:`repro.core.repeater.numerical_error_factors`.
    """
    t = np.asarray(tlr_values, dtype=float)
    f = np.asarray(factors, dtype=float)
    if t.shape != f.shape or t.ndim != 1:
        raise ParameterError("tlr_values and factors must be equal 1-D arrays")
    if t.size < 3:
        raise ParameterError("need at least 3 fit points")
    if np.any(f <= 0) or np.any(f > 1.0 + 1e-9):
        raise ParameterError("error factors must lie in (0, 1]")
    from scipy.optimize import curve_fit  # deferred: keeps ``import repro`` light

    try:
        params, _ = curve_fit(
            error_factor_form, t, f, p0=initial_guess, maxfev=20000
        )
    except RuntimeError as exc:
        raise ConvergenceError(f"error-factor fit failed: {exc}") from exc
    max_err, rms_err = _diagnostics(error_factor_form(t, *params), f)
    return FitResult(tuple(float(p) for p in params), max_err, rms_err)
