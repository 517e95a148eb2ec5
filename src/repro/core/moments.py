"""Moment-matching baselines: Elmore delay and the two-pole model.

Standard EDA practice before (and mostly after) this paper estimated
interconnect delay from the low-order moments of the transfer function:

- the **Elmore delay** [13] is the first moment ``a1`` of the denominator
  series (equivalently minus the first moment of ``H``), with the classic
  50% estimate ``t50 ~= ln(2) * a1``;
- the **two-pole model** keeps ``a1`` and ``a2`` and solves the resulting
  second-order step response for its 50% crossing, capturing some
  inductive (complex-pole) behaviour.

Both are implemented on the *exact* series coefficients of the
distributed line (paper eq. 7, computed in
:func:`repro.tline.transfer.denominator_coefficients`), so the comparison
with eq. 9 and with full simulation (experiment EXP-X3) isolates modeling
error rather than moment-computation error.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.canonical import DriverLineLoad
from repro.errors import AnalysisError
from repro.tline.transfer import denominator_coefficients

__all__ = [
    "LN2",
    "elmore_delay",
    "elmore_delay_50",
    "two_pole_coefficients",
    "two_pole_step_response",
    "two_pole_delay_50",
]

LN2 = math.log(2.0)


def elmore_delay(line: DriverLineLoad) -> float:
    """First moment of the driver/line/load response (seconds).

    ``a1 = Rtr*CL + Rt*Ct/2 + Rt*CL + Rtr*Ct`` -- the sum of every
    resistance times all downstream capacitance, with the distributed
    line contributing ``Rt*Ct/2``.
    """
    return (
        line.rtr * line.cl
        + 0.5 * line.rt * line.ct
        + line.rt * line.cl
        + line.rtr * line.ct
    )


def elmore_delay_50(line: DriverLineLoad) -> float:
    """Classic 50% estimate ``ln(2) * a1`` (single-pole approximation).

    Ignores inductance entirely -- the RC baseline the paper argues
    against for inductive lines.
    """
    return LN2 * elmore_delay(line)


def two_pole_coefficients(line: DriverLineLoad) -> tuple[float, float]:
    """Exact ``(a1, a2)`` of the denominator series ``1 + a1 s + a2 s^2``.

    Unlike the Elmore term, ``a2`` carries the inductance (``Lt``
    appears in the ``s**2`` coefficient of the line's ``theta**2``).
    """
    coeffs = denominator_coefficients(
        line.rt, line.lt, line.ct, line.rtr, line.cl, order=2
    )
    return float(coeffs[1]), float(coeffs[2])


def two_pole_step_response(line: DriverLineLoad, times) -> np.ndarray:
    """Unit-step response of the truncated model ``1/(1 + a1 s + a2 s^2)``.

    Evaluated in closed form from the pole pair (real or complex).
    """
    a1, a2 = two_pole_coefficients(line)
    t = np.asarray(times, dtype=float)
    if a2 <= 0:
        # Degenerate single-pole case (no inductance and tiny line).
        if a1 <= 0:
            raise AnalysisError("two-pole model degenerate: a1, a2 <= 0")
        return 1.0 - np.exp(-t / a1)
    disc = a1 * a1 - 4.0 * a2
    if disc >= 0:
        # Overdamped: two real poles p1, p2 < 0.
        sq = math.sqrt(disc)
        p1 = (-a1 + sq) / (2.0 * a2)
        p2 = (-a1 - sq) / (2.0 * a2)
        if p1 == p2:
            return 1.0 - np.exp(p1 * t) * (1.0 - p1 * t)
        return 1.0 - (p2 * np.exp(p1 * t) - p1 * np.exp(p2 * t)) / (p2 - p1)
    # Underdamped: sigma +- j*omega_d.
    sigma = a1 / (2.0 * a2)
    omega_d = math.sqrt(-disc) / (2.0 * a2)
    return 1.0 - np.exp(-sigma * t) * (
        np.cos(omega_d * t) + (sigma / omega_d) * np.sin(omega_d * t)
    )


def two_pole_delay_50(line: DriverLineLoad) -> float:
    """50% delay of the two-pole model (seconds), solved by bracketing.

    The response is searched on ``[0, 40 * a1]``; two-pole responses
    always reach 0.5 well inside that window.
    """
    from scipy.optimize import brentq  # deferred: keeps ``import repro`` light

    a1, _ = two_pole_coefficients(line)
    if a1 <= 0:
        raise AnalysisError("two-pole model needs a1 > 0")

    def crossing(t: float) -> float:
        return float(two_pole_step_response(line, np.array([t]))[0]) - 0.5

    hi = 40.0 * a1
    # The underdamped response oscillates; find the first bracketing
    # interval by scanning, then refine with brentq.
    samples = np.linspace(0.0, hi, 4096)
    values = two_pole_step_response(line, samples) - 0.5
    sign_change = np.nonzero((values[:-1] < 0) & (values[1:] >= 0))[0]
    if sign_change.size == 0:
        raise AnalysisError("two-pole response never reaches 50% in window")
    i = int(sign_change[0])
    return float(brentq(crossing, samples[i], samples[i + 1], xtol=a1 * 1e-12))
