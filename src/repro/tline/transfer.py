"""Exact transfer function of the paper's Fig. 1 circuit.

The circuit: an ideal step source ``Vin`` behind the gate output
resistance ``Rtr``, driving a uniform distributed RLC line (totals ``Rt``,
``Lt``, ``Ct``), terminated by the next gate's input capacitance ``CL``.
``Vout`` is the far-end (load) voltage.

From transmission-line theory (paper eq. 1, rewritten in the equivalent
chain-matrix form) the exact transfer function is::

    Vout           1
    ---- = ---------------------------------------------------------
    Vin    cosh(th)*(1 + s*Rtr*CL) + sinhc(th)*(Z*s*CL + Rtr*Y)

with ``Z = Rt + s*Lt``, ``Y = Gt + s*Ct``, ``th = sqrt(Z*Y)`` and
``sinhc(x) = sinh(x)/x``.  Every appearance of ``th`` is even, so the
square-root branch is irrelevant.

Two evaluation strategies are provided:

- :func:`line_transfer_function` evaluates the expression in an
  *exponentially scaled* form (multiplying numerator and denominator by
  ``2*exp(-th)``) so it never overflows, even for the very large ``|s|``
  sampled by inverse-Laplace contours;
- :func:`denominator_coefficients` expands the denominator as an exact
  power series in ``s`` (the paper's eq. 4/7), which feeds the
  moment-matching baselines in :mod:`repro.core.moments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ParameterError, require_nonnegative, require_positive
from repro.tline.laplace import step_response

__all__ = [
    "line_transfer_function",
    "denominator_coefficients",
    "transfer_moments",
    "DriverLineLoadTransfer",
]


def line_transfer_function(
    rt: float,
    lt: float,
    ct: float,
    rtr: float = 0.0,
    cl: float = 0.0,
    gt: float = 0.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Return the vectorized exact transfer function ``H(s) = Vout/Vin``.

    Parameters
    ----------
    rt, lt, ct:
        Total line resistance, inductance and capacitance (SI units).
    rtr:
        Driver (gate) output resistance.
    cl:
        Load (next gate input) capacitance.
    gt:
        Optional total shunt conductance of the line.

    Notes
    -----
    The returned callable accepts any complex numpy array (or scalar) and
    never overflows: the hyperbolic terms are evaluated relative to
    ``exp(-theta)`` with ``Re(theta) >= 0`` guaranteed by the principal
    square root.
    """
    require_nonnegative("rt", rt)
    require_nonnegative("lt", lt)
    require_positive("ct", ct)
    require_nonnegative("rtr", rtr)
    require_nonnegative("cl", cl)
    require_nonnegative("gt", gt)

    def transfer(s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        z = rt + s * lt
        y = gt + s * ct
        theta = np.sqrt(z * y)  # principal root: Re(theta) >= 0
        em = np.exp(-theta)
        em2 = em * em
        # Scaled hyperbolics: 2*exp(-th)*cosh(th) and 2*exp(-th)*sinhc(th).
        cosh_sc = 1.0 + em2
        small = np.abs(theta) < 1e-6
        safe_theta = np.where(small, 1.0, theta)
        sinhc_sc = np.where(
            small,
            (2.0 + theta * theta / 3.0) * em,
            (1.0 - em2) / safe_theta,
        )
        denom = cosh_sc * (1.0 + s * rtr * cl) + sinhc_sc * (z * s * cl + rtr * y)
        return 2.0 * em / denom

    return transfer


def _poly_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Multiply two power series (ascending coefficients), truncated."""
    return np.convolve(a, b)[: order + 1]


def denominator_coefficients(
    rt: float,
    lt: float,
    ct: float,
    rtr: float = 0.0,
    cl: float = 0.0,
    order: int = 6,
) -> np.ndarray:
    """Exact Maclaurin coefficients of the transfer-function denominator.

    Returns ``a`` with ``Vin/Vout = a[0] + a[1]*s + ... + a[order]*s**order
    + O(s**(order+1))`` and ``a[0] == 1`` (this is the series the paper
    writes as eq. 4/7).  The first coefficient,

        a1 = Rtr*CL + Rt*Ct/2 + Rt*CL + Rtr*Ct,

    is the Elmore delay of the driver/line/load system; ``a[2]`` feeds the
    two-pole baseline model.

    Only terms through ``s**order`` are exact; request a higher order if
    you need more moments.
    """
    require_nonnegative("rt", rt)
    require_nonnegative("lt", lt)
    require_positive("ct", ct)
    require_nonnegative("rtr", rtr)
    require_nonnegative("cl", cl)
    if order < 1:
        raise ParameterError(f"order must be >= 1, got {order}")

    n = order + 1
    # theta^2 = (rt + s*lt) * (s*ct) as a power series in s.
    theta_sq = np.zeros(n)
    if n > 1:
        theta_sq[1] = rt * ct
    if n > 2:
        theta_sq[2] = lt * ct

    # cosh(theta) = sum (theta^2)^k / (2k)!,  sinhc = sum (theta^2)^k / (2k+1)!
    cosh_series = np.zeros(n)
    sinhc_series = np.zeros(n)
    power = np.zeros(n)
    power[0] = 1.0  # (theta^2)^0
    k = 0
    while True:
        cosh_series += power / math.factorial(2 * k)
        sinhc_series += power / math.factorial(2 * k + 1)
        k += 1
        # (theta^2)^k has lowest-order term s^k; stop once beyond truncation.
        if k > order:
            break
        power = _poly_mul(power, theta_sq, order)
        if not np.any(power):
            break

    z_series = np.zeros(n)
    z_series[0] = rt
    if n > 1:
        z_series[1] = lt
    y_series = np.zeros(n)
    if n > 1:
        y_series[1] = ct

    s_cl = np.zeros(n)
    if n > 1:
        s_cl[1] = cl

    # denominator = cosh*(1 + s*rtr*cl) + sinhc*(z*s*cl + rtr*y)
    one_plus = np.zeros(n)
    one_plus[0] = 1.0
    if n > 1:
        one_plus[1] = rtr * cl

    bracket = _poly_mul(z_series, s_cl, order) + rtr * y_series
    denom = _poly_mul(cosh_series, one_plus, order) + _poly_mul(
        sinhc_series, bracket, order
    )
    return denom


def transfer_moments(
    rt: float,
    lt: float,
    ct: float,
    rtr: float = 0.0,
    cl: float = 0.0,
    order: int = 6,
) -> np.ndarray:
    """Maclaurin coefficients ``m`` of ``H(s) = sum m[k] * s**k``.

    Computed by inverting the denominator power series (``H = 1/D``).
    ``m[0] == 1`` and ``-m[1]`` is the Elmore delay.
    """
    a = denominator_coefficients(rt, lt, ct, rtr, cl, order)
    m = np.zeros_like(a)
    m[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        m[k] = -np.dot(a[1 : k + 1], m[k - 1 :: -1]) / a[0]
    return m


@dataclass(frozen=True)
class DriverLineLoadTransfer:
    """Frequency-domain view of the Fig. 1 circuit with step responses.

    This is the `tline` route of the three-way simulator cross-check: the
    *exact* distributed line, no lumped approximation, evaluated by
    numerical inverse Laplace.
    """

    rt: float
    lt: float
    ct: float
    rtr: float = 0.0
    cl: float = 0.0
    gt: float = 0.0
    _transfer: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        transfer = line_transfer_function(
            self.rt, self.lt, self.ct, self.rtr, self.cl, self.gt
        )
        object.__setattr__(self, "_transfer", transfer)

    def __call__(self, s) -> np.ndarray:
        """Evaluate ``H(s)``."""
        return self._transfer(s)

    def frequency_response(self, omega) -> np.ndarray:
        """``H(j*omega)`` for real angular frequencies."""
        omega = np.asarray(omega, dtype=float)
        return self._transfer(1j * omega)

    def dc_gain(self) -> float:
        """``H(0)`` -- unity for any lossless-shunt line."""
        return float(np.real(self._transfer(np.array([1e-12 + 0j]))[0]))

    def step_response(self, times, M: int = 40) -> np.ndarray:
        """Far-end voltage for a unit step input, ``Vout(t)``.

        Inverted with de Hoog's method of order ``M``
        (:func:`~repro.tline.laplace.dehoog`).
        """
        return step_response(self._transfer, times, M=M)

    def moments(self, order: int = 6) -> np.ndarray:
        """Maclaurin coefficients of ``H(s)`` (see :func:`transfer_moments`)."""
        return transfer_moments(self.rt, self.lt, self.ct, self.rtr, self.cl, order)
