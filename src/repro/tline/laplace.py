"""Numerical inverse Laplace transforms.

Two classic algorithms are provided, both operating on a user-supplied
transform ``F(s)`` that must accept a complex numpy array and return a
complex numpy array of the same shape:

``dehoog``
    de Hoog, Knight & Stokes (1982): Fourier series accelerated by a
    quotient-difference (Pade) continued fraction.  The method of choice
    for oscillatory or nearly discontinuous time functions such as the
    wavefront of an underdamped transmission line, and the one
    :func:`step_response` uses.

``talbot``
    Fixed-Talbot method (Abate & Valko, 2004).  Excellent for smooth
    transforms; spectral convergence in the number of nodes ``M``.  An
    independent contour method, kept as the oracle ``dehoog`` is checked
    against.

Both agree to many digits on smooth inputs; the test suite checks them
against analytic transform pairs and against each other.

The paper's evaluation (Table 1, Fig. 2) relies on "dynamic circuit
simulation" of a distributed RLC line.  The exact line has a closed-form
*frequency-domain* description (paper eq. 1); inverting it numerically is
one of the three independent routes this library uses to reproduce those
simulations (the others being lumped MNA transient simulation and exact
state-space integration, see :mod:`repro.spice`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "talbot",
    "TransformFunction",
    "dehoog",
    "step_response",
]

TransformFunction = Callable[[np.ndarray], np.ndarray]


def _as_time_array(times: float | Sequence[float] | np.ndarray) -> np.ndarray:
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1:
        raise ParameterError(f"times must be scalar or 1-D, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ParameterError("times must be finite")
    if np.any(t <= 0):
        raise ParameterError(
            "inverse Laplace evaluation requires strictly positive times; "
            "use step_response() if you need a value at t = 0"
        )
    return t


def talbot(F: TransformFunction, times, M: int = 48) -> np.ndarray:
    """Fixed-Talbot inversion (Abate & Valko 2004).

    Parameters
    ----------
    F:
        Vectorized Laplace transform ``s -> F(s)``.
    times:
        Positive time point(s) at which to evaluate ``f(t)``.
    M:
        Number of contour nodes.  The rule of thumb is ``M ~ 1.7 * d`` for
        ``d`` significant digits on smooth transforms; in double precision
        accuracy saturates around ``M = 45``-``65``.

    Returns
    -------
    numpy.ndarray
        ``f(t)`` for each requested time (always 1-D).
    """
    if M < 2:
        raise ParameterError(f"talbot requires M >= 2, got {M}")
    t = _as_time_array(times)
    out = np.empty_like(t)

    theta = (np.arange(1, M) * np.pi) / M  # phi_k, k = 1..M-1
    cot = 1.0 / np.tan(theta)
    sigma = theta + (theta * cot - 1.0) * cot

    for j, tj in enumerate(t):
        r = 2.0 * M / (5.0 * tj)
        s_nodes = r * theta * (cot + 1j)
        # k = 0 node is real: s = r.
        total = 0.5 * math.exp(r * tj) * complex(F(np.array([r + 0j]))[0])
        fs = F(s_nodes)
        total += np.sum(np.exp(tj * s_nodes) * fs * (1.0 + 1j * sigma))
        out[j] = (r / M) * total.real
    return out


def _dehoog_cf_coefficients(a: np.ndarray, M: int) -> np.ndarray:
    """Quotient-difference algorithm: continued-fraction coefficients.

    Given Fourier samples ``a[0..2M]`` (with ``a[0]`` already halved),
    returns ``d[0..2M]`` such that the Pade approximant of the power
    series ``sum a_k z**k`` is the continued fraction
    ``d0 / (1 + d1 z / (1 + d2 z / ...))``.
    """
    n = 2 * M + 1
    # q and e columns of the QD table.
    q = np.zeros((n, M + 1), dtype=complex)
    e = np.zeros((n, M + 1), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        q[: n - 1, 1] = a[1:] / a[:-1]
        for r in range(1, M + 1):
            # e column r from q column r.
            top = n - 2 * r
            e[:top, r] = q[1 : top + 1, r] - q[:top, r] + e[1 : top + 1, r - 1]
            if r < M:
                qtop = top - 1
                q[:qtop, r + 1] = (
                    q[1 : qtop + 1, r] * e[1 : qtop + 1, r] / e[:qtop, r]
                )
    d = np.zeros(n, dtype=complex)
    d[0] = a[0]
    for r in range(1, M + 1):
        d[2 * r - 1] = -q[0, r]
        d[2 * r] = -e[0, r]
    # Degenerate transforms can produce NaNs (e.g. exactly rational F with
    # fewer poles than M); zero coefficients simply truncate the fraction.
    d[~np.isfinite(d)] = 0.0
    return d


#: Half-period of the de Hoog Fourier series, in units of the latest
#: requested time; it must exceed 1 to avoid aliasing.
_DEHOOG_PERIOD_FACTOR = 2.0


def dehoog(
    F: TransformFunction,
    times,
    M: int = 40,
    tol: float = 1e-10,
) -> np.ndarray:
    """de Hoog--Knight--Stokes inversion.

    ``F`` must be stable (no singularity right of the imaginary axis),
    as every transform of a passive line is: the Bromwich contour sits
    at ``Re s = -ln(tol) / (2 T)`` with the Fourier half-period ``T``
    twice the latest requested time.

    Parameters
    ----------
    F:
        Vectorized Laplace transform.
    times:
        Positive evaluation times.  The Fourier samples are shared across
        all requested times, so evaluating a full waveform costs one set of
        ``2M + 1`` transform evaluations.
    M:
        Series order; ``2M + 1`` transform samples are used.
    tol:
        Target accuracy used to place the Bromwich contour.
    """
    if M < 2:
        raise ParameterError(f"dehoog requires M >= 2, got {M}")
    t = _as_time_array(times)
    big_t = _DEHOOG_PERIOD_FACTOR * float(np.max(t))
    gamma = -math.log(tol) / (2.0 * big_t)

    k = np.arange(2 * M + 1)
    s_nodes = gamma + 1j * np.pi * k / big_t
    a = F(s_nodes).astype(complex)
    a[0] *= 0.5
    d = _dehoog_cf_coefficients(a, M)

    n_levels = 2 * M + 1
    out = np.empty_like(t)
    for j, tj in enumerate(t):
        z = np.exp(1j * np.pi * tj / big_t)
        # Continued-fraction evaluation by the standard three-term
        # recurrence: A_n = A_{n-1} + d_n z A_{n-2} (same for B), with
        # A_{-1} = 0, B_{-1} = 1, A_0 = d_0, B_0 = 1.  Index shift: slot
        # [n + 1] stores level n.
        A = np.empty(n_levels + 1, dtype=complex)
        B = np.empty(n_levels + 1, dtype=complex)
        A[0], B[0] = 0.0, 1.0
        A[1], B[1] = d[0], 1.0
        for n in range(1, n_levels):
            A[n + 1] = A[n] + d[n] * z * A[n - 1]
            B[n + 1] = B[n] + d[n] * z * B[n - 1]
        num, den = A[n_levels], B[n_levels]
        # Remainder acceleration for the last level (de Hoog eq. 23):
        # replace d_{2M} z by R_{2M}(z) in the final recurrence step.
        h2m = 0.5 * (1.0 + z * (d[2 * M - 1] - d[2 * M]))
        if h2m != 0:
            r2m = -h2m * (1.0 - np.sqrt(1.0 + z * d[2 * M] / (h2m * h2m)))
            num_acc = A[n_levels - 1] + r2m * A[n_levels - 2]
            den_acc = B[n_levels - 1] + r2m * B[n_levels - 2]
            if den_acc != 0 and np.isfinite(num_acc) and np.isfinite(den_acc):
                num, den = num_acc, den_acc
        if den == 0:
            raise ParameterError("de Hoog continued fraction degenerated (B = 0)")
        out[j] = (np.exp(gamma * tj) / big_t) * (num / den).real
    return out


def step_response(H: TransformFunction, times, M: int = 40) -> np.ndarray:
    """Unit-step response of a transfer function ``H(s)``.

    Inverts ``H(s)/s`` with :func:`dehoog` of order ``M``.  ``times``
    may include ``t = 0`` (and only zero or positive values); the
    response there is 0, as for any strictly proper, delay-dominated
    network such as a driven transmission line.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(t < 0):
        raise ParameterError("step_response requires non-negative times")
    out = np.zeros_like(t)
    positive = t > 0

    def integrand(s: np.ndarray) -> np.ndarray:
        return H(s) / s

    if np.any(positive):
        out[positive] = dehoog(integrand, t[positive], M=M)
    return out
