"""Exact integration of LTI state-space models.

For a linear time-invariant system

    dx/dt = A x + B u,    y = C x + D u

driven by a *piecewise-constant* input (e.g. the ideal step of the paper),
the solution between breakpoints is exact:

    x(t + dt) = E x(t) + F u,  with  E = expm(A dt),
    F = integral_0^dt expm(A tau) dtau  B.

Both ``E`` and ``F`` are obtained together from one matrix exponential of
the augmented matrix ``[[A, B], [0, 0]]`` (Van Loan's trick), which also
handles singular ``A`` gracefully.  Stepping is then a single mat-vec per
sample: no discretization error at the sample points, no stability limit.

This is the third, fully independent route to the paper's "dynamic
circuit simulation" results (alongside MNA transient integration and
inverse-Laplace of the exact line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro import obs
from repro.errors import ParameterError, SimulationError
from repro.tline.waveform import Waveform

__all__ = ["StateSpace", "simulate_step"]


@dataclass(frozen=True)
class StateSpace:
    """An LTI system ``dx/dt = A x + B u``, ``y = C x + D u``.

    ``B`` may have one or more input columns; ``C`` one or more output
    rows.  ``D`` defaults to zeros.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray | None = None

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        c = np.asarray(self.c, dtype=float)
        if c.ndim == 1:
            c = c[None, :]
        n = a.shape[0]
        if a.shape != (n, n):
            raise ParameterError(f"A must be square, got {a.shape}")
        if b.shape[0] != n:
            raise ParameterError(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise ParameterError(f"C must have {n} columns, got {c.shape}")
        d = self.d
        if d is None:
            d = np.zeros((c.shape[0], b.shape[1]))
        else:
            d = np.atleast_2d(np.asarray(d, dtype=float))
            if d.shape != (c.shape[0], b.shape[1]):
                raise ParameterError(
                    f"D must have shape {(c.shape[0], b.shape[1])}, got {d.shape}"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def order(self) -> int:
        """Number of state variables."""
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        """Number of input columns."""
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        """Number of output rows."""
        return self.c.shape[0]

    def discretize(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact zero-order-hold discretization ``(E, F)`` for step ``dt``."""
        if dt <= 0 or not np.isfinite(dt):
            raise ParameterError(f"dt must be positive and finite, got {dt}")
        n, m = self.order, self.n_inputs
        aug = np.zeros((n + m, n + m))
        aug[:n, :n] = self.a * dt
        aug[:n, n:] = self.b * dt
        phi = scipy.linalg.expm(aug)
        return phi[:n, :n], phi[:n, n:]

    def transfer_at(self, s) -> np.ndarray:
        """Transfer matrix ``C (sI - A)^{-1} B + D`` at complex ``s``.

        Returns an array of shape ``(len(s), n_outputs, n_inputs)``.
        """
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        eye = np.eye(self.order)
        out = np.empty((s.size, self.n_outputs, self.n_inputs), dtype=complex)
        for k, sk in enumerate(s):
            try:
                x = np.linalg.solve(sk * eye - self.a, self.b)
            except np.linalg.LinAlgError as exc:
                raise SimulationError(f"(sI - A) singular at s = {sk}") from exc
            out[k] = self.c @ x + self.d
        return out


def simulate_step(
    system: StateSpace,
    t_stop: float,
    n_samples: int = 1001,
    stop_at: float | None = None,
) -> list[Waveform]:
    """Simulate the unit-step response from rest.

    Every input steps from 0 to 1 at ``t = 0``; the state starts at
    zero.

    Parameters
    ----------
    system:
        The LTI model.
    t_stop:
        End time; samples are uniform on ``[0, t_stop]``.
    n_samples:
        Number of output samples (including ``t = 0``).
    stop_at:
        Stop stepping at the first sample where the (single) output
        rises through this level -- a sample strictly below it followed
        by one at or above it, the transition rule of
        :func:`~repro.tline.waveform.first_crossing` -- and return
        waveforms that end at that sample.  The grid and every returned
        sample are identical to the full run's, so a first-crossing
        measurement on the shortened waveform is unchanged.  Without
        such a transition the whole window is stepped.  ``None`` (the
        default) always steps all ``n_samples``.

    Returns
    -------
    list[Waveform]
        One waveform per system output.  Values at the sample points are
        exact (up to the accuracy of ``expm``).
    """
    if n_samples < 2:
        raise ParameterError(f"n_samples must be >= 2, got {n_samples}")
    if t_stop <= 0 or not np.isfinite(t_stop):
        raise ParameterError(f"t_stop must be positive and finite, got {t_stop}")
    if stop_at is not None:
        if system.n_outputs != 1:
            raise ParameterError(
                f"stop_at needs a single-output system, got {system.n_outputs} outputs"
            )
        if not math.isfinite(stop_at):
            raise ParameterError(f"stop_at must be finite, got {stop_at}")
    # A stride-0 view of one 1.0, not np.ones: numpy multiplies the two
    # in a different summation order across several inputs.
    u_vec = np.broadcast_to(1.0, (system.n_inputs,))
    x = np.zeros(system.order)

    with obs.span("statespace.step", n=system.order) as sp:
        times = np.linspace(0.0, t_stop, n_samples)
        dt = times[1] - times[0]
        e, f = system.discretize(dt)
        fu = f @ u_vec
        du = system.d @ u_vec

        # Comparisons with NaN are false, so without ``stop_at`` the loop
        # never stops early.
        level = math.nan if stop_at is None else float(stop_at)
        outputs = np.empty((n_samples, system.n_outputs))
        outputs[0] = system.c @ x + du
        below = outputs[0, 0] < level
        end = n_samples
        for k in range(1, n_samples):
            x = e @ x + fu
            outputs[k] = system.c @ x + du
            y = outputs[k, 0]
            if below and y >= level:
                end = k + 1
                break
            below = y < level
        sp.set(samples=end, stopped_early=end < n_samples)
        obs.inc("spice.statespace.samples", end)
    outputs = outputs[:end]
    if not np.all(np.isfinite(outputs)):
        raise SimulationError("state-space simulation produced non-finite values")
    return [Waveform(times[:end], outputs[:, j].copy()) for j in range(system.n_outputs)]
