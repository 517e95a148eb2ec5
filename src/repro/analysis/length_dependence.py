"""Delay versus wire length: the quadratic-to-linear transition.

Section II's headline observation: an RC line's 50% delay grows as
``0.37*R*C*l**2`` while an LC line's grows as ``sqrt(L*C)*l``; a real RLC
wire moves from the quadratic to the linear regime as inductance effects
strengthen (longer wavefront flight, lower loss).  These helpers sweep
length, fit the local power-law exponent, and locate the crossover.

The sweep runs through the :mod:`repro.sweep` engine as a single
zipped-axis batch -- ``Rt``, ``Lt`` and ``Ct`` all scale with the same
length column -- so repeated sweeps hit the shared result cache instead
of re-evaluating.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ParameterError, require_positive
from repro.sweep.grid import Axis, ParameterGrid, Sweep
from repro.sweep.runner import SweepRunner

__all__ = [
    "delay_versus_length",
    "fitted_length_exponent",
    "rc_lc_crossover_length",
]

#: Shared in-memory cache for the closed-form length sweeps; drivers may
#: pass their own runner (e.g. disk-backed) instead.
_DEFAULT_RUNNER = SweepRunner()


def delay_versus_length(
    r: float,
    l: float,
    c: float,
    lengths,
    rtr: float = 0.0,
    cl: float = 0.0,
    runner: SweepRunner | None = None,
) -> np.ndarray:
    """Eq. 9 delay at each wire length (per-unit-length parasitics fixed).

    Evaluated as one vectorized batch via ``runner`` (a shared
    module-level :class:`~repro.sweep.runner.SweepRunner` when
    omitted).  To sweep length with a simulator instead, run the same
    zipped grid as ``Sweep("simulated_delay_50", grid, ...)``.
    """
    lengths = np.asarray(lengths, dtype=float)
    if np.any(lengths <= 0):
        raise ParameterError("lengths must be positive")
    grid = ParameterGrid(
        (
            Axis("rt", r * lengths),
            Axis("lt", l * lengths),
            Axis("ct", c * lengths),
        )
    )
    sweep = Sweep(
        "propagation_delay",
        grid,
        fixed={"rtr": float(rtr), "cl": float(cl)},
    )
    return (runner or _DEFAULT_RUNNER).run(sweep).output().copy()


def fitted_length_exponent(lengths, delays) -> float:
    """Least-squares slope of ``log(delay)`` vs ``log(length)``.

    2.0 for a pure RC wire, 1.0 for a pure LC wire; a value between
    quantifies how far into the inductive regime the sweep sits.
    """
    lengths = np.asarray(lengths, dtype=float)
    delays = np.asarray(delays, dtype=float)
    if lengths.shape != delays.shape or lengths.size < 2:
        raise ParameterError("need matching arrays of at least 2 points")
    if np.any(lengths <= 0) or np.any(delays <= 0):
        raise ParameterError("lengths and delays must be positive")
    slope, _ = np.polyfit(np.log(lengths), np.log(delays), 1)
    return float(slope)


def rc_lc_crossover_length(r: float, l: float, c: float) -> float:
    """Length where the RC diffusion delay equals the LC time of flight.

    Solves ``0.37*r*c*l**2 = sqrt(l_ind*c)*l``:
    ``l* = sqrt(l_ind/c) / (0.37*r)``.  Below ``l*`` the bare wire is
    flight-limited (linear regime); far above it, diffusion-limited
    (quadratic regime).
    """
    require_positive("r", r)
    require_positive("l", l)
    require_positive("c", c)
    return math.sqrt(l / c) / (0.37 * r)
