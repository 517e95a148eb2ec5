"""Rise-time model for the Fig. 1 circuit (extension of the paper).

The paper models the 50% delay only; repeater-aware timing flows also
need the output *transition time* (10-90% rise), which controls the
next stage's effective drive and the inductance criterion of [8].
Applying the paper's own methodology -- scale time by ``omega_n``,
observe that the result collapses onto ``zeta``, and fit once against
dynamic simulation -- yields this model.

Unlike the 50% delay (a smooth knee, eq. 9), the scaled rise time has a
genuinely two-regime S-shape in log-log (wavefront-limited ~zeta^0.66
below the knee, diffusive ~3.9*zeta above it with an inflection near
zeta = 1), which no low-parameter closed form we tried holds to a few
percent.  The model therefore ships as a *monotone interpolation table*
generated by :func:`build_rise_time_table` (exact transmission-line
simulation at RT = CT = 0.5, the center of the paper's design band) --
re-runnable at any time to audit the shipped constants.

Accuracy regime: unlike the 50% delay, the rise time does NOT collapse
tightly onto zeta in the underdamped knee -- for zeta ~ 0.3-0.7 the
(RT, CT) families spread by up to ~2x around the tabulated center
(ringing shapes differ strongly with loading), tightening to ~10% for
zeta >= 1.  Use the model as a band-center estimate below zeta ~ 0.8.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.canonical import DriverLineLoad
from repro.errors import ParameterError

__all__ = [
    "RISE_TABLE_ZETA",
    "RISE_TABLE_VALUES",
    "scaled_rise_time",
    "rise_time_10_90",
    "build_rise_time_table",
]

#: Tabulated damping factors (see module docstring for provenance).
RISE_TABLE_ZETA = np.array([
    0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0,
])

#: Scaled 10-90% rise times ``t_r * omega_n`` at RISE_TABLE_ZETA,
#: measured on the exact distributed line at RT = CT = 0.5.
RISE_TABLE_VALUES = np.array([
    0.2771, 0.3100, 0.3502, 0.4513, 0.5966, 0.8215, 1.1521, 1.5536,
    1.8340, 2.3483, 2.8636, 4.0412, 5.1594, 6.2430, 7.2970, 9.3618,
    11.3756, 13.3673, 15.3469, 19.2860, 23.2096, 31.0338, 38.8428,
])

#: Asymptotic slope of the diffusive tail (d t_r' / d zeta above 8).
_TAIL_SLOPE = (RISE_TABLE_VALUES[-1] - RISE_TABLE_VALUES[-2]) / (
    RISE_TABLE_ZETA[-1] - RISE_TABLE_ZETA[-2]
)
#: Wavefront-regime power-law exponent (log-log slope below 0.2).
_HEAD_EXPONENT = float(
    np.log(RISE_TABLE_VALUES[1] / RISE_TABLE_VALUES[0])
    / np.log(RISE_TABLE_ZETA[1] / RISE_TABLE_ZETA[0])
)


@functools.cache
def _interpolator():
    """Monotone cubic through the table, built on first use.

    ``scipy.interpolate`` is imported here, not at module level, so
    that ``import repro`` does not load it.
    """
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(RISE_TABLE_ZETA, RISE_TABLE_VALUES)


def scaled_rise_time(zeta_value):
    """Dimensionless 10-90% rise time ``t_r * omega_n`` vs ``zeta``.

    Monotone-cubic interpolation inside the tabulated range; power-law
    extrapolation below ``zeta = 0.1`` and linear (diffusive-slope)
    extrapolation above ``zeta = 10``.  Accepts scalars or arrays.
    """
    z = np.asarray(zeta_value, dtype=float)
    if np.any(z < 0) or not np.all(np.isfinite(z)):
        raise ParameterError("zeta must be finite and >= 0")
    z_lo, z_hi = RISE_TABLE_ZETA[0], RISE_TABLE_ZETA[-1]
    below = z < z_lo
    above = z > z_hi
    inside = ~(below | above)
    out = np.empty_like(z)
    out[inside] = _interpolator()(z[inside])
    if np.any(below):
        safe = np.where(below, z, z_lo)
        out[below] = RISE_TABLE_VALUES[0] * (safe[below] / z_lo) ** _HEAD_EXPONENT
    if np.any(above):
        out[above] = RISE_TABLE_VALUES[-1] + _TAIL_SLOPE * (z[above] - z_hi)
    if np.ndim(zeta_value) == 0:
        return float(out)
    return out


def rise_time_10_90(line: DriverLineLoad) -> float:
    """10-90% output transition time of the Fig. 1 circuit (seconds).

    >>> line = DriverLineLoad(rt=1000.0, lt=1e-7, ct=1e-12,
    ...                       rtr=500.0, cl=5e-13)
    >>> 5e-10 < rise_time_10_90(line) < 5e-9
    True
    """
    return scaled_rise_time(line.zeta) / line.omega_n


def build_rise_time_table(
    zeta_values=None,
    r_ratio: float = 0.5,
    c_ratio: float = 0.5,
    n_samples: int = 6001,
    window: float = 16.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Regenerate the (zeta, scaled rise time) table from simulation.

    This is the exact procedure that produced the shipped constants;
    the test suite runs it on a sparse grid and checks the shipped
    table against it.
    """
    from repro.core.simulate import simulated_step_waveform

    if zeta_values is None:
        zeta_values = RISE_TABLE_ZETA
    zeta_values = np.asarray(zeta_values, dtype=float)
    if np.any(zeta_values <= 0):
        raise ParameterError("zeta values must be positive")
    values = np.empty_like(zeta_values)
    for i, z in enumerate(zeta_values):
        line = DriverLineLoad.for_zeta(float(z), r_ratio, c_ratio)
        waveform = simulated_step_waveform(
            line, route="tline", n_samples=n_samples, window=window
        )
        values[i] = waveform.rise_time(v_final=1.0) * line.omega_n
    return zeta_values, values
