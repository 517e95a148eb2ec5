"""Waveform measurements: delay, rise time, overshoot, settling.

These are the post-processing steps a circuit designer applies to a
simulated node voltage: the paper's headline quantity is the 50%
propagation delay (time for the far-end voltage to first reach half the
final value, with a step applied at ``t = 0``).

All functions take sampled data and interpolate linearly between samples;
:class:`Waveform` packages a ``(t, v)`` pair with the common measurements
as methods.  The functions validate their samples on every call; a
:class:`Waveform` validates once, at construction, and its methods
measure the stored (read-only) arrays directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError, ParameterError

__all__ = [
    "Waveform",
    "first_crossing",
    "propagation_delay_50",
    "rise_time",
    "overshoot",
    "settling_time",
]


def _validate(t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
        raise ParameterError(
            f"t and v must be equal-length 1-D arrays, got {t.shape} and {v.shape}"
        )
    if t.size < 2:
        raise ParameterError("need at least two samples")
    if not np.all(np.diff(t) > 0):
        raise ParameterError("time samples must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ParameterError("samples must be finite")
    return t, v


def first_crossing(
    t,
    v,
    level: float,
    rising: bool = True,
) -> float:
    """Time of the first crossing of ``level``, linearly interpolated.

    A *crossing* requires an actual transition: a sample strictly on
    the non-satisfying side of ``level`` followed by one at or beyond
    it.  Two boundary cases are defined explicitly:

    - a waveform that starts *exactly at* ``level`` and departs in the
      crossing direction (upward for ``rising``, downward otherwise)
      crosses at ``t[0]`` -- it genuinely passes through the level;
    - a waveform that merely *starts beyond* the level (e.g. one that
      begins at 1 when searching for a falling crossing of 1) has not
      crossed anything; the search continues with later transitions and
      raises if there are none.  (Historically this returned ``t[0]``,
      reporting a crossing that never happened.)

    Parameters
    ----------
    t, v:
        Sampled waveform.
    level:
        Threshold value (same units as ``v``).
    rising:
        If True, detect the first upward crossing; otherwise downward.

    Raises
    ------
    AnalysisError
        If the waveform never crosses the level in the given direction.
    """
    t, v = _validate(t, v)
    return _first_crossing(t, v, level, rising)


def _first_crossing(t: np.ndarray, v: np.ndarray, level: float, rising: bool) -> float:
    """:func:`first_crossing` on already validated samples."""
    crossing = _first_crossings(t, v[np.newaxis], level, rising)[0]
    if math.isnan(crossing):
        direction = "rising" if rising else "falling"
        beyond = v[0] >= level if rising else v[0] <= level
        boundary = (
            "; it starts at or beyond the level and never crosses it "
            "(a crossing requires an actual transition)"
            if beyond
            else ""
        )
        raise AnalysisError(
            f"waveform never crosses level {level!r} ({direction}); "
            f"range is [{v.min():g}, {v.max():g}]{boundary}"
        )
    return float(crossing)


def _first_crossings(t: np.ndarray, v: np.ndarray, level: float, rising) -> np.ndarray:
    """:func:`first_crossing` of every row of ``v``, ``nan`` where none.

    ``t`` has shape ``(n,)`` and ``v`` shape ``(rows, n)``; ``rising`` is
    one flag or one per row.  The samples are not validated here.
    """
    if isinstance(rising, (bool, np.bool_)):
        up = rising
        satisfied = v >= level if up else v <= level
    else:
        up = np.broadcast_to(np.asarray(rising, dtype=bool).reshape(-1), v.shape[:1])
        satisfied = np.where(up[:, np.newaxis], v >= level, v <= level)
    transitions = satisfied[:, 1:] > satisfied[:, :-1]
    i = transitions.argmax(axis=1)
    crossings = np.full(v.shape[0], math.nan)
    (hit,) = np.nonzero(transitions.any(axis=1))
    if hit.size:
        # In a row with a transition, v0 is strictly on the non-satisfying
        # side and v1 at/beyond the level, so v1 != v0.
        i = i[hit]
        v0, v1, t0 = v[hit, i], v[hit, i + 1], t[i]
        crossings[hit] = t0 + (level - v0) / (v1 - v0) * (t[i + 1] - t0)
    # A row that starts exactly at the level crosses at t[0] if its
    # first sample off the level lies in the crossing direction.
    (start,) = np.nonzero(v[:, 0] == level)
    if start.size:
        off = v[start, (v[start] != level).argmax(axis=1)]
        up = np.broadcast_to(up, v.shape[:1])[start]
        crossings[start[np.where(up, off > level, off < level)]] = t[0]
    return crossings


def propagation_delay_50(t, v, v_final: float | None = None) -> float:
    """50% propagation delay of a rising step response.

    ``v_final`` defaults to the steady-state value, estimated as the last
    sample; pass it explicitly (e.g. 1.0 for a normalized unit-step
    response) when the simulated window is short.
    """
    t, v = _validate(t, v)
    return _propagation_delay_50(t, v, v_final)


def _propagation_delay_50(
    t: np.ndarray, v: np.ndarray, v_final: float | None
) -> float:
    """:func:`propagation_delay_50` on already validated samples."""
    if v_final is None:
        v_final = float(v[-1])
    if v_final <= v[0]:
        raise AnalysisError(
            f"final value {v_final:g} does not exceed initial value {v[0]:g}"
        )
    level = v[0] + 0.5 * (v_final - v[0])
    return _first_crossing(t, v, level, rising=True)


def rise_time(
    t,
    v,
    v_final: float | None = None,
    low: float = 0.1,
    high: float = 0.9,
) -> float:
    """10%-90% (by default) rise time of a rising step response."""
    t, v = _validate(t, v)
    return _rise_time(t, v, v_final, low, high)


def _rise_time(
    t: np.ndarray, v: np.ndarray, v_final: float | None, low: float, high: float
) -> float:
    """:func:`rise_time` on already validated samples."""
    if not 0.0 <= low < high <= 1.0:
        raise ParameterError(f"need 0 <= low < high <= 1, got {low}, {high}")
    if v_final is None:
        v_final = float(v[-1])
    v0 = float(v[0])
    span = v_final - v0
    if span <= 0:
        raise AnalysisError("waveform does not rise")
    t_low = _first_crossing(t, v, v0 + low * span, rising=True)
    t_high = _first_crossing(t, v, v0 + high * span, rising=True)
    return t_high - t_low


def overshoot(t, v, v_final: float | None = None) -> float:
    """Peak overshoot as a fraction of the final value (0 if none).

    An underdamped RLC line overshoots; an overdamped (RC-like) one does
    not.  The paper's Table 1 sweep includes both regimes.
    """
    t, v = _validate(t, v)
    return _overshoot(v, v_final)


def _overshoot(v: np.ndarray, v_final: float | None) -> float:
    """:func:`overshoot` on already validated samples."""
    if v_final is None:
        v_final = float(v[-1])
    if v_final == 0:
        raise AnalysisError("v_final must be nonzero to normalize overshoot")
    peak = float(np.max(v))
    return max(0.0, (peak - v_final) / abs(v_final))


def settling_time(t, v, v_final: float | None = None, band: float = 0.05) -> float:
    """Time after which the waveform stays within ``band`` of final value."""
    t, v = _validate(t, v)
    return _settling_time(t, v, v_final, band)


def _settling_time(
    t: np.ndarray, v: np.ndarray, v_final: float | None, band: float
) -> float:
    """:func:`settling_time` on already validated samples."""
    if v_final is None:
        v_final = float(v[-1])
    if not 0 < band < 1:
        raise ParameterError(f"band must be in (0, 1), got {band}")
    tol = band * abs(v_final) if v_final != 0 else band
    outside = np.abs(v - v_final) > tol
    if not np.any(outside):
        return float(t[0])
    last_outside = int(np.nonzero(outside)[0][-1])
    if last_outside == t.size - 1:
        raise AnalysisError(
            f"waveform has not settled to within {band:.0%} by t = {t[-1]:g}"
        )
    return float(t[last_outside + 1])


@dataclass(frozen=True)
class Waveform:
    """A sampled single-node waveform with measurement helpers.

    >>> import numpy as np
    >>> t = np.linspace(0.0, 10.0, 1001)
    >>> w = Waveform(t, 1 - np.exp(-t))
    >>> round(w.delay_50(v_final=1.0), 3)
    0.693

    ``times`` and ``values`` are validated once, here, and stored as
    read-only views, so the measurements need not validate them again;
    the arrays passed in stay writeable.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name, samples in zip(
            ("times", "values"), _validate(self.times, self.values)
        ):
            view = samples.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @classmethod
    def from_samples(cls, times: Sequence[float], values: Sequence[float]) -> "Waveform":
        """Build from any sequence types."""
        return cls(np.asarray(times, dtype=float), np.asarray(values, dtype=float))

    @property
    def final_value(self) -> float:
        """Last sampled value (steady-state estimate)."""
        return float(self.values[-1])

    def crossing(self, level: float, rising: bool = True) -> float:
        """First crossing time of ``level``."""
        return _first_crossing(self.times, self.values, level, rising)

    def delay_50(self, v_final: float | None = None) -> float:
        """50% propagation delay."""
        return _propagation_delay_50(self.times, self.values, v_final)

    def rise_time(self, v_final: float | None = None) -> float:
        """10-90% rise time."""
        return _rise_time(self.times, self.values, v_final, 0.1, 0.9)

    def overshoot(self, v_final: float | None = None) -> float:
        """Fractional peak overshoot."""
        return _overshoot(self.values, v_final)

    def settling_time(self, v_final: float | None = None, band: float = 0.05) -> float:
        """Settling time to within ``band`` of the final value."""
        return _settling_time(self.times, self.values, v_final, band)

    def resampled(self, times) -> "Waveform":
        """Linear re-interpolation onto a new time grid."""
        times = np.asarray(times, dtype=float)
        values = np.interp(times, self.times, self.values)
        return Waveform(times, values)
