"""Bus-level crosstalk metrics: noise, delay push-out, shield trade-offs.

Crosstalk on an N-line bus (:mod:`repro.bus`), the aggressor/victim
pair included as ``n_lines=2``.  One transient simulation of the full
bus yields *every* line's far-end waveform at once; the metrics here
operate on that ``(n_times, n_lines)`` matrix with vectorized NumPy
reductions (no per-line Python loops):

- **victim noise**: the quiet victim's far-end excursion while every
  neighbor switches -- positive peaks are the capacitive signature,
  negative dips the inductive one;
- **worst-pattern delay push-out**: the victim's 50% delay under the
  solo / even / odd switching patterns; on RC-dominated buses odd
  switching Miller-doubles the coupling capacitance (slowest), on
  inductance-dominated buses the loop inductance ``L*(1 - km)`` makes
  odd *fastest* -- the regime flip EXP-X6 shows on a two-line bus;
- **eye/settling metrics**: overshoot and 5% settling time of the
  victim under its worst pattern;
- **shield trade-off curves**: the same metrics as grounded shields are
  inserted (:func:`shield_tradeoff`), trading wiring tracks for noise.

All voltages are normalized to the driver swing ``v_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bus.builder import build_bus_circuit
from repro.bus.spec import (
    BusSpec,
    LineSwitch,
    even_pattern,
    odd_pattern,
    quiet_victim_pattern,
    solo_pattern,
)
from repro.errors import AnalysisError, ParameterError
from repro.spice.transient import simulate_transient
from repro.tline.waveform import Waveform, _first_crossings

__all__ = [
    "BusWaveforms",
    "BusReport",
    "simulate_bus",
    "analyze_bus",
    "batch_delay_50",
    "evenly_spread_shields",
    "shield_tradeoff",
]


def batch_delay_50(
    times: np.ndarray,
    voltages: np.ndarray,
    v_step: float = 1.0,
    rising=True,
) -> np.ndarray:
    """Vectorized 50% crossing times of many waveforms at once.

    Parameters
    ----------
    times:
        Shared time grid, shape ``(n_times,)``.
    voltages:
        One column per waveform, shape ``(n_times, n_columns)``.
    v_step:
        Full swing; the threshold is ``v_step / 2``.
    rising:
        Scalar or per-column booleans: detect upward (True) or downward
        crossings.  Columns that never cross get ``nan`` (quiet lines).

    Each column is measured by the kernel behind
    :func:`repro.tline.waveform.first_crossing`, so a column crosses
    exactly where its own ``first_crossing`` would: on an actual
    transition through the level, linearly interpolated between the
    bracketing samples, or at ``times[0]`` when it starts at the level
    and departs in the crossing direction.
    """
    times = np.asarray(times, dtype=float)
    voltages = np.asarray(voltages, dtype=float)
    if voltages.ndim != 2 or voltages.shape[0] != times.size:
        raise ParameterError(
            f"voltages must be (n_times, n_columns) with n_times = "
            f"{times.size}, got {voltages.shape}"
        )
    return _first_crossings(times, voltages.T, 0.5 * v_step, rising)


@dataclass(frozen=True)
class BusWaveforms:
    """Far-end waveforms of every signal line from one bus transient.

    Attributes
    ----------
    spec, pattern:
        The simulated bus and per-line switching pattern.
    times:
        Simulation grid, shape ``(n_times,)``.
    voltages:
        Far-end node voltages, shape ``(n_times, n_lines)`` -- one
        column per *signal* line (shields are simulated but not
        reported; they are grounded).
    v_step:
        Driver swing used for the simulation.
    """

    spec: BusSpec
    pattern: tuple[LineSwitch, ...]
    times: np.ndarray
    voltages: np.ndarray
    v_step: float

    def waveform(self, line: int) -> Waveform:
        """Far-end :class:`~repro.tline.waveform.Waveform` of one line."""
        return Waveform(self.times, self.voltages[:, line].copy())

    def delays_50(self) -> np.ndarray:
        """Vectorized per-line 50% delays (``nan`` for quiet lines).

        Rising lines are measured on the upward crossing of
        ``v_step/2``, falling lines on the downward one.
        """
        rising = np.array(
            [switch is LineSwitch.RISE for switch in self.pattern]
        )
        switching = np.array(
            [
                switch in (LineSwitch.RISE, LineSwitch.FALL)
                for switch in self.pattern
            ]
        )
        delays = batch_delay_50(
            self.times, self.voltages, v_step=self.v_step, rising=rising
        )
        return np.where(switching, delays, math.nan)


def _default_window(spec: BusSpec) -> float:
    """Simulated span: 12x the slowest RC / flight scale over the lines.

    The coupling capacitance to each neighbor (two at most, one on a
    two-track bus, none on a lone line) is charged through the same
    driver, so it joins both the RC and the flight scale.
    """
    c_couple = min(2, spec.n_physical - 1) * spec.cct
    scales = []
    for line in range(spec.n_lines):
        c_total = spec.ct[line] + c_couple + spec.cl[line]
        rc_scale = (spec.rtr[line] + spec.rt[line]) * c_total
        flight = math.sqrt(spec.lt[line] * (spec.ct[line] + c_couple))
        scales.append(max(rc_scale, flight))
    return 12.0 * max(scales)


def simulate_bus(
    spec: BusSpec,
    pattern=LineSwitch.RISE,
    window: float | None = None,
    dt: float | None = None,
    backend: str = "auto",
    v_step: float = 1.0,
) -> BusWaveforms:
    """Transient-simulate the bus and collect all far-end waveforms.

    Parameters
    ----------
    spec:
        The bus instance.
    pattern:
        Per-line switching pattern (see
        :func:`~repro.bus.builder.build_bus_circuit`).
    window:
        Simulated span (defaults to 12x the slowest per-line RC/flight
        time scale).
    dt:
        Time step (defaults to ``window / 6000``).
    backend:
        MNA linear-solver backend; large buses resolve to the sparse
        or RCM-banded path under ``"auto"``.
    v_step:
        Driver swing (V).
    """
    switches = spec.normalized_pattern(pattern)
    if window is None:
        window = _default_window(spec)
    if dt is None:
        dt = window / 6000.0
    if window <= 0 or dt <= 0:
        raise ParameterError("window and dt must be positive")
    circuit = build_bus_circuit(spec, switches, v_step=v_step)
    result = simulate_transient(circuit, t_stop=window, dt=dt, backend=backend)
    rows = [
        result.structure.voltage_row(spec.output_node(line))
        for line in range(spec.n_lines)
    ]
    voltages = result.states[:, rows]
    return BusWaveforms(
        spec=spec,
        pattern=switches,
        times=result.times,
        voltages=voltages,
        v_step=v_step,
    )


@dataclass(frozen=True)
class BusReport:
    """Simulation-measured coupling metrics for one bus victim.

    All voltages are normalized to the driver swing.

    Attributes
    ----------
    victim:
        The measured signal line.
    n_shields:
        Shield count of the simulated spec (the trade-off axis).
    victim_peak_noise, victim_min_noise:
        Largest positive / most negative quiet-victim far-end
        excursion while every neighbor rises (capacitive / inductive
        signatures).
    delay_solo, delay_even, delay_odd:
        Victim 50% delay switching alone, with all lines (even), and
        against all lines (odd).
    settling_time_worst:
        5% settling time of the victim under its worst pattern
        (``nan`` when the window ends before settling).
    overshoot_worst:
        Fractional victim overshoot under the worst pattern.
    """

    victim: int
    n_shields: int
    victim_peak_noise: float
    victim_min_noise: float
    delay_solo: float
    delay_even: float
    delay_odd: float
    settling_time_worst: float
    overshoot_worst: float

    @property
    def worst_pattern(self) -> str:
        """Which switching pattern maximizes the victim delay."""
        return "odd" if self.delay_odd >= self.delay_even else "even"

    @property
    def worst_delay(self) -> float:
        """Victim 50% delay under the worst switching pattern."""
        return max(self.delay_even, self.delay_odd)

    @property
    def delay_push_out(self) -> float:
        """Worst-pattern delay increase over solo switching, fractional."""
        return (self.worst_delay - self.delay_solo) / self.delay_solo

    @property
    def delay_spread(self) -> float:
        """Odd-to-even switching window as a fraction of the solo delay."""
        return (self.delay_odd - self.delay_even) / self.delay_solo

    @property
    def worst_noise_magnitude(self) -> float:
        """Larger of the positive / negative victim excursions."""
        return max(self.victim_peak_noise, abs(self.victim_min_noise))


def analyze_bus(
    spec: BusSpec,
    victim: int | None = None,
    window: float | None = None,
    dt: float | None = None,
    backend: str = "auto",
) -> BusReport:
    """Measure noise and switching-delay metrics for one bus victim.

    Runs four transients (quiet-victim noise, solo, even, odd) and
    reduces each waveform matrix with the vectorized metrics above.

    Parameters
    ----------
    spec:
        The bus instance (shields included, if any).
    victim:
        Measured line; defaults to the middle line (worst coupled).
    window, dt, backend:
        Forwarded to :func:`simulate_bus`.

    >>> spec = BusSpec(n_lines=3, rt=100.0, lt=25e-9, ct=2e-12,
    ...     cct=1e-12, km=0.5, rtr=50.0, cl=5e-14, n_segments=8)
    >>> report = analyze_bus(spec)
    >>> report.worst_noise_magnitude > 0.05
    True
    """
    if victim is None:
        victim = spec.n_lines // 2
    else:
        if not isinstance(victim, int) or not 0 <= victim < spec.n_lines:
            raise ParameterError(
                f"victim must be a line index in [0, {spec.n_lines}), "
                f"got {victim!r}"
            )
    if window is None:
        window = _default_window(spec)

    def run(pattern) -> BusWaveforms:
        return simulate_bus(
            spec, pattern, window=window, dt=dt, backend=backend
        )

    n = spec.n_lines
    noise = run(quiet_victim_pattern(n, victim))
    solo = run(solo_pattern(n, victim))
    even = run(even_pattern(n))
    odd = run(odd_pattern(n, victim))

    delay_solo = float(solo.delays_50()[victim])
    delay_even = float(even.delays_50()[victim])
    delay_odd = float(odd.delays_50()[victim])
    worst = odd if delay_odd >= delay_even else even
    victim_wave = worst.waveform(victim)
    try:
        settle = victim_wave.settling_time(v_final=1.0)
    except AnalysisError:
        settle = math.nan
    return BusReport(
        victim=victim,
        n_shields=len(spec.shields),
        victim_peak_noise=float(np.max(noise.voltages[:, victim])),
        victim_min_noise=float(np.min(noise.voltages[:, victim])),
        delay_solo=delay_solo,
        delay_even=delay_even,
        delay_odd=delay_odd,
        settling_time_worst=settle,
        overshoot_worst=victim_wave.overshoot(1.0),
    )


def evenly_spread_shields(n_lines: int, n_shields: int) -> tuple[int, ...]:
    """Physical slots that spread ``n_shields`` evenly through the bus.

    The signal lines are split into ``n_shields + 1`` contiguous groups
    whose sizes differ by at most one, and one shield slot sits between
    consecutive groups -- the standard layout of the shield-insertion
    literature (one shield every ``n/(s+1)`` signals).

    >>> evenly_spread_shields(8, 1)
    (4,)
    >>> evenly_spread_shields(8, 3)
    (2, 5, 8)
    """
    if not isinstance(n_lines, int) or n_lines < 1:
        raise ParameterError(f"n_lines must be a positive integer, got {n_lines!r}")
    if not isinstance(n_shields, int) or n_shields < 0:
        raise ParameterError(
            f"n_shields must be a non-negative integer, got {n_shields!r}"
        )
    if n_shields == 0:
        return ()
    if n_shields > n_lines - 1:
        raise ParameterError(
            f"cannot place {n_shields} shields between {n_lines} lines"
        )
    base, extra = divmod(n_lines, n_shields + 1)
    sizes = [base + (1 if g < extra else 0) for g in range(n_shields + 1)]
    slots = []
    position = 0
    for size in sizes[:-1]:
        position += size
        slots.append(position)
        position += 1  # the shield occupies this physical slot
    return tuple(slots)


def shield_tradeoff(
    spec: BusSpec,
    shield_counts=(0, 1, 2),
    victim: int | None = None,
    window: float | None = None,
    dt: float | None = None,
    backend: str = "auto",
) -> list[tuple[BusSpec, BusReport]]:
    """Noise/delay metrics as shields are inserted into the same bus.

    For each count in ``shield_counts`` the shields are spread evenly
    (:func:`evenly_spread_shields`), the bus re-analyzed, and the
    ``(shielded_spec, report)`` pair collected -- the raw material of a
    shield-count trade-off curve (tracks spent vs noise suppressed).
    Any shields already on ``spec`` are replaced.
    """
    results: list[tuple[BusSpec, BusReport]] = []
    for count in shield_counts:
        shielded = spec.with_shields(evenly_spread_shields(spec.n_lines, count))
        report = analyze_bus(
            shielded, victim=victim, window=window, dt=dt, backend=backend
        )
        results.append((shielded, report))
    return results
