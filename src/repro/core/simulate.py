"""Measure delays by simulation -- the library's "AS/X" entry point.

Every experiment that the paper validated against dynamic circuit
simulation goes through :func:`simulated_delay_50_batch`, which
dispatches to one of the three independent substrate routes; a scalar
:func:`simulated_delay_50` is a batch of one on every route:

``statespace`` (default)
    PI-ladder state-space model integrated exactly via the matrix
    exponential.  No time-discretization error, converges in the
    segment count only.

``tline``
    Exact distributed transfer function inverted with de Hoog's method.
    No lumping at all; the reference for convergence tests.

``mna``
    PI-ladder netlist integrated with trapezoidal MNA.  The
    "conventional SPICE" route; it has time-step error, but a batch
    steps all its lines together, and EXP-T1's 36 cells, queried one
    at a time, run about 4x faster on it than on ``statespace``.

All routes return the 50% crossing of the far-end voltage for a unit
step applied at ``t = 0``.

Both public queries read one private dispatcher, the only place a
route turns lines into far-end waveforms.  A delay query asks it to
stop at the first 50% crossing: each ``statespace`` line stops stepping
there (see ``stop_at`` in :func:`~repro.spice.statespace.simulate_step`),
and a full-tier MNA batch stops its lockstep loop once every point has
crossed (see ``stop_at`` in
:func:`~repro.spice.transient.simulate_transient_batch`).  The samples
up to the crossing are the full run's, so the delay is bit-identical,
and the rest of the window is never computed.
:func:`simulated_step_waveform` is the same dispatcher's answer for one
line without the early stop, so its ``delay_50(v_final=1.0)`` equals
:func:`simulated_delay_50` bit for bit on every route and tier.
``window`` still sets the sample spacing ``dt = span / (n_samples - 1)``,
so it still affects the delay.

Route guidance: for *bare* (or nearly bare) underdamped lines whose 50%
crossing lands on the arriving wavefront -- ``RT = CT ~ 0`` with
``2*exp(-2*zeta)`` near 0.5 -- the lumped routes ring at the front and
can report a spuriously early first crossing; use ``route="tline"``
there (the exact line has a clean jump).  For gate-loaded lines (every
Table 1 case) all three routes agree to well under 1%.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.canonical import DriverLineLoad
from repro.core.delay import propagation_delay
from repro.errors import AnalysisError
from repro.tline.waveform import Waveform

__all__ = [
    "SIMULATOR_VERSION",
    "SimulatorRoute",
    "simulated_delay_50",
    "simulated_delay_50_batch",
    "simulated_step_waveform",
]

#: Bumped whenever any simulation route's numerics change (integration
#: scheme, windowing, de Hoog order policy, ...).  Part of every sweep
#: cache key (:meth:`repro.sweep.grid.Sweep.cache_key`), so on-disk
#: simulated results from older numerics are never replayed.
#: Version 2: the MNA transient grid now ends exactly at ``t_stop``
#: (previously it could overshoot by up to one ``dt``).  Version 3: a
#: scalar MNA delay is a batch of one, stamped through the ladder
#: template (delays move by about 1e-13 relative).  Version 4: banded
#: MNA solves of tridiagonal bands (every ladder) use LAPACK's
#: tridiagonal LU (delays move by up to about 3e-12 relative).
#: Version 5: the default bus analysis window charges a line for its
#: real neighbors only (one on a two-track bus, not two).
#: Version 6: list-of-dicts batches order their parameter columns by
#: name, not by hash-seeded set order, so reduced-tier corner samples
#: and bases (and the delays served from them) no longer depend on
#: ``PYTHONHASHSEED``.
#: Version 7: reduced-tier projections sum each revaluation group over
#: its own rows (reduced states move by up to about 4e-11 relative).
#: Version 8: the ``statespace`` ladder is built in power-of-two-scaled
#: state units (an exact similarity that keeps ``expm`` off subnormal
#: numbers; delays move by up to about 1e-12 relative at 100 segments
#: and 1.3e-11 on EXP-T1's 150-segment cells).
#: The key holds this version, not the BLAS thread count, so cached
#: ``statespace`` and reduced-tier bits hold for one thread count only:
#: their matrix products run on threaded BLAS, and a different
#: ``OPENBLAS_NUM_THREADS`` can move delays in the last bits (up to
#: about 7e-13 relative on EXP-T1's cells since version 8, 5e-14
#: before).
SIMULATOR_VERSION = 8


class SimulatorRoute(str, enum.Enum):
    """Independent simulation back ends."""

    STATESPACE = "statespace"
    TLINE = "tline"
    MNA = "mna"


def _time_window(line: DriverLineLoad, window: float) -> float:
    """A simulation span sure to contain the 50% crossing.

    Uses the larger of the model delay (eq. 9) and the natural period,
    scaled by ``window``.  The closed-form delay is accurate to a few
    percent, so any ``window >= 3`` is already safe; the default of 12
    also captures the settling tail for rise-time measurements.
    """
    t_model = propagation_delay(line)
    return window * max(t_model, 1.0 / line.omega_n)


#: The level :func:`~repro.tline.waveform.propagation_delay_50` seeks
#: with ``v_final=1`` on a ladder that starts at rest: ``v[0] = 0``, so
#: ``v[0] + 0.5 * (1.0 - v[0])`` is exactly 0.5.
_LEVEL_50 = 0.5


def simulated_step_waveform(
    line: DriverLineLoad,
    route: SimulatorRoute | str = SimulatorRoute.STATESPACE,
    n_segments: int = 100,
    n_samples: int = 4001,
    window: float = 12.0,
    dt: float | None = None,
    backend: str = "auto",
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> Waveform:
    """Unit-step far-end waveform of the Fig. 1 circuit.

    The dispatcher's whole-window waveform for ``[line]``: the one
    :func:`simulated_delay_50` reads its delay from, without the early
    stop at the 50% crossing.

    Parameters
    ----------
    line:
        The driver/line/load instance.
    route:
        Which substrate to use (see module docstring).
    n_segments:
        Ladder segments for the lumped routes.
    n_samples:
        Output samples across the window.
    window:
        Simulated span in units of ``max(t_pd, 1/omega_n)``.
    dt:
        Time step for the MNA route (defaults to
        ``span / (n_samples - 1)``).
    backend:
        Linear-solver backend for the MNA route (``"auto"`` |
        ``"dense"`` | ``"sparse"`` | ``"banded"`` or a
        :class:`~repro.spice.backend.SimulationBackend` instance);
        ignored by the other routes.
    model, rom_order, rom_error_bound:
        Evaluation-model tier for the MNA route, as in
        :func:`~repro.spice.transient.simulate_transient` (``"full"``,
        ``"reduced"`` or ``"auto"``); ignored by the other routes,
        which have no MNA system to project.  The tier changes which
        linear algebra serves the query, not the numerics contract, so
        :data:`SIMULATOR_VERSION` is unaffected -- ``"full"`` results
        are bit-identical, and ``"auto"`` guards reduced answers with
        a-posteriori error checks.
    """
    [(_, waveform)] = _far_end_waveforms(
        [line], route, n_segments, n_samples, window, dt, backend,
        model, rom_order, rom_error_bound, stop_at=None,
    )
    return waveform


def simulated_delay_50(
    line: DriverLineLoad,
    route: SimulatorRoute | str = SimulatorRoute.STATESPACE,
    n_segments: int = 100,
    n_samples: int = 4001,
    window: float = 12.0,
    dt: float | None = None,
    backend: str = "auto",
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> float:
    """Simulated 50% propagation delay (seconds) of the Fig. 1 circuit.

    >>> line = DriverLineLoad(rt=1000.0, lt=1e-6, ct=1e-12,
    ...                       rtr=100.0, cl=1e-13)
    >>> t50 = simulated_delay_50(line)
    >>> 1.0e-9 < t50 < 1.1e-9    # paper Table 1: ~1.06 ns
    True

    On every route this is :func:`simulated_delay_50_batch` of
    ``[line]``.
    """
    return float(simulated_delay_50_batch(
        [line], route=route, n_segments=n_segments, n_samples=n_samples,
        window=window, dt=dt, backend=backend,
        model=model, rom_order=rom_order, rom_error_bound=rom_error_bound,
    )[0])


def simulated_delay_50_batch(
    lines,
    route: SimulatorRoute | str = SimulatorRoute.STATESPACE,
    n_segments: int = 100,
    n_samples: int = 4001,
    window: float = 12.0,
    dt: float | None = None,
    backend: str = "auto",
    model: str = "full",
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> np.ndarray:
    """Simulated 50% delays for a whole batch of Fig. 1 circuits.

    Each delay is read off the line's far-end waveform, stopped at its
    first 50% crossing:

    - ``"statespace"`` steps each line's ladder until that crossing;
    - ``"tline"`` inverts each line's exact transfer function over the
      whole window;
    - ``"mna"`` runs on the stamp-once / re-value-many path: the batch
      is partitioned into *structure-equivalence classes* -- lines
      sharing the ladder structure (``cl = 0`` vs ``cl > 0`` is
      structural) and the lockstep step count -- and each class
      revalues one cached :func:`~repro.spice.ladder.build_ladder_template`
      and steps every member together through
      :func:`~repro.spice.transient.simulate_transient_batch`.

    Parameters are as in :func:`simulated_step_waveform`; ``lines`` is a
    sequence of :class:`~repro.core.canonical.DriverLineLoad`.  Returns
    the delays (seconds) in input order.  The ``model`` tier rides the
    MNA route's batch path, so a ``"reduced"``/``"auto"`` batch pays
    one cached projection per structure class and answers every member
    from the ``q``-space recurrence.

    On the full tier each class's lockstep loop stops once every member
    has risen through 50% (``stop_at``): every ladder starts at rest,
    so that is exactly the level ``delay_50(v_final=1.0)`` seeks, and
    the samples up to the last crossing are the full run's -- the
    delays are bit-identical to a full-window run.  A class with a
    member that never crosses steps its whole window.  Reduced-tier
    serves keep the whole window.
    """
    lines = list(lines)
    waveforms = _far_end_waveforms(
        lines, route, n_segments, n_samples, window, dt, backend,
        model, rom_order, rom_error_bound, stop_at=_LEVEL_50,
    )
    delays = np.empty(len(lines))
    for i, waveform in waveforms:
        try:
            delays[i] = waveform.delay_50(v_final=1.0)
        except AnalysisError as exc:
            raise AnalysisError(
                f"no 50% crossing within window={window} "
                f"(zeta={lines[i].zeta:.3g}); increase the window"
            ) from exc
    return delays


def _far_end_waveforms(
    lines, route, n_segments, n_samples, window, dt, backend,
    model, rom_order, rom_error_bound, stop_at,
):
    """``(index, far-end unit-step waveform)`` of every line on ``route``.

    The one place a route turns lines into waveforms.  ``stop_at`` is
    :data:`_LEVEL_50` for delay queries: the ``statespace`` and
    full-tier ``mna`` loops then end at the first rise through it, with
    every returned sample the full run's.  ``None`` returns the whole
    window.  The ``tline`` inversion always covers the whole window.
    """
    route = SimulatorRoute(route)
    if route is SimulatorRoute.STATESPACE:
        from repro.spice.ladder import build_ladder_state_space
        from repro.spice.statespace import simulate_step

        for i, line in enumerate(lines):
            system = build_ladder_state_space(line.ladder(n_segments=n_segments))
            yield i, simulate_step(
                system, _time_window(line, window), n_samples=n_samples,
                stop_at=stop_at,
            )[0]
        return
    if route is SimulatorRoute.TLINE:
        # The de Hoog order bounds the resolvable detail at ~T/(2M); scale
        # it with the window so early-time features (the 50% crossing sits
        # in the first ~1/window of the span) stay sharp.
        order = max(60, int(8 * window))
        for i, line in enumerate(lines):
            times = np.linspace(0.0, _time_window(line, window), n_samples)
            yield i, Waveform(times, line.transfer().step_response(times, M=order))
        return

    # MNA: one lockstep batch per structure class.
    from repro.spice.ladder import build_ladder_template
    from repro.spice.transient import simulate_transient_batch

    specs = [line.ladder(n_segments=n_segments) for line in lines]
    spans = np.asarray([_time_window(line, window) for line in lines])
    dts = spans / (n_samples - 1) if dt is None else np.full(len(lines), dt)
    # Same snap rule as the transient grid, so class members share the
    # exact lockstep step count each would get alone.
    steps = np.maximum(1, np.ceil((spans / dts) * (1.0 - 1e-12)).astype(int))

    classes: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        classes.setdefault((spec.cl > 0, int(steps[i])), []).append(i)

    for (loaded, _), members in classes.items():
        template = build_ladder_template(
            n_segments, specs[members[0]].topology, loaded=loaded
        )
        params = [
            {
                "rt": specs[i].rt,
                "lt": specs[i].lt,
                "ct": specs[i].ct,
                "rtr": specs[i].rtr,
                **({"cl": specs[i].cl} if loaded else {}),
            }
            for i in members
        ]
        output_node = specs[members[0]].output_node
        result = simulate_transient_batch(
            template,
            params,
            t_stop=spans[members],
            dt=dts[members],
            backend=backend,
            record=[output_node],
            model=model,
            rom_order=rom_order,
            rom_error_bound=rom_error_bound,
            stop_at=stop_at,
        )
        voltages = result.voltage(output_node)
        for k, i in enumerate(members):
            yield i, Waveform(result.times_of(k), voltages[k])
