"""Repeater insertion in RLC interconnect (paper Section III + appendix).

A long line is split into ``k`` equal sections, each driven by a buffer
``h`` times minimum size (Fig. 3).  A minimum-size buffer has output
resistance ``R0`` and input capacitance ``C0``; a size-``h`` repeater has
``Rtr = R0/h`` and input capacitance ``CL = h*C0``.  Every section is
therefore the Fig. 1 circuit with impedances

    Rt/k, Lt/k, Ct/k,  Rtr = R0/h,  CL = h*C0                (eqs. 19-20)

and the total delay is ``k`` times the eq. 9 section delay.  Minimizing
over ``(h, k)``:

- RC limit (Bakoglu [11], eq. 11):
  ``h = sqrt(R0*Ct / (Rt*C0))``, ``k = sqrt(Rt*Ct / (2*R0*C0))``;
- general RLC (the paper's contribution, eqs. 13-15): the RC optimum is
  *derated* by error factors depending only on

      T_{L/R} = (Lt / Rt) / (R0 * C0)                            (eq. 13)

  namely ``h' = 1/(1 + 0.16*T**3)**0.24`` and
  ``k' = 1/(1 + 0.18*T**3)**0.3``.

As inductance grows the optimal number of repeaters *drops*: the delay
of an LC-dominated line is linear in length, so splitting it buys nothing
and the repeaters' own delay only hurts.  This module provides the closed
forms, the numerical optimization they were fitted to (Fig. 4), and both
model-based and simulation-based evaluation of any candidate design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.core.canonical import DriverLineLoad
from repro.core.delay import propagation_delay
from repro.errors import (
    ConvergenceError,
    ParameterError,
    require_nonnegative,
    require_positive,
)

__all__ = [
    "H_FACTOR_SCALE",
    "H_FACTOR_POWER",
    "K_FACTOR_SCALE",
    "K_FACTOR_POWER",
    "Buffer",
    "RepeaterDesign",
    "RepeaterSystem",
    "CoupledRepeaterSystem",
    "inductance_time_ratio",
    "bakoglu_rc_design",
    "error_factors",
    "optimal_rlc_design",
    "numerical_optimal_design",
    "numerical_error_factors",
    "practical_design",
    "normalized_system",
    "MILLER_SWITCH_FACTORS",
    "miller_switch_factor",
    "coupled_line",
    "crosstalk_aware_design",
]

# Fitted constants of eqs. 14 and 15.
H_FACTOR_SCALE = 0.16
H_FACTOR_POWER = 0.24
K_FACTOR_SCALE = 0.18
K_FACTOR_POWER = 0.30


@dataclass(frozen=True)
class Buffer:
    """A CMOS repeater family, characterized at minimum size.

    Attributes
    ----------
    r0:
        Output resistance of the minimum-size buffer (ohm).
    c0:
        Input capacitance of the minimum-size buffer (F).
    area_min:
        Area of the minimum-size buffer (arbitrary units; 1 by default).
        A size-``h`` repeater occupies ``h * area_min``.
    c_out_ratio:
        Optional ratio of buffer *output* (drain) capacitance to input
        capacitance; used only by the power model extension, not by the
        paper's delay equations (which neglect it).
    """

    r0: float
    c0: float
    area_min: float = 1.0
    c_out_ratio: float = 0.0

    def __post_init__(self) -> None:
        require_positive("r0", self.r0)
        require_positive("c0", self.c0)
        require_positive("area_min", self.area_min)
        require_nonnegative("c_out_ratio", self.c_out_ratio)

    @property
    def intrinsic_delay(self) -> float:
        """``R0 * C0`` -- the size-independent gate time constant."""
        return self.r0 * self.c0

    def output_resistance(self, h: float) -> float:
        """``R0 / h`` for a size-``h`` repeater."""
        require_positive("h", h)
        return self.r0 / h

    def input_capacitance(self, h: float) -> float:
        """``h * C0`` for a size-``h`` repeater."""
        require_positive("h", h)
        return self.c0 * h


@dataclass(frozen=True)
class RepeaterDesign:
    """A repeater-insertion choice: size ``h`` and section count ``k``.

    ``k`` is kept continuous for the analytic development (the paper's
    optimization is over real ``h, k``); round with
    :meth:`quantized` for implementable designs.
    """

    h: float
    k: float

    def __post_init__(self) -> None:
        require_positive("h", self.h)
        require_positive("k", self.k)

    def area(self, buffer: Buffer) -> float:
        """Total repeater area ``h * k * area_min`` (paper Section III)."""
        return self.h * self.k * buffer.area_min

    def buffer_capacitance(self, buffer: Buffer) -> float:
        """Total switched repeater input capacitance ``h * k * C0``."""
        return self.h * self.k * buffer.c0

    def quantized(self) -> "RepeaterDesign":
        """Round ``k`` to the nearest positive integer (``h`` unchanged)."""
        return RepeaterDesign(h=self.h, k=float(max(1, round(self.k))))


def inductance_time_ratio(line: DriverLineLoad, buffer: Buffer) -> float:
    """``T_{L/R} = (Lt/Rt) / (R0*C0)`` (eq. 13).

    The ratio of the line's L/R time constant to the gate's intrinsic
    delay: the single parameter controlling how far the RLC repeater
    optimum deviates from Bakoglu's RC solution.  Grows as technology
    scales (``R0*C0`` shrinks) -- the paper's closing argument.
    """
    if line.rt <= 0:
        raise ParameterError("inductance_time_ratio requires rt > 0")
    return (line.lt / line.rt) / buffer.intrinsic_delay


def bakoglu_rc_design(line: DriverLineLoad, buffer: Buffer) -> RepeaterDesign:
    """Bakoglu's RC-optimal repeater insertion (eq. 11)."""
    if line.rt <= 0:
        raise ParameterError("bakoglu_rc_design requires rt > 0")
    h = math.sqrt((buffer.r0 * line.ct) / (line.rt * buffer.c0))
    k = math.sqrt((line.rt * line.ct) / (2.0 * buffer.r0 * buffer.c0))
    return RepeaterDesign(h=h, k=k)


def error_factors(tlr) -> tuple:
    """``(h', k')`` -- the inductance derating factors (eqs. 14, 15).

    ``tlr`` is the dimensionless ``T_{L/R}`` of eq. 13 (>= 0); both
    factors are dimensionless multipliers on Bakoglu's eq. 11 optimum.
    They approach 1 as ``T_{L/R} -> 0`` (RC limit) and decay towards 0
    as inductance dominates; the paper's Fig. 4 vets the fits over
    ``T_{L/R}`` in ``[0, ~7]`` to within a few percent in ``h``/``k``
    (EXP-F4 reproduces the comparison).  Accepts scalars or arrays;
    the computation is
    :func:`repro.sweep.kernels.batch_error_factors`.
    """
    from repro.sweep.kernels import batch_error_factors

    h_prime, k_prime = batch_error_factors(tlr)
    if np.ndim(tlr) == 0:
        return float(h_prime), float(k_prime)
    return h_prime, k_prime


def optimal_rlc_design(line: DriverLineLoad, buffer: Buffer) -> RepeaterDesign:
    """The paper's closed-form RLC repeater optimum (eqs. 14, 15)."""
    rc = bakoglu_rc_design(line, buffer)
    h_prime, k_prime = error_factors(inductance_time_ratio(line, buffer))
    return RepeaterDesign(h=rc.h * h_prime, k=rc.k * k_prime)


@dataclass(frozen=True)
class RepeaterSystem:
    """A line driven through ``k`` repeaters of size ``h`` (Fig. 3).

    The ``line`` argument carries only the interconnect totals; its own
    ``rtr``/``cl`` (if any) are ignored -- in a repeated line every
    section is driven and loaded by repeaters.

    Examples
    --------
    >>> line = DriverLineLoad(rt=100.0, lt=1e-8, ct=2e-12)
    >>> buffer = Buffer(r0=1000.0, c0=1e-14)
    >>> system = RepeaterSystem(line, buffer)
    >>> design = optimal_rlc_design(line, buffer)
    >>> 0 < system.total_delay(design) < 1e-6
    True
    """

    line: DriverLineLoad
    buffer: Buffer

    def __post_init__(self) -> None:
        if self.line.rt <= 0:
            raise ParameterError("RepeaterSystem requires a resistive line (rt > 0)")

    def section_line(self, design: RepeaterDesign) -> DriverLineLoad:
        """The Fig. 1 circuit of one section (eqs. 19-20); ``k`` may be
        fractional during continuous optimization."""
        k, h = design.k, design.h
        return DriverLineLoad(
            rt=self.line.rt / k,
            lt=self.line.lt / k,
            ct=self.line.ct / k,
            rtr=self.buffer.output_resistance(h),
            cl=self.buffer.input_capacitance(h),
        )

    def section_delay(self, design: RepeaterDesign) -> float:
        """Eq. 9 delay of a single section."""
        return propagation_delay(self.section_line(design))

    def total_delay(self, design: RepeaterDesign) -> float:
        """Model-based total delay ``k * t_pd,section`` (eq. 19)."""
        return design.k * self.section_delay(design)

    def total_delay_simulated(
        self,
        design: RepeaterDesign,
        n_segments: int = 64,
        n_samples: int = 3001,
        window: float = 12.0,
    ) -> float:
        """Simulation-based total delay (state-space ladder per section).

        Each repeater regenerates the signal, so the chain delay is the
        sum of identical per-section delays; the section itself is
        simulated (not modeled) with an ``n_segments`` PI ladder.  ``k``
        is rounded to an integer as only whole sections are realizable.
        ``window`` sets the simulated span in units of
        ``max(t_pd, 1/omega_n)`` of the section, as in
        :func:`~repro.core.simulate.simulated_delay_50`.
        """
        from repro.core.simulate import simulated_delay_50

        q = design.quantized()
        return q.k * simulated_delay_50(
            self.section_line(q), n_segments=n_segments,
            n_samples=n_samples, window=window,
        )

    def total_area(self, design: RepeaterDesign) -> float:
        """Total repeater area for the design."""
        return design.area(self.buffer)

    def switched_capacitance(self, design: RepeaterDesign, include_wire: bool = True) -> float:
        """Capacitance switched per transition (power model).

        Repeater input caps ``h*k*C0`` plus optional output caps and the
        wire itself (the wire cap is design-independent but dominates the
        absolute power; exclude it to study the repeater *overhead*).
        """
        cap = design.buffer_capacitance(self.buffer) * (1.0 + self.buffer.c_out_ratio)
        if include_wire:
            cap += self.line.ct
        return cap

    def dynamic_power(
        self,
        design: RepeaterDesign,
        vdd: float,
        frequency: float,
        activity: float = 1.0,
        include_wire: bool = True,
    ) -> float:
        """Dynamic power ``alpha * f * Vdd^2 * C_switched`` (watts)."""
        require_positive("vdd", vdd)
        require_positive("frequency", frequency)
        if not 0 < activity <= 1:
            raise ParameterError(f"activity must be in (0, 1], got {activity}")
        c = self.switched_capacitance(design, include_wire=include_wire)
        return activity * frequency * vdd * vdd * c


def numerical_optimal_design(
    line: DriverLineLoad,
    buffer: Buffer,
    xtol: float = 1e-10,
    max_iterations: int = 4000,
) -> RepeaterDesign:
    """Numerically minimize the total delay over ``(h, k)`` (eq. 10).

    This is the optimization the paper solved to produce Fig. 4, seeded
    here at the closed-form optimum and refined with Nelder-Mead in
    log-coordinates (guaranteeing positivity).  Raises
    :class:`~repro.errors.ConvergenceError` if the simplex fails.
    """
    from scipy import optimize  # deferred: keeps ``import repro`` light

    system = RepeaterSystem(line, buffer)
    seed = optimal_rlc_design(line, buffer)

    def objective(log_hk: np.ndarray) -> float:
        h, k = math.exp(log_hk[0]), math.exp(log_hk[1])
        return system.total_delay(RepeaterDesign(h=h, k=k))

    x0 = np.log([seed.h, seed.k])
    # fatol is absolute; scale it to the seed delay so the tolerance is
    # relative (~1e-12) regardless of the system's time scale.
    result = optimize.minimize(
        objective,
        x0=x0,
        method="Nelder-Mead",
        options={
            "xatol": xtol,
            "fatol": 1e-12 * objective(x0),
            "maxiter": max_iterations,
            "maxfev": max_iterations,
        },
    )
    if not result.success:
        raise ConvergenceError(
            f"repeater optimization did not converge: {result.message}"
        )
    h, k = math.exp(result.x[0]), math.exp(result.x[1])
    return RepeaterDesign(h=h, k=k)


def practical_design(
    line: DriverLineLoad,
    buffer: Buffer,
    max_sections: int | None = None,
) -> RepeaterDesign:
    """The best *implementable* design: integer ``k``, re-optimized ``h``.

    Evaluates every integer section count around the continuous optimum
    (and always ``k = 1``, i.e. a single sized driver), minimizing ``h``
    for each by golden-section search on the model objective, and
    returns the fastest.  ``max_sections`` caps the search (defaults to
    twice the RC optimum).
    """
    from scipy import optimize  # deferred: keeps ``import repro`` light

    system = RepeaterSystem(line, buffer)
    continuous = numerical_optimal_design(line, buffer)
    rc = bakoglu_rc_design(line, buffer)
    if max_sections is None:
        max_sections = max(1, int(math.ceil(2.0 * rc.k)))
    if max_sections < 1:
        raise ParameterError(f"max_sections must be >= 1, got {max_sections}")

    def best_h_for(k: int) -> RepeaterDesign:
        def objective(log_h: float) -> float:
            return system.total_delay(
                RepeaterDesign(h=math.exp(log_h), k=float(k))
            )

        center = math.log(max(continuous.h, 1e-12))
        result = optimize.minimize_scalar(
            objective,
            bracket=(center - 2.0, center, center + 2.0),
            method="golden",
            options={"xtol": 1e-10},
        )
        return RepeaterDesign(h=math.exp(result.x), k=float(k))

    k_center = max(1, round(continuous.k))
    candidates = {1, k_center}
    candidates.update(
        k for k in (k_center - 1, k_center + 1, k_center + 2) if 1 <= k
    )
    best: RepeaterDesign | None = None
    best_delay = math.inf
    for k in sorted(k for k in candidates if k <= max_sections):
        design = best_h_for(k)
        delay = system.total_delay(design)
        if delay < best_delay:
            best, best_delay = design, delay
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Crosstalk-aware repeater insertion (bus extension)
# ---------------------------------------------------------------------------

#: Switching pattern -> effective coupling-capacitance multiplier (the
#: Miller factor): ``even`` neighbors track the victim (no charge moves
#: across ``Cc``), ``quiet`` neighbors present ``Cc`` at face value,
#: ``odd`` neighbors double the swing across it.
MILLER_SWITCH_FACTORS = {"even": 0.0, "quiet": 1.0, "odd": 2.0}


def miller_switch_factor(pattern) -> float:
    """Effective coupling-capacitance multiplier of a switching pattern.

    Parameters
    ----------
    pattern:
        ``"even"`` / ``"quiet"`` / ``"odd"`` (string or enum with a
        matching ``value``), or a number already expressing the factor
        (returned validated: must be finite and >= 0).

    The classic bounding factors on an RC-coupled bus: 0 when the
    neighbors switch with the line (even mode), 1 when they hold still,
    2 when they switch against it (odd mode, the Miller worst case).
    Intermediate values model partial switching-window overlap.
    """
    if isinstance(pattern, (int, float)) and not isinstance(pattern, bool):
        return require_nonnegative("switch_factor", pattern)
    key = getattr(pattern, "value", pattern)
    try:
        return MILLER_SWITCH_FACTORS[str(key)]
    except KeyError:
        known = ", ".join(sorted(MILLER_SWITCH_FACTORS))
        raise ParameterError(
            f"unknown switching pattern {pattern!r}; known: {known} "
            "(or a numeric factor)"
        ) from None


def coupled_line(
    line: DriverLineLoad,
    cct: float,
    switch_factor=2.0,
    n_neighbors: float = 2.0,
) -> DriverLineLoad:
    """The single-line equivalent of one bus bit under a given pattern.

    Replaces the line's ground capacitance with the switch-dependent
    effective capacitance

        ``Ct_eff = Ct + n_neighbors * switch_factor * Cct``

    where ``Cct`` is the per-neighbor coupling capacitance (F, line
    total) and ``switch_factor`` the Miller factor of the neighbors'
    switching pattern (:func:`miller_switch_factor`).  Inductance is
    left as the self value: to first order the neighbors' mutual
    contribution shifts the *loop* inductance symmetrically
    (``L*(1 +/- km)``) and does not enter the single-parameter
    eq. 6/9 model; the bus simulations in :mod:`repro.analysis.bus`
    capture the full effect.
    """
    require_nonnegative("cct", cct)
    factor = miller_switch_factor(switch_factor)
    n_neighbors = require_nonnegative("n_neighbors", n_neighbors)
    return replace(line, ct=line.ct + n_neighbors * factor * cct)


def crosstalk_aware_design(
    line: DriverLineLoad,
    buffer: Buffer,
    cct: float,
    switch_factor=2.0,
    n_neighbors: float = 2.0,
) -> RepeaterDesign:
    """Re-optimize ``(h, k)`` under switch-dependent effective capacitance.

    The paper's closed-form repeater optimum (eqs. 14, 15) applied to
    the :func:`coupled_line` equivalent: the coupling capacitance
    inflates ``Ct`` (raising both ``h_rc`` and ``k_rc`` of eq. 11)
    while ``T_{L/R} = (Lt/Rt)/(R0*C0)`` (eq. 13) is unchanged, so the
    inductance derating factors ``h'``/``k'`` are the single-line ones.
    With ``switch_factor=2`` (the default) the design guards the odd
    worst case; ``0`` recovers the single-line optimum exactly.

    The arithmetic lives in
    :func:`repro.sweep.kernels.batch_crosstalk_aware_design` so scalar
    and batch callers share one implementation.
    """
    from repro.sweep.kernels import batch_crosstalk_aware_design

    h, k = batch_crosstalk_aware_design(
        line.rt,
        line.lt,
        line.ct,
        cct,
        buffer.r0,
        buffer.c0,
        switch_factor=miller_switch_factor(switch_factor),
        n_neighbors=n_neighbors,
    )
    return RepeaterDesign(h=float(h), k=float(k))


@dataclass(frozen=True)
class CoupledRepeaterSystem:
    """A repeated bus bit: per-line interconnect plus neighbor coupling.

    Wraps :class:`RepeaterSystem` with the switch-pattern-dependent
    effective capacitance, so one object answers both "what is the
    best (h, k) for this bus bit?" and "what does a given design cost
    under each switching pattern?".

    Attributes
    ----------
    line:
        Per-bit interconnect totals (self parasitics only).
    buffer:
        The repeater family.
    cct:
        Per-neighbor coupling capacitance (F, line total).
    n_neighbors:
        Coupled neighbors per bit (2 for interior bus bits, 1 for edge
        bits or a shielded side).

    Examples
    --------
    >>> line = DriverLineLoad(rt=100.0, lt=1e-8, ct=2e-12)
    >>> buffer = Buffer(r0=1000.0, c0=1e-14)
    >>> bus_bit = CoupledRepeaterSystem(line, buffer, cct=1e-12)
    >>> worst = bus_bit.design()          # guards the odd pattern
    >>> solo = optimal_rlc_design(line, buffer)
    >>> worst.h > solo.h and worst.k > solo.k
    True
    """

    line: DriverLineLoad
    buffer: Buffer
    cct: float
    n_neighbors: float = 2.0

    def __post_init__(self) -> None:
        require_nonnegative("cct", self.cct)
        require_nonnegative("n_neighbors", self.n_neighbors)
        if self.line.rt <= 0:
            raise ParameterError(
                "CoupledRepeaterSystem requires a resistive line (rt > 0)"
            )

    def effective_line(self, switch_factor=2.0) -> DriverLineLoad:
        """The pattern's single-line equivalent (:func:`coupled_line`)."""
        return coupled_line(
            self.line, self.cct, switch_factor, self.n_neighbors
        )

    def system(self, switch_factor=2.0) -> RepeaterSystem:
        """A :class:`RepeaterSystem` over the effective line."""
        return RepeaterSystem(self.effective_line(switch_factor), self.buffer)

    def design(self, switch_factor=2.0) -> RepeaterDesign:
        """The closed-form optimum for a pattern (default: odd worst case)."""
        return crosstalk_aware_design(
            self.line, self.buffer, self.cct, switch_factor, self.n_neighbors
        )

    def total_delay(self, design: RepeaterDesign, switch_factor=2.0) -> float:
        """Model-based bit delay of ``design`` under a pattern (eq. 19)."""
        return self.system(switch_factor).total_delay(design)

    def worst_case_penalty(self, design: RepeaterDesign) -> float:
        """Percent odd-pattern delay increase of ``design`` over the
        crosstalk-aware optimum -- the cost of sizing a bus bit as if it
        ran alone."""
        aware = self.design(switch_factor=2.0)
        t_design = self.total_delay(design, switch_factor=2.0)
        t_aware = self.total_delay(aware, switch_factor=2.0)
        return 100.0 * (t_design - t_aware) / t_aware


def normalized_system(tlr: float) -> tuple[DriverLineLoad, Buffer]:
    """A canonical (line, buffer) pair realizing a given ``T_{L/R}``.

    The repeater mathematics depends on the line and buffer only through
    ``h_rc``, ``k_rc`` and ``T_{L/R}`` (paper appendix, eq. 28), so
    ``Rt = Ct = R0 = C0 = 1`` and ``Lt = T_{L/R}`` is fully general; the
    test suite verifies invariance under rescaling.
    """
    require_positive("tlr", tlr)
    line = DriverLineLoad(rt=1.0, lt=float(tlr), ct=1.0)
    return line, Buffer(r0=1.0, c0=1.0)


def numerical_error_factors(tlr: float) -> tuple[float, float]:
    """``(h', k')`` from the numerical optimum at a given ``T_{L/R}``.

    This regenerates the solid curves of Fig. 4; the closed forms of
    :func:`error_factors` are their dashed fits.
    """
    line, buffer = normalized_system(tlr)
    rc = bakoglu_rc_design(line, buffer)
    best = numerical_optimal_design(line, buffer)
    return best.h / rc.h, best.k / rc.k
