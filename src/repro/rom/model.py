"""Evaluation-model tier selection: full MNA vs reduced-order.

Mirrors the ``backend=`` plumbing of :mod:`repro.spice.backend`: every
simulation entry point takes a ``model="full" | "reduced" | "auto"``
request, validates it through :func:`resolve_model`, and records the
tier that actually served the query as a :class:`ModelSelection` --
the evidence object counterpart of
:class:`~repro.spice.backend.BackendSelection`.  While instrumentation
is enabled, each decision also lands in the metrics registry as the
labeled counter ``rom.model_selected{model=,rule=}``, so ``--trace`` /
``--metrics-out`` show exactly which tier answered each query and why.

The three tiers:

``full``
    The existing trapezoidal / phasor MNA paths, untouched.  The
    default everywhere, so all pre-existing numerics (and sweep cache
    keys) are bit-for-bit unchanged.

``reduced``
    A PRIMA-style projection (:mod:`repro.rom.prima`) of order
    ``q << n`` answers the query from a dense ``q x q`` model.  No
    fallback: a failed projection raises.

``auto``
    Picks the cheapest adequate tier: full for small systems (at or
    below :data:`ROM_SIZE_CUTOFF` unknowns the full solve is already
    cheap), reduced otherwise -- *unless* a point's pinned
    a-posteriori estimate (build-time moment matching, suborder
    convergence and, for AC, the exact probe residual) exceeds
    :data:`DEFAULT_ERROR_BOUND` (or the caller's
    ``rom_error_bound``), in which case that point falls back to full
    MNA and the fallback is recorded.

:func:`serve_tiered` is the one place these rules live: every
transient and AC query, scalar or batched, reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ParameterError, SimulationError

__all__ = [
    "MODELS",
    "DEFAULT_ERROR_BOUND",
    "ROM_SIZE_CUTOFF",
    "ModelSelection",
    "resolve_model",
    "record_model_selection",
    "serve_tiered",
]

#: The selectable evaluation-model tiers.
MODELS = ("full", "reduced", "auto")

#: Relative error bound that ``model="auto"`` holds reduced answers to
#: before falling back to full MNA.  The bound is compared against the
#: *largest* of the pinned a-posteriori estimates (build-time moment
#: mismatch, frequency-domain relative residual, order-convergence
#: defect); 5e-3 keeps 50% delay errors comfortably under the 1%
#: acceptance target.
DEFAULT_ERROR_BOUND = 5e-3

#: Systems at or below this many MNA unknowns stay on the full tier
#: under ``model="auto"``: the full factorization is already cheap and
#: a projection would only add build cost.
ROM_SIZE_CUTOFF = 256


@dataclass(frozen=True)
class ModelSelection:
    """Which evaluation tier served a query, and the evidence why.

    The :class:`~repro.spice.backend.BackendSelection` counterpart for
    model tiers: made by :func:`serve_tiered` and recorded as the
    ``rom.model_selected{model=,rule=}`` counter while instrumentation
    is enabled.

    Attributes
    ----------
    model:
        The tier that actually answered: ``"full"`` or ``"reduced"``.
    rule:
        Which decision rule fired: ``"explicit"`` (the caller named the
        tier), ``"auto-small-system"`` (full; system at or below the
        size cutoff), ``"auto-within-bound"`` (reduced; every error
        estimate under the bound), ``"auto-error-fallback"`` (full; an
        estimate exceeded the bound) or ``"auto-build-fallback"``
        (full; the projection itself failed, e.g. a singular DC
        matrix).
    size:
        Full MNA unknown count of the deciding system.
    order:
        Reduced order ``q`` that was used or evaluated; ``None`` when
        no projection was attempted.
    error_estimate, error_bound:
        The worst a-posteriori error estimate and the bound it was
        compared against; ``None`` when the rule decided without one.
    """

    model: str
    rule: str
    size: int
    order: int | None = None
    error_estimate: float | None = None
    error_bound: float | None = None

    def reason(self) -> str:
        """One-line human-readable justification of the choice."""
        if self.rule == "explicit":
            return f"model={self.model!r} requested explicitly"
        if self.rule == "auto-small-system":
            return f"n={self.size} <= reduced-order cutoff {ROM_SIZE_CUTOFF}"
        if self.rule == "auto-build-fallback":
            return f"n={self.size}, projection build failed -> full MNA"
        comparison = "<=" if self.rule == "auto-within-bound" else ">"
        return (
            f"n={self.size}, order {self.order}, error estimate "
            f"{self.error_estimate:.2e} {comparison} bound {self.error_bound:g}"
        )

    def __repr__(self) -> str:
        return f"ModelSelection({self.reason()} -> {self.model})"


def resolve_model(model: str) -> str:
    """Validate and normalize an evaluation-model request.

    Accepts ``"full"``, ``"reduced"`` or ``"auto"`` (case-insensitive)
    and returns the lowercase name; anything else raises
    :class:`~repro.errors.ParameterError` naming the known tiers.  The
    shared entry-point resolver: :func:`~repro.spice.transient.simulate_transient`
    / ``_batch``, :func:`~repro.spice.ac.ac_sweep` / ``_batch``,
    :func:`~repro.core.simulate.simulated_delay_50` / ``_batch``, the
    sweep runner's option validation and both CLIs all route through
    this one function.
    """
    if not isinstance(model, str):
        raise ParameterError(
            f"model must be one of {', '.join(MODELS)}, got {model!r}"
        )
    name = model.lower()
    if name not in MODELS:
        known = ", ".join(MODELS)
        raise ParameterError(
            f"unknown evaluation model {model!r}; known: {known}"
        )
    return name


def record_model_selection(selection: ModelSelection, n: int = 1) -> ModelSelection:
    """Record a tier decision in the metrics registry; returns it.

    Increments ``rom.model_selected{model=,rule=}`` by ``n`` (one per
    query -- batch entry points count every point they served) and, for
    fallbacks, ``rom.fallbacks{rule=}``.  A no-op while instrumentation
    is disabled.
    """
    obs.inc(
        "rom.model_selected", n, model=selection.model, rule=selection.rule
    )
    if selection.rule in ("auto-error-fallback", "auto-build-fallback"):
        obs.inc("rom.fallbacks", n, rule=selection.rule)
    return selection


def serve_tiered(
    model: str,
    size: int,
    n_points: int,
    rom_error_bound: float | None,
    build,
    serve,
    full_rerun,
    span,
):
    """Answer a ``"reduced"``/``"auto"`` batch query: the one tier policy.

    Every transient and AC entry point routes its non-full requests
    here (a scalar query is a batch of one), so each tier decision is
    made, recorded and traced in this one place.  The analysis supplies
    three callables:

    ``build()``
        The :class:`~repro.rom.prima.ReducedTemplate` that serves the
        batch; raises :class:`~repro.errors.SimulationError` when the
        projection cannot be built.
    ``serve(template, estimates)``
        ``(states, errors)``: the reduced ``(B, ...)`` states and, when
        ``estimates`` is true, the per-point ``(B,)`` a-posteriori error
        estimates (``inf`` wherever one is not finite), else ``None``.
    ``full_rerun(mask)``
        Full-tier states of the points the boolean ``mask`` selects.

    The rules, in order: ``"auto"`` keeps systems of at most
    :data:`ROM_SIZE_CUTOFF` unknowns on the full tier
    (``auto-small-system``); a failed build or serve falls back to full
    under ``"auto"`` (``auto-build-fallback`` / ``auto-error-fallback``)
    and raises under ``"reduced"``; ``"reduced"`` serves every point
    (``explicit``) unless a state is not finite; ``"auto"`` serves the
    points whose estimate is at most the bound (``auto-within-bound``,
    default :data:`DEFAULT_ERROR_BOUND`) and re-runs the rest through
    ``full_rerun``, merged back in place (``auto-error-fallback``).
    Returns the served states, or ``None`` when the whole batch must
    run on the full tier.  Each decision is recorded once per point it
    covers (:func:`record_model_selection`) and set on ``span``.
    """
    bound = (
        DEFAULT_ERROR_BOUND if rom_error_bound is None
        else float(rom_error_bound)
    )
    auto = model == "auto"

    def decline(selection: ModelSelection) -> None:
        record_model_selection(selection, n_points)
        span.set(model="full", model_rule=selection.rule)

    if auto and size <= ROM_SIZE_CUTOFF:
        return decline(ModelSelection("full", "auto-small-system", size))
    try:
        template = build()
    except SimulationError:
        if not auto:
            raise
        return decline(ModelSelection("full", "auto-build-fallback", size))
    try:
        states, errors = serve(template, auto)
    except SimulationError:
        if not auto:
            raise
        return decline(ModelSelection(
            "full", "auto-error-fallback", size, order=template.order,
            error_estimate=math.inf, error_bound=bound,
        ))
    span.set(n=size, order=template.order)

    if not auto:
        if not np.all(np.isfinite(states)):
            raise SimulationError(
                "reduced-tier solution is non-finite (diverged); raise "
                "rom_order, reduce dt, or use model='full'"
            )
        record_model_selection(
            ModelSelection(
                "reduced", "explicit", size, order=template.order,
                error_estimate=template.moment_error, error_bound=bound,
            ),
            n_points,
        )
        span.set(model="reduced", model_rule="explicit")
        return states

    bad = ~(errors <= bound)
    n_bad = int(np.count_nonzero(bad))
    n_ok = n_points - n_bad
    if n_ok:
        record_model_selection(
            ModelSelection(
                "reduced", "auto-within-bound", size, order=template.order,
                error_estimate=float(np.max(errors[~bad])), error_bound=bound,
            ),
            n_ok,
        )
    if n_bad:
        record_model_selection(
            ModelSelection(
                "full", "auto-error-fallback", size, order=template.order,
                error_estimate=float(np.max(errors[bad])), error_bound=bound,
            ),
            n_bad,
        )
        states[bad] = full_rerun(bad)
    span.set(
        model="reduced" if n_ok else "full",
        model_rule="auto-within-bound" if n_ok else "auto-error-fallback",
        rom_fallbacks=n_bad,
    )
    return states
