"""Evaluation-model tier selection: full MNA vs reduced-order.

Mirrors the ``backend=`` plumbing of :mod:`repro.spice.backend`: every
simulation entry point takes a ``model="full" | "reduced" | "auto"``
request and validates it through :func:`resolve_model`.  Which tier
actually served each query, and by which rule, is recorded by
:func:`serve_tiered` while instrumentation is enabled: as the labeled
counters ``rom.model_selected{model=,rule=}`` (one count per point) and
``rom.fallbacks{rule=}``, and as the ``model``, ``model_rule`` and
``rom_fallbacks`` attributes of the analysis span, so ``--trace`` /
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
    cheap), reduced otherwise -- *unless* a point's a-posteriori
    estimate exceeds :data:`DEFAULT_ERROR_BOUND` (or the caller's
    ``rom_error_bound``), in which case that point falls back to full
    MNA and the fallback is recorded.  The estimate is the larger of
    the projection's build-time error
    (:attr:`~repro.rom.prima.ReducedTemplate.base_error`) and the
    serve's per-point evidence: the nested-suborder convergence defect
    and, for AC, the exact probe residuals.

:func:`serve_tiered` is the one place these rules live, and the one
place an estimate is formed: every transient and AC query, scalar or
batched, reaches it.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ParameterError, SimulationError

__all__ = [
    "MODELS",
    "DEFAULT_ERROR_BOUND",
    "ROM_SIZE_CUTOFF",
    "resolve_model",
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


def _fold_estimates(template, states: np.ndarray, evidence: np.ndarray) -> np.ndarray:
    """Per-point ``(B,)`` estimates: ``max(template.base_error, evidence)``.

    ``inf`` wherever the estimate or any of the point's ``states`` is
    not finite, so exactly those points fall back under ``"auto"``.
    """
    with np.errstate(invalid="ignore"):
        errors = np.maximum(template.base_error, evidence)
    finite = np.isfinite(errors) & np.all(np.isfinite(states), axis=(1, 2))
    return np.where(finite, errors, np.inf)


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
        ``(states, evidence)``: the reduced ``(B, K, R)`` states and,
        when ``estimates`` is true, the per-point ``(B,)`` error
        evidence of this serve (its suborder defect, and for AC its
        probe residuals), else ``None``.
    ``full_rerun(mask)``
        Full-tier states of the points the boolean ``mask`` selects.

    The rules, in order: ``"auto"`` keeps systems of at most
    :data:`ROM_SIZE_CUTOFF` unknowns on the full tier
    (``auto-small-system``); a failed build or serve falls back to full
    under ``"auto"`` (``auto-build-fallback`` / ``auto-error-fallback``)
    and raises under ``"reduced"``; ``"reduced"`` serves every point
    (``explicit``) unless a state is not finite; ``"auto"`` folds each
    point's estimate, ``max(template.base_error, evidence)`` (``inf``
    for a non-finite state or estimate), serves the points whose
    estimate is at most the bound (``auto-within-bound``, default
    :data:`DEFAULT_ERROR_BOUND`) and re-runs the rest through
    ``full_rerun``, merged back in place (``auto-error-fallback``).
    Returns the served states, or ``None`` when the whole batch must
    run on the full tier.  Each decision counts once per point it covers
    in ``rom.model_selected{model=,rule=}`` (fallbacks also in
    ``rom.fallbacks{rule=}``) and is set on ``span``.
    """
    bound = (
        DEFAULT_ERROR_BOUND if rom_error_bound is None
        else float(rom_error_bound)
    )
    auto = model == "auto"

    def record(served: str, rule: str, n: int = n_points) -> None:
        obs.inc("rom.model_selected", n, model=served, rule=rule)
        if rule in ("auto-error-fallback", "auto-build-fallback"):
            obs.inc("rom.fallbacks", n, rule=rule)

    def decline(rule: str) -> None:
        record("full", rule)
        span.set(model="full", model_rule=rule)

    if auto and size <= ROM_SIZE_CUTOFF:
        return decline("auto-small-system")
    try:
        template = build()
    except SimulationError:
        if not auto:
            raise
        return decline("auto-build-fallback")
    try:
        states, evidence = serve(template, auto)
    except SimulationError:
        if not auto:
            raise
        return decline("auto-error-fallback")
    span.set(n=size, order=template.order)

    if not auto:
        if not np.all(np.isfinite(states)):
            raise SimulationError(
                "reduced-tier solution is non-finite (diverged); raise "
                "rom_order, reduce dt, or use model='full'"
            )
        record("reduced", "explicit")
        span.set(model="reduced", model_rule="explicit")
        return states

    bad = ~(_fold_estimates(template, states, evidence) <= bound)
    n_bad = int(np.count_nonzero(bad))
    n_ok = n_points - n_bad
    if n_ok:
        record("reduced", "auto-within-bound", n_ok)
    if n_bad:
        record("full", "auto-error-fallback", n_bad)
        states[bad] = full_rerun(bad)
    span.set(
        model="reduced" if n_ok else "full",
        model_rule="auto-within-bound" if n_ok else "auto-error-fallback",
        rom_fallbacks=n_bad,
    )
    return states
