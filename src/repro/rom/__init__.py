"""Reduced-order evaluation-model tier (``repro.rom``).

The pluggable fast path behind ``model="reduced"`` / ``model="auto"``
across the simulation stack: :mod:`repro.rom.model` resolves and
records which tier serves each query (mirroring
:func:`repro.spice.backend.resolve_backend`), and
:mod:`repro.rom.prima` builds PRIMA-style block-Arnoldi projections of
the MNA system -- one :class:`~repro.rom.prima.ReducedTemplate` per
structure -- that answer transient, AC and delay queries from dense
``q x q`` models with pinned a-posteriori error checks.  See
``docs/rom.md`` for the projection math and the ``"auto"`` decision
rules.
"""

from repro.rom.model import (
    DEFAULT_ERROR_BOUND,
    MODELS,
    ROM_SIZE_CUTOFF,
    resolve_model,
    serve_tiered,
)
from repro.rom.prima import (
    DEFAULT_ORDER,
    ReducedTemplate,
    cached_reduced_template,
    corner_samples,
    reduced_transient_batch,
)

__all__ = [
    "MODELS",
    "DEFAULT_ERROR_BOUND",
    "DEFAULT_ORDER",
    "ROM_SIZE_CUTOFF",
    "ReducedTemplate",
    "cached_reduced_template",
    "corner_samples",
    "reduced_transient_batch",
    "resolve_model",
    "serve_tiered",
]
