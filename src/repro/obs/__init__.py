"""repro.obs -- spans, counters and solver telemetry (stdlib only).

The observability substrate of the simulation stack: a hierarchical
span tracer, a process-wide metrics registry and report emitters, all
behind one global switch that keeps the disabled fast path to a single
branch per call site (pinned to <= 2% overhead on the 500-segment
ladder transient by the benchmark suite).

Typical use::

    from repro import obs

    obs.enable()                       # or REPRO_OBS=1 in the env
    with obs.span("my.phase", size=n):
        obs.inc("my.events", backend="banded")
        obs.observe("my.seconds", dt)

    print(obs.render_trace())          # span tree
    obs.write_metrics("metrics.json")  # flat JSON artifact
    obs.reset()                        # clear spans + metrics

What the stack records while enabled (see the docs-site
"Instrumentation & metrics" page for the full catalogue):

- ``repro.spice.backend`` -- the ``resolve_backend("auto")`` decision
  with its size/bandwidth evidence, factorize/refactorize/solve/
  solve_many counts per backend, pattern nnz and band widths;
- ``repro.spice.mna`` -- structure builds vs O(nnz) revaluations;
- ``repro.spice.transient`` / ``repro.spice.ac`` -- spans per
  analysis, step counts, batch widths, shared-factorization reuse;
- ``repro.sweep`` -- cache-tier hits/misses, evaluation counts,
  per-chunk timing histograms (``SweepRunner`` folds its
  :class:`~repro.sweep.runner.RunnerStats` into gauges after each run).

Everything is standard library (``time``, ``contextvars``,
``threading``, ``json``); nothing here imports numpy/scipy, so the
layer can wrap the lowest-level solver code without import cycles.
"""

from __future__ import annotations

from repro.obs._state import disable, enable, enabled
from repro.obs.metrics import (
    COUNT_BUCKETS,
    REGISTRY,
    TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    inc,
    observe,
    set_gauge,
)
from repro.obs.report import (
    METRICS_SCHEMA_VERSION,
    benchmark_payload,
    elapsed_s,
    metrics_payload,
    render_metrics,
    render_trace,
    reset_elapsed,
    write_metrics,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    clear_trace,
    current_span,
    span,
    trace_roots,
)

__all__ = [
    "enable",
    "disable",
    "enabled",
    "capture",
    "reset",
    # tracing
    "Span",
    "NOOP_SPAN",
    "span",
    "current_span",
    "trace_roots",
    "clear_trace",
    # metrics
    "MetricsRegistry",
    "Histogram",
    "REGISTRY",
    "TIME_BUCKETS",
    "COUNT_BUCKETS",
    "inc",
    "observe",
    "set_gauge",
    # reports
    "METRICS_SCHEMA_VERSION",
    "render_trace",
    "render_metrics",
    "metrics_payload",
    "benchmark_payload",
    "write_metrics",
    "elapsed_s",
    "reset_elapsed",
]


def reset() -> None:
    """Clear all recorded telemetry: spans, metrics, elapsed clock."""
    clear_trace()
    REGISTRY.reset()
    reset_elapsed()


class capture:
    """Context manager: enable + start clean, restore state on exit.

    The test/tooling idiom for scoped collection::

        with obs.capture():
            run_workload()
            counts = obs.REGISTRY.counter("spice.transient.batch_runs")

    On entry the layer is enabled and both the trace buffer and the
    default registry are cleared; on exit the previous enabled/disabled
    state is restored (recorded telemetry is kept for inspection until
    the next :func:`reset`).
    """

    def __enter__(self) -> "capture":
        self._was_enabled = enabled()
        reset()
        enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._was_enabled:
            disable()
        return False
