"""EXP-OBS benchmark: disabled-instrumentation overhead guard.

The observability layer lives permanently inside the hot loops of the
simulation stack, so its *disabled* fast path must be invisible: the
guard pins the estimated overhead of every gated call site exercised by
the 500-segment ladder transient (the EXP-SP-TRANSIENT workload) to
<= 2% of that transient's measured runtime.

Rather than differencing two noisy wall-clock runs (which cannot
resolve a 2% budget on a loaded shared runner), the guard measures the
two factors directly:

1. one *enabled* run counts exactly how many gated operations (spans,
   counter increments, histogram observations) the workload performs;
2. a tight microbenchmark prices one *disabled* gated call (a dict-free
   attribute check and branch);

and asserts ``ops x per-op cost <= 2% x runtime``.  Both factors
overestimate the true overhead (the microbenchmark includes its own
loop bookkeeping; the op count assumes every op is a span, the most
expensive kind), so the product is a conservative bound.
"""

from __future__ import annotations

import time

from repro import obs
from repro.experiments.common import ExperimentTable
from repro.spice.ladder import LadderSpec, build_ladder_circuit
from repro.spice.transient import simulate_transient

LINE = dict(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)
OVERHEAD_BUDGET = 0.02


def _count_gated_ops(run) -> int:
    """Gated operations (spans + metric writes) one workload performs."""
    with obs.capture():
        run()
        spans = 0
        stack = list(obs.trace_roots())
        while stack:
            span = stack.pop()
            spans += 1
            stack.extend(span.children)
        counters = histograms = 0
        for _name, _labels, kind in obs.REGISTRY:
            if kind == "histogram":
                histograms += 1
            elif kind == "counter":
                counters += 1
        # Each series may receive many writes; bound by total counts.
        writes = sum(
            entry["count"]
            for entries in obs.REGISTRY.snapshot()["histograms"].values()
            for entry in entries
        )
        # Counters can be incremented at most once per solve/step; the
        # per-backend solve counters dominate, one per time step.
        sizes = obs.REGISTRY.counter_total("spice.transient.batch_steps")
        return int(spans + counters + histograms + writes + sizes)


def _disabled_op_cost_s(loops: int = 200_000) -> float:
    """Seconds per disabled gated call (span creation, the worst case)."""
    assert not obs.enabled()
    start = time.perf_counter()
    for _ in range(loops):
        with obs.span("bench.noop", n=1):
            pass
        obs.inc("bench.noop")
    elapsed = time.perf_counter() - start
    return elapsed / (2 * loops)


def test_bench_disabled_obs_overhead(
    benchmark, record_table, timing_enabled
):
    n_segments = 500 if timing_enabled else 60
    spec = LadderSpec(**LINE, n_segments=n_segments)
    circuit = build_ladder_circuit(spec)
    t_stop, dt = 2e-9, 5e-12  # 400 trapezoidal steps

    def run():
        return simulate_transient(circuit, t_stop=t_stop, dt=dt)

    # The guard must measure the *disabled* path, so it toggles the
    # global switch; restore whatever state the session was in (the CI
    # metrics-artifact fixture keeps instrumentation on session-wide).
    was_enabled = obs.enabled()
    obs.disable()
    try:
        run()  # warm-up (lazy imports, BLAS spin-up)
        start = time.perf_counter()
        benchmark.pedantic(run, rounds=1, iterations=1)
        runtime_s = time.perf_counter() - start

        ops = _count_gated_ops(run)
        assert not obs.enabled()  # capture() restored the disabled state
        per_op_s = _disabled_op_cost_s()
    finally:
        if was_enabled:
            obs.enable()
    overhead_s = ops * per_op_s
    ratio = overhead_s / runtime_s

    record_table(
        ExperimentTable(
            experiment_id="EXP-OBS-OVERHEAD",
            title="disabled-instrumentation overhead on the ladder transient",
            headers=(
                "segments", "runtime_ms", "gated_ops",
                "ns_per_op", "overhead_pct",
            ),
            rows=(
                (
                    n_segments,
                    round(runtime_s * 1e3, 2),
                    ops,
                    round(per_op_s * 1e9, 1),
                    round(ratio * 100, 4),
                ),
            ),
            notes=(
                f"budget: {OVERHEAD_BUDGET:.0%} of the transient runtime",
            ),
        )
    )

    assert ops > 0, "instrumented workload recorded no gated operations"
    if timing_enabled:
        assert ratio <= OVERHEAD_BUDGET, (
            f"disabled instrumentation costs {ratio:.2%} of the "
            f"{n_segments}-segment transient ({ops} ops at "
            f"{per_op_s * 1e9:.0f} ns), over the {OVERHEAD_BUDGET:.0%} budget"
        )
