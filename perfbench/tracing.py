"""Timing shims around the library's layer boundaries, and wall-time attribution.

The traced benchmark run replaces a fixed set of public callables with
shims that record one span per call (name, start, end, thread, parent).
Nothing inside ``src/`` is edited: the shims are installed with
``setattr`` on the module or class that callers look the name up on,
and :meth:`Tracer.uninstall` puts every original object back.

Attribution splits each request's wall time over the layers.  At every
instant the *leaves* -- open spans with no open child -- share the
instant equally, so a parent's self time is its duration minus the
union of its children's intervals, and two thread-pool children that
overlap each get half of the overlap instead of both claiming it.  The
request span itself is a leaf only where no layer call is open; that
time is reported as unattributed.  The shares therefore sum to the
request wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

#: Span name -> per-layer metric name.  Every span name the shims emit
#: appears here, so the per-layer times sum to the request wall time.
LAYER_METRICS = {
    "request": "trace.unattributed",
    "core.simulate": "core.simulate.self_ms",
    "spice.ladder.state_space": "spice.ladder.state_space_ms",
    "spice.ladder.template": "spice.ladder.template_ms",
    "spice.statespace.discretize": "spice.statespace.discretize_ms",
    "spice.statespace.step": "spice.statespace.step_ms",
    "tline.waveform.delay_50": "tline.waveform.delay_50_ms",
    "spice.mna.revalue": "spice.mna.revalue_ms",
    "spice.backend.refactorize": "spice.backend.refactorize_ms",
    "spice.backend.solve": "spice.backend.solve_ms",
    "spice.transient.batch": "spice.transient.batch_self_ms",
    "rom.build": "rom.build_ms",
    "rom.serve": "rom.serve_ms",
    "sweep.run": "sweep.run_self_ms",
    "sweep.replay": "sweep.replay_ms",
}

#: Per-request counts taken from the spans.
COUNT_METRICS = (
    "spice.statespace.samples", "spice.transient.steps",
    "spice.backend.refactorize_calls", "spice.backend.solve_calls",
    "sweep.chunks",
)


class Span:
    """One timed call.  ``seq`` orders spans by the moment they began."""

    __slots__ = ("name", "seq", "parent", "thread", "start", "end", "info")

    def __init__(self, name: str, seq: int, parent: "Span | None", thread: int):
        self.name = name
        self.seq = seq
        self.parent = parent
        self.thread = thread
        self.start = 0
        self.end = 0
        self.info = 0


class Tracer:
    """Records spans from the shims it installs; one request at a time.

    A span begun on a thread with no open span of its own (a thread-pool
    worker) takes as parent the innermost open span of the thread that
    opened the current request, because ``concurrent.futures`` workers
    do not inherit the submitting thread's context.
    """

    def __init__(self) -> None:
        self._seq = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._request_thread: int | None = None
        self._spans: list[Span] = []
        self.requests: list[list[Span]] = []
        self._targets = _shim_targets(self)

    # -- span recording ----------------------------------------------------

    def begin(self, name: str) -> Span:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            outer = self._stacks.get(self._request_thread)
            parent = outer[-1] if outer else None
        span = Span(name, next(self._seq), parent, thread)
        stack.append(span)
        self._spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def request(self):
        """Wrap one request in a root span; its spans join :attr:`requests`."""
        self._request_thread = threading.get_ident()
        self._spans = []
        root = self.begin("request")
        try:
            yield root
        finally:
            self.end(root)
            self.requests.append(self._spans)
            self._spans = []

    # -- shims -------------------------------------------------------------

    def install(self) -> None:
        """Put every shim in place and turn on the library's counters."""
        from repro import obs

        for owner, attr, _original, shim in self._targets:
            setattr(owner, attr, shim)
        obs.enable()

    def uninstall(self) -> None:
        """Restore every original callable and turn the counters off."""
        from repro import obs

        for owner, attr, original, _shim in self._targets:
            setattr(owner, attr, original)
        obs.disable()
        obs.clear_trace()

    def originals(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original object)`` for every shim target."""
        return [(owner, attr, original) for owner, attr, original, _ in self._targets]

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every recorded request's spans as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for index, spans in enumerate(self.requests):
                rows = [
                    [s.seq, s.parent.seq if s.parent is not None else -1,
                     s.name, s.thread, s.start, s.end]
                    for s in spans
                ]
                handle.write(json.dumps({"request": index, "spans": rows}))
                handle.write("\n")


def _timed(tracer: Tracer, name: str, fn, after=None):
    """A shim recording a ``name`` span around every call of ``fn``.

    ``after(span, result)`` may rename the span or store a count in
    ``span.info``.
    """

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(span, result)
        return result

    return shim


def _own_method_classes(base, attr: str):
    """``base`` and every subclass that defines ``attr`` itself."""
    seen, todo, found = set(), [base], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _shim_targets(tracer: Tracer):
    """``(owner, attribute, original, shim)`` for every traced callable."""
    import repro.core.simulate as simulate
    import repro.rom as rom
    import repro.spice.backend as backend
    import repro.spice.ladder as ladder
    import repro.spice.mna as mna
    import repro.spice.statespace as statespace
    import repro.spice.transient as transient
    import repro.sweep.runner as runner
    from repro.tline.waveform import Waveform

    def samples(span, result):
        span.info = len(result[0].times)

    def steps(span, result):
        span.info = result.n_steps

    def order(span, result):
        span.info = result.order

    def cache_outcome(span, result):
        if result.cache_hit is not None:
            span.name = "sweep.replay"

    plain = [
        (simulate, "simulated_delay_50", "core.simulate", None),
        (simulate, "simulated_delay_50_batch", "core.simulate", None),
        (ladder, "build_ladder_state_space", "spice.ladder.state_space", None),
        (ladder, "build_ladder_template", "spice.ladder.template", None),
        (statespace, "simulate_step", "spice.statespace.step", samples),
        (statespace.StateSpace, "discretize", "spice.statespace.discretize", None),
        (Waveform, "delay_50", "tline.waveform.delay_50", None),
        (mna.MnaStructure, "revalue_many", "spice.mna.revalue", None),
        (transient, "simulate_transient_batch", "spice.transient.batch", steps),
        (rom, "cached_reduced_template", "rom.build", order),
        (rom, "reduced_transient_batch", "rom.serve", None),
        (runner.SweepRunner, "run", "sweep.run", cache_outcome),
    ]
    for cls in _own_method_classes(backend.PatternFactorizer, "refactorize"):
        plain.append((cls, "refactorize", "spice.backend.refactorize", None))
    for attr in ("solve", "solve_many"):
        for cls in _own_method_classes(backend.LinearFactorization, attr):
            plain.append((cls, attr, "spice.backend.solve", None))

    targets = []
    for owner, attr, name, after in plain:
        original = owner.__dict__[attr]
        targets.append((owner, attr, original, _timed(tracer, name, original, after)))
    return targets


# -- attribution ---------------------------------------------------------------


def attribute(spans: list[Span]) -> dict[str, float]:
    """Split the request's wall time (ns) over span names.

    ``spans[0]`` is the request's root span.  Between consecutive span
    boundaries, the open spans without an open child share the interval
    equally.  The values sum to the root span's duration.
    """
    events = []
    for span in spans:
        events.append((span.start, 1, span.seq, span))
        events.append((span.end, 0, -span.seq, span))
    # Ties: ends before starts; a parent starts before and ends after
    # its children (lower seq began first).
    events.sort(key=lambda event: event[:3])
    open_children: dict[int, int] = defaultdict(int)
    leaves: dict[int, Span] = {}
    totals: dict[str, float] = defaultdict(float)
    previous = None
    for moment, is_start, _order, span in events:
        if previous is not None and moment > previous and leaves:
            share = (moment - previous) / len(leaves)
            for leaf in leaves.values():
                totals[leaf.name] += share
        previous = moment
        parent = span.parent
        if is_start:
            leaves[span.seq] = span
            if parent is not None:
                open_children[parent.seq] += 1
                leaves.pop(parent.seq, None)
        else:
            leaves.pop(span.seq, None)
            if parent is not None:
                open_children[parent.seq] -= 1
                if open_children[parent.seq] == 0:
                    leaves[parent.seq] = parent
    return dict(totals)


def summarize(requests: list[list[Span]], pool_workers: int) -> dict[str, float]:
    """Per-request means of every layer's self time and count.

    Times are in ms per request; ``trace.unattributed_frac`` is the
    unattributed share of the summed request wall time.
    """
    n = max(len(requests), 1)
    out = {name: 0.0 for name in LAYER_METRICS.values()}
    counts = defaultdict(float)
    wall_ns = 0
    pool_busy_ns = 0
    run_ns = 0
    orders = []
    for spans in requests:
        root = spans[0]
        wall_ns += root.end - root.start
        for name, ns in attribute(spans).items():
            out[LAYER_METRICS[name]] += ns / 1e6
        served = {s.parent.seq for s in spans if s.name == "rom.serve" and s.parent}
        for s in spans:
            if s.name == "spice.statespace.step":
                counts["spice.statespace.samples"] += s.info
            elif s.name == "spice.transient.batch" and s.seq not in served:
                counts["spice.transient.steps"] += s.info
            elif s.name == "spice.backend.refactorize":
                counts["spice.backend.refactorize_calls"] += 1
            elif s.name == "spice.backend.solve":
                counts["spice.backend.solve_calls"] += 1
            elif s.name == "rom.build":
                orders.append(s.info)
            elif s.name == "sweep.run":
                run_ns += s.end - s.start
            elif s.name == "core.simulate" and s.parent is not None \
                    and s.parent.name == "sweep.run":
                counts["sweep.chunks"] += 1
                pool_busy_ns += s.end - s.start
    unattributed_ms = out.pop("trace.unattributed")
    result = {name: value / n for name, value in out.items()}
    for name in COUNT_METRICS:
        result[name] = counts[name] / n
    result["rom.order_q"] = sum(orders) / len(orders) if orders else 0.0
    result["sweep.pool.busy_frac"] = (
        pool_busy_ns / (pool_workers * run_ns) if run_ns else 0.0
    )
    result["trace.request_ms"] = wall_ns / 1e6 / n
    result["trace.unattributed_frac"] = (
        unattributed_ms * 1e6 / wall_ns if wall_ns else 0.0
    )
    return result
