"""Self-tests of the benchmark: failure accounting, tracing, determinism.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import run
import tracing
import workloads
from repro.sweep.grid import Axis, ParameterGrid, Sweep


def _make(name: str, seed: int, tmp_path):
    workload = workloads.WORKLOADS[name](seed, tmp_path / f"{name}-{seed}")
    workload.setup()
    return workload


def _key(request: workloads.Request) -> str:
    inputs = request.inputs
    if isinstance(inputs, Sweep):
        inputs = inputs.spec()
    return repr((request.points, request.replay_of, inputs))


# -- failure accounting ----------------------------------------------------------


def test_point_without_crossing_is_counted_and_the_run_continues(tmp_path):
    workload = _make("ladder_sweep_mna", 1, tmp_path)
    # window=0.05 simulates 5% of the delay: the far end cannot reach 50%.
    no_crossing = Sweep(
        "simulated_delay_50",
        ParameterGrid(Axis("rt", [1000.0]), Axis("lt", [1e-7]), Axis("cl", [1e-13])),
        fixed={"ct": workload.CT, "rtr": workload.RTR},
        options={**workload.OPTIONS, "window": 0.05},
    )
    requests = [
        workload.request(1),
        workloads.Request(2, 1, no_crossing),
        workload.request(4),
    ]
    records = run.closed_loop(workload, iter(requests), math.inf)
    assert len(records) == 3
    assert records[1]["answers"] is None
    assert "no 50% crossing" in records[1]["error"]
    assert records[2]["answers"] is not None

    failed, mismatches, errors = run.count_failures(records, {})
    attempted = sum(r["request"].points for r in records)
    assert (failed, mismatches, len(errors)) == (1, 0, 1)
    assert failed / attempted == pytest.approx(1 / 33)


def test_nan_answers_and_replay_mismatches_are_counted():
    request = workloads.Request(5, 3, None, replay_of=1)
    source = workloads.Request(1, 3, None)
    records = [{"request": request, "answers": np.array([1e-9, np.nan, -1.0]),
                "error": None}]
    done = {1: (source, np.array([1e-9, 2e-9, 3e-9]))}
    assert run.count_failures(records, done) == (2, 1, [])


# -- tracing -------------------------------------------------------------------------


def _span(name, seq, parent, thread, start, end):
    span = tracing.Span(name, seq, parent, thread)
    span.start, span.end = start, end
    return span


def test_attribution_splits_overlapping_pool_children():
    root = _span("request", 0, None, 1, 0, 100)
    local = _span("core.simulate", 1, root, 1, 10, 30)
    run_span = _span("sweep.run", 2, root, 1, 35, 95)
    left = _span("spice.backend.solve", 3, run_span, 2, 40, 80)
    right = _span("spice.backend.solve", 4, run_span, 3, 50, 90)
    shares = tracing.attribute([root, local, run_span, left, right])
    # The two workers overlap on [50, 80]: they share it, so together
    # they hold exactly the union of their intervals, not the sum.
    assert shares == {
        "request": 20.0, "core.simulate": 20.0, "sweep.run": 10.0,
        "spice.backend.solve": 50.0,
    }
    assert sum(shares.values()) == root.end - root.start


def test_layer_times_sum_to_request_wall_time_with_a_thread_pool(tmp_path):
    workload = _make("ladder_sweep_mna", 2, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request():
            workload.serve(workload.request(1))
    finally:
        tracer.uninstall()
    (spans,) = tracer.requests
    assert len({s.thread for s in spans}) >= 3  # request thread + 2 workers
    shares = tracing.attribute(spans)
    wall = spans[0].end - spans[0].start
    assert sum(shares.values()) == pytest.approx(wall, rel=1e-9)

    layers = tracing.summarize(tracer.requests, workload.pool_workers)
    layer_ms = sum(v for k, v in layers.items() if k.endswith("_ms")
                   and k != "trace.request_ms")
    unattributed_ms = layers["trace.unattributed_frac"] * layers["trace.request_ms"]
    assert layer_ms + unattributed_ms == pytest.approx(layers["trace.request_ms"], rel=1e-9)
    assert layers["sweep.chunks"] == 2
    assert 0.0 < layers["sweep.pool.busy_frac"] <= 1.0
    assert layers["spice.backend.solve_calls"] > 0


def test_shims_are_removed_after_traced_and_untraced_runs(tmp_path):
    workload = _make("table1_statespace", 1, tmp_path)
    tracer = tracing.Tracer()
    originals = tracer.originals()
    assert len(originals) >= 15

    def untouched():
        return all(getattr(owner, attr) is original and owner.__dict__[attr] is original
                   for owner, attr, original in originals)

    requests = (workload.request(i) for i in range(1, 9))
    records = run.closed_loop(workload, requests, math.inf, tracer)
    assert [r["traced"] for r in records] == [False] * 3 + [True] * 4 + [False]
    assert untouched()
    assert len(tracer.requests) == 4

    run.closed_loop(workload, (workload.request(i) for i in range(9, 11)), math.inf)
    assert untouched()


def test_tracer_parents_worker_spans_to_the_request_thread():
    tracer = tracing.Tracer()
    with tracer.request() as root:
        outer = tracer.begin("sweep.run")
        child = []
        worker = threading.Thread(target=lambda: child.append(tracer.begin("core.simulate")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer.end(outer)
    assert child[0].parent is outer and outer.parent is root


# -- determinism -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_delays(name, tmp_path):
    first = _make(name, 7, tmp_path / "a")
    second = _make(name, 7, tmp_path / "b")
    other = _make(name, 8, tmp_path / "c")
    indices = range(8)
    assert [_key(first.request(i)) for i in indices] == [_key(second.request(i)) for i in indices]
    assert [_key(first.request(i)) for i in indices] != [_key(other.request(i)) for i in indices]

    request = first.request(1)
    delays = first.serve(request)
    assert np.all(np.isfinite(delays)) and np.all(delays > 0)
    np.testing.assert_array_equal(delays, second.serve(second.request(1)))


# -- the command's contract ----------------------------------------------------------


def _run(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_every_declared_metric(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    done = _run(run.ROOT, "--workload", "table1_statespace", "--seed", "3",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", "bus_box_auto", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
