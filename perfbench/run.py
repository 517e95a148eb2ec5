"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1_statespace --seed 1 --seconds 25 --trace 0

The run is a closed loop with one client: the next request is sent when
the previous one has been answered.  It first times ``SETUP_PROBES``
cold starts in fresh interpreters (``setup_s``), then sets up and
serves request 0 in this process, then times requests for ``--seconds``
seconds, and finally checks a seeded sample of answers against an
independent reference outside the timed window.

``--trace 0`` installs nothing and reports the end-to-end metrics.
``--trace 1`` alternates blocks of four requests with and without the
timing shims of ``tracing.py`` and reports the per-layer metrics; the
spans are written to ``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``info``, carries the details (tail percentile and sample
count, worst reference error, failure messages).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: BLAS runs single-threaded in every process the benchmark starts: on a
#: two-core box OpenBLAS's own threads spin against the sweep pool and
#: make a 200-state statespace query both slower and 2-3x noisier.  Set
#: before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0
#: Requests per block; trace runs alternate traced and untraced blocks,
#: so both sides see the same mix of new and repeated inputs.
BLOCK = 4


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=pathlib.Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- cold starts -----------------------------------------------------------------


def probe(args: argparse.Namespace) -> int:
    """Child side of a setup probe: import, set up, answer request 0."""
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the library's own import cost)

    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.probe)
    set_up = time.perf_counter()
    workload.setup()
    templated = time.perf_counter()
    workload.serve(workload.request(0))
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "template_s": templated - set_up,
        "first_request_s": done - templated,
    }), flush=True)
    return 0


def cold_start(args: argparse.Namespace, workdir: pathlib.Path) -> dict:
    """Time one fresh interpreter from launch to its first answer."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--probe", str(workdir)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    watchdog = threading.Timer(PROBE_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        line = child.stdout.readline()
        setup_s = time.perf_counter() - start
        child.communicate()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"setup probe exited with {child.returncode}")
    return {"setup_s": setup_s, **json.loads(line)}


# -- the closed loop -------------------------------------------------------------


def closed_loop(workload, requests, seconds: float, tracer=None) -> list[dict]:
    """Serve ``requests`` one after another until ``seconds`` have passed.

    A request that raises is recorded with its error and the loop goes
    on.  With a ``tracer``, every other block of :data:`BLOCK` requests
    runs with the shims installed.
    """
    records = []
    deadline = time.perf_counter() + seconds
    for request in requests:
        if time.perf_counter() >= deadline:
            break
        traced = tracer is not None and (request.index // BLOCK) % 2 == 1
        if traced:
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            if traced:
                with tracer.request():
                    answers = workload.serve(request)
            else:
                answers = workload.serve(request)
        except Exception as exc:  # one bad request must not end the run
            answers, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        records.append({"request": request, "latency_s": latency,
                        "answers": answers, "error": error, "traced": traced})
    return records


def count_failures(records: list[dict], done: dict) -> tuple[int, int, list[str]]:
    """``(failed points, replay mismatches, error messages)``.

    A point fails when its request raised or its answer is NaN or not
    positive (no 50% crossing).  A replayed request must reproduce the
    answers of the request it repeats exactly.
    """
    import numpy as np

    failed = mismatches = 0
    errors = []
    for record in records:
        request, answers = record["request"], record["answers"]
        if answers is None:
            failed += request.points
            errors.append(record["error"])
            continue
        failed += int(np.count_nonzero(~(np.isfinite(answers) & (answers > 0))))
        source = done.get(request.replay_of)
        if source is not None and not np.array_equal(source[1], answers):
            mismatches += 1
    return failed, mismatches, errors


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns ``(value, percentile)``; with fewer than eleven samples,
    the maximum and 100.
    """
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe is not None:
        return probe(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}\n")
        return 2
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, info = measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


def measure(args, workloads, workdir: pathlib.Path) -> tuple[dict, dict]:
    import numpy as np

    probes = [cold_start(args, workdir / f"probe-{k}") for k in range(SETUP_PROBES)]

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "main")
    workload.setup()
    first = workload.request(0)
    done = {0: (first, workload.serve(first))}

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    loop_start = time.perf_counter()
    records = closed_loop(
        workload, (workload.request(i) for i in itertools.count(1)),
        args.seconds, tracer,
    )
    window_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for record in records:
        if record["answers"] is not None:
            done[record["request"].index] = (record["request"], record["answers"])

    failed, mismatches, errors = count_failures(records, done)
    check = workload.check(done)
    failed += check.outside
    attempted = sum(r["request"].points for r in records)
    answered = sum(
        int(np.count_nonzero(np.isfinite(r["answers"]))) for r in records
        if r["answers"] is not None
    )
    correct = check.checked > 0 and check.outside == 0 and mismatches == 0

    timed = [r["latency_s"] for r in records if not r["traced"]]
    tail_s, tail_pct = tail(timed)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "requests": len(records), "timed_requests": len(timed),
        "tail_percentile": tail_pct, "window_s": window_s,
        "check": {"worst_rel_err": check.worst_rel_err,
                  "tolerance": check.tolerance, "checked": check.checked,
                  "outside": check.outside, "reference": check.reference},
        "replay_mismatches": mismatches, "errors": errors[:5],
        "setup_probes": probes,
    }
    setup = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
    if args.trace:
        values = layer_metrics(workload, tracer, records, setup, check)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}.jsonl.gz")
    else:
        values = {
            "setup_s": setup["setup_s"],
            "latency_ms_p50": statistics.median(timed) * 1e3,
            "latency_ms_tail": tail_s * 1e3,
            "throughput_pts_per_s": answered / window_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
    # Names and units come from BENCHMARK.json, so the result line always
    # carries exactly the declared metrics.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in section},
    }
    return result, info


def layer_metrics(workload, tracer, records, setup: dict, check) -> dict:
    """The per-layer metrics of a trace run, by name."""
    import tracing
    from repro import obs

    layers = tracing.summarize(tracer.requests, workload.pool_workers)
    traced = [r for r in records if r["traced"]]
    untraced = [r["latency_s"] for r in records if not r["traced"]]
    traced_points = sum(r["request"].points for r in traced)
    hits = obs.REGISTRY.counter_total("sweep.cache.disk_hits")
    misses = obs.REGISTRY.counter_total("sweep.cache.misses")
    n = max(len(traced), 1)
    layers.update({
        "import.repro_s": setup["import_s"],
        "setup.first_request_s": setup["first_request_s"],
        "bus.template_ms": setup["template_s"] * 1e3 if workload.name == "bus_box_auto" else 0.0,
        "sweep.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rom.projection_builds": obs.REGISTRY.counter_total("rom.projection_builds") / n,
        "rom.projection_reuse": obs.REGISTRY.counter_total("rom.projection_reuse") / n,
        "rom.fallback_frac": (
            obs.REGISTRY.counter_total("rom.fallbacks") / traced_points
            if traced_points else 0.0
        ),
        "rom.delay_err_max": check.worst_rel_err if workload.name == "bus_box_auto" else 0.0,
        "trace.overhead_frac": (
            statistics.median(r["latency_s"] for r in traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0
        ),
    })
    return layers


if __name__ == "__main__":
    sys.exit(main())
