"""The reduced serve's blocks run concurrently without changing a bit.

:func:`repro.rom.prima.reduced_transient_batch` serves its point blocks
on a thread pool created inside the call (one worker per usable CPU, at
most one per block).  These tests pin that:

- pooled and one-worker serves give ``np.array_equal`` states and
  estimates over the bus, ladder and H-tree cases of
  ``test_rom_bordered.py`` (the worker count is forced through
  ``os.sched_getaffinity``);
- a ``fork``-context process pool serves reduced batches after its
  parent served one (a pool kept alive across calls would leave the
  child waiting on threads it does not have);
- a singular full-order pencil in one block raises
  :class:`~repro.errors.SimulationError` out of the pooled serve,
  promptly and without leaving threads behind;
- a one-block batch, or a one-CPU process, starts no thread.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import os
import threading

import numpy as np
import pytest
import test_rom_bordered as bordered
from test_rom_bordered import case  # noqa: F401 - the shared case fixture

from repro.errors import SimulationError
from repro.rom import prima
from repro.spice.ladder import build_ladder_template
from repro.spice.transient import simulate_transient_batch

#: Generous bound on calls that finish in well under a second; a hang
#: shows up as a failure instead of a stuck suite.
TIMEOUT_S = 60.0


def _cpus(monkeypatch, count: int) -> None:
    """Make this process look like it may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _serve_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("rom-serve")]


# ---------------------------------------------------------------------------
# Bits do not depend on the worker count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_points", [1, 15, 17, 33, 256])
@pytest.mark.parametrize("per_point", [False, True], ids=["shared", "per_point"])
def test_pooled_serve_matches_one_worker(monkeypatch, case, n_points, per_point):
    args = (case, n_points, per_point, "dc")
    _cpus(monkeypatch, 1)
    one = bordered._serve(prima.reduced_transient_batch, *args, estimates=True)
    _cpus(monkeypatch, 2)
    pooled = bordered._serve(prima.reduced_transient_batch, *args, estimates=True)
    assert np.array_equal(pooled[0], one[0])
    assert np.array_equal(pooled[1], one[1])


@pytest.mark.parametrize("model", ["reduced", "auto"])
def test_dispatch_pooled_matches_one_worker(monkeypatch, model):
    """Through ``simulate_transient_batch`` (snapshot-enriched projection
    and, under ``auto``, full-tier fallbacks): the same states."""
    results = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        results.append(_ladder_batch(40, model))
    assert np.array_equal(results[0], results[1])


# ---------------------------------------------------------------------------
# Forked workers, failures, and when no thread starts
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _ladder():
    return build_ladder_template(140, "PI", loaded=True)


def _ladder_batch(n_points: int, model: str = "reduced") -> np.ndarray:
    points = [
        dict(rt=1000.0 * s, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)
        for s in np.linspace(0.8, 1.25, n_points)
    ]
    return simulate_transient_batch(
        _ladder(), points, 3e-9, 5e-11, record=["n140"], model=model,
        rom_error_bound=1.0,
    ).states


def test_forked_process_pool_serves_after_parent_served(monkeypatch):
    _cpus(monkeypatch, 2)
    parent = _ladder_batch(40)
    assert not _serve_threads()
    context = multiprocessing.get_context("fork")
    pool = concurrent.futures.ProcessPoolExecutor(2, mp_context=context)
    futures = [pool.submit(_ladder_batch, 40) for _ in range(2)]
    done, pending = concurrent.futures.wait(futures, timeout=TIMEOUT_S)
    if pending:  # a hung child would block the pool's shutdown forever
        for process in list(pool._processes.values()):
            process.kill()
    pool.shutdown(wait=True, cancel_futures=True)
    assert not pending, "forked reduced serve did not finish"
    for future in done:
        assert np.array_equal(future.result(), parent)


class _SingularPencilTemplate(bordered._PencilTemplate):
    """Order-3 pencils ``G = diag(a_j, 1, 1)``, ``C = diag(0, 1, 1)``:
    ``G + w C`` is singular exactly where ``a_j = 0``."""

    def reduce_many(self, columns):
        a = np.asarray(columns["a"], dtype=float)
        gq = np.broadcast_to(np.eye(3), (a.size, 3, 3)).copy()
        gq[:, 0, 0] = a
        cq = np.broadcast_to(np.diag([0.0, 1.0, 1.0]), (a.size, 3, 3)).copy()
        return gq, cq


def _call_with_timeout(fn):
    """Run ``fn`` on a helper thread; fail instead of hanging."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the caller
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), "pooled serve hung"
    return box


def test_singular_pencil_in_one_block_raises_from_pooled_serve(monkeypatch):
    _cpus(monkeypatch, 2)
    a = np.ones(40)
    a[21] = 0.0  # second of three blocks
    times = np.linspace(0.0, 1.0, 11)
    before = set(threading.enumerate())
    box = _call_with_timeout(
        lambda: prima.reduced_transient_batch(
            _SingularPencilTemplate(), {"a": a}, times, np.full(40, 0.1),
            "zero", np.arange(3),
        )
    )
    assert isinstance(box.get("error"), SimulationError)
    assert "singular reduced transient system" in str(box["error"])
    assert not _serve_threads()
    assert set(threading.enumerate()) <= before


def _count_thread_starts(monkeypatch) -> list:
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


@pytest.mark.parametrize("n_points", [1, 2, 16, 17])
def test_single_block_batch_starts_no_thread(monkeypatch, n_points):
    assert len(prima._serve_blocks(n_points)) == 1
    _cpus(monkeypatch, 2)
    started = _count_thread_starts(monkeypatch)
    _ladder_batch(n_points)
    assert started == []


def test_one_cpu_starts_no_thread(monkeypatch):
    _cpus(monkeypatch, 1)
    started = _count_thread_starts(monkeypatch)
    _ladder_batch(40)
    assert started == []
    _cpus(monkeypatch, 2)
    _ladder_batch(40)
    assert started and all(name.startswith("rom-serve") for name in started)
