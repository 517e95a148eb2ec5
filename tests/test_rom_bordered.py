"""The blocked, bordered reduced serve against the two-solve path it replaced.

:func:`repro.rom.prima.reduced_transient_batch` serves both the full
order ``q`` and the nested suborder ``q - 1`` from one stacked
factorization per block of points: the unit column ``e_q`` rides along
as an extra right-hand side and a rank-1 correction turns the solution
into the suborder operators.  These tests pin that change:

- served ``model="reduced"``/``"auto"`` states are ``==`` to a frozen
  copy of the previous path (one unblocked stacked solve per order),
  over bus, ladder and H-tree templates, Krylov and snapshot (POD)
  projections, one and several recorded rows, shared and per-point
  grids, ``initial`` zero/dc and batch sizes that are not multiples of
  the block;
- the suborder estimates (the serve's defect folded with the
  build-time error, as :func:`repro.rom.model.serve_tiered` folds it)
  agree to 1e-7 relative and every auto fallback decision is unchanged
  (on per-point grids' corner-union projections, whose pencils sit near
  the conditioning floor, the estimates agree only to that floor -- see
  the test there);
- the bordered ``q - 1`` operators match a direct solve on the leading
  block to 1e-9 relative;
- one stacked solve per block, where the previous path made two per
  batch;
- a singular suborder pencil yields an infinite estimate for that point
  alone instead of an exception;
- the ``rom.reduce_many``/``rom.recurrence`` spans.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import obs
from repro import rom as rom_pkg
from repro.bus.builder import build_bus_template
from repro.bus.spec import BusSpec
from repro.errors import ParameterError, SimulationError
from repro.rom import prima
from repro.rom.model import _fold_estimates
from repro.rom.prima import ReducedTemplate
from repro.spice.ladder import build_ladder_template
from repro.spice.mna import build_mna_structure
from repro.spice.netlist import Circuit, Param, Step
from repro.spice.transient import simulate_transient_batch
from repro.topology.htree import build_htree_template, htree_sink_nodes

# ---------------------------------------------------------------------------
# Frozen copy of the previous serve: one unblocked stacked solve per order.
# ---------------------------------------------------------------------------


def _old_recurrence(gq, cq, wq, dt_eff, trapezoidal, initial, basis,
                    rec_basis, source, z0=None):
    n_points, q = gq.shape[0], gq.shape[1]
    shared_grid = wq.ndim == 2
    n_steps = (wq.shape[0] if shared_grid else wq.shape[1]) - 1
    fac = 2.0 if trapezoidal else 1.0
    via_inputs = source[1].shape[1] < n_steps
    m_cols = source[1].shape[1] if via_inputs else n_steps
    weight = fac / dt_eff
    rhs = np.empty((n_points, q, q + m_cols))
    rhs[:, :, :q] = gq
    lhs = weight[:, None, None] * cq
    lhs += gq
    if via_inputs:
        w_samples, bq = source
        rhs[:, :, q:] = bq
    elif shared_grid:
        terms = wq[1:] + wq[:-1] if trapezoidal else wq[1:]
        rhs[:, :, q:] = terms.T
    else:
        terms = wq[:, 1:] + wq[:, :-1] if trapezoidal else wq[:, 1:]
        rhs[:, :, q:] = terms.transpose(0, 2, 1)
    try:
        solved = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(
            "singular reduced transient system matrix in batch"
        ) from exc
    step_g = solved[:, :, :q]
    if via_inputs:
        if shared_grid:
            w_terms = w_samples[1:] + w_samples[:-1] if trapezoidal else w_samples[1:]
            step_in = np.matmul(solved[:, :, q:], w_terms.T)
        else:
            w_terms = (
                w_samples[:, 1:] + w_samples[:, :-1]
                if trapezoidal
                else w_samples[:, 1:]
            )
            step_in = np.matmul(solved[:, :, q:], w_terms.transpose(0, 2, 1))
    else:
        step_in = solved[:, :, q:]
    if z0 is not None:
        z = z0
    else:
        wq0 = wq[0] if shared_grid else wq[:, 0]
        z = _old_initial(gq, wq0, initial, basis, n_points, q)
    out = np.empty((n_points, n_steps + 1, rec_basis.shape[0]))
    out[:, 0] = z @ rec_basis.T
    for k in range(n_steps):
        z = z - fac * np.matmul(step_g, z[:, :, None])[:, :, 0] + step_in[:, :, k]
        out[:, k + 1] = z @ rec_basis.T
    return out


def _old_initial(gq, wq0, initial, basis, n_points, q):
    n = basis.shape[0]
    if isinstance(initial, np.ndarray):
        if initial.shape == (n,):
            z0 = basis[:, :q].T @ initial.astype(float)
            return np.broadcast_to(z0, (n_points, q)).copy()
        return initial.astype(float) @ basis[:, :q]
    if initial == "zero":
        return np.zeros((n_points, q))
    return prima._batch_dc_solve(gq, np.broadcast_to(wq0, (n_points, q)))


def _old_serve(template, columns, times, dt_eff, initial, rec_rows,
               estimates=True):
    trapezoidal = True
    gq, cq = template.reduce_many(columns)
    w_samples = template.structure.source_samples(times)
    bq = template.bq
    wq = w_samples @ bq.T
    basis = template.basis
    rec_basis = basis[np.asarray(rec_rows, dtype=np.intp)]
    z0 = None
    if isinstance(initial, str) and initial == "dc" and wq.ndim == 2:
        z0 = template.batch_dc_states(columns, wq[0])
    states = _old_recurrence(
        gq, cq, wq, dt_eff, trapezoidal, initial, basis, rec_basis,
        (w_samples, bq), z0,
    )
    if not estimates:
        return states, None
    est = np.full(states.shape[0], template.base_error)
    q2 = template.suborder()
    if q2 < template.order:
        states2 = _old_recurrence(
            gq[:, :q2, :q2], cq[:, :q2, :q2], wq[..., :q2], dt_eff,
            trapezoidal, initial, basis, rec_basis[:, :q2],
            (w_samples, bq[:q2]),
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = np.max(np.abs(states), axis=(1, 2))
            denom = np.where(denom > 0.0, denom, 1.0)
            defect = np.max(np.abs(states - states2), axis=(1, 2)) / denom
        est = np.maximum(est, defect)
    finite = np.all(np.isfinite(states), axis=(1, 2))
    return states, np.where(finite, est, np.inf)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

#: name -> (template builder, nominal values, varied (name, lo, hi) pairs,
#: recorded node, t_stop, steps, Krylov order).  The bus runs 3 steps with
#: 3 inputs, so its solve carries the per-step source terms; the others
#: carry the input columns (m = 1 < K).
BUS = BusSpec(
    n_lines=3, rt=200.0, lt=2e-8, ct=1e-12, cct=4e-13, km=0.4, rtr=50.0,
    cl=5e-14, n_segments=10,
)

CASES = {
    "bus": (
        lambda: build_bus_template(BUS, ("rise", "fall", "rise")),
        dict(rt=200.0, lt=2e-8, ct=1e-12, cct=4e-13, rtr=50.0, cl=5e-14),
        (("rt", 150.0, 260.0), ("cct", 3e-13, 5e-13)),
        BUS.output_node(1),
        3e-10,
        3,
        18,
    ),
    "ladder": (
        lambda: build_ladder_template(40, "PI", loaded=True),
        dict(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13),
        (("rt", 800.0, 1250.0), ("ct", 0.8e-12, 1.2e-12)),
        "n40",
        1.5e-9,
        30,
        14,
    ),
    "htree": (
        lambda: build_htree_template(2, 6),
        dict(rt=200.0, lt=2e-8, ct=2e-12, rtr=50.0, cl=2e-13),
        (("rt", 150.0, 260.0), ("cl", 1e-13, 3e-13)),
        htree_sink_nodes(2)[0],
        4e-10,
        25,
        12,
    ),
}

SIZES = (1, 15, 17, 256)


PROJECTIONS = ("krylov", "snapshot")
RECORDS = ("one", "several")


def _snapshots(template, nominal, varied, t_stop, n_samples=40):
    """Full-tier trajectories at the nominal point and the low and high
    corners of the varied box, as ``(n, 3 * n_samples)`` columns."""
    (g_name, g_lo, g_hi), (c_name, c_lo, c_hi) = varied
    points = [
        nominal,
        {**nominal, g_name: g_lo, c_name: c_lo},
        {**nominal, g_name: g_hi, c_name: c_hi},
    ]
    run = simulate_transient_batch(template, points, t_stop, t_stop / (n_samples - 1))
    return run.states.reshape(-1, run.states.shape[2]).T


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, nominal, varied, node, t_stop, steps, order = CASES[request.param]
    template = build()
    reduced = ReducedTemplate(template, order=order, params=nominal)
    snapshot = ReducedTemplate(
        template, order=order, params=nominal,
        snapshots=_snapshots(template, nominal, varied, t_stop),
    )
    structure = template.structure
    rows = np.asarray([structure.node_index[node]])
    # The probed node, the first and the last MNA row (a branch current).
    several = np.asarray([structure.node_index[node], 0, structure.size - 1])
    return dict(
        name=request.param, template=template, reduced=reduced,
        projections=dict(krylov=reduced, snapshot=snapshot),
        nominal=nominal, varied=varied, node=node, t_stop=t_stop,
        steps=steps, rows=rows, records=dict(one=rows, several=several),
    )


def _columns(case, n_points, seed=0):
    """A seeded batch: four values of the first varied parameter (so DC
    starts dedup as on grid sweeps), random values of the second."""
    rng = np.random.default_rng([seed, n_points])
    cols = {
        name: np.full(n_points, value) for name, value in case["nominal"].items()
    }
    (g_name, g_lo, g_hi), (c_name, c_lo, c_hi) = case["varied"]
    cols[g_name] = np.geomspace(g_lo, g_hi, 4)[np.arange(n_points) % 4]
    cols[c_name] = rng.uniform(c_lo, c_hi, n_points)
    return cols


def _grid(case, n_points, per_point):
    t_stop, steps = case["t_stop"], case["steps"]
    if not per_point:
        return np.linspace(0.0, t_stop, steps + 1), np.full(n_points, t_stop / steps)
    stops = t_stop * np.linspace(0.9, 1.1, n_points)
    times = np.stack([np.linspace(0.0, s, steps + 1) for s in stops])
    return times, stops / steps


def _serve(fn, case, n_points, per_point, initial, estimates,
           projection="krylov", record="one"):
    times, dt_eff = _grid(case, n_points, per_point)
    return fn(
        case["projections"][projection], _columns(case, n_points), times,
        dt_eff, initial, case["records"][record], estimates=estimates,
    )


def _split_bound(old_est):
    """A bound in the widest relative gap between sorted estimates, so the
    auto decision splits the batch without sitting near any estimate."""
    vals = np.unique(old_est[np.isfinite(old_est) & (old_est > 0)])
    if vals.size < 2:
        return None
    gaps = vals[1:] / vals[:-1]
    i = int(np.argmax(gaps))
    return float(np.sqrt(vals[i] * vals[i + 1])) if gaps[i] > 1.0 + 1e-5 else None


# ---------------------------------------------------------------------------
# Bit-for-bit states, estimates, decisions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_points", SIZES)
@pytest.mark.parametrize("per_point", [False, True], ids=["shared", "per_point"])
@pytest.mark.parametrize("initial", ["zero", "dc"])
@pytest.mark.parametrize("record", RECORDS)
@pytest.mark.parametrize("projection", PROJECTIONS)
def test_serve_matches_two_solve_path(case, n_points, per_point, initial,
                                      record, projection):
    args = (case, n_points, per_point, initial)
    where = dict(projection=projection, record=record)
    new_red, none = _serve(
        prima.reduced_transient_batch, *args, estimates=False, **where
    )
    old_red, _ = _serve(_old_serve, *args, estimates=False, **where)
    assert none is None
    assert np.array_equal(new_red, old_red)

    new, new_est = _serve(prima.reduced_transient_batch, *args, estimates=True, **where)
    old, old_est = _serve(_old_serve, *args, estimates=True, **where)
    new_est = _fold_estimates(case["projections"][projection], new, new_est)
    assert np.array_equal(new, old)
    assert np.array_equal(new, new_red)
    assert np.all(np.isfinite(old_est))
    np.testing.assert_allclose(new_est, old_est, rtol=1e-7, atol=0.0)
    bounds = [rom_pkg.DEFAULT_ERROR_BOUND, _split_bound(old_est)]
    for bound in (b for b in bounds if b is not None):
        assert np.array_equal(new_est <= bound, old_est <= bound)


@pytest.mark.parametrize("model", ["reduced", "auto"])
@pytest.mark.parametrize("n_points", [15, 17])
def test_dispatch_serves_same_states(monkeypatch, model, n_points):
    """Through ``simulate_transient_batch`` (snapshot-enriched projection,
    auto fallbacks on the full tier): same states, same decisions."""
    template = build_ladder_template(140, "PI", loaded=True)
    assert template.structure.size > rom_pkg.ROM_SIZE_CUTOFF
    rng = np.random.default_rng(n_points)
    points = [
        dict(rt=1000.0 * s, lt=1e-6, ct=1e-12 * c, rtr=100.0, cl=1e-13)
        for s, c in zip(rng.uniform(0.7, 1.4, n_points), rng.uniform(0.8, 1.2, n_points))
    ]
    seen = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            states, est = fn(*args, **kwargs)
            if est is not None:
                seen[name] = _fold_estimates(args[0], states, est)
            return states, est
        return wrapped

    def run(name, fn):
        monkeypatch.setattr(rom_pkg, "reduced_transient_batch", spy(name, fn))
        return simulate_transient_batch(
            template, points, 3e-9, 3e-9 / 60, record=["n140"], model=model,
            rom_error_bound=1e-3,
        )

    new = run("new", prima.reduced_transient_batch)
    old = run("old", _old_serve)
    assert np.array_equal(new.states, old.states)
    if model == "auto":
        np.testing.assert_allclose(seen["new"], seen["old"], rtol=1e-7, atol=0.0)
        assert np.array_equal(seen["new"] <= 1e-3, seen["old"] <= 1e-3)


def test_dispatch_per_point_grids_on_corner_union(monkeypatch):
    """Per-point grids project onto a corner-Krylov union (q = 140 of 423
    unknowns here) whose pencils are conditioned near 1e14: there both
    suborder solutions -- bordered or direct -- sit at that conditioning
    floor, about 1e-4 apart (measured 1.1e-4), so only a loose estimate
    tolerance holds.  States stay bit-identical and the default-bound
    decisions unchanged."""
    template = build_ladder_template(140, "PI", loaded=True)
    rng = np.random.default_rng(0)
    points = [
        dict(rt=1000.0 * s, lt=1e-6, ct=1e-12 * c, rtr=100.0, cl=1e-13)
        for s, c in zip(rng.uniform(0.7, 1.4, 24), rng.uniform(0.8, 1.2, 24))
    ]
    t_stop = 3e-9 * np.linspace(0.9, 1.1, 24)
    seen = {}
    results = {}
    for name, fn in (("new", prima.reduced_transient_batch), ("old", _old_serve)):
        def spy(*args, _fn=fn, _name=name, **kwargs):
            states, est = _fn(*args, **kwargs)
            seen[_name] = _fold_estimates(args[0], states, est)
            return states, est

        monkeypatch.setattr(rom_pkg, "reduced_transient_batch", spy)
        results[name] = simulate_transient_batch(
            template, points, t_stop, t_stop / 60, record=["n140"], model="auto"
        )
    assert np.array_equal(results["new"].states, results["old"].states)
    np.testing.assert_allclose(seen["new"], seen["old"], rtol=1e-2, atol=0.0)
    bound = rom_pkg.DEFAULT_ERROR_BOUND
    assert np.array_equal(seen["new"] <= bound, seen["old"] <= bound)


# ---------------------------------------------------------------------------
# The bordering identity and the solve count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("projection", PROJECTIONS)
def test_bordered_suborder_matches_direct_solve(case, projection):
    reduced = case["projections"][projection]
    gq, cq = reduced.reduce_many(_columns(case, 17))
    q = reduced.order
    bq = reduced.bq
    weight = 2.0 / (case["t_stop"] / case["steps"])
    lhs = gq + weight * cq
    rhs = np.concatenate(
        [gq, np.broadcast_to(bq, (17,) + bq.shape), np.zeros((17, q, 1))], axis=2
    )
    rhs[:, -1, -1] = 1.0
    sub = prima._drop_last_direction(np.linalg.solve(lhs, rhs), rhs.shape[2] - 1)
    direct = np.linalg.solve(
        lhs[:, : q - 1, : q - 1],
        np.concatenate([gq[:, : q - 1, : q - 1], rhs[:, : q - 1, q:-1]], axis=2),
    )
    got = np.concatenate([sub[:, :, : q - 1], sub[:, :, q:]], axis=2)
    scale = np.max(np.abs(direct), axis=(1, 2))
    assert np.all(np.max(np.abs(got - direct), axis=(1, 2)) <= 1e-9 * scale)


def _count_stacked_solves(monkeypatch):
    """Record the stack depth of every multi-column ``np.linalg.solve``
    (the transient pencils; DC starts solve one column)."""
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        if np.ndim(a) == 3 and np.shape(b)[-1] > 1:
            calls.append(np.shape(a)[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


@pytest.mark.parametrize("n_points", SIZES)
def test_one_stacked_solve_per_block(monkeypatch, case, n_points):
    calls = _count_stacked_solves(monkeypatch)
    _serve(_old_serve, case, n_points, False, "dc", True)
    assert calls == [n_points, n_points]  # one per order, whole batch
    calls.clear()
    _serve(prima.reduced_transient_batch, case, n_points, False, "dc", True)
    blocks = prima._serve_blocks(n_points)
    assert len(calls) == len(blocks)
    assert sum(calls) == n_points  # one factorization per point
    assert max(calls) <= prima._SERVE_BLOCK + 1


@pytest.mark.parametrize("n_points", [1, 2, 15, 16, 17, 31, 33, 256, 257])
def test_serve_blocks_cover_points_without_lone_tail(n_points):
    blocks = prima._serve_blocks(n_points)
    sizes = [b.stop - b.start for b in blocks]
    assert blocks[0].start == 0 and blocks[-1].stop == n_points
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert 1 not in sizes or n_points == 1


# ---------------------------------------------------------------------------
# Error contract: a singular suborder pencil
# ---------------------------------------------------------------------------


class _PencilTemplate(ReducedTemplate):
    """A hand-built order-3 reduced template: point ``j``'s pencil is

        G = [[a_j, 0, 1], [0, 1, 0], [-1, 0, 1]],   C = diag(0, 1, 1),

    so ``G + w C`` is invertible for every ``w`` while its leading
    ``2 x 2`` block is singular exactly when ``a_j = 0``.  No projection
    is built: the attributes the serve reads are set directly, over a
    one-source structure whose one parameter is ``a``."""

    def __init__(self):
        q = 3
        circuit = Circuit()
        circuit.add_voltage_source("V1", "in", "0", Step(0.0, 1.0))
        circuit.add_resistor("R1", "in", "0", Param("a"))
        self._structure = build_mna_structure(circuit)
        self._basis = np.eye(q)
        self._signs = np.ones(q)
        self._bq = np.asarray([[1.0], [1.0], [0.0]])
        self._moment_error = 0.0
        self._snapshot_enriched = False

    def reduce_many(self, columns):
        a = np.asarray(columns["a"], dtype=float)
        gq = np.broadcast_to(
            np.asarray([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]),
            (a.size, 3, 3),
        ).copy()
        gq[:, 0, 0] = a
        cq = np.broadcast_to(np.diag([0.0, 1.0, 1.0]), (a.size, 3, 3)).copy()
        return gq, cq


def test_singular_suborder_gives_that_point_an_infinite_estimate():
    template = _PencilTemplate()
    columns = {"a": np.asarray([1.0, 0.0, 2.0])}
    times = np.linspace(0.0, 1.0, 11)
    dt_eff = np.full(3, 0.1)
    rows = np.arange(3)
    with pytest.raises(SimulationError, match="singular"):
        _old_serve(template, columns, times, dt_eff, "zero", rows)
    with np.errstate(all="raise"):  # no stray warnings either
        states, defect = prima.reduced_transient_batch(
            template, columns, times, dt_eff, "zero", rows
        )
        est = _fold_estimates(template, states, defect)
    assert np.all(np.isfinite(states))
    assert est[1] == np.inf
    assert np.all(np.isfinite(est[[0, 2]]))


def test_nonfinite_estimate_falls_back_that_point_only(monkeypatch):
    """An infinite estimate sends exactly its point to the full tier."""
    template = build_ladder_template(140, "PI", loaded=True)
    points = [
        dict(rt=1000.0 * s, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)
        for s in (0.8, 0.9, 1.0, 1.1, 1.25)
    ]
    kwargs = dict(record=["n140"], rom_error_bound=1.0)
    serve = prima.reduced_transient_batch

    def one_singular(*args, **kw):
        states, est = serve(*args, **kw)
        est[2] = np.inf
        return states, est

    reduced = simulate_transient_batch(
        template, points, 3e-9, 5e-11, model="reduced", **kwargs
    )
    full = simulate_transient_batch(template, points, 3e-9, 5e-11, **kwargs)
    monkeypatch.setattr(rom_pkg, "reduced_transient_batch", one_singular)
    auto = simulate_transient_batch(
        template, points, 3e-9, 5e-11, model="auto", **kwargs
    )
    assert np.array_equal(auto.states[2], full.states[2])
    keep = [0, 1, 3, 4]
    assert np.array_equal(auto.states[keep], reduced.states[keep])


def test_diverging_reduced_point_falls_back_without_warnings():
    """A point whose order-``q`` recurrence overflows warns nothing.

    On this ladder grid one point's reduced recurrence diverges; the
    serve maps it to an infinite estimate and the full tier answers it,
    and no ``RuntimeWarning`` escapes the recurrence on the way.
    """
    from itertools import product

    from repro.core.canonical import DriverLineLoad
    from repro.core.simulate import simulated_delay_50_batch

    rts = (1338.1813243678855, 1918.84923453283)
    lts = (2.76553223350331e-07, 2.842571072192e-07,
           3.8645751097360783e-07, 8.952230593947408e-07)
    cl_values = (5.727843623447286e-13, 6.957747376869266e-13)
    lines = [
        DriverLineLoad(rt=rt, lt=lt, ct=1e-12, rtr=500.0, cl=cl)
        for rt, lt, cl in product(rts, lts, cl_values)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        auto = simulated_delay_50_batch(
            lines, route="mna", model="auto", n_samples=1001
        )
    full = simulated_delay_50_batch(lines, route="mna", model="full", n_samples=1001)
    assert np.all(np.isfinite(auto))
    np.testing.assert_allclose(auto, full, rtol=2e-3)


def test_bad_initial_still_rejected(case):
    with pytest.raises(ParameterError, match="initial must be"):
        _serve(prima.reduced_transient_batch, case, 3, False, "warm", True)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model, suborder", [("auto", True), ("reduced", False)])
def test_serve_spans(model, suborder):
    template = build_ladder_template(140, "PI", loaded=True)
    points = [
        dict(rt=1000.0 * s, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)
        for s in np.linspace(0.8, 1.25, 20)
    ]
    obs.reset()
    obs.enable()
    try:
        simulate_transient_batch(
            template, points, 3e-9, 5e-11, record=["n140"], model=model,
            rom_error_bound=1.0,
        )
        (root,) = [s for s in obs.trace_roots() if s.name == "transient.batch"]
    finally:
        obs.disable()
        obs.reset()
    names = [c.name for c in root.children]
    assert names.count("rom.reduce_many") == 2
    assert names.count("rom.recurrence") == 2
    order = root.attrs["order"]
    for child in root.children:
        if child.name in ("rom.reduce_many", "rom.recurrence"):
            assert child.attrs == dict(
                order=order, suborder=order - 1 if suborder else 0, blocks=2
            )
