"""Scalar transient, AC and delay queries are batches of one.

:func:`repro.spice.transient.simulate_transient` and
:func:`repro.spice.ac.ac_sweep` return row 0 of
:func:`~repro.spice.transient.simulate_transient_batch` /
:func:`~repro.spice.ac.ac_sweep_batch` over the circuit's structure, and
every reduced/auto tier decision goes through
:func:`repro.rom.model.serve_tiered`.  These tests pin that:

- full-tier ``times``/``states`` are ``==`` to frozen copies of the
  scalar loops the batch of one replaced, over PI/L/T ladders, a 4-line
  bus, the ``tests/netlists`` corpus (controlled sources included) and
  H-tree/fanout/mesh circuits, on every backend, from ``dc`` and
  ``zero`` starts, on windows the step divides and on clamped ones, and
  for recorded row subsets;
- ``simulated_delay_50(route="mna")`` equals the batch entry point bit
  for bit, and the full-window scalar path to ~1e-13;
- ``model="auto"`` AC folds each point's exact probe residual into its
  estimate, so a point whose residual exceeds the bound falls back even
  when its suborder defect does not;
- a reduced transient serve that raises falls back under ``"auto"`` and
  raises under ``"reduced"``;
- the MNA front half is one path too: ``revalue`` is a row of
  ``revalue_many`` (and equal to a frozen copy of the scalar
  revaluation it replaced), ``dc_operating_point`` equals the transient
  batch's ``initial="dc"`` start, ``rhs(t)`` is the scattered source
  samples, and every batch entry point raises one text for a bad batch.
"""

from __future__ import annotations

import functools
import pathlib

import numpy as np
import pytest

from repro import obs
from repro import rom as rom_pkg
from repro.bus.builder import build_bus_circuit, build_bus_template
from repro.bus.spec import BusSpec
from repro.core.canonical import DriverLineLoad
from repro.core.simulate import (
    _time_window,
    simulated_delay_50,
    simulated_delay_50_batch,
)
from repro.errors import NetlistError, ParameterError, SimulationError
from repro.rom.prima import ReducedTemplate
from repro.spice.ac import ac_sweep, ac_sweep_batch
from repro.spice.backend import resolve_backend
from repro.spice.dc import dc_operating_point
from repro.spice.ladder import (
    LadderSpec,
    build_ladder_circuit,
    build_ladder_template,
)
from repro.spice.mna import CircuitTemplate, _key_value, build_mna_structure
from repro.spice.netlist import (
    Capacitor,
    Circuit,
    Param,
    ParamAffine,
    Resistor,
    Step,
    VoltageSource,
)
from repro.spice.parser import parse_netlist_file, suggest_transient_window
from repro.spice.transient import simulate_transient, simulate_transient_batch
from repro.topology import (
    FanoutTreeSpec,
    HTreeSpec,
    MeshSpec,
    build_fanout_circuit,
    build_htree_circuit,
    build_htree_template,
    build_mesh_circuit,
    build_mesh_template,
)

from mna_matrices import combine, triplets

NETLIST_DIR = pathlib.Path(__file__).parent / "netlists"
BACKENDS = ["dense", "sparse", "banded", "auto"]
LINE = dict(rt=200.0, lt=5e-8, ct=1e-12, rtr=50.0, cl=1e-13)

# ---------------------------------------------------------------------------
# Frozen copies of the scalar full-tier loops the batch of one replaced.
# ---------------------------------------------------------------------------


def _old_transient(circuit, t_stop, dt, initial="dc", backend="auto"):
    structure, g_coo, c_coo = triplets(circuit)
    size = structure.size
    n_steps = max(1, int(np.ceil((t_stop / dt) * (1.0 - 1e-12))))
    times = np.linspace(0.0, t_stop, n_steps + 1)
    dt_eff = t_stop / n_steps
    lhs = combine((1.0, g_coo), (2.0 / dt_eff, c_coo))
    history = combine((-1.0, g_coo), (2.0 / dt_eff, c_coo))
    backend = resolve_backend(backend, lhs)
    factorization = backend.factorize(lhs)
    history_op = history.to_csr()
    x = np.empty((n_steps + 1, size))
    if initial == "zero":
        x[0] = np.zeros(size)
    else:
        b0 = np.zeros(size)
        for row, sign, waveform in structure.source_rows:
            b0[row] += sign * waveform.value_at(0.0)
        x[0] = backend.factorize(g_coo).solve(b0)
    b_all = np.zeros((times.size, size))
    for row, sign, waveform in structure.source_rows:
        b_all[:, row] += sign * np.asarray(waveform(times), dtype=float)
    for k in range(n_steps):
        rhs = b_all[k + 1] + b_all[k] + history_op @ x[k]
        x[k + 1] = factorization.solve(rhs)
    return times, x


def _old_ac(circuit, omegas, input_source, backend="auto"):
    structure, g_coo, c_coo = triplets(circuit)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    b = np.zeros(structure.size, dtype=complex)
    b[structure.current_row(input_source)] = 1.0
    pattern = combine((1.0, g_coo), (1.0j, c_coo))
    backend = resolve_backend(backend, pattern)
    factorizer = backend.factorizer(pattern)
    g_data = g_coo.data.astype(complex)
    c_data = c_coo.data
    states = np.empty((omegas.size, structure.size), dtype=complex)
    for k, w in enumerate(omegas):
        data = np.concatenate([g_data, 1j * w * c_data])
        states[k] = factorizer.refactorize(data).solve(b)
    return states


# ---------------------------------------------------------------------------
# The circuit corpus
# ---------------------------------------------------------------------------


def _ladder(topology, n):
    return build_ladder_circuit(
        LadderSpec(**LINE, n_segments=n, topology=topology)
    )


CIRCUITS = {
    **{
        f"ladder-{topology}-{n}": functools.partial(_ladder, topology, n)
        for topology in ("PI", "L", "T")
        for n in (20, 150, 300)
    },
    "bus-4": lambda: build_bus_circuit(
        BusSpec(
            n_lines=4, rt=100.0, lt=25e-9, ct=2e-12, cct=1e-12, km=0.5,
            rtr=50.0, cl=5e-14, n_segments=10,
        ),
        "rise",
    ),
    **{
        f"netlist-{name}": functools.partial(
            lambda name: parse_netlist_file(NETLIST_DIR / name).bind(), name
        )
        for name in (
            "rc_ladder.cir", "rlc_param.cir", "sources_zoo.cir",
            "wires_short.cir",
        )
    },
    "htree": lambda: build_htree_circuit(HTreeSpec(
        levels=2, rt=200.0, lt=2e-8, ct=2e-12, rtr=50.0, cl=2e-13,
        n_segments=4,
    )),
    "fanout": lambda: build_fanout_circuit(FanoutTreeSpec(
        fanout=3, brt=150.0, blt=1.5e-8, bct=1.5e-12, rtr=40.0, cl=1e-13,
        rt=100.0, lt=1e-8, ct=1e-12, trunk_segments=4, branch_segments=4,
    )),
    "mesh": lambda: build_mesh_circuit(MeshSpec(
        rows=3, cols=4, r_edge=20.0, rtr=25.0, l_edge=5e-10, c_node=5e-14,
        cl=2e-13,
    )),
}


@functools.lru_cache(maxsize=None)
def _case(name):
    circuit = CIRCUITS[name]()
    t_stop, dt = suggest_transient_window(circuit, n_samples=120)
    return circuit, t_stop, dt


def _first_vsource(circuit):
    return next(
        e.name for e in circuit.elements if isinstance(e, VoltageSource)
    )


# ---------------------------------------------------------------------------
# Full tier: bit-identical to the frozen scalar loops
# ---------------------------------------------------------------------------


#: ``dt`` multipliers: the suggested step divides the window exactly; a
#: 1.37x step does not, so the step count rounds up and the step shrinks.
GRIDS = {"divisible": 1.0, "clamped": 1.37}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("initial", ["dc", "zero"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_transient_matches_frozen_scalar_loop(name, backend, initial, grid):
    circuit, t_stop, dt = _case(name)
    dt = dt * GRIDS[grid]
    times, states = _old_transient(
        circuit, t_stop, dt, initial=initial, backend=backend
    )
    result = simulate_transient(circuit, t_stop, dt, initial=initial, backend=backend)
    assert np.array_equal(result.times, times)
    assert np.array_equal(result.states, states)


@pytest.mark.parametrize("initial", ["dc", "zero"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_recorded_rows_match_frozen_scalar_loop(name, backend, initial):
    # Every third MNA row, last first: the gather must map each request
    # through the backend's stepping order (RCM on banded) and keep the
    # order asked for.
    circuit, t_stop, dt = _case(name)
    structure = build_mna_structure(circuit)
    rows = list(range(structure.size))[::-3]
    times, states = _old_transient(
        circuit, t_stop, dt, initial=initial, backend=backend
    )
    result = simulate_transient_batch(
        structure, {}, t_stop, dt, initial=initial, backend=backend, record=rows
    )
    assert result.recorded_rows == tuple(rows)
    assert np.array_equal(result.times, times)
    assert np.array_equal(result.states[0], states[:, rows])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_ac_matches_frozen_scalar_loop(name, backend):
    circuit, _, _ = _case(name)
    source = _first_vsource(circuit)
    omegas = np.concatenate([[0.0], np.geomspace(1e6, 1e11, 11)])
    result = ac_sweep(circuit, omegas, input_source=source, backend=backend)
    reference = _old_ac(circuit, omegas, source, backend)
    assert np.array_equal(result.states, reference)


def test_results_index_through_the_circuit_structure():
    circuit, t_stop, dt = _case("netlist-sources_zoo.cir")
    fresh = build_mna_structure(circuit)
    result = simulate_transient(circuit, t_stop, dt)
    ac = ac_sweep(circuit, [1e8], input_source="V1")
    for structure in (result.structure, ac.structure):
        assert structure.node_index == fresh.node_index
        assert structure.branch_index == fresh.branch_index
        for data, fresh_data in zip(structure.revalue(), fresh.revalue()):
            assert np.array_equal(data, fresh_data)
    out, branch = fresh.voltage_row("out"), fresh.current_row("V1")
    assert np.array_equal(result.voltage("out").values, result.states[:, out])
    assert np.array_equal(result.current("V1").values, result.states[:, branch])
    assert np.array_equal(ac.voltage("out"), ac.states[:, out])
    assert np.array_equal(ac.current("V1"), ac.states[:, branch])
    for lookup in (result.voltage, ac.voltage):
        with pytest.raises(NetlistError, match="unknown node 'nope'"):
            lookup("nope")
    for lookup in (result.current, ac.current):
        with pytest.raises(NetlistError, match="element 'R1' has no branch current"):
            lookup("R1")


def test_param_slot_circuits_rejected():
    circuit = Circuit()
    circuit.add(VoltageSource("V1", "in", "0", 1.0))
    circuit.add(Resistor("R1", "in", "out", Param("r")))
    circuit.add(Capacitor("C1", "out", "0", 1e-12))
    with pytest.raises(NetlistError, match="unbound parameters"):
        simulate_transient(circuit, 1e-9, 1e-11)
    with pytest.raises(NetlistError, match="unbound parameters"):
        ac_sweep(circuit, [1e8])
    with pytest.raises(NetlistError, match="unbound parameters"):
        dc_operating_point(circuit)


# ---------------------------------------------------------------------------
# Scalar MNA delay = batch of one
# ---------------------------------------------------------------------------


def _random_lines(seed, count):
    rng = np.random.default_rng(seed)
    return [
        DriverLineLoad(
            rt=float(rng.uniform(50, 2000)),
            lt=float(10 ** rng.uniform(-9, -6)),
            ct=float(rng.uniform(0.2e-12, 2e-12)),
            rtr=float(rng.uniform(20, 500)),
            cl=float(rng.choice([0.0, rng.uniform(1e-14, 5e-13)])),
        )
        for _ in range(count)
    ]


def test_scalar_mna_delay_is_the_batch_entry_point():
    lines = _random_lines(3, 8)
    kwargs = dict(route="mna", n_segments=40, n_samples=601)
    scalar = np.asarray([simulated_delay_50(line, **kwargs) for line in lines])
    assert np.array_equal(scalar, simulated_delay_50_batch(lines, **kwargs))
    for line, t50 in zip(lines, scalar):
        assert simulated_delay_50_batch([line], **kwargs)[0] == t50


def test_scalar_mna_delay_matches_full_window_run():
    # Template revaluation against concrete stamps: ulp-level moves only.
    for line in _random_lines(11, 6):
        spec = line.ladder(n_segments=40)
        span = _time_window(line, 12.0)
        result = simulate_transient(
            build_ladder_circuit(spec), span, dt=span / 600
        )
        reference = result.voltage(spec.output_node).delay_50(v_final=1.0)
        t50 = simulated_delay_50(
            line, route="mna", n_segments=40, n_samples=601
        )
        assert abs(t50 - reference) <= 1e-12 * reference


# ---------------------------------------------------------------------------
# One tier policy: checks that the scalar paths had and the batch lacked
# ---------------------------------------------------------------------------


@pytest.fixture
def _captured():
    with obs.capture():
        yield
    obs.reset()
    obs.disable()


def _selections():
    entries = obs.REGISTRY.snapshot()["counters"].get("rom.model_selected", [])
    return {
        (entry["labels"]["model"], entry["labels"]["rule"]): entry["value"]
        for entry in entries
    }


#: An RC-dominated 150-segment ladder (n > ROM_SIZE_CUTOFF) swept far
#: past its bandwidth at q = 12.  The suborder defect is relative to the
#: large low-frequency response and reads about 0.04; the exact residual
#: at the high probe frequencies reads about 0.34.  The bound sits
#: between them.
AC_LINE = dict(rt=1000.0, lt=1e-8, ct=1e-12, rtr=500.0, cl=5e-13)
AC_OMEGAS = np.geomspace(1e5, 1e12, 15)
AC_KW = dict(rom_order=12, rom_error_bound=0.1)


def _ac_queries():
    """The AC case as a scalar query and as a one-point template batch."""
    circuit = build_ladder_circuit(LadderSpec(**AC_LINE, n_segments=150))
    template = build_ladder_template(150, "PI", loaded=True)
    return (
        lambda **kw: ac_sweep(circuit, AC_OMEGAS, **kw).states,
        lambda **kw: ac_sweep_batch(
            template, [AC_LINE], AC_OMEGAS, **kw
        ).states[0],
    )


@pytest.mark.parametrize("query", [0, 1], ids=["scalar", "batch"])
def test_ac_auto_falls_back_on_probe_residual(_captured, monkeypatch, query):
    run = _ac_queries()[query]
    full = run()
    assert np.array_equal(run(model="auto", **AC_KW), full)
    assert _selections() == {("full", "auto-error-fallback"): 1.0}

    # Without the residual term the same point is served reduced: its
    # moment error and suborder defect stay within the bound.
    obs.reset()
    monkeypatch.setattr(
        ReducedTemplate, "ac_residuals",
        lambda self, row, omegas, z, g_csr, c_csr: np.zeros(len(omegas)),
    )
    assert not np.array_equal(run(model="auto", **AC_KW), full)
    assert _selections() == {("reduced", "auto-within-bound"): 1.0}


def _failing_serve(*args, **kwargs):
    raise SimulationError("singular reduced transient system matrix in batch")


def test_transient_serve_error_falls_back_under_auto(_captured, monkeypatch):
    circuit, t_stop, dt = _case("ladder-PI-150")
    template = build_ladder_template(150, "PI", loaded=True)
    points = [dict(LINE, rt=LINE["rt"] * s) for s in (0.8, 1.0, 1.25)]
    full = simulate_transient(circuit, t_stop, dt)
    full_batch = simulate_transient_batch(template, points, t_stop, dt)
    monkeypatch.setattr(rom_pkg, "reduced_transient_batch", _failing_serve)
    auto = simulate_transient(circuit, t_stop, dt, model="auto", rom_order=8)
    assert np.array_equal(auto.states, full.states)
    auto_batch = simulate_transient_batch(
        template, points, t_stop, dt, model="auto", rom_order=8
    )
    assert np.array_equal(auto_batch.states, full_batch.states)
    assert _selections() == {("full", "auto-error-fallback"): 4.0}
    with pytest.raises(SimulationError, match="singular reduced"):
        simulate_transient(circuit, t_stop, dt, model="reduced", rom_order=8)
    with pytest.raises(SimulationError, match="singular reduced"):
        simulate_transient_batch(
            template, points, t_stop, dt, model="reduced", rom_order=8
        )


# ---------------------------------------------------------------------------
# The MNA front half: revaluation, DC start and source sampling
# ---------------------------------------------------------------------------


def _coupled_template():
    """Mutuals over parametric and concrete inductors, and affine shunts.

    ``K12`` couples two parametric inductors (a ``sqrtprod`` key),
    ``K23`` a parametric and a concrete one (``sqrt``), and ``C1``/``C2``
    are :class:`~repro.spice.netlist.ParamAffine` values, one with a
    constant part.
    """
    circuit = Circuit("coupled")
    circuit.add_voltage_source("V1", "in", "0", Step(0.0, 1.0, 1e-11))
    circuit.add_resistor("R1", "in", "a", Param("r"))
    circuit.add_inductor("L1", "a", "b", Param("la"))
    circuit.add_inductor("L2", "b", "c", Param("lb", 0.5))
    circuit.add_inductor("L3", "c", "out", 2e-9)
    circuit.add_mutual_inductance("K12", "L1", "L2", 0.3)
    circuit.add_mutual_inductance("K23", "L2", "L3", 0.2)
    circuit.add_capacitor("C1", "b", "0", Param("c", 0.5) + 1e-13)
    circuit.add_capacitor("C2", "out", "0", Param("c") + Param("cl"))
    circuit.add_resistor("R2", "out", "0", 1e4)
    return CircuitTemplate(circuit)


TEMPLATES = {
    "ladder": lambda: build_ladder_template(20, "PI", loaded=True),
    "bus": lambda: build_bus_template(
        BusSpec(
            n_lines=4, rt=100.0, lt=25e-9, ct=2e-12, cct=1e-12, km=0.5,
            rtr=50.0, cl=5e-14, n_segments=10,
        ),
        "rise",
    ),
    "htree": lambda: build_htree_template(2, n_segments=4),
    "mesh": lambda: build_mesh_template(3, 4, inductive=True, loaded=True),
    "coupled": _coupled_template,
    **{
        f"netlist-{path.name}": functools.partial(
            lambda path: parse_netlist_file(path).template(), path
        )
        for path in sorted(NETLIST_DIR.glob("*.cir"))
        if parse_netlist_file(path).is_parametric
    },
}


def _random_columns(template, n_points, seed):
    """Positive values around each default (around 1 without one)."""
    rng = np.random.default_rng(seed)
    defaults = template.defaults
    return {
        name: defaults.get(name, 1.0) * rng.uniform(0.5, 2.0, n_points)
        for name in template.param_names
    }


def _old_scalar_data(plan, point):
    """Frozen copy of the scalar revaluation ``revalue`` used to run."""

    def get(name):
        return np.float64(point[name])

    out = plan.const.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for key, idx, coeffs in plan.groups:
            out[idx] += coeffs * _key_value(key, get)
    return out


def test_templates_cover_every_value_key():
    kinds = set()
    for name in TEMPLATES:
        structure = TEMPLATES[name]().structure
        for plan in (structure.g_plan, structure.c_plan):
            kinds |= {key[0] for key, _idx, _coeffs in plan.groups}
    assert kinds == {"lin", "inv", "sqrt", "sqrtprod"}
    affine = [
        e.value for e in _coupled_template().circuit.elements
        if isinstance(getattr(e, "value", None), ParamAffine)
    ]
    assert [a.const for a in affine] == [1e-13, 0.0]


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_revalue_is_a_row_of_revalue_many(name):
    structure = TEMPLATES[name]().structure
    columns = _random_columns(TEMPLATES[name](), 5, seed=len(name))
    g_many, c_many = structure.revalue_many(columns)
    for j in range(5):
        point = {key: float(col[j]) for key, col in columns.items()}
        g_data, c_data = structure.revalue(point)
        assert np.array_equal(g_data, g_many[j])
        assert np.array_equal(c_data, c_many[j])
        assert np.array_equal(g_data, _old_scalar_data(structure.g_plan, point))
        assert np.array_equal(c_data, _old_scalar_data(structure.c_plan, point))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_dc_operating_point_is_the_transient_dc_start(name, backend):
    template = TEMPLATES[name]()
    point = {
        key: float(col[0])
        for key, col in _random_columns(template, 1, seed=7).items()
    }
    dc = dc_operating_point(template.bind(point), backend=backend)
    batch = simulate_transient_batch(
        template, [point], 1e-9, 5e-10, initial="dc", backend=backend
    )
    assert np.array_equal(dc.vector, batch.states[0, 0])


def test_rhs_is_the_scattered_source_samples():
    structure = build_mna_structure(_case("netlist-sources_zoo.cir")[0])
    times = np.linspace(0.0, 3e-9, 37)
    samples = structure.source_samples(times)
    assert samples.shape == (times.size, len(structure.source_rows))
    per_point = np.stack([times, times[::-1]])
    for s, (_row, _sign, waveform) in enumerate(structure.source_rows):
        # Frozen copy of the reduced serve's old source matrix.
        assert np.array_equal(samples[:, s], waveform(times))
        assert np.array_equal(
            structure.source_samples(per_point)[..., s], waveform(per_point)
        )
    rows, b_rows = structure.source_rhs(times)
    for k, t in enumerate(times):
        scattered = np.zeros(structure.size)
        old = np.zeros(structure.size)
        for s, (row, sign, waveform) in enumerate(structure.source_rows):
            scattered[row] += sign * samples[k, s]
            old[row] += sign * waveform.value_at(t)  # the old rhs(t) loop
        b = np.zeros(structure.size)
        b[rows] = b_rows[k]
        assert np.array_equal(b, scattered)
        assert np.array_equal(scattered, old)
        if t == 0.0:
            assert np.array_equal(structure.rhs(), scattered)


def test_every_batch_entry_point_raises_one_text():
    template = build_ladder_template(20, "PI", loaded=True)
    structure = template.structure
    source = _first_vsource(template.circuit)
    reduced = ReducedTemplate(template, order=4, params=LINE)
    calls = {
        "transient": lambda p: simulate_transient_batch(structure, p, 1e-9, 1e-10),
        "ac": lambda p: ac_sweep_batch(structure, p, [1e8], input_source=source),
        "revalue_many": structure.revalue_many,
        "reduce_many": reduced.reduce_many,
    }
    cases = {
        "missing": (
            {k: v for k, v in LINE.items() if k != "rt"},
            "missing parameter value(s): ['rt']",
        ),
        "unknown": (
            {**LINE, "bogus": 1.0},
            "unknown parameter(s) ['bogus']; this structure has",
        ),
        "mismatched": (
            {**LINE, "rt": [100.0, 200.0], "lt": [1e-8, 2e-8, 3e-8]},
            "parameter columns have mismatched lengths [2, 3]",
        ),
    }
    for params, expected in cases.values():
        texts = set()
        for call in calls.values():
            with pytest.raises(ParameterError) as info:
                call(params)
            texts.add(str(info.value))
        assert len(texts) == 1
        assert expected in texts.pop()


@pytest.mark.parametrize("model", ["full", "reduced", "auto"])
@pytest.mark.parametrize("name", ["ladder-PI-150", "netlist-rc_ladder.cir"])
def test_points_without_parameters_are_points(name, model):
    """``B`` point mappings over a structure without parameters are ``B``
    points: every batch entry point returns ``B`` equal rows, each the
    one-point run to the batch paths' 1e-12 (a stacked solve or a
    three-row product may round differently from a one-point one)."""
    circuit, t_stop, dt = _case(name)
    structure = build_mna_structure(circuit)
    assert not structure.param_names
    kwargs = dict(model=model, rom_order=8)

    def same(batch, one):
        assert batch.n_points == 3
        for row in batch.states:
            assert np.array_equal(row, batch.states[0])
            np.testing.assert_allclose(
                row, one, rtol=0.0, atol=1e-12 * np.max(np.abs(one))
            )

    one = simulate_transient_batch(structure, [{}], t_stop, dt, **kwargs)
    stops = t_stop * np.ones(3)
    same(
        simulate_transient_batch(
            structure, [{}] * 3, stops, stops / one.n_steps, **kwargs
        ),
        one.states[0],
    )
    # Per-point windows: point 0 keeps the one-point window.
    stops = t_stop * np.array([1.0, 1.1, 1.2])
    batch = simulate_transient_batch(
        structure, [{}] * 3, stops, stops / one.n_steps, **kwargs
    )
    assert batch.n_points == 3 and batch.times.shape == (3, one.n_steps + 1)
    np.testing.assert_allclose(
        batch.states[0], one.states[0], rtol=0.0,
        atol=1e-12 * np.max(np.abs(one.states[0])),
    )
    source = _first_vsource(circuit)
    omegas = [1e8, 1e9]
    one = ac_sweep_batch(structure, [{}], omegas, input_source=source, **kwargs)
    same(
        ac_sweep_batch(structure, [{}] * 3, omegas, input_source=source, **kwargs),
        one.states[0],
    )
    for data, row in zip(structure.revalue_many([{}] * 3), structure.revalue()):
        assert data.shape[0] == 3
        assert all(np.array_equal(point, row) for point in data)


def test_bind_checks_names_like_a_batch_without_building_the_structure():
    circuit = build_ladder_template(20, "PI", loaded=True).circuit
    cases = ({k: v for k, v in LINE.items() if k != "rt"}, {**LINE, "bogus": 1.0})
    for params in cases:
        template = CircuitTemplate(circuit)
        with pytest.raises(ParameterError) as bound:
            template.bind(params)
        template.bind(LINE)
        assert "structure" not in template.__dict__
        with pytest.raises(ParameterError) as batch:
            simulate_transient_batch(template, params, 1e-9, 1e-10)
        assert str(bound.value) == str(batch.value)


def test_batch_results_share_one_recorded_rows_lookup():
    template = build_ladder_template(20, "PI", loaded=True)
    out = LadderSpec(**LINE, n_segments=20).output_node
    results = (
        simulate_transient_batch(template, [LINE] * 2, 1e-9, 1e-10, record=[out]),
        ac_sweep_batch(template, [LINE] * 2, [1e8, 1e9], record=[out]),
    )
    for result, dtype in zip(results, (float, complex)):
        assert result.n_points == 2
        assert np.array_equal(result.voltage(out), result.states[:, :, 0])
        ground = result.voltage("0")
        assert ground.dtype == dtype and not ground.any()
        assert ground.shape == result.states.shape[:2]
        with pytest.raises(ParameterError, match="was not recorded"):
            result.current(_first_vsource(template.circuit))
