"""Tests for the N-line coupled bus subsystem (repro.bus)."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.analysis.bus import (
    _default_window,
    analyze_bus,
    batch_delay_50,
    evenly_spread_shields,
    shield_tradeoff,
    simulate_bus,
)
from repro.bus import (
    BusSpec,
    LineSwitch,
    build_bus_circuit,
    even_pattern,
    odd_pattern,
    quiet_victim_pattern,
    solo_pattern,
)
from repro.errors import ParameterError
from repro.spice.netlist import Circuit, Step
from repro.spice.transient import simulate_transient
from repro.tline.waveform import first_crossing

SPEC3 = dict(
    rt=100.0, lt=25e-9, ct=2e-12, cct=1e-12, km=0.5,
    rtr=50.0, cl=5e-14, n_segments=6,
)


class TestPatterns:
    def test_even(self):
        assert even_pattern(3) == (LineSwitch.RISE,) * 3

    def test_odd(self):
        assert odd_pattern(3, 1) == (
            LineSwitch.FALL, LineSwitch.RISE, LineSwitch.FALL,
        )

    def test_quiet_victim(self):
        assert quiet_victim_pattern(3, 0) == (
            LineSwitch.QUIET, LineSwitch.RISE, LineSwitch.RISE,
        )

    def test_solo(self):
        assert solo_pattern(3, 2) == (
            LineSwitch.QUIET, LineSwitch.QUIET, LineSwitch.RISE,
        )

    def test_bad_victim_index(self):
        with pytest.raises(ParameterError):
            odd_pattern(3, 3)
        with pytest.raises(ParameterError):
            quiet_victim_pattern(3, -1)

    def test_normalize_broadcast_and_strings(self):
        spec = BusSpec(n_lines=2, **SPEC3)
        assert spec.normalized_pattern("rise") == (LineSwitch.RISE,) * 2
        assert spec.normalized_pattern(("fall", LineSwitch.HIGH)) == (
            LineSwitch.FALL, LineSwitch.HIGH,
        )

    def test_normalize_rejects_bad_entries(self):
        spec = BusSpec(n_lines=2, **SPEC3)
        with pytest.raises(ParameterError):
            spec.normalized_pattern(("rise",))
        with pytest.raises(ParameterError):
            spec.normalized_pattern(("rise", "wiggle"))


class TestBusSpec:
    def test_scalar_broadcast(self):
        spec = BusSpec(n_lines=3, **SPEC3)
        assert spec.rt == (100.0,) * 3
        assert spec.rtr == (50.0,) * 3

    def test_per_line_sequences(self):
        spec = BusSpec(
            n_lines=2, **{**SPEC3, "rt": (100.0, 200.0), "rtr": (50.0, 25.0)}
        )
        assert spec.rt == (100.0, 200.0)
        assert spec.rtr == (50.0, 25.0)

    def test_sequence_length_mismatch(self):
        with pytest.raises(ParameterError):
            BusSpec(n_lines=3, **{**SPEC3, "rt": (100.0, 200.0)})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"km": 1.0},
            {"cct": -1e-15},
            {"coupling_range": 0},
            {"cct_decay": 1.5},
            {"rtr_shield": 0.0},
            {"n_segments": 0},
            {"rtr": (50.0, 0.0)},
        ],
    )
    def test_domain_errors(self, overrides):
        with pytest.raises(ParameterError):
            BusSpec(n_lines=2, **{**SPEC3, **overrides})

    def test_bad_n_lines(self):
        with pytest.raises(ParameterError):
            BusSpec(n_lines=0, **SPEC3)

    def test_shield_slots(self):
        spec = BusSpec(n_lines=3, **SPEC3, shields=(1, 3))
        assert spec.n_physical == 5
        assert spec.signal_slots == (0, 2, 4)
        assert spec.slot_of_line(1) == 2
        assert spec.is_shield_slot(1) and not spec.is_shield_slot(2)
        assert spec.output_node(2) == "b4_6"

    def test_shield_slot_validation(self):
        with pytest.raises(ParameterError):
            BusSpec(n_lines=2, **SPEC3, shields=(0, 0))
        with pytest.raises(ParameterError):
            BusSpec(n_lines=2, **SPEC3, shields=(3,))

    def test_with_shields(self):
        spec = BusSpec(n_lines=4, **SPEC3)
        shielded = spec.with_shields((2,))
        assert shielded.shields == (2,)
        assert shielded.n_physical == 5
        assert spec.shields == ()

    def test_shield_rlc_defaults_to_mean(self):
        spec = BusSpec(
            n_lines=2, **{**SPEC3, "rt": (100.0, 300.0)}, shields=(1,)
        )
        assert spec.slot_rlc(1)[0] == pytest.approx(200.0)

    def test_shield_rlc_override(self):
        spec = BusSpec(
            n_lines=2, **SPEC3, shields=(1,), shield_rlc=(10.0, 1e-9, 1e-13)
        )
        assert spec.slot_rlc(1) == (10.0, 1e-9, 1e-13)

    def test_coupling_terms_nearest_neighbor(self):
        spec = BusSpec(n_lines=3, **SPEC3)
        terms = list(spec.coupling_terms())
        assert [(p, q) for p, q, _, _ in terms] == [(0, 1), (1, 2)]
        assert all(c == SPEC3["cct"] and k == SPEC3["km"] for _, _, c, k in terms)

    def test_coupling_terms_range_and_decay(self):
        spec = BusSpec(
            n_lines=3, **SPEC3, coupling_range=2, cct_decay=0.25, km_decay=0.5
        )
        terms = {(p, q): (c, k) for p, q, c, k in spec.coupling_terms()}
        assert set(terms) == {(0, 1), (1, 2), (0, 2)}
        c2, k2 = terms[(0, 2)]
        assert c2 == pytest.approx(0.25 * SPEC3["cct"])
        assert k2 == pytest.approx(0.5 * SPEC3["km"])


#: Victim behaviour of the legacy pair -> bus pattern (aggressor rises).
_MODE_PATTERNS = {
    "quiet": ("rise", "quiet"),
    "even": ("rise", "rise"),
    "odd": ("rise", "fall"),
}


def _legacy_coupled_circuit(
    spec: BusSpec, mode: str, v_step: float = 1.0
) -> Circuit:
    """The pre-bus two-line builder, frozen here as the reference.

    Copied from the original aggressor (``a``) / victim (``v``) pair
    builder, reading the pair's values off a two-line spec whose lines
    differ only in ``rtr``, so the bus builder stays pinned to the
    historical netlist.
    """
    n = spec.n_segments
    rt, lt, ct, cl = spec.rt[0], spec.lt[0], spec.ct[0], spec.cl[0]
    rtr_aggressor, rtr_victim = spec.rtr
    ckt = Circuit("legacy coupled pair")
    ckt.add_voltage_source("vina", "ina", "0", Step(0.0, v_step))
    ckt.add_resistor("rtra", "ina", "a0", rtr_aggressor)
    if mode == "quiet":
        victim_wave = Step(0.0, 0.0)
    elif mode == "even":
        victim_wave = Step(0.0, v_step)
    else:
        victim_wave = Step(v_step, 0.0)
    ckt.add_voltage_source("vinv", "inv", "0", victim_wave)
    ckt.add_resistor("rtrv", "inv", "v0", rtr_victim)
    r_seg, l_seg = rt / n, lt / n
    c_seg, cc_seg = ct / n, spec.cct / n
    for prefix in ("a", "v"):
        for i in range(n):
            ckt.add_resistor(
                f"r{prefix}{i + 1}", f"{prefix}{i}", f"x{prefix}{i + 1}", r_seg
            )
            ckt.add_inductor(
                f"l{prefix}{i + 1}", f"x{prefix}{i + 1}", f"{prefix}{i + 1}", l_seg
            )
    weights = [1.0] * (n + 1)
    weights[0] = weights[n] = 0.5
    for i, w in enumerate(weights):
        for prefix in ("a", "v"):
            ckt.add_capacitor(f"cg{prefix}{i}", f"{prefix}{i}", "0", w * c_seg)
        if spec.cct > 0:
            ckt.add_capacitor(f"cc{i}", f"a{i}", f"v{i}", w * cc_seg)
    if cl > 0:
        ckt.add_capacitor("cla", f"a{n}", "0", cl)
        ckt.add_capacitor("clv", f"v{n}", "0", cl)
    if spec.km > 0:
        for i in range(1, n + 1):
            ckt.add_mutual_inductance(f"k{i}", f"la{i}", f"lv{i}", spec.km)
    return ckt


#: Legacy pair line letter -> bus slot prefix.
_NODE_MAP = {"a": "b0_", "v": "b1_"}


def _bus_node(legacy: str) -> str:
    """Bus name of a legacy pair node (``ina`` -> ``inb0_``, ``xv3`` ->
    ``xb1_3``, ``a6`` -> ``b0_6``)."""
    head, line, index = re.fullmatch(r"(in|x|)([av])(\d*)", legacy).groups()
    return f"{head}{_NODE_MAP[line]}{index}"


class TestLegacyAgreement:
    """The bus builder must reproduce the historical two-line netlist."""

    SPEC = BusSpec(
        n_lines=2, rt=100.0, lt=25e-9, ct=2e-12, cct=1e-12, km=0.5,
        rtr=(50.0, 80.0), cl=5e-14, n_segments=6,
    )

    @pytest.mark.parametrize("mode", list(_MODE_PATTERNS))
    def test_states_match_legacy_path(self, mode):
        window, dt = 2e-9, 1e-12
        new = simulate_transient(
            build_bus_circuit(self.SPEC, _MODE_PATTERNS[mode]),
            t_stop=window, dt=dt, backend="dense",
        )
        old = simulate_transient(
            _legacy_coupled_circuit(self.SPEC, mode),
            t_stop=window, dt=dt, backend="dense",
        )
        old_nodes = set(old.structure.node_index)
        assert set(new.structure.node_index) == {_bus_node(n) for n in old_nodes}
        scale = float(np.max(np.abs(old.states)))
        worst = 0.0
        for node in old_nodes:
            va = new.states[:, new.structure.voltage_row(_bus_node(node))]
            vb = old.states[:, old.structure.voltage_row(node)]
            worst = max(worst, float(np.max(np.abs(va - vb))) / scale)
        assert worst <= 1e-9

    def test_output_node_names_preserved(self):
        nodes = set(build_bus_circuit(self.SPEC).node_names())
        assert _bus_node("a6") == self.SPEC.output_node(0) == "b0_6"
        assert _bus_node("v6") == self.SPEC.output_node(1) == "b1_6"
        assert {"b0_6", "b1_6"} <= nodes


class TestBuilder:
    def test_shield_elements_present(self):
        spec = BusSpec(n_lines=2, **SPEC3, shields=(1,))
        ckt = build_bus_circuit(spec)
        names = {e.name for e in ckt.elements}
        assert "rshb1_" in names and "rshfb1_" in names
        # Shields carry no driver source.
        assert "vinb1_" not in names

    def test_zero_coupling_adds_no_elements(self):
        spec = BusSpec(n_lines=2, **{**SPEC3, "cct": 0.0, "km": 0.0})
        ckt = build_bus_circuit(spec)
        assert not ckt.mutual_inductances
        assert not [e.name for e in ckt.elements if e.name.startswith("cc")]

    def test_circuit_validates_and_simulates(self):
        spec = BusSpec(n_lines=3, **SPEC3, shields=(2,))
        ckt = build_bus_circuit(spec, odd_pattern(3, 1))
        ckt.validate()
        result = simulate_transient(ckt, t_stop=1e-9, dt=1e-12, backend="auto")
        assert np.all(np.isfinite(result.states))


class TestBatchDelay50:
    def test_matches_waveform_measurement(self):
        times = np.linspace(0.0, 10.0, 2001)
        rising = 1.0 - np.exp(-times)
        falling = np.exp(-times)
        voltages = np.stack([rising, falling], axis=1)
        delays = batch_delay_50(times, voltages, rising=(True, False))
        assert delays[0] == first_crossing(times, rising, 0.5)
        assert delays[1] == first_crossing(times, falling, 0.5, rising=False)

    @pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
    def test_start_at_level_crosses_at_first_sample(self, rising):
        """A column that starts at the level and departs in the crossing
        direction crosses at ``times[0]``, as ``first_crossing`` says; one
        that departs the other way has no crossing."""
        times = np.array([0.0, 1.0, 2.0])
        step = 0.1 if rising else -0.1
        departs = 0.5 + step * np.arange(3)
        returns = 0.5 - step * np.arange(3)
        voltages = np.stack([departs, returns], axis=1)
        delays = batch_delay_50(times, voltages, rising=rising)
        assert delays[0] == first_crossing(times, departs, 0.5, rising=rising) == 0.0
        assert math.isnan(delays[1])

    def test_nan_when_no_crossing(self):
        times = np.linspace(0.0, 1.0, 100)
        voltages = np.full((100, 1), 0.1)
        assert math.isnan(batch_delay_50(times, voltages)[0])

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            batch_delay_50(np.linspace(0, 1, 10), np.zeros((5, 2)))


class TestSimulateBus:
    def test_waveforms_shape_and_delays(self):
        spec = BusSpec(n_lines=3, **SPEC3)
        waves = simulate_bus(spec, solo_pattern(3, 1))
        assert waves.voltages.shape == (waves.times.size, 3)
        delays = waves.delays_50()
        assert math.isnan(delays[0]) and math.isnan(delays[2])
        assert delays[1] > 0

    def test_falling_line_measured_on_falling_edge(self):
        spec = BusSpec(n_lines=2, **SPEC3)
        waves = simulate_bus(spec, ("rise", "fall"))
        delays = waves.delays_50()
        assert np.all(np.isfinite(delays))

    def test_window_validation(self):
        spec = BusSpec(n_lines=2, **SPEC3)
        with pytest.raises(ParameterError):
            simulate_bus(spec, window=-1.0)
        with pytest.raises(ParameterError):
            analyze_bus(spec, victim=0, window=-1.0)


class TestDefaultWindow:
    """The default span charges a line for its real neighbors only."""

    @staticmethod
    def _window(spec: BusSpec, n_neighbors: int) -> float:
        c = spec.ct[0] + n_neighbors * spec.cct
        rc_scale = (spec.rtr[0] + spec.rt[0]) * (c + spec.cl[0])
        return 12.0 * max(rc_scale, math.sqrt(spec.lt[0] * c))

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"rt": 10.0, "rtr": 5.0}],
        ids=["rc", "flight"],
    )
    def test_two_tracks_charge_one_neighbor(self, overrides):
        spec = BusSpec(n_lines=2, **{**SPEC3, **overrides})
        assert _default_window(spec) == pytest.approx(
            self._window(spec, 1), rel=1e-15
        )

    @pytest.mark.parametrize(
        "layout", [dict(n_lines=3), dict(n_lines=2, shields=(1,))]
    )
    def test_three_tracks_charge_two_neighbors(self, layout):
        spec = BusSpec(**layout, **SPEC3)
        assert _default_window(spec) == pytest.approx(
            self._window(spec, 2), rel=1e-15
        )


class TestAnalyzeBus:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_bus(BusSpec(n_lines=3, **SPEC3))

    def test_metrics_are_physical(self, report):
        assert report.victim == 1
        assert report.victim_peak_noise > 0.0
        assert report.victim_min_noise <= 0.0
        assert report.delay_solo > 0
        assert report.worst_delay >= min(report.delay_even, report.delay_odd)
        assert report.worst_pattern in ("even", "odd")

    def test_spread_and_pushout_consistent(self, report):
        assert report.delay_push_out == pytest.approx(
            (report.worst_delay - report.delay_solo) / report.delay_solo
        )
        assert report.delay_spread == pytest.approx(
            (report.delay_odd - report.delay_even) / report.delay_solo
        )

    def test_victim_validation(self):
        spec = BusSpec(n_lines=3, **SPEC3)
        with pytest.raises(ParameterError):
            analyze_bus(spec, victim=3)


class TestShields:
    def test_shield_cuts_victim_noise(self):
        spec = BusSpec(n_lines=3, **SPEC3)
        bare = analyze_bus(spec)
        shielded = analyze_bus(spec.with_shields(evenly_spread_shields(3, 1)))
        assert (
            shielded.worst_noise_magnitude < 0.7 * bare.worst_noise_magnitude
        )

    def test_evenly_spread_shields(self):
        assert evenly_spread_shields(8, 0) == ()
        assert evenly_spread_shields(8, 1) == (4,)
        assert evenly_spread_shields(8, 3) == (2, 5, 8)
        assert evenly_spread_shields(3, 2) == (1, 3)

    def test_evenly_spread_shields_validation(self):
        with pytest.raises(ParameterError):
            evenly_spread_shields(3, 3)
        with pytest.raises(ParameterError):
            evenly_spread_shields(0, 0)
        with pytest.raises(ParameterError):
            evenly_spread_shields(3, -1)

    def test_shield_tradeoff_replaces_shields(self):
        spec = BusSpec(n_lines=3, **SPEC3, shields=(1,))
        results = shield_tradeoff(spec, shield_counts=(0,))
        shielded, report = results[0]
        assert shielded.shields == ()
        assert report.n_shields == 0
