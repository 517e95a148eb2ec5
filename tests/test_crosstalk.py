"""Two-line crosstalk physics on the bus layer (``BusSpec(n_lines=2)``).

Line 0 is the measured line of :func:`repro.analysis.bus.analyze_bus`
(``victim=0``): its noise is taken while line 1 rises, and its delays
while it switches alone (solo), with line 1 (even) and against it (odd).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.bus import analyze_bus
from repro.bus import (
    BusSpec,
    build_bus_circuit,
    even_pattern,
    odd_pattern,
    solo_pattern,
)
from repro.spice.netlist import Capacitor, Inductor
from repro.spice.transient import simulate_transient


def make_spec(**overrides) -> BusSpec:
    base = dict(
        n_lines=2,
        rt=100.0,
        lt=25e-9,
        ct=2e-12,
        cct=1e-12,
        km=0.5,
        rtr=50.0,
        cl=5e-14,
        n_segments=12,
    )
    base.update(overrides)
    return BusSpec(**base)


class TestSpec:
    def test_output_names(self):
        spec = make_spec(n_segments=8)
        assert spec.output_node(0) == "b0_8"
        assert spec.output_node(1) == "b1_8"


class TestCircuitBuilder:
    def test_element_budget(self):
        spec = make_spec(n_segments=8)
        ckt = build_bus_circuit(spec)
        # 2 lines x 8 inductors, coupled pairwise.
        assert len(ckt.elements_of_type(Inductor)) == 16
        assert len(ckt.mutual_inductances) == 8
        # Ground caps: 2 x 9 nodes; coupling: 9; loads: 2.
        assert len(ckt.elements_of_type(Capacitor)) == 18 + 9 + 2
        ckt.validate()

    def test_coupling_capacitance_conserved(self):
        spec = make_spec(n_segments=10)
        ckt = build_bus_circuit(spec)
        cc_total = sum(
            e.value
            for e in ckt.elements_of_type(Capacitor)
            if e.name.startswith("cc")
        )
        assert cc_total == pytest.approx(spec.cct, rel=1e-12)

    def test_victim_modes_set_drivers(self):
        spec = make_spec()
        for pattern, v0, v1 in (
            (solo_pattern(2, 0), 0.0, 0.0),
            (even_pattern(2), 0.0, 1.0),
            (odd_pattern(2, 0), 1.0, 0.0),
        ):
            ckt = build_bus_circuit(spec, pattern)
            source = next(e for e in ckt.elements if e.name == "vinb1_")
            assert source.waveform.v0 == v0 and source.waveform.v1 == v1


class TestSymmetry:
    def test_uncoupled_victim_stays_quiet(self):
        spec = make_spec(cct=0.0, km=0.0)
        report = analyze_bus(spec, victim=0)
        assert report.worst_noise_magnitude < 1e-9
        assert report.delay_even == pytest.approx(report.delay_solo, rel=1e-6)

    def test_even_mode_keeps_lines_identical(self):
        """Both lines switching together see no differential coupling."""
        spec = make_spec()
        ckt = build_bus_circuit(spec, even_pattern(2))
        result = simulate_transient(ckt, 1.5e-9, 5e-13)
        a = result.voltage(spec.output_node(0)).values
        v = result.voltage(spec.output_node(1)).values
        assert np.max(np.abs(a - v)) < 1e-9


class TestNoisePolarity:
    def test_capacitive_coupling_positive_glitch(self):
        report = analyze_bus(make_spec(cct=1e-12, km=0.0), victim=0)
        assert report.victim_peak_noise > 0.2
        assert abs(report.victim_min_noise) < report.victim_peak_noise / 5

    def test_inductive_coupling_negative_far_end(self):
        report = analyze_bus(make_spec(cct=1e-15, km=0.6), victim=0)
        assert report.victim_min_noise < -0.15
        assert abs(report.victim_min_noise) > report.victim_peak_noise

    def test_noise_grows_with_coupling_cap(self):
        weak = analyze_bus(make_spec(cct=2e-13, km=0.0), victim=0)
        strong = analyze_bus(make_spec(cct=1.5e-12, km=0.0), victim=0)
        assert strong.victim_peak_noise > weak.victim_peak_noise


class TestSwitchingDelay:
    def test_inductive_regime_odd_is_faster(self):
        """LC-dominated pair: odd mode rides L*(1-km) -- pull-in."""
        report = analyze_bus(make_spec(km=0.5), victim=0)
        assert report.delay_odd < report.delay_solo
        assert report.delay_spread < 0.0

    def test_rc_regime_odd_is_slower(self):
        """RC-dominated pair: Miller-doubled Cc -- push-out."""
        spec = make_spec(
            rt=2000.0, lt=2e-10, ct=2e-12, cct=1.5e-12, km=0.0, rtr=500.0,
        )
        report = analyze_bus(spec, victim=0)
        assert report.delay_odd > report.delay_even
        assert report.delay_spread > 0.05
