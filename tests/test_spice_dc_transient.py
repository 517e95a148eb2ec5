"""Tests for repro.spice.dc and repro.spice.transient."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import BusSpec, build_bus_circuit
from repro.errors import ParameterError, SimulationError
from repro.spice.dc import dc_operating_point
from repro.spice.ladder import LadderSpec, build_ladder_circuit
from repro.spice.netlist import Circuit, Step
from repro.spice.transient import simulate_transient
from repro.topology import (
    FanoutTreeSpec,
    HTreeSpec,
    MeshSpec,
    build_fanout_circuit,
    build_htree_circuit,
    build_mesh_circuit,
)


class TestDcOperatingPoint:
    def test_resistor_divider(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "in", "0", 10.0)
        ckt.add_resistor("r1", "in", "out", 3000.0)
        ckt.add_resistor("r2", "out", "0", 1000.0)
        sol = dc_operating_point(ckt)
        assert sol.voltage("out") == pytest.approx(2.5)
        assert sol.voltage("in") == pytest.approx(10.0)
        assert sol.voltage("0") == 0.0

    def test_source_current(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "in", "0", 10.0)
        ckt.add_resistor("r1", "in", "0", 2000.0)
        sol = dc_operating_point(ckt)
        # Positive branch current flows + -> - inside the source, so a
        # sourcing supply reads negative.
        assert sol.current("v1") == pytest.approx(-10.0 / 2000.0)

    def test_inductor_is_dc_short(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "in", "0", 1.0)
        ckt.add_inductor("l1", "in", "mid", 1e-9)
        ckt.add_resistor("r1", "mid", "0", 100.0)
        sol = dc_operating_point(ckt)
        assert sol.voltage("mid") == pytest.approx(1.0)
        assert sol.current("l1") == pytest.approx(0.01)

    def test_current_source_into_resistor(self):
        ckt = Circuit()
        ckt.add_current_source("i1", "0", "a", 1e-3)
        ckt.add_resistor("r1", "a", "0", 1000.0)
        sol = dc_operating_point(ckt)
        assert sol.voltage("a") == pytest.approx(1.0)

    def test_floating_node_raises(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", "0", 1.0)
        ckt.add_resistor("r1", "a", "b", 1.0)
        ckt.add_capacitor("c1", "b", "c", 1e-12)
        ckt.add_capacitor("c2", "c", "0", 1e-12)
        with pytest.raises(SimulationError, match="singular"):
            dc_operating_point(ckt)

    def test_time_dependent_source(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", "0", Step(1.0, 5.0, t_delay=1.0))
        ckt.add_resistor("r1", "a", "0", 1.0)
        # Sources are held at t = 0, before the step.
        assert dc_operating_point(ckt).voltage("a") == 1.0


def rc_charge_circuit(r=1000.0, c=1e-12) -> Circuit:
    ckt = Circuit()
    ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
    ckt.add_resistor("r1", "in", "out", r)
    ckt.add_capacitor("c1", "out", "0", c)
    return ckt


def series_rlc_circuit(r=20.0, l=1e-9, c=1e-12) -> Circuit:
    ckt = Circuit()
    ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
    ckt.add_resistor("r1", "in", "mid", r)
    ckt.add_inductor("l1", "mid", "out", l)
    ckt.add_capacitor("c1", "out", "0", c)
    return ckt


class TestTransientRc:
    def test_rc_charging_curve(self):
        tau = 1e-9
        result = simulate_transient(rc_charge_circuit(), t_stop=5e-9, dt=2e-12)
        w = result.voltage("out")
        expected = 1.0 - np.exp(-w.times / tau)
        assert np.max(np.abs(w.values - expected)) < 5e-3

    def test_trapezoidal_second_order_convergence(self):
        """Second-order convergence on a smooth (ramped) input.

        An ideal step lands between grid points and degrades any
        integrator to first order; the ramp keeps the input resolved.
        """
        tau, t_rise = 1e-9, 5e-10

        def ramp_response(t: np.ndarray) -> np.ndarray:
            def y(tt: np.ndarray) -> np.ndarray:
                tt = np.maximum(tt, 0.0)
                return (tt - tau + tau * np.exp(-tt / tau)) / t_rise

            return y(t) - y(t - t_rise)

        def max_error(dt: float) -> float:
            ckt = Circuit()
            ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0, t_rise=t_rise))
            ckt.add_resistor("r1", "in", "out", 1000.0)
            ckt.add_capacitor("c1", "out", "0", 1e-12)
            result = simulate_transient(ckt, 4e-9, dt)
            w = result.voltage("out")
            return float(np.max(np.abs(w.values - ramp_response(w.times))))

        coarse, fine = max_error(1e-11), max_error(2.5e-12)
        assert coarse / fine > 8.0  # ~16x for a second-order method

    def test_source_current_waveform(self):
        result = simulate_transient(rc_charge_circuit(), 5e-9, 2e-12)
        i = result.current("vin")
        # Charging current starts near -V/R (sourcing) and decays to ~0.
        assert i.values[1] == pytest.approx(-1e-3, rel=0.1)
        assert abs(i.values[-1]) < 1e-5

    def test_ground_voltage_is_zero(self):
        result = simulate_transient(rc_charge_circuit(), 1e-9, 1e-12)
        assert np.all(result.voltage("0").values == 0.0)


class TestTransientRlc:
    def test_underdamped_oscillation_frequency(self):
        r, l, c = 20.0, 1e-9, 1e-12
        result = simulate_transient(series_rlc_circuit(r, l, c), 1e-9, 2e-13)
        w = result.voltage("out")
        alpha = r / (2 * l)
        omega_d = np.sqrt(1.0 / (l * c) - alpha**2)
        expected = 1.0 - np.exp(-alpha * w.times) * (
            np.cos(omega_d * w.times) + alpha / omega_d * np.sin(omega_d * w.times)
        )
        assert np.max(np.abs(w.values - expected)) < 2e-2

    def test_overshoot_matches_damping_theory(self):
        """Peak overshoot = exp(-pi*zeta/sqrt(1-zeta^2)) for 2nd order."""
        r, l, c = 20.0, 1e-9, 1e-12
        result = simulate_transient(series_rlc_circuit(r, l, c), 2e-9, 2e-13)
        zeta = (r / 2.0) * np.sqrt(c / l)
        expected = np.exp(-np.pi * zeta / np.sqrt(1.0 - zeta * zeta))
        got = result.voltage("out").overshoot(v_final=1.0)
        assert got == pytest.approx(expected, rel=2e-2)

    def test_inductor_current_settles_to_zero(self):
        result = simulate_transient(series_rlc_circuit(), 2e-8, 1e-12)
        assert abs(result.current("l1").values[-1]) < 1e-4


class TestTransientValidation:
    def test_bad_dt(self):
        with pytest.raises(ParameterError, match="dt"):
            simulate_transient(rc_charge_circuit(), 1e-9, 0.0)

    def test_bad_span(self):
        with pytest.raises(ParameterError, match="t_stop"):
            simulate_transient(rc_charge_circuit(), 0.0, 1e-12)

    def test_explicit_initial_state_rejected(self):
        with pytest.raises(ParameterError, match="initial must be 'dc' or 'zero'"):
            simulate_transient(
                rc_charge_circuit(), 1e-9, 1e-12, initial=np.zeros(3)
            )

    def test_initial_zero(self):
        result = simulate_transient(
            rc_charge_circuit(), 1e-9, 1e-12, initial="zero"
        )
        assert result.voltage("out").values[0] == 0.0

    def test_unknown_initial(self):
        with pytest.raises(ParameterError, match="initial"):
            simulate_transient(rc_charge_circuit(), 1e-9, 1e-12, initial="warm")

    def test_n_steps(self):
        result = simulate_transient(rc_charge_circuit(), 1e-9, 1e-10)
        assert result.n_steps == 10


class TestTimeGridClamp:
    """The grid must end exactly at t_stop, never overshoot it."""

    def test_divisible_span_keeps_requested_step(self):
        result = simulate_transient(rc_charge_circuit(), 1e-9, 2e-10)
        assert result.n_steps == 5
        assert result.times[-1] == 1e-9

    def test_non_divisible_span_never_exceeds_t_stop(self):
        # 1e-9 / 3e-10 = 3.33..: the seed produced 4 steps of 3e-10,
        # with the final sample landing at 1.2e-9 -- past t_stop.
        result = simulate_transient(rc_charge_circuit(), 1e-9, 3e-10)
        assert result.times[-1] == 1e-9
        assert np.all(result.times <= 1e-9)
        assert result.n_steps == 4  # step shrinks, count rounds up
        assert np.allclose(np.diff(result.times), 1e-9 / 4)

    def test_delay_50_unchanged_vs_divisible_grid(self):
        # A non-divisible span shrinks dt slightly; with a second-order
        # integrator the measured delay must be indistinguishable from
        # the divisible-grid reference.
        t_stop = 5e-9
        reference = simulate_transient(rc_charge_circuit(), t_stop, 2e-12)
        clamped = simulate_transient(rc_charge_circuit(), t_stop, 2.03e-12)
        d_ref = reference.voltage("out").delay_50(v_final=1.0)
        d_clamped = clamped.voltage("out").delay_50(v_final=1.0)
        assert d_clamped == pytest.approx(d_ref, rel=1e-4)
        # ~dt/2 onset offset from the step-at-t = 0 convention.
        assert d_ref == pytest.approx(1e-9 * np.log(2.0), rel=3e-3)


@st.composite
def small_interconnects(draw) -> Circuit:
    """A small ladder, H-tree, fanout tree, mesh or coupled bus."""
    kind = draw(st.sampled_from(["ladder", "htree", "fanout", "mesh", "bus"]))
    n = draw(st.integers(1, 12))
    rt = draw(st.floats(50.0, 2000.0))
    if kind == "ladder":
        return build_ladder_circuit(LadderSpec(
            rt=rt, lt=1e-7, ct=1e-12, rtr=100.0, cl=1e-13, n_segments=n,
            topology=draw(st.sampled_from(["PI", "L", "T"])),
        ))
    if kind == "htree":
        return build_htree_circuit(HTreeSpec(
            levels=draw(st.integers(1, 2)), rt=rt, lt=2e-8, ct=2e-12,
            rtr=50.0, cl=2e-13, n_segments=n,
        ))
    if kind == "fanout":
        return build_fanout_circuit(FanoutTreeSpec(
            fanout=draw(st.integers(2, 3)), brt=rt, blt=1.5e-8, bct=1.5e-12,
            rtr=40.0, cl=1e-13, rt=100.0, lt=1e-8, ct=1e-12,
            trunk_segments=n, branch_segments=n,
        ))
    if kind == "mesh":
        return build_mesh_circuit(MeshSpec(
            rows=draw(st.integers(2, 4)), cols=draw(st.integers(2, 4)),
            r_edge=rt / 50.0, rtr=25.0, l_edge=5e-10, c_node=5e-14, cl=2e-13,
        ))
    n_lines = draw(st.integers(2, 4))
    pattern = draw(st.lists(
        st.sampled_from(["rise", "fall", "quiet", "high"]),
        min_size=n_lines, max_size=n_lines,
    ))
    return build_bus_circuit(BusSpec(
        n_lines=n_lines, rt=rt, lt=25e-9, ct=2e-12, cct=1e-12, km=0.5,
        rtr=50.0, cl=5e-14, n_segments=n,
    ), pattern)


class TestDcPathsAgree:
    """``dc_operating_point`` and a transient's ``initial="dc"`` start are
    the same solve: same matrix, same source vector, same backend."""

    @settings(max_examples=40, deadline=None)
    @given(
        circuit=small_interconnects(),
        backend=st.sampled_from(["dense", "sparse", "banded"]),
    )
    def test_operating_point_is_transient_start(self, circuit, backend):
        dc = dc_operating_point(circuit, backend=backend)
        result = simulate_transient(
            circuit, 1e-10, 1e-10, initial="dc", backend=backend
        )
        assert np.array_equal(dc.vector, result.states[0])
