"""Tests for repro.spice.ladder: lumped approximations of the line."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.canonical import DriverLineLoad
from repro.core.simulate import _time_window
from repro.errors import ParameterError
from repro.experiments import table1
from repro.spice.ladder import (
    LadderSpec,
    LadderTopology,
    _state_units,
    build_ladder_circuit,
    build_ladder_state_space,
)
from repro.spice.netlist import Capacitor, Inductor, Resistor
from repro.spice.statespace import simulate_step
from repro.spice.transient import simulate_transient

KW = dict(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13)


class TestSpecValidation:
    def test_requires_positive_driver(self):
        with pytest.raises(ParameterError):
            LadderSpec(rt=1.0, lt=1e-9, ct=1e-12, rtr=0.0)

    def test_requires_integer_segments(self):
        with pytest.raises(ParameterError, match="n_segments"):
            LadderSpec(rt=1.0, lt=1e-9, ct=1e-12, rtr=1.0, n_segments=2.5)  # type: ignore[arg-type]

    def test_topology_coercion(self):
        spec = LadderSpec(rt=1.0, lt=1e-9, ct=1e-12, rtr=1.0, topology="pi".upper())
        assert spec.topology is LadderTopology.PI


class TestChainConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        topology=st.sampled_from(["L", "PI", "T"]),
        cl=st.floats(min_value=0.0, max_value=5e-13),
    )
    def test_totals_preserved(self, n, topology, cl):
        """Lumping conserves total R, L and C.

        One documented exception: an open-ended T ladder (cl == 0) drops
        its dangling final half-branch -- electrically exact (the branch
        carries no current) but the series totals are short by half a
        segment.
        """
        spec = LadderSpec(**{**KW, "cl": cl}, n_segments=n, topology=topology)
        chain = spec._chain()
        expected_rt, expected_lt = spec.rt, spec.lt
        if topology == "T" and cl == 0.0:
            expected_rt -= spec.rt / (2 * n)
            expected_lt -= spec.lt / (2 * n)
        assert np.sum(chain.r) == pytest.approx(expected_rt, rel=1e-12)
        assert np.sum(chain.l) == pytest.approx(expected_lt, rel=1e-12)
        assert np.sum(chain.caps) == pytest.approx(spec.ct + cl, rel=1e-12)

    def test_pi_has_half_end_caps(self):
        spec = LadderSpec(**KW, n_segments=4, topology="PI")
        caps = spec._chain().caps
        assert caps[0] == pytest.approx(spec.ct / 8)
        assert caps[-1] == pytest.approx(spec.ct / 8 + spec.cl)

    def test_l_has_no_input_cap(self):
        spec = LadderSpec(**KW, n_segments=4, topology="L")
        assert spec._chain().caps[0] == 0.0

    def test_t_has_half_end_branches(self):
        spec = LadderSpec(**KW, n_segments=4, topology="T")
        chain = spec._chain()
        assert chain.r[0] == pytest.approx(chain.r[1] / 2)
        assert chain.r[-1] == pytest.approx(chain.r[1] / 2)


class TestCircuitBuilder:
    def test_element_counts_pi(self):
        spec = LadderSpec(**KW, n_segments=8, topology="PI")
        ckt = build_ladder_circuit(spec)
        # rtr + 8 segment resistors; 8 inductors; 9 caps; 1 source.
        assert len(ckt.elements_of_type(Resistor)) == 9
        assert len(ckt.elements_of_type(Inductor)) == 8
        assert len(ckt.elements_of_type(Capacitor)) == 9

    def test_output_node_exists(self):
        spec = LadderSpec(**KW, n_segments=8)
        ckt = build_ladder_circuit(spec)
        assert spec.output_node in ckt.node_names()

    def test_validates(self):
        for topology in ("L", "PI", "T"):
            spec = LadderSpec(**KW, n_segments=3, topology=topology)
            build_ladder_circuit(spec).validate()

    def test_step_amplitude(self):
        spec = LadderSpec(**KW, n_segments=4)
        ckt = build_ladder_circuit(spec, v_step=2.5)
        result = simulate_transient(ckt, 2e-9, 1e-11)
        assert result.voltage("in").values[-1] == pytest.approx(2.5)


class TestStateSpaceBuilder:
    def test_state_count_pi(self):
        spec = LadderSpec(**KW, n_segments=8, topology="PI")
        model = build_ladder_state_space(spec)
        # 8 inductor currents + 9 cap voltages.
        assert model.order == 17

    def test_state_count_l(self):
        spec = LadderSpec(**KW, n_segments=8, topology="L")
        model = build_ladder_state_space(spec)
        # 8 currents + 8 cap voltages (no input cap).
        assert model.order == 16

    def test_dc_gain_unity(self):
        for topology in ("L", "PI", "T"):
            spec = LadderSpec(**KW, n_segments=6, topology=topology)
            model = build_ladder_state_space(spec)
            h0 = model.transfer_at(np.array([1.0 + 0j]))[0, 0, 0]
            assert abs(h0 - 1.0) < 1e-6

    def test_t_topology_open_end(self):
        spec = LadderSpec(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=0.0,
                          n_segments=6, topology="T")
        model = build_ladder_state_space(spec)
        h0 = model.transfer_at(np.array([1.0 + 0j]))[0, 0, 0]
        assert abs(h0 - 1.0) < 1e-6

    def test_matches_circuit_route(self):
        """MNA transient and state-space must agree on the same ladder."""
        spec = LadderSpec(**KW, n_segments=12, topology="PI")
        (w_ss,) = simulate_step(
            build_ladder_state_space(spec), 6e-9, n_samples=1201
        )
        result = simulate_transient(build_ladder_circuit(spec), 6e-9, 1e-12)
        w_mna = result.voltage(spec.output_node).resampled(w_ss.times)
        assert np.max(np.abs(w_ss.values - w_mna.values)) < 5e-3

    @pytest.mark.parametrize("topology", ["L", "PI", "T"])
    def test_delay_converges_to_exact(self, topology):
        """Ladder t50 approaches the exact distributed-line t50 as n grows."""
        from repro.tline.transfer import DriverLineLoadTransfer
        from repro.tline.waveform import Waveform

        times = np.linspace(0.0, 8e-9, 3001)
        exact = DriverLineLoadTransfer(
            rt=KW["rt"], lt=KW["lt"], ct=KW["ct"], rtr=KW["rtr"], cl=KW["cl"]
        ).step_response(times, M=60)
        t50_exact = Waveform(times, exact).delay_50(v_final=1.0)

        def t50(n: int) -> float:
            spec = LadderSpec(**KW, n_segments=n, topology=topology)
            (w,) = simulate_step(build_ladder_state_space(spec), 8e-9,
                                 n_samples=3001)
            return w.delay_50(v_final=1.0)

        coarse = abs(t50(8) - t50_exact)
        fine = abs(t50(64) - t50_exact)
        assert fine < coarse
        assert fine / t50_exact < 0.01


def _si_chain_model(spec: LadderSpec, dtype=float):
    """The ladder's ``(A, B, C)`` in SI state units (amperes, volts),
    written out from the chain in ``dtype`` arithmetic."""
    chain = spec._chain()
    nb = chain.n_branches
    r, lind, caps = (np.asarray(x, dtype=dtype) for x in (chain.r, chain.l, chain.caps))
    rtr = dtype(spec.rtr)
    cap_state = {pos: nb + i for i, pos in enumerate(np.flatnonzero(chain.caps > 0))}
    n = nb + len(cap_state)
    a, b, c = np.zeros((n, n), dtype), np.zeros((n, 1), dtype), np.zeros(n, dtype)
    for i in range(nb):
        r_eff = r[i]
        if i not in cap_state:  # position 0 without a cap: driver in series
            r_eff = r_eff + rtr
            b[0, 0] = 1 / lind[0]
        else:
            a[i, cap_state[i]] += 1 / lind[i]
        if i + 1 in cap_state:
            a[i, cap_state[i + 1]] -= 1 / lind[i]
        a[i, i] -= r_eff / lind[i]
    for pos, row in cap_state.items():
        if pos > 0:
            a[row, pos - 1] += 1 / caps[pos]
        if pos < nb:
            a[row, pos] -= 1 / caps[pos]
        if pos == 0:
            a[row, row] -= 1 / (rtr * caps[pos])
            b[row, 0] = 1 / (rtr * caps[pos])
    c[cap_state[nb]] = 1
    return a, b, c


def _table1_lines(lt: float):
    """The nine unjittered EXP-T1 cells of one ``Lt``."""
    return [
        DriverLineLoad(rt=table1.RTR / r_ratio, lt=lt, ct=table1.CT_TOTAL,
                       rtr=table1.RTR, cl=c_ratio * table1.CT_TOTAL)
        for r_ratio in table1.RT_VALUES
        for c_ratio in table1.CT_VALUES
    ]


def _spread_specs():
    """A seeded spread of ladders around the Lt = 10 uH Table 1 corner."""
    rng = np.random.default_rng(32)
    specs = [
        LadderSpec(rt=table1.RTR, lt=1e-5, ct=table1.CT_TOTAL, rtr=table1.RTR,
                   cl=0.1 * table1.CT_TOTAL, n_segments=n, topology=topology)
        for topology in LadderTopology
        for n in (1, 40)
    ]
    for _ in range(12):
        specs.append(LadderSpec(
            rt=10 ** rng.uniform(0, 4), lt=10 ** rng.uniform(-10, -4),
            ct=10 ** rng.uniform(-14, -10), rtr=10 ** rng.uniform(0, 4),
            cl=float(rng.choice([0.0, 10 ** rng.uniform(-15, -11)])),
            n_segments=int(rng.integers(1, 60)),
            topology=list(LadderTopology)[rng.integers(3)],
        ))
    return specs


def _ld_expm(m):
    """Long-double ``expm``: Taylor series on ``m / 2**s``, then squarings."""
    norm = float(np.max(np.sum(np.abs(m), axis=0)))
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    x = m / np.longdouble(2) ** s
    term = np.eye(len(m), dtype=np.longdouble)
    out = term.copy()
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


class TestScaledStateUnits:
    """The statespace model's power-of-two state units (an exact
    similarity of the SI-unit chain model)."""

    @pytest.mark.parametrize("spec", _spread_specs())
    def test_units_are_powers_of_two_near_sqrt_inertia(self, spec):
        sigma = _state_units(spec._chain())
        mantissa, _ = np.frexp(sigma)
        assert np.all(mantissa == 0.5)
        chain = spec._chain()
        inertia = np.concatenate([chain.l, chain.caps[chain.caps > 0]])
        ratio = sigma / np.sqrt(inertia)
        assert np.all((ratio >= 2**-0.5 * (1 - 1e-12)) & (ratio <= 2**0.5 * (1 + 1e-12)))

    @pytest.mark.parametrize("spec", _spread_specs())
    def test_model_is_the_exact_similarity(self, spec):
        """Every entry is the SI entry times an exact power-of-two
        ratio: ``A = S A_si S^-1``, ``B = S B_si``, ``C = C_si S^-1``."""
        model = build_ladder_state_space(spec)
        a, b, c = _si_chain_model(spec)
        sigma = _state_units(spec._chain())
        np.testing.assert_array_equal(model.a, a * (sigma[:, None] / sigma))
        np.testing.assert_array_equal(model.b, b * sigma[:, None])
        np.testing.assert_array_equal(model.c, (c / sigma)[None, :])

    @pytest.mark.parametrize("spec", _spread_specs())
    def test_transfer_matches_si_model(self, spec):
        from repro.spice.statespace import StateSpace

        model = build_ladder_state_space(spec)
        si = StateSpace(*_si_chain_model(spec))
        # Around the line's natural frequency, where the response lives.
        w0 = 1.0 / math.sqrt(spec.lt * (spec.ct + spec.cl))
        s = 1j * w0 * np.logspace(-2, 2, 25)
        h, h_si = model.transfer_at(s)[:, 0, 0], si.transfer_at(s)[:, 0, 0]
        # Far in the stop band both solves only resolve |H| to rounding.
        passband = np.abs(h_si) >= 1e-6
        assert np.max(np.abs(h - h_si)[passband] / np.abs(h_si[passband])) <= 1e-12
        assert np.max(np.abs(h - h_si)) <= 1e-12

    @pytest.mark.parametrize("line", _table1_lines(1e-5))
    def test_default_step_expm_has_no_subnormals(self, line):
        """At the route's default step (100 segments, 4001 samples over
        the default window) ``expm(A dt)`` of an Lt = 10 uH Table 1 cell
        carries no subnormal number.  In SI units it carried up to 199."""
        system = build_ladder_state_space(line.ladder(n_segments=100))
        times = np.linspace(0.0, _time_window(line, 12.0), 4001)
        e, f = system.discretize(times[1] - times[0])
        for block in (e, f):
            subnormal = (block != 0) & (np.abs(block) < np.finfo(float).tiny)
            assert not np.any(subnormal)

    @pytest.mark.parametrize("topology", list(LadderTopology))
    def test_delay_matches_long_double_reference(self, topology):
        """A 20-segment, 401-sample delay of the Lt = 10 uH corner agrees
        with the same SI-unit ladder stepped in 80-bit arithmetic."""
        line = DriverLineLoad(rt=table1.RTR, lt=1e-5, ct=table1.CT_TOTAL,
                              rtr=table1.RTR, cl=0.1 * table1.CT_TOTAL)
        spec = line.ladder(n_segments=20, topology=topology)
        times = np.linspace(0.0, _time_window(line, 12.0), 401)
        (w,) = simulate_step(build_ladder_state_space(spec), times[-1], 401)
        got = w.delay_50(v_final=1.0)

        a, b, c = _si_chain_model(spec, np.longdouble)
        n = len(a)
        aug = np.zeros((n + 1, n + 1), np.longdouble)
        aug[:n, :n], aug[:n, n:] = a, b
        phi = _ld_expm(aug * np.longdouble(times[1] - times[0]))
        e, f = phi[:n, :n], phi[:n, n]
        x = np.zeros(n, np.longdouble)
        y = [np.longdouble(0)]
        while y[-1] < 0.5:
            x = e @ x + f
            y.append(c @ x)
        k = len(y) - 1
        t0, t1 = np.longdouble(times[k - 1]), np.longdouble(times[k])
        want = t0 + (0.5 - y[k - 1]) / (y[k] - y[k - 1]) * (t1 - t0)
        assert abs(float((got - want) / want)) <= 1e-13
