"""Cross-validation suite for the repro.topology generators.

Pins every generator to an independent reference: degenerate trees
against the equivalent single ladder (transient, AC and delay all
<= 1e-12), symmetric trees against their own sink symmetry, meshes
against analytic resistor-grid DC solutions, and every template
against the batched analysis paths (``simulate_transient_batch`` /
``ac_sweep_batch`` vs per-point binds -- the PR's acceptance
criterion).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.spice.ac import ac_sweep, ac_sweep_batch
from repro.spice.dc import dc_operating_point
from repro.spice.ladder import LadderSpec, build_ladder_circuit
from repro.spice.netlist import Circuit, Dc, Step, VoltageSource
from repro.spice.parser import parse_netlist, suggest_transient_window
from repro.spice.transient import simulate_transient, simulate_transient_batch
from repro.topology import (
    FanoutTreeSpec,
    HTreeSpec,
    MeshSpec,
    add_rlc_line,
    build_fanout_circuit,
    build_fanout_template,
    build_htree_circuit,
    build_htree_template,
    build_mesh_circuit,
    build_mesh_template,
    htree_sink_nodes,
    mesh_node,
)

BACKENDS = ("dense", "sparse", "banded")

RT, LT, CT = 200.0, 2e-8, 2e-12
RTR, CL = 50.0, 2e-13


def _max_dv(result_a, node_a, result_b, node_b) -> float:
    return float(
        np.abs(
            result_a.voltage(node_a).values - result_b.voltage(node_b).values
        ).max()
    )


# ---------------------------------------------------------------------------
# Degenerate trees == ladders
# ---------------------------------------------------------------------------


class TestLadderEquivalence:
    def test_levels0_htree_is_a_ladder(self):
        n = 8
        tree = build_htree_circuit(
            HTreeSpec(
                levels=0, rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=n
            )
        )
        ladder = build_ladder_circuit(
            LadderSpec(rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=n)
        )
        t_stop, dt = suggest_transient_window(ladder, n_samples=500)
        spec = LadderSpec(rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=n)
        for backend in BACKENDS:
            res_tree = simulate_transient(tree, t_stop, dt, backend=backend)
            res_lad = simulate_transient(ladder, t_stop, dt, backend=backend)
            assert (
                _max_dv(res_tree, "b", res_lad, spec.output_node) <= 1e-12
            ), backend
            delay_tree = res_tree.voltage("b").delay_50()
            delay_lad = res_lad.voltage(spec.output_node).delay_50()
            assert abs(delay_tree - delay_lad) <= 1e-12

    def test_levels0_htree_matches_ladder_in_ac(self):
        n = 8
        tree = build_htree_circuit(
            HTreeSpec(
                levels=0, rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=n
            )
        )
        spec = LadderSpec(rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=n)
        ladder = build_ladder_circuit(spec)
        omegas = np.logspace(6, 11, 40)
        h_tree = ac_sweep(tree, omegas).voltage("b")
        h_lad = ac_sweep(ladder, omegas).voltage(spec.output_node)
        assert np.abs(h_tree - h_lad).max() <= 1e-12

    def test_fanout1_star_is_a_ladder(self):
        n = 8
        star = build_fanout_circuit(
            FanoutTreeSpec(
                fanout=1,
                brt=RT,
                blt=LT,
                bct=CT,
                rtr=RTR,
                cl=CL,
                branch_segments=n,
            )
        )
        spec = LadderSpec(rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=n)
        ladder = build_ladder_circuit(spec)
        t_stop, dt = suggest_transient_window(ladder, n_samples=500)
        for backend in BACKENDS:
            res_star = simulate_transient(star, t_stop, dt, backend=backend)
            res_lad = simulate_transient(ladder, t_stop, dt, backend=backend)
            assert (
                _max_dv(res_star, "s0", res_lad, spec.output_node) <= 1e-12
            ), backend

    def test_fanout1_with_trunk_is_a_two_wire_chain(self):
        # trunk wire + single branch wire == one ladder carrying the
        # summed totals, segment counts matched per wire half.
        star = build_fanout_circuit(
            FanoutTreeSpec(
                fanout=1,
                rt=RT,
                lt=LT,
                ct=CT,
                brt=RT,
                blt=LT,
                bct=CT,
                rtr=RTR,
                cl=CL,
                trunk_segments=4,
                branch_segments=4,
            )
        )
        spec = LadderSpec(
            rt=2 * RT, lt=2 * LT, ct=2 * CT, rtr=RTR, cl=CL, n_segments=8
        )
        ladder = build_ladder_circuit(spec)
        t_stop, dt = suggest_transient_window(ladder, n_samples=500)
        res_star = simulate_transient(star, t_stop, dt)
        res_lad = simulate_transient(ladder, t_stop, dt)
        assert _max_dv(res_star, "s0", res_lad, spec.output_node) <= 1e-12

    def test_add_rlc_line_matches_ladder_builder(self):
        n = 6
        ckt = Circuit("bare line")
        ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
        ckt.add_resistor("rdrv", "in", "a", RTR)
        add_rlc_line(ckt, "w", "a", "z", RT, LT, CT, n)
        ckt.add_capacitor("cl", "z", "0", CL)
        spec = LadderSpec(rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=n)
        ladder = build_ladder_circuit(spec)
        t_stop, dt = suggest_transient_window(ladder, n_samples=500)
        res_line = simulate_transient(ckt, t_stop, dt)
        res_lad = simulate_transient(ladder, t_stop, dt)
        assert _max_dv(res_line, "z", res_lad, spec.output_node) <= 1e-12


# ---------------------------------------------------------------------------
# Symmetry and skew behavior
# ---------------------------------------------------------------------------


class TestTreeSymmetry:
    def test_symmetric_htree_sinks_are_identical(self):
        spec = HTreeSpec(
            levels=2, rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=4
        )
        circuit = build_htree_circuit(spec)
        t_stop, dt = suggest_transient_window(circuit, n_samples=400)
        result = simulate_transient(circuit, t_stop, dt)
        reference = result.voltage(spec.sink_nodes[0]).values
        for sink in spec.sink_nodes[1:]:
            delta = np.abs(result.voltage(sink).values - reference).max()
            assert delta <= 1e-12, sink

    def test_heavy_sink_arrives_last(self):
        spec = HTreeSpec(
            levels=1,
            rt=RT,
            lt=LT,
            ct=CT,
            rtr=RTR,
            cl=CL,
            n_segments=4,
            sink_cl_weights=(3.0, 1.0),
        )
        circuit = build_htree_circuit(spec)
        t_stop, dt = suggest_transient_window(circuit, n_samples=400)
        result = simulate_transient(circuit, t_stop, dt)
        heavy = result.voltage("b0").delay_50()
        light = result.voltage("b1").delay_50()
        assert heavy > light

    def test_symmetric_fanout_sinks_are_identical(self):
        spec = FanoutTreeSpec(
            fanout=4, brt=RT, blt=LT, bct=CT, rtr=RTR, cl=CL,
            branch_segments=4,
        )
        circuit = build_fanout_circuit(spec)
        t_stop, dt = suggest_transient_window(circuit, n_samples=400)
        result = simulate_transient(circuit, t_stop, dt)
        reference = result.voltage("s0").values
        for sink in spec.sink_nodes[1:]:
            assert np.abs(result.voltage(sink).values - reference).max() <= 1e-12

    def test_htree_sink_nodes(self):
        assert htree_sink_nodes(0) == ("b",)
        assert htree_sink_nodes(1) == ("b0", "b1")
        assert htree_sink_nodes(2) == ("b00", "b01", "b10", "b11")
        with pytest.raises(ParameterError):
            htree_sink_nodes(-1)


# ---------------------------------------------------------------------------
# Mesh DC vs analytic resistor-grid solutions
# ---------------------------------------------------------------------------


def _dc_driven(circuit: Circuit) -> Circuit:
    """``circuit`` with each voltage source held at its final value.

    The DC operating point holds sources at ``t = 0``, before a step
    switches; a ``Dc`` source at the step's final value gives the
    settled voltages the analytic solutions describe.
    """
    held = Circuit()
    for element in circuit.elements:
        if isinstance(element, VoltageSource):
            element = dataclasses.replace(element, waveform=Dc(element.waveform.v1))
        held.add(element)
    return held


class TestMeshAnalytic:
    def test_1x3_mesh_is_a_voltage_divider(self):
        spec = MeshSpec(
            rows=1, cols=3, r_edge=5.0, rtr=10.0, r_load=100.0
        )
        op = dc_operating_point(_dc_driven(build_mesh_circuit(spec)))
        total = 10.0 + 2 * 5.0 + 100.0
        assert op.voltage(spec.output_node) == pytest.approx(
            100.0 / total, abs=1e-12
        )
        assert op.voltage(mesh_node(0, 1)) == pytest.approx(
            105.0 / total, abs=1e-12
        )

    def test_2x2_mesh_series_parallel_reduction(self):
        # two parallel 2-edge paths from corner to corner: R_eq = r_edge
        spec = MeshSpec(
            rows=2, cols=2, r_edge=8.0, rtr=12.0, r_load=100.0
        )
        op = dc_operating_point(_dc_driven(build_mesh_circuit(spec)))
        total = 12.0 + 8.0 + 100.0
        assert op.voltage(spec.output_node) == pytest.approx(
            100.0 / total, abs=1e-12
        )
        # symmetry: the two mid corners sit at the same potential
        assert op.voltage(mesh_node(0, 1)) == pytest.approx(
            op.voltage(mesh_node(1, 0)), abs=1e-12
        )

    def test_rc_mesh_settles_to_source(self):
        spec = MeshSpec(
            rows=3, cols=3, r_edge=10.0, rtr=25.0, c_node=1e-13
        )
        circuit = build_mesh_circuit(spec)
        t_stop, dt = suggest_transient_window(circuit, n_samples=400)
        result = simulate_transient(circuit, t_stop, dt)
        assert result.voltage(spec.output_node).final_value == pytest.approx(
            1.0, abs=1e-3
        )

    def test_mesh_requires_a_load(self):
        with pytest.raises(ParameterError, match="needs a load"):
            MeshSpec(rows=2, cols=2, r_edge=1.0, rtr=1.0)
        with pytest.raises(ParameterError, match="template needs"):
            build_mesh_template(2, 2, with_node_caps=False)


# ---------------------------------------------------------------------------
# Templates feed the batched analysis paths (acceptance criterion)
# ---------------------------------------------------------------------------


class TestTemplateBatch:
    def test_htree_batch_matches_per_point_binds(self):
        template = build_htree_template(levels=2, n_segments=3)
        points = [
            {"rt": RT, "lt": LT, "ct": CT, "rtr": RTR, "cl": CL},
            {"rt": 3 * RT, "lt": LT / 2, "ct": 2 * CT, "rtr": RTR, "cl": 3 * CL},
        ]
        slowest = template.bind(points[1])
        t_stop, dt = suggest_transient_window(slowest, n_samples=300)
        sinks = htree_sink_nodes(2)
        for backend in BACKENDS:
            batch = simulate_transient_batch(
                template,
                {k: np.array([p[k] for p in points]) for k in points[0]},
                t_stop,
                dt,
                backend=backend,
                record=list(sinks),
            )
            for i, point in enumerate(points):
                single = simulate_transient(
                    template.bind(point), t_stop, dt, backend=backend
                )
                for sink in sinks:
                    delta = np.abs(
                        batch.voltage(sink)[i] - single.voltage(sink).values
                    ).max()
                    assert delta <= 1e-12, (backend, i, sink)

    def test_fanout_batch_matches_per_point_ac(self):
        template = build_fanout_template(fanout=3, branch_segments=3)
        points = [
            {"brt": RT, "blt": LT, "bct": CT, "rtr": RTR, "cl": CL},
            {"brt": RT / 4, "blt": 2 * LT, "bct": CT, "rtr": 2 * RTR, "cl": CL},
        ]
        omegas = np.logspace(7, 10, 25)
        batch = ac_sweep_batch(
            template,
            {k: np.array([p[k] for p in points]) for k in points[0]},
            omegas,
            record=["s0"],
        )
        for i, point in enumerate(points):
            single = ac_sweep(template.bind(point), omegas)
            delta = np.abs(
                batch.voltage("s0")[i] - single.voltage("s0")
            ).max()
            assert delta <= 1e-12, i

    def test_mesh_template_revalue_matches_spec_bind(self):
        template = build_mesh_template(2, 3, with_node_caps=True)
        spec = MeshSpec(
            rows=2, cols=3, r_edge=4.0, rtr=20.0, c_node=5e-13
        )
        from_template = template.bind(
            {"re": spec.r_edge, "rtr": spec.rtr, "cn": spec.c_node}
        )
        from_spec = build_mesh_circuit(spec)
        assert from_template.elements == from_spec.elements

    def test_netlist_text_round_trip_of_generated_topology(self):
        # Generated topologies survive the text frontend like any
        # other circuit: emit, parse, simulate, agree.
        spec = HTreeSpec(
            levels=1, rt=RT, lt=LT, ct=CT, rtr=RTR, cl=CL, n_segments=3
        )
        circuit = build_htree_circuit(spec)
        reparsed = parse_netlist(circuit.to_netlist())
        assert reparsed.circuit.elements == circuit.elements
        t_stop, dt = suggest_transient_window(circuit, n_samples=300)
        res_a = simulate_transient(circuit, t_stop, dt)
        res_b = simulate_transient(reparsed.circuit, t_stop, dt)
        for sink in spec.sink_nodes:
            assert _max_dv(res_a, sink, res_b, sink) <= 1e-12


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_htree_weight_validation(self):
        with pytest.raises(ParameterError, match="entries"):
            HTreeSpec(
                levels=2,
                rt=RT,
                lt=LT,
                ct=CT,
                rtr=RTR,
                cl=CL,
                sink_cl_weights=(1.0, 2.0),
            )
        with pytest.raises(ParameterError, match="> 0"):
            HTreeSpec(
                levels=1,
                rt=RT,
                lt=LT,
                ct=CT,
                rtr=RTR,
                cl=CL,
                sink_cl_weights=(1.0, 0.0),
            )

    def test_fanout_trunk_totals_need_trunk_segments(self):
        with pytest.raises(ParameterError, match="trunk_segments"):
            FanoutTreeSpec(
                fanout=2, brt=RT, blt=LT, bct=CT, rtr=RTR, cl=CL, rt=10.0
            )

    def test_mesh_rejects_degenerate_extent(self):
        with pytest.raises(ParameterError, match="at least two nodes"):
            MeshSpec(rows=1, cols=1, r_edge=1.0, rtr=1.0, cl=1e-13)

    def test_fanout_rejects_nonpositive_fanout(self):
        with pytest.raises(ParameterError, match="fanout"):
            FanoutTreeSpec(
                fanout=0, brt=RT, blt=LT, bct=CT, rtr=RTR, cl=CL
            )
