"""Tests for repro.spice.mna: Modified Nodal Analysis stamps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.spice.mna import build_mna_structure
from repro.spice.netlist import Circuit, Step


def assemble(circuit: Circuit):
    """``(structure, G, C)`` with ``G``/``C`` dense at the circuit's values."""
    structure = build_mna_structure(circuit)
    g_data, c_data = structure.revalue()
    return (
        structure,
        structure.g_plan.coo(g_data).to_dense(),
        structure.c_plan.coo(c_data).to_dense(),
    )


def rc_circuit() -> Circuit:
    ckt = Circuit()
    ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
    ckt.add_resistor("r1", "in", "out", 1000.0)
    ckt.add_capacitor("c1", "out", "0", 1e-12)
    return ckt


class TestAssembly:
    def test_unknown_count(self):
        structure, g, c = assemble(rc_circuit())
        # 2 nodes + 1 voltage-source branch.
        assert structure.size == 3
        assert structure.n_nodes == 2

    def test_resistor_stamp(self):
        structure, g, c = assemble(rc_circuit())
        i = structure.node_index["in"]
        j = structure.node_index["out"]
        conductance = 1.0 / 1000.0
        assert g[i, i] == pytest.approx(conductance)
        assert g[j, j] == pytest.approx(conductance)
        assert g[i, j] == pytest.approx(-conductance)
        assert g[j, i] == pytest.approx(-conductance)

    def test_capacitor_stamp_in_dynamic_matrix(self):
        structure, g, c = assemble(rc_circuit())
        j = structure.node_index["out"]
        assert c[j, j] == pytest.approx(1e-12)
        assert np.all(g[j, j] != c[j, j])

    def test_voltage_source_stamp(self):
        structure, g, c = assemble(rc_circuit())
        i = structure.node_index["in"]
        m = structure.branch_index["vin"]
        assert g[i, m] == 1.0
        assert g[m, i] == 1.0

    def test_inductor_stamp(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", "0", 1.0)
        ckt.add_inductor("l1", "a", "b", 2e-9)
        ckt.add_resistor("r1", "b", "0", 10.0)
        structure, g, c = assemble(ckt)
        m = structure.branch_index["l1"]
        a = structure.node_index["a"]
        b = structure.node_index["b"]
        assert g[m, a] == 1.0
        assert g[m, b] == -1.0
        assert g[a, m] == 1.0
        assert g[b, m] == -1.0
        assert c[m, m] == pytest.approx(-2e-9)

    def test_current_source_rhs(self):
        ckt = Circuit()
        ckt.add_current_source("i1", "0", "a", 2.0)  # injects into a
        ckt.add_resistor("r1", "a", "0", 5.0)
        structure, g, c = assemble(ckt)
        b = structure.rhs()
        assert b[structure.node_index["a"]] == pytest.approx(2.0)

    def test_row_lookup_errors(self):
        structure, g, c = assemble(rc_circuit())
        with pytest.raises(NetlistError, match="unknown node"):
            structure.voltage_row("nope")
        with pytest.raises(NetlistError, match="no branch current"):
            structure.current_row("r1")
        with pytest.raises(NetlistError, match="ground"):
            structure.voltage_row("0")


class TestConservationProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=6
        )
    )
    def test_series_resistor_chain_current(self, values):
        """DC current through a resistor chain equals V / sum(R)."""
        ckt = Circuit()
        ckt.add_voltage_source("v1", "n0", "0", 1.0)
        for i, r in enumerate(values):
            ckt.add_resistor(f"r{i}", f"n{i}", f"n{i + 1}", r)
        ckt.add_resistor("rterm", f"n{len(values)}", "0", 1.0)
        structure, g, c = assemble(ckt)
        x = np.linalg.solve(g, structure.rhs())
        current = -x[structure.branch_index["v1"]]  # source convention
        assert current == pytest.approx(1.0 / (sum(values) + 1.0), rel=1e-9)

    def test_floating_node_is_singular(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", "0", 1.0)
        ckt.add_resistor("r1", "a", "b", 1.0)
        ckt.add_capacitor("c1", "b", "0", 1e-12)
        ckt.add_capacitor("c2", "b", "c", 1e-12)
        ckt.add_capacitor("c3", "c", "0", 1e-12)
        structure, g, c = assemble(ckt)
        # Node c touches only capacitors: G row is all zero.
        row = structure.node_index["c"]
        assert np.all(g[row] == 0.0)
