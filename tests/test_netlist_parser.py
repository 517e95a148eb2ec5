"""Conformance suite for the SPICE-like netlist text frontend.

Covers the grammar golden forms (one per element/waveform/value kind),
SPICE number suffixes, comment/continuation handling, ground aliases,
union-find wire collapsing, positioned syntax errors, the
``Circuit.add(text)`` / ``to_netlist()`` surface, the on-disk fixture
corpus in ``tests/netlists/``, and the ``--netlist`` CLI entry points.
"""

from __future__ import annotations

import json
import pathlib
import re

import numpy as np
import pytest

from repro import obs
from repro.errors import NetlistError
from repro.spice.netlist import (
    Circuit,
    Dc,
    Param,
    ParamAffine,
    PiecewiseLinear,
    Pulse,
    Sine,
    Step,
)
from repro.spice.parser import (
    NetlistSyntaxError,
    UnionFind,
    _measure_netlist,
    parse_netlist,
    parse_netlist_file,
    parse_spice_number,
    parse_statement,
    suggest_transient_window,
)
from repro.spice.transient import simulate_transient

NETLIST_DIR = pathlib.Path(__file__).parent / "netlists"


# ---------------------------------------------------------------------------
# Numbers
# ---------------------------------------------------------------------------


class TestSpiceNumbers:
    @pytest.mark.parametrize(
        ("token", "expected"),
        [
            ("2.2k", 2.2 * 1e3),
            ("100meg", 100 * 1e6),
            ("1u", 1 * 1e-6),
            ("5pF", 5 * 1e-12),
            ("10kOhm", 10 * 1e3),
            ("1mil", 1 * 25.4e-6),
            (".5", 0.5),
            ("1e-12", 1e-12),
            ("-3m", -3 * 1e-3),
            ("+2n", 2 * 1e-9),
            ("4.7t", 4.7 * 1e12),
            ("2g", 2 * 1e9),
            ("1f", 1 * 1e-15),
            ("3V", 3.0),
            ("50ohm", 50.0),
            ("1Hz", 1.0),
            ("  7  ", 7.0),
        ],
    )
    def test_suffix_forms(self, token, expected):
        assert parse_spice_number(token) == expected

    @pytest.mark.parametrize(
        "token", ["abc", "1x", "5pQ", "", "1.2.3", "0x10", "1e", "{rt}"]
    )
    def test_bad_numbers_raise(self, token):
        with pytest.raises(NetlistError):
            parse_spice_number(token)

    def test_meg_beats_m(self):
        assert parse_spice_number("1meg") == 1e6
        assert parse_spice_number("1m") == 1e-3
        assert parse_spice_number("1mF") == 1e-3


# ---------------------------------------------------------------------------
# Golden element forms
# ---------------------------------------------------------------------------

GOLDEN = """\
* one statement per element kind, plain values
V1 in 0 STEP(0 1 1n 0.2n)
Vdc a 0 DC 2.5
I1 0 b 1m
R1 in mid 50
C1 mid 0 1p ic=0.25
L1 mid out 10n ic=-1m
R2 out 0 1k
Rb a b 2k
L2 b 0 1u
L3 c 0 1u
Rc c out 100
K1 L2 L3 0.6
E1 e 0 out 0 2
Re e 0 1k
G1 0 g mid 0 1m
Rg g 0 1k
H1 h 0 V1 50
Rh h 0 1k
F1 0 f Vdc 3
Rf f 0 1k
"""


def golden_circuit() -> Circuit:
    """The hand-built equivalent of the GOLDEN netlist text."""
    ckt = Circuit("")
    ckt.add_voltage_source("V1", "in", "0", Step(0.0, 1.0, 1 * 1e-9, 0.2 * 1e-9))
    ckt.add_voltage_source("Vdc", "a", "0", Dc(2.5))
    ckt.add_current_source("I1", "0", "b", Dc(1 * 1e-3))
    ckt.add_resistor("R1", "in", "mid", 50.0)
    ckt.add_capacitor("C1", "mid", "0", 1 * 1e-12, initial_voltage=0.25)
    ckt.add_inductor("L1", "mid", "out", 10 * 1e-9, initial_current=-1 * 1e-3)
    ckt.add_resistor("R2", "out", "0", 1 * 1e3)
    ckt.add_resistor("Rb", "a", "b", 2 * 1e3)
    ckt.add_inductor("L2", "b", "0", 1 * 1e-6)
    ckt.add_inductor("L3", "c", "0", 1 * 1e-6)
    ckt.add_resistor("Rc", "c", "out", 100.0)
    ckt.add_mutual_inductance("K1", "L2", "L3", 0.6)
    ckt.add_vcvs("E1", "e", "0", "out", "0", 2.0)
    ckt.add_resistor("Re", "e", "0", 1 * 1e3)
    ckt.add_vccs("G1", "0", "g", "mid", "0", 1 * 1e-3)
    ckt.add_resistor("Rg", "g", "0", 1 * 1e3)
    ckt.add_ccvs("H1", "h", "0", "V1", 50.0)
    ckt.add_resistor("Rh", "h", "0", 1 * 1e3)
    ckt.add_cccs("F1", "0", "f", "Vdc", 3.0)
    ckt.add_resistor("Rf", "f", "0", 1 * 1e3)
    return ckt


class TestGoldenElements:
    def test_every_element_kind_parses_to_the_handbuilt_circuit(self):
        parsed = parse_netlist(GOLDEN)
        expected = golden_circuit()
        assert parsed.circuit.elements == expected.elements
        assert parsed.circuit.mutual_inductances == expected.mutual_inductances
        assert parsed.circuit.node_names() == expected.node_names()

    @pytest.mark.parametrize(
        ("text", "waveform"),
        [
            ("V1 a 0 2.5", Dc(2.5)),
            ("V1 a 0 DC 2.5", Dc(2.5)),
            ("V1 a 0 STEP(1)", Step(0.0, 1.0)),
            ("V1 a 0 STEP(0 1)", Step(0.0, 1.0)),
            ("V1 a 0 STEP(0 1 1n)", Step(0.0, 1.0, 1 * 1e-9)),
            ("V1 a 0 STEP (0 1 1n 2n)", Step(0.0, 1.0, 1 * 1e-9, 2 * 1e-9)),
            (
                "V1 a 0 PULSE(0 1 0 0.1n 0.1n 5n 10n)",
                Pulse(0.0, 1.0, 0.0, 0.1 * 1e-9, 0.1 * 1e-9, 5 * 1e-9, 10 * 1e-9),
            ),
            ("V1 a 0 SIN(0 0.5 100meg)", Sine(0.0, 0.5, 100 * 1e6)),
            ("V1 a 0 SIN(0 0.5 1g 1n)", Sine(0.0, 0.5, 1 * 1e9, 1 * 1e-9)),
            (
                "V1 a 0 PWL(0 0, 1n 1, 2n 0.5)",
                PiecewiseLinear(
                    ((0.0, 0.0), (1 * 1e-9, 1.0), (2 * 1e-9, 0.5))
                ),
            ),
        ],
    )
    def test_waveform_forms(self, text, waveform):
        circuit = parse_netlist(f"{text}\nR1 a 0 1k").circuit
        assert circuit.elements[0].waveform == waveform

    @pytest.mark.parametrize(
        "text",
        [
            "V1 a 0 STEP(0 1 2 3 4)",
            "V1 a 0 PULSE(0 1)",
            "V1 a 0 SIN(0)",
            "V1 a 0 PWL(0 0 1n)",
            "V1 a 0 RAMP(0 1)",
            "V1 a 0 DC 1 2",
            "V1 a 0 one two",
        ],
    )
    def test_bad_waveforms_raise(self, text):
        with pytest.raises(NetlistError):
            parse_netlist(f"{text}\nR1 a 0 1k")


# ---------------------------------------------------------------------------
# Comments, continuations, ground aliases
# ---------------------------------------------------------------------------


class TestLexical:
    def test_comments_and_continuations(self):
        text = (
            "* full-line comment\n"
            "V1 in 0 1 ; trailing comment\n"
            "R1 in out $ dollar comment too\n"
            "+ 1k\n"
            "\n"
            "C1 out 0 1p\n"
        )
        circuit = parse_netlist(text).circuit
        expected = Circuit("")
        expected.add_voltage_source("V1", "in", "0", Dc(1.0))
        expected.add_resistor("R1", "in", "out", 1 * 1e3)
        expected.add_capacitor("C1", "out", "0", 1 * 1e-12)
        assert circuit.elements == expected.elements

    def test_semicolon_inside_group_is_not_a_comment(self):
        # _strip_comment must not cut inside (...) groups.
        circuit = parse_netlist(
            "V1 in 0 STEP(0 1) ; real comment\nR1 in 0 1k"
        ).circuit
        assert circuit.elements[0].waveform == Step(0.0, 1.0)

    def test_continuation_without_statement_raises(self):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_netlist("+ 1k\n")
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("alias", ["0", "gnd", "GND", "ground"])
    def test_ground_aliases(self, alias):
        circuit = parse_netlist(f"V1 in {alias} 1\nR1 in {alias} 1k").circuit
        assert circuit.elements[0].node_neg == "0"
        assert circuit.node_names() == ["in"]

    def test_title_and_end(self):
        parsed = parse_netlist(
            ".title my circuit\nV1 a 0 1\nR1 a 0 1k\n.end\nR2 a 0 junk"
        )
        assert parsed.title == "my circuit"
        # .end stops parsing: the junk line after it is never seen.
        assert len(parsed.circuit) == 2

    def test_file_title_defaults_to_stem(self):
        parsed = parse_netlist_file(NETLIST_DIR / "rc_ladder.cir")
        assert parsed.title == "rc_ladder"
        assert parsed.path == str(NETLIST_DIR / "rc_ladder.cir")


# ---------------------------------------------------------------------------
# Parameters: .param and {...} expressions
# ---------------------------------------------------------------------------


class TestParameters:
    def test_param_slots_and_defaults(self):
        parsed = parse_netlist(
            ".param rt=100 ct=1p\n"
            "V1 in 0 STEP(0 1)\n"
            "R1 in mid {rt/2}\n"
            "R2 mid out {rt/2}\n"
            "C1 out 0 {ct/2 + 0.1*ct}\n"
            "C2 mid 0 {ct}\n"
        )
        assert parsed.is_parametric
        assert parsed.circuit.parameter_names() == ("ct", "rt")
        assert parsed.defaults == {"rt": 100.0, "ct": 1e-12}
        r1 = parsed.circuit.elements[1]
        assert isinstance(r1.value, Param)
        assert r1.value.name == "rt"
        assert r1.value.scale == 0.5
        c1 = parsed.circuit.elements[3]
        assert isinstance(c1.value, (Param, ParamAffine))

    def test_bind_uses_defaults_and_overrides(self):
        parsed = parse_netlist(
            ".param rt=100\nV1 in 0 1\nR1 in out {rt}\nR2 out 0 {rt/2}\n"
        )
        bound = parsed.bind()
        assert bound.elements[1].value == 100.0
        assert bound.elements[2].value == 50.0
        bound = parsed.bind({"rt": 500.0})
        assert bound.elements[1].value == 500.0

    def test_template_feeds_the_batch_path(self):
        parsed = parse_netlist(
            ".param rt=100\nV1 in 0 STEP(0 1)\nR1 in out {rt}\nC1 out 0 1p\n"
        )
        template = parsed.template()
        assert template.defaults == {"rt": 100.0}
        assert template.bind().elements == parsed.bind().elements

    def test_unused_param_raises(self):
        with pytest.raises(NetlistError, match="no element value"):
            parse_netlist(".param zz=1\nV1 a 0 1\nR1 a 0 1k\n")

    def test_concrete_netlist_rejects_bind_params(self):
        parsed = parse_netlist("V1 a 0 1\nR1 a 0 1k\n")
        assert not parsed.is_parametric
        assert parsed.bind() is parsed.circuit
        with pytest.raises(NetlistError, match="no parameter slots"):
            parsed.bind({"rt": 1.0})

    @pytest.mark.parametrize(
        "expr",
        [
            "{rt*ct}",  # param * param is not affine
            "{1/rt}",  # division by a param
            "{rt/0}",  # division by zero
            "{rt +}",  # dangling operator
            "{(rt}",  # unbalanced parens
            "{}",  # empty
        ],
    )
    def test_bad_expressions_raise(self, expr):
        with pytest.raises(NetlistError):
            parse_netlist(f"V1 a 0 1\nR1 a 0 {expr}\n")

    def test_affine_expression_binds_correctly(self):
        parsed = parse_netlist(
            ".param ct=2p cl=1p\n"
            "V1 a 0 STEP(0 1)\n"
            "R1 a b 1k\n"
            "C1 b 0 {ct/2 + cl}\n"
        )
        bound = parsed.bind()
        assert bound.elements[2].value == pytest.approx(2e-12, rel=1e-12)


# ---------------------------------------------------------------------------
# Wire collapsing (union-find)
# ---------------------------------------------------------------------------


class TestWireCollapse:
    def test_union_find_basics(self):
        uf = UnionFind()
        for name in "abcd":
            uf.add(name)
        uf.union("a", "b")
        uf.union("c", "d")
        assert uf.find("a") == uf.find("b")
        assert uf.find("a") != uf.find("c")
        uf.union("b", "c")
        assert len({uf.find(n) for n in "abcd"}) == 1
        assert "a" in uf and "z" not in uf

    def test_wires_collapse_to_premerged_netlist(self):
        wired = parse_netlist(
            "V1 in 0 1\nW1 in a\nR1 a b 50\nRs b c 0\nC1 c 0 1p\n"
        ).circuit
        premerged = parse_netlist(
            "V1 in 0 1\nR1 in b 50\nC1 b 0 1p\n"
        ).circuit
        assert wired.elements == premerged.elements
        assert wired.node_names() == premerged.node_names()

    def test_ground_wins_the_merge(self):
        circuit = parse_netlist(
            "V1 in 0 1\nR1 in a 50\nW1 a gnd\nR2 a b 50\nC1 b 0 1p\n"
        ).circuit
        # node 'a' was shorted to ground: R1 now terminates at '0'.
        assert circuit.elements[1].node_neg == "0"
        assert "a" not in circuit.node_names()

    def test_transitive_wire_chain(self):
        circuit = parse_netlist(
            "V1 in 0 1\nW1 a b\nW2 b c\nW3 c d\nR1 in a 50\nC1 d 0 1p\n"
        ).circuit
        assert circuit.elements[1].node_neg == "a"
        assert circuit.elements[2].node_pos == "a"

    def test_shorted_element_raises_with_position(self):
        with pytest.raises(NetlistSyntaxError, match="short-circuited"):
            parse_netlist("V1 in 0 1\nR1 in out 50\nW1 in out\nC1 out 0 1p\n")

    def test_fixture_matches_premerged(self):
        parsed = parse_netlist_file(NETLIST_DIR / "wires_short.cir")
        expected = Circuit("wires_short")
        expected.add_voltage_source("V1", "in", "0", Dc(1.0))
        expected.add_resistor("R1", "in", "b", 50.0)
        expected.add_capacitor("C1", "b", "0", 1 * 1e-12)
        assert parsed.circuit.elements == expected.elements


# ---------------------------------------------------------------------------
# Positioned errors
# ---------------------------------------------------------------------------


class TestSyntaxErrors:
    def test_unknown_element_type_position(self):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_netlist("V1 a 0 1\nQ1 a 0 5\n")
        err = exc.value
        assert "unknown element type" in str(err)
        assert err.line_no == 2
        assert err.column == 1
        assert err.line == "Q1 a 0 5"
        assert "(line 2, column 1)" in str(err)
        assert "^" in str(err)

    def test_duplicate_name_reports_both_lines(self):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_netlist("V1 a 0 1\nR1 a b 50\nR1 b 0 50\n")
        err = exc.value
        assert err.line_no == 3
        assert "first defined on line 2" in str(err)

    def test_bad_unit_suffix_position(self):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_netlist("V1 a 0 1\nR1 a 0 5qq\n")
        err = exc.value
        assert "unknown unit suffix" in str(err)
        assert err.line_no == 2
        assert err.column == 8  # the value token '5qq'

    def test_dangling_node_raises(self):
        # 'c' hangs off a capacitor only -- fine; 'float1/float2' form an
        # island with no path to ground.
        with pytest.raises(NetlistError, match="not connected to ground"):
            parse_netlist(
                "V1 a 0 1\nR1 a 0 1k\nR2 float1 float2 50\n"
            )

    def test_indented_statement_column_accounts_for_indent(self):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_netlist("V1 a 0 1\n   R1 a 0 5qq\n")
        assert exc.value.column == 11

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            ("R1 a 0\n", "needs at least"),
            ("R1 a 0 50 60\n", "one value field"),
            ("C1 a 0 1p ic=0.1 ic=0.2\n", "more than one ic"),
            ("R1 a 0 1k ic=1\n", "does not take an ic"),
            ("R1 a {x} 1k\n", "expected a node name"),
            ("K1 L1 L2\n", "takes: K L1 L2 coupling"),
            ("E1 a 0 b 2\n", "takes: E n\\+"),
            ("W1 a b c\n", "exactly two nodes"),
            (".parm x=1\n", "unsupported directive"),
            (".param x\n", "expected NAME=VALUE"),
            ("V1 a 0 STEP(0 1\n", "unclosed"),
        ],
    )
    def test_malformed_statements(self, text, match):
        with pytest.raises(NetlistSyntaxError, match=match):
            parse_netlist("V1 src 0 1\n" + text)

    def test_mutual_referencing_unknown_inductor(self):
        with pytest.raises(NetlistSyntaxError, match="unknown inductor"):
            parse_netlist("V1 a 0 1\nL1 a 0 1u\nK1 L1 Lx 0.5\n")

    def test_no_ground_raises(self):
        with pytest.raises(NetlistError, match="ground"):
            parse_netlist("V1 a b 1\nR1 a b 1k\n")


# ---------------------------------------------------------------------------
# Circuit.add(text) and to_netlist()
# ---------------------------------------------------------------------------


class TestCircuitAddText:
    def test_add_string_matches_programmatic(self):
        via_text = Circuit("t")
        via_text.add("V1 in 0 STEP(0 1)")
        element = via_text.add("R1 in out 2.2k")
        via_text.add("C1 out 0 1p ic=0.5")
        expected = Circuit("t")
        expected.add_voltage_source("V1", "in", "0", Step(0.0, 1.0))
        expected.add_resistor("R1", "in", "out", 2.2 * 1e3)
        expected.add_capacitor("C1", "out", "0", 1 * 1e-12, initial_voltage=0.5)
        assert via_text.elements == expected.elements
        assert element == expected.elements[1]

    def test_add_multiline_returns_list(self):
        circuit = Circuit("t")
        added = circuit.add("V1 in 0 1\nR1 in out 1k\n+ ; continued nothing\n")
        assert isinstance(added, list) and len(added) == 2

    def test_add_mutual_by_text(self):
        circuit = Circuit("t")
        circuit.add("L1 a 0 1u")
        circuit.add("L2 b 0 1u")
        circuit.add("K1 L1 L2 0.5")
        assert circuit.mutual_inductances[0].coupling == 0.5

    def test_add_rejects_directives_wires_and_duplicates(self):
        circuit = Circuit("t")
        circuit.add("R1 a b 50")
        with pytest.raises(NetlistSyntaxError, match="directives"):
            circuit.add(".param x=1")
        with pytest.raises(NetlistSyntaxError, match="wire statements"):
            circuit.add("W1 a b")
        with pytest.raises(NetlistSyntaxError, match="wire statements"):
            circuit.add("R2 a b 0")  # zero-ohm resistor is a wire
        with pytest.raises(NetlistError, match="duplicate"):
            circuit.add("R1 b c 50")

    def test_add_k_rejects_unknown_inductor(self):
        circuit = Circuit("t")
        circuit.add("L1 a 0 1u")
        with pytest.raises(NetlistError, match="unknown inductor"):
            circuit.add("K1 L1 Lmissing 0.5")

    def test_add_rejects_short_circuit_and_leaves_circuit_unchanged(self):
        circuit = Circuit("t")
        circuit.add("R1 a 0 50")
        with pytest.raises(
            NetlistSyntaxError,
            match="element 'R2' is short-circuited: wires merge 'a' and 'a'",
        ):
            circuit.add("R2 a a 50")
        with pytest.raises(NetlistSyntaxError, match="duplicate element name 'R1'"):
            circuit.add("R1 a 0 5")
        assert [e.name for e in circuit.elements] == ["R1"]
        assert circuit.add("R2 a 0 50") is circuit.elements[-1]


class TestToNetlist:
    def test_round_trips_golden_circuit(self):
        original = golden_circuit()
        reparsed = parse_netlist(original.to_netlist())
        assert reparsed.circuit.elements == original.elements
        assert (
            reparsed.circuit.mutual_inductances
            == original.mutual_inductances
        )

    def test_round_trips_parametric_values(self):
        original = Circuit("parametric")
        original.add_voltage_source("V1", "in", "0", Step(0.0, 1.0))
        original.add_resistor("R1", "in", "out", Param("rt", 0.5))
        original.add_capacitor(
            "C1",
            "out",
            "0",
            ParamAffine((("ct", 0.5), ("cl", 1.0)), 0.0),
            initial_voltage=0.25,
        )
        text = original.to_netlist()
        reparsed = parse_netlist(text)
        assert reparsed.circuit.elements == original.elements
        assert reparsed.circuit.parameter_names() == ("cl", "ct", "rt")

    def test_emits_title_and_end(self):
        circuit = Circuit("hello world")
        circuit.add("V1 a 0 1")
        circuit.add("R1 a 0 1k")
        text = circuit.to_netlist()
        assert text.startswith(".title hello world\n")
        assert text.rstrip().endswith(".end")
        assert parse_netlist(text).title == "hello world"


# ---------------------------------------------------------------------------
# Fixture corpus
# ---------------------------------------------------------------------------


def _rc_ladder_equivalent() -> Circuit:
    ckt = Circuit("rc_ladder")
    ckt.add_voltage_source("V1", "in", "0", Step(0.0, 1.0))
    ckt.add_resistor("R1", "in", "n1", 1 * 1e3)
    ckt.add_resistor("R2", "n1", "n2", 1 * 1e3)
    ckt.add_capacitor("C1", "n1", "0", 1 * 1e-12)
    ckt.add_capacitor("C2", "n2", "0", 1 * 1e-12)
    return ckt


def _sources_zoo_equivalent() -> Circuit:
    ckt = Circuit("source and controlled-source zoo")
    ckt.add_voltage_source(
        "V1",
        "in",
        "0",
        Pulse(0.0, 1.0, 0.0, 0.1 * 1e-9, 0.1 * 1e-9, 5 * 1e-9, 10 * 1e-9),
    )
    ckt.add_resistor("R1", "in", "a", 100.0)
    ckt.add_inductor("L1", "a", "0", 1 * 1e-9)
    ckt.add_inductor("L2", "b", "0", 1 * 1e-9)
    ckt.add_mutual_inductance("K1", "L1", "L2", 0.5)
    ckt.add_resistor("R2", "b", "out", 100.0)
    ckt.add_capacitor("C2", "out", "0", 1 * 1e-12)
    ckt.add_voltage_source("V2", "s2", "0", Sine(0.0, 0.5, 100 * 1e6))
    ckt.add_resistor("R3", "s2", "s3", 1 * 1e3)
    ckt.add_capacitor("C3", "s3", "0", 1 * 1e-12)
    ckt.add_voltage_source(
        "V3",
        "p1",
        "0",
        PiecewiseLinear(((0.0, 0.0), (1 * 1e-9, 1.0), (2 * 1e-9, 0.5))),
    )
    ckt.add_resistor("R4", "p1", "p2", 1 * 1e3)
    ckt.add_capacitor("C4", "p2", "0", 1 * 1e-12)
    ckt.add_vcvs("E1", "e1", "0", "out", "0", 2.0)
    ckt.add_resistor("R5", "e1", "e2", 1 * 1e3)
    ckt.add_capacitor("C5", "e2", "0", 1 * 1e-12)
    ckt.add_vccs("G1", "0", "g1", "out", "0", 1 * 1e-3)
    ckt.add_resistor("R6", "g1", "0", 1 * 1e3)
    ckt.add_cccs("F1", "0", "f1", "V3", 2.0)
    ckt.add_resistor("R7", "f1", "0", 1 * 1e3)
    ckt.add_ccvs("H1", "h1", "0", "V2", 100.0)
    ckt.add_resistor("R8", "h1", "h2", 50.0)
    ckt.add_capacitor("C8", "h2", "0", 1 * 1e-12)
    return ckt


class TestFixtureCorpus:
    def test_corpus_is_nonempty(self):
        assert len(sorted(NETLIST_DIR.glob("*.cir"))) >= 4

    @pytest.mark.parametrize(
        ("fixture", "builder"),
        [
            ("rc_ladder.cir", _rc_ladder_equivalent),
            ("sources_zoo.cir", _sources_zoo_equivalent),
        ],
    )
    def test_fixture_equals_handbuilt(self, fixture, builder):
        parsed = parse_netlist_file(NETLIST_DIR / fixture)
        expected = builder()
        assert parsed.circuit.elements == expected.elements
        assert (
            parsed.circuit.mutual_inductances
            == expected.mutual_inductances
        )

    @pytest.mark.parametrize(
        "fixture", ["rc_ladder.cir", "rlc_param.cir", "sources_zoo.cir"]
    )
    def test_fixture_simulates_like_handbuilt(self, fixture):
        parsed = parse_netlist_file(NETLIST_DIR / fixture)
        circuit = parsed.bind()
        t_stop, dt = suggest_transient_window(circuit, n_samples=400)
        result = simulate_transient(circuit, t_stop, dt)
        # Re-parse the emitted netlist text and simulate that too: the
        # fixture, its text round trip, and the hand-built equivalent
        # (where one exists) must all agree.
        reparsed = parse_netlist(circuit.to_netlist()).bind()
        again = simulate_transient(reparsed, t_stop, dt)
        for node in circuit.node_names():
            delta = np.abs(result.voltage(node).values
                           - again.voltage(node).values)
            assert delta.max() <= 1e-12

    def test_rlc_param_fixture_structure(self):
        parsed = parse_netlist_file(NETLIST_DIR / "rlc_param.cir")
        assert parsed.title == "parametric two-segment RLC line"
        assert parsed.circuit.parameter_names() == ("ct", "lt", "rt")
        assert parsed.defaults == {"rt": 100.0, "lt": 1 * 1e-9, "ct": 1 * 1e-12}

    @staticmethod
    def _run(argv, tmp_path, name="summary.json"):
        """``python -m repro run --netlist ...`` with ``--summary``: the
        exit status and the summary document."""
        from repro.__main__ import main

        out = tmp_path / name
        status = main(["run", "--netlist", *argv, "--summary", str(out)])
        return status, json.loads(out.read_text())

    def test_run_netlist_dir_summary(self, tmp_path, capsys):
        status, summary = self._run([str(NETLIST_DIR)], tmp_path)
        assert status == 0
        assert summary["n_files"] == len(list(NETLIST_DIR.glob("*.cir")))
        assert summary["n_ok"] == summary["n_files"]
        assert set(summary) == {
            "schema", "generated_by", "n_files", "n_ok", "files"
        }
        for record in summary["files"]:
            assert record["ok"]
            assert set(record) == {
                "file", "title", "n_elements", "n_nodes", "params",
                "output_node", "v_final", "delay_50_s", "ok", "seconds",
            }

    @pytest.mark.parametrize("name", ["rc_ladder.cir", "rlc_param.cir"])
    def test_run_netlist_header_prints_the_summary_title(self, name, tmp_path,
                                                         capsys):
        """The report header names the title the summary record stores,
        the file stem for a netlist without a ``.title`` line."""
        path = NETLIST_DIR / name
        status, summary = self._run([str(path)], tmp_path)
        assert status == 0
        [record] = summary["files"]
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"netlist: {path} (title: {record['title']})"
        if name == "rc_ladder.cir":
            assert record["title"] == "rc_ladder"

    def test_run_netlist_dir_writes_summary(self, tmp_path, capsys):
        status, summary = self._run([str(NETLIST_DIR)], tmp_path)
        assert status == 0
        assert summary["n_ok"] == summary["n_files"]
        out = capsys.readouterr().out
        assert f"{summary['n_ok']}/{summary['n_files']} netlists ok" in out
        assert "summary written to" in out

    def test_run_netlist_dir_reports_failures(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.cir").write_text("R1 a b 5qq\n")
        status, summary = self._run([str(corpus)], tmp_path)
        assert status == 1
        assert (summary["n_ok"], summary["n_files"]) == (0, 1)
        out = capsys.readouterr().out
        assert f"{corpus / 'bad.cir'}: FAIL: unknown unit suffix" in out
        assert "0/1 netlists ok" in out

    def test_run_netlist_dir_is_each_file_alone(self, tmp_path, capsys):
        """A directory run prints and records, for every file, exactly
        what ``run --netlist`` of that file alone does."""
        status, summary = self._run([str(NETLIST_DIR)], tmp_path)
        assert status == 0
        corpus_out = capsys.readouterr().out
        for i, record in enumerate(summary["files"]):
            status, alone = self._run(
                [record["file"]], tmp_path, name=f"alone{i}.json"
            )
            assert status == 0
            assert capsys.readouterr().out.split("summary written")[0] in (
                corpus_out
            )
            [alone_record] = alone["files"]
            del record["seconds"], alone_record["seconds"]
            assert record == alone_record

    def test_run_netlist_dir_measures_current_source(self, tmp_path, capsys):
        """A netlist driven only by a current source is measured too."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "irc.cir").write_text(
            "I1 0 a STEP(0 1m)\nR1 a 0 1k\nC1 a 0 1p\n"
        )
        status, summary = self._run([str(corpus)], tmp_path)
        assert status == 0
        [record] = summary["files"]
        assert record["output_node"] == "a"
        assert record["v_final"] == pytest.approx(1.0, abs=1e-3)
        # 50% of an RC step: ln(2) * 1 ns, to the 4 ps step.
        assert record["delay_50_s"] == pytest.approx(694.8e-12, abs=0.1e-12)

    def test_run_netlist_dir_bad_file_fails_alone(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for fixture in NETLIST_DIR.glob("*.cir"):
            (corpus / fixture.name).write_text(fixture.read_text())
        (corpus / "bad.cir").write_text("R1 a b 5qq\n")
        status, summary = self._run([str(corpus)], tmp_path)
        assert status == 1
        assert (summary["n_ok"], summary["n_files"]) == (4, 5)
        by_name = {
            pathlib.Path(r["file"]).name: r for r in summary["files"]
        }
        assert not by_name.pop("bad.cir")["ok"]
        _, reference = self._run([str(NETLIST_DIR)], tmp_path, "ref.json")
        for record in reference["files"]:
            measured = by_name[pathlib.Path(record["file"]).name]
            assert measured["delay_50_s"] == record["delay_50_s"]
            assert measured["v_final"] == record["v_final"]

    def test_run_netlist_dir_param_fails_files_without_slot(
        self, tmp_path, capsys
    ):
        """``--param`` applies to every file; a file without the slot
        fails on its own."""
        status, summary = self._run(
            [str(NETLIST_DIR), "--param", "rt=50"], tmp_path
        )
        assert status == 1
        ok = {
            pathlib.Path(r["file"]).name: r["ok"] for r in summary["files"]
        }
        assert ok == {
            "rc_ladder.cir": False,
            "rlc_param.cir": True,
            "sources_zoo.cir": False,
            "wires_short.cir": False,
        }
        [measured] = [r for r in summary["files"] if r["ok"]]
        assert measured["params"]["rt"] == 50.0


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------


def _pi_ladder_netlist(n_segments: int = 120) -> str:
    """A parametric RLC pi ladder: a driven, loaded line in ``n_segments``
    sections, each a series R-L with half its shunt C at either end."""
    lines = [
        "* parametric RLC pi ladder",
        ".param rt=1000 lt=1e-6 ct=1e-12 rtr=100 cl=1e-13",
        "V1 src 0 STEP(0 1)",
        "Rtr src n0 {rtr}",
    ]
    for i in range(1, n_segments + 1):
        lines += [
            f"R{i} n{i - 1} m{i} {{rt/{n_segments}}}",
            f"L{i} m{i} n{i} {{lt/{n_segments}}}",
            f"Ca{i} n{i - 1} 0 {{ct/{2 * n_segments}}}",
            f"Cb{i} n{i} 0 {{ct/{2 * n_segments}}}",
        ]
    lines += [f"Cl n{n_segments} 0 {{cl}}", ".end"]
    return "\n".join(lines) + "\n"


def _with_selections(call):
    """``call()`` and the ``rom.model_selected`` counters it recorded."""
    with obs.capture():
        value = call()
        entries = obs.REGISTRY.snapshot()["counters"].get(
            "rom.model_selected", []
        )
    obs.reset()
    return value, {
        (entry["labels"]["model"], entry["labels"]["rule"]): entry["value"]
        for entry in entries
    }


class TestNetlistCli:
    def test_run_netlist(self, capsys):
        from repro.__main__ import main

        fixture = NETLIST_DIR / "rlc_param.cir"
        status = main(["run", "--netlist", str(fixture), "--node", "out"])
        assert status == 0
        out = capsys.readouterr().out
        assert "v(out)" in out
        assert "delay_50" in out

    def test_run_netlist_with_overrides(self, capsys):
        from repro.__main__ import main

        fixture = NETLIST_DIR / "rlc_param.cir"
        status = main(
            ["run", "--netlist", str(fixture), "--param", "rt=500"]
        )
        assert status == 0
        assert "rt=500" in capsys.readouterr().out

    def test_run_requires_experiment_or_netlist(self, capsys):
        from repro.__main__ import main

        assert main(["run"]) == 2
        assert "required" in capsys.readouterr().err

    def test_run_rejects_both(self, capsys):
        from repro.__main__ import main

        assert main(["run", "EXP-T1", "--netlist", "x.cir"]) == 2

    def test_run_netlist_bad_node(self, capsys):
        from repro.__main__ import main

        fixture = NETLIST_DIR / "rc_ladder.cir"
        assert main(["run", "--netlist", str(fixture), "--node", "zz"]) == 2
        assert "not in netlist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("name", "message"),
        [("missing.cir", "No such file"), ("empty", "no *.cir files")],
    )
    def test_run_netlist_unreadable_path(self, name, message, tmp_path,
                                         capsys):
        """A missing file or a directory without netlists exits 2 with
        a message, not a traceback."""
        from repro.__main__ import main

        (tmp_path / "empty").mkdir()
        assert main(["run", "--netlist", str(tmp_path / name)]) == 2
        assert message in capsys.readouterr().err

    def test_sweep_netlist(self, capsys):
        from repro.__main__ import main

        fixture = NETLIST_DIR / "rlc_param.cir"
        status = main(
            [
                "sweep",
                "--netlist",
                str(fixture),
                "--axis",
                "rt=10,100",
                "--node",
                "out",
                "--n-samples",
                "200",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "netlist sweep" in out
        assert "delay_50_s" in out

    def test_sweep_netlist_requires_parametric(self, capsys):
        from repro.__main__ import main

        fixture = NETLIST_DIR / "rc_ladder.cir"
        status = main(
            ["sweep", "--netlist", str(fixture), "--axis", "rt=1,2"]
        )
        assert status == 2
        assert "no {...} parameter slots" in capsys.readouterr().err

    def test_sweep_netlist_rejects_unknown_param(self, capsys):
        from repro.__main__ import main

        fixture = NETLIST_DIR / "rlc_param.cir"
        status = main(
            ["sweep", "--netlist", str(fixture), "--axis", "zz=1,2"]
        )
        assert status == 2
        assert "unknown netlist parameter" in capsys.readouterr().err

    def test_sweep_netlist_rejects_directory(self, capsys):
        from repro.__main__ import main

        status = main(
            ["sweep", "--netlist", str(NETLIST_DIR), "--axis", "rt=10,100"]
        )
        assert status == 2
        assert "takes one file" in capsys.readouterr().err

    def test_sweep_netlist_note_counts_steps(self, capsys):
        """Under ``--dt`` the note reports the step count every point
        takes: the largest span over ``dt``, not ``--n-samples``."""
        from repro.__main__ import main
        from repro.spice.transient import simulate_transient_batch

        fixture = NETLIST_DIR / "rlc_param.cir"
        status = main(
            ["sweep", "--netlist", str(fixture), "--axis", "rt=10,100,1000",
             "--axis", "lt=1e-9,3e-9", "--dt", "1e-12", "--window", "2"]
        )
        assert status == 0
        out = capsys.readouterr().out
        parsed = parse_netlist_file(fixture)
        points = [
            {"rt": rt, "lt": lt}
            for rt in (10.0, 100.0, 1000.0)
            for lt in (1e-9, 3e-9)
        ]
        _, rows = _measure_netlist(parsed, points, dt=1e-12, window=2.0)
        stepped = simulate_transient_batch(
            parsed.template(),
            points,
            [row[1] for row in rows],
            [row[2] for row in rows],
            record=["out"],
        ).n_steps
        assert stepped > 20000
        assert f"; {stepped} samples/point" in out

    @pytest.mark.parametrize(
        "option",
        [
            ["--route", "mna"],
            ["--n-segments", "7"],
            ["--workers", "2"],
            ["--cache-dir", "netlist-cache"],
            ["--no-cache"],
        ],
        ids=lambda option: option[0],
    )
    def test_sweep_netlist_rejects_ignored_option(self, option, capsys):
        from repro.__main__ import main

        fixture = NETLIST_DIR / "rlc_param.cir"
        status = main(
            ["sweep", "--netlist", str(fixture), "--axis", "rt=10,100",
             *option]
        )
        assert status == 2
        assert f"does not take {option[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["full", "reduced", "auto"])
    def test_run_netlist_is_one_point_sweep(self, model, tmp_path, capsys):
        """``run --netlist`` at the defaults is the one-point ``sweep
        --netlist`` there: the same delay, served by the same tier."""
        from repro.__main__ import main

        ladder = tmp_path / "ladder.cir"
        ladder.write_text(_pi_ladder_netlist())
        status, run_tier = _with_selections(
            lambda: main(["run", "--netlist", str(ladder), "--model", model])
        )
        assert status == 0
        run_out = capsys.readouterr().out
        status, sweep_tier = _with_selections(
            lambda: main(
                ["sweep", "--netlist", str(ladder), "--axis", "rt=1000",
                 "--model", model]
            )
        )
        assert status == 0
        sweep_out = capsys.readouterr().out
        assert run_tier == sweep_tier
        assert bool(run_tier) == (model != "full")
        run_delay = re.search(r"delay_50=(\S+) ns", run_out).group(1)
        sweep_delay = re.search(r"^\s*1000\s+(\S+)", sweep_out, re.M).group(1)
        assert float(run_delay) * 1e-9 == pytest.approx(
            float(sweep_delay), rel=1e-12
        )

    @pytest.mark.parametrize("backend", ["dense", "sparse", "banded"])
    @pytest.mark.parametrize("netlist", ["rlc_param", "pi_ladder"])
    def test_measurement_is_batch_of_one(self, netlist, backend):
        """A batch's rows are the rows of each point measured alone."""
        parsed = (
            parse_netlist(_pi_ladder_netlist())
            if netlist == "pi_ladder"
            else parse_netlist_file(NETLIST_DIR / "rlc_param.cir")
        )
        rt = parsed.defaults["rt"]
        points = [{"rt": rt * scale} for scale in (0.5, 1.0, 1.7)]
        node, rows = _measure_netlist(parsed, points, backend=backend)
        singles = [
            _measure_netlist(parsed, [point], backend=backend)
            for point in points
        ]
        assert [one_node for one_node, _ in singles] == [node] * 3
        alone = [one_rows[0] for _, one_rows in singles]
        assert [row[1:] for row in rows] == [row[1:] for row in alone]
        assert [row[0].elements for row in rows] == [
            row[0].elements for row in alone
        ]


# ---------------------------------------------------------------------------
# suggest_transient_window
# ---------------------------------------------------------------------------


class TestSuggestWindow:
    def test_rc_window_covers_settling(self):
        circuit = parse_netlist("V1 in 0 STEP(0 1)\nR1 in out 1k\nC1 out 0 1p\n").circuit
        t_stop, dt = suggest_transient_window(circuit, n_samples=500)
        assert t_stop >= 5 * 1e3 * 1e-12  # > 5 RC
        assert dt == pytest.approx(t_stop / 500)
        result = simulate_transient(circuit, t_stop, dt)
        assert result.voltage("out").final_value == pytest.approx(1.0, abs=1e-3)

    def test_floor_for_degenerate_circuits(self):
        circuit = parse_netlist("V1 in 0 1\nR1 in 0 1k\n").circuit
        t_stop, _ = suggest_transient_window(circuit)
        assert t_stop >= 1e-9
