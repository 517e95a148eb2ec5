"""Tests for the repro.analysis subpackage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comparison import compare_designs
from repro.analysis.length_dependence import (
    delay_versus_length,
    fitted_length_exponent,
    rc_lc_crossover_length,
)
from repro.analysis.merit import inductance_length_window, inductance_matters
from repro.analysis.scaling_study import scaling_table
from repro.analysis.sensitivity import delay_elasticities
from repro.core.canonical import DriverLineLoad
from repro.errors import ParameterError


class TestLengthDependence:
    R, L, C = 2000.0, 3e-7, 1.8e-10  # ohm/m, H/m, F/m

    def test_pure_rc_exponent_is_two(self):
        lengths = np.geomspace(5e-3, 5e-2, 8)
        delays = delay_versus_length(self.R, 1e-20, self.C, lengths)
        assert fitted_length_exponent(lengths, delays) == pytest.approx(2.0, abs=0.02)

    def test_lossless_exponent_is_one(self):
        lengths = np.geomspace(1e-3, 1e-2, 8)
        delays = delay_versus_length(1e-9, self.L, self.C, lengths)
        assert fitted_length_exponent(lengths, delays) == pytest.approx(1.0, abs=0.02)

    def test_real_wire_transitions(self):
        """Short wires linear (flight), long wires quadratic-ward."""
        crossover = rc_lc_crossover_length(self.R, self.L, self.C)
        short = np.geomspace(crossover / 30, crossover / 10, 5)
        long = np.geomspace(10 * crossover, 50 * crossover, 5)
        exp_short = fitted_length_exponent(
            short, delay_versus_length(self.R, self.L, self.C, short)
        )
        exp_long = fitted_length_exponent(
            long, delay_versus_length(self.R, self.L, self.C, long)
        )
        assert exp_short < 1.2
        assert exp_long > 1.8

    def test_crossover_formula(self):
        got = rc_lc_crossover_length(self.R, self.L, self.C)
        assert got == pytest.approx(
            np.sqrt(self.L / self.C) / (0.37 * self.R), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            delay_versus_length(self.R, self.L, self.C, [0.0])
        with pytest.raises(ParameterError):
            fitted_length_exponent([1.0], [1.0])


class TestMerit:
    R, L, C = 2000.0, 3e-7, 1.8e-10

    def test_window_bounds(self):
        window = inductance_length_window(self.R, self.L, self.C, 5e-11)
        assert window.lower == pytest.approx(
            5e-11 / (2 * np.sqrt(self.L * self.C))
        )
        assert window.upper == pytest.approx(
            (2.0 / self.R) * np.sqrt(self.L / self.C)
        )
        assert window.exists

    def test_window_closes_for_slow_edges(self):
        window = inductance_length_window(self.R, self.L, self.C, 1e-8)
        assert not window.exists
        assert not window.contains(1e-2)

    def test_contains(self):
        window = inductance_length_window(self.R, self.L, self.C, 5e-11)
        mid = 0.5 * (window.lower + window.upper)
        assert window.contains(mid)
        assert not window.contains(window.upper * 2)

    def test_inductance_matters(self):
        assert inductance_matters(self.R, self.L, self.C, 1e-2, 5e-11)
        assert not inductance_matters(self.R, self.L, self.C, 1e-4, 1e-8)


class TestSensitivity:
    def test_rc_regime_elasticities(self):
        """Deep RC: delay ~ Rt*Ct, so elasticities (1, 0, 1)."""
        line = DriverLineLoad(rt=5000.0, lt=1e-13, ct=5e-12)
        e = delay_elasticities(line)
        assert e["rt"] == pytest.approx(1.0, abs=0.02)
        assert e["ct"] == pytest.approx(1.0, abs=0.02)
        assert abs(e["lt"]) < 0.02
        assert e["rtr"] == 0.0 and e["cl"] == 0.0

    def test_lc_regime_elasticities(self):
        """Lossless: delay ~ sqrt(Lt*Ct), elasticities (0, 1/2, 1/2)."""
        line = DriverLineLoad(rt=1e-3, lt=1e-9, ct=1e-12)
        e = delay_elasticities(line)
        assert e["lt"] == pytest.approx(0.5, abs=0.02)
        assert e["ct"] == pytest.approx(0.5, abs=0.02)
        assert abs(e["rt"]) < 0.02

    def test_homogeneity_sum(self):
        """Sum of elasticities: 2 in RC land, 1 in LC land."""
        rc = DriverLineLoad(rt=5000.0, lt=1e-13, ct=5e-12)
        lc = DriverLineLoad(rt=1e-3, lt=1e-9, ct=1e-12)
        assert sum(delay_elasticities(rc).values()) == pytest.approx(2.0, abs=0.05)
        assert sum(delay_elasticities(lc).values()) == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        line = DriverLineLoad(rt=100.0, lt=1e-9, ct=1e-12)
        with pytest.raises(ParameterError):
            delay_elasticities(line, relative_step=0.5)


class TestScalingTable:
    def test_rows_for_all_nodes(self):
        rows = scaling_table()
        assert len(rows) == 6

    def test_penalties_grow_on_copper_nodes(self):
        rows = [r for r in scaling_table() if r.node != "350nm"]
        delay_pcts = [r.delay_increase_percent for r in rows]
        area_pcts = [r.area_increase_percent for r in rows]
        assert all(b >= a for a, b in zip(delay_pcts, delay_pcts[1:]))
        assert all(b > a for a, b in zip(area_pcts, area_pcts[1:]))


class TestComparison:
    def test_scorecard_model_only(self, clock_spine, min_buffer):
        results = compare_designs(clock_spine, min_buffer, simulate=False)
        labels = [r.label for r in results]
        assert labels == ["rc-bakoglu", "rlc-paper", "rlc-numerical"]
        by_label = {r.label: r for r in results}
        # Model objective: our numerical optimum is the best of the three.
        assert (
            by_label["rlc-numerical"].model_delay
            <= by_label["rc-bakoglu"].model_delay
        )
        assert by_label["rc-bakoglu"].area > by_label["rlc-paper"].area

    def test_simulated_ordering(self, clock_spine, min_buffer):
        """Ground truth at T=5: inductance-aware designs beat Bakoglu."""
        results = compare_designs(
            clock_spine, min_buffer, simulate=True, n_segments=50
        )
        by_label = {r.label: r for r in results}
        rc = by_label["rc-bakoglu"]
        assert by_label["rlc-numerical"].simulated_delay < rc.simulated_delay
        assert by_label["rlc-paper"].simulated_delay < rc.simulated_delay
        # Positive penalty percentages.
        assert rc.delay_vs(by_label["rlc-numerical"]) > 0
        assert rc.area_vs(by_label["rlc-paper"]) > 100.0  # paper: 435% at T=5
