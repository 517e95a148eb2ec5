"""Tests for the CLI entry point and the remaining experiment drivers."""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro.__main__ import build_parser, main
from repro.experiments import crosstalk_study, refit, zeta_collapse


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T1" in out and "EXP-X6" in out

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "EXP-X4"]) == 0
        out = capsys.readouterr().out
        assert "250nm" in out

    def test_run_case_insensitive(self, capsys):
        assert main(["run", "exp-x4"]) == 0

    def test_unknown_experiment(self, capsys):
        assert main(["run", "EXP-NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    SHARED = (
        "--netlist", "--node", "--dt", "--backend", "--model",
        "--rom-order", "--rom-error-bound", "--n-samples", "--window",
    )

    @staticmethod
    def _options(subcommand):
        sub = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        return {
            option: (tuple(action.option_strings), action.dest, action.type,
                     action.default, action.help)
            for action in sub.choices[subcommand]._actions
            for option in action.option_strings
        }

    def test_run_experiment_rejects_netlist_options(self, tmp_path, capsys):
        """An experiment run exits 2 naming the netlist options it would
        ignore, and runs nothing: no summary file appears."""
        summary = tmp_path / "x.json"
        argv = ["run", "EXP-E18", "--summary", str(summary), "--node", "zz",
                "--param", "a=1", "--dt", "5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        for flag in ("--summary", "--node", "--param", "--dt"):
            assert flag in err
        assert not summary.exists()

    def test_run_experiment_takes_no_netlist_option(self, capsys):
        """Every ``run`` option but the experiment's own is rejected."""
        own = {"-h", "--help", "--metrics", "--netlist"}
        for option in sorted(set(self._options("run")) - own):
            assert main(["run", "EXP-X4", option, "1"]) == 2, option
            assert option in capsys.readouterr().err
        assert main(["run", "all", "--window", "3"]) == 2

    def test_run_and_sweep_share_the_simulation_options(self):
        run, sweep = self._options("run"), self._options("sweep")
        for option in self.SHARED:
            assert run[option] == sweep[option]
        assert run["--dt"][2] is float and run["--rom-order"][2] is int
        assert run["--rom-error-bound"][2] is float


class TestZetaCollapseDriver:
    def test_small_run(self):
        table = zeta_collapse.run(
            zeta_values=np.array([0.5, 2.0]), ratio_grid=(0.0, 1.0)
        )
        assert len(table.rows) == 2
        # Spread shrinks deep into the RC regime.
        spreads = table.column("spread_%")
        assert spreads[1] < spreads[0]
        # Simulated band brackets are ordered.
        for row in table.rows:
            assert row[1] <= row[3] <= row[2]  # min <= mean <= max


class TestRefitDriver:
    def test_delay_refit_lands_near_published(self):
        result = refit.refit_delay_model(
            zeta_values=np.linspace(0.3, 2.5, 8), n_segments=80
        )
        a, b, c = result.parameters
        assert a == pytest.approx(2.9, abs=0.5)
        assert b == pytest.approx(1.35, abs=0.25)
        assert c == pytest.approx(1.48, abs=0.08)
        assert result.max_relative_error < 0.08


class TestCrosstalkStudyDriver:
    def test_two_point_sweep(self):
        table = crosstalk_study.run(
            spacings_um=(0.6, 4.0), n_segments=12
        )
        # Rows of the original two-line pair analysis, which the two-line
        # bus analysis must reproduce exactly.
        assert table.rows == (
            (0.6, 1151.0, 0.47, 16.5, -5.3, 120.5, 114.5, 144.3),
            (4.0, 172.7, 0.4, 7.0, -19.5, 107.3, 112.3, 94.5),
        )
        close, far = table.rows
        assert close[1] > far[1]  # coupling cap falls with spacing
        assert close[3] > far[3]  # so does the positive glitch
