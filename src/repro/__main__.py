"""The command line: regenerate artifacts, measure netlists, run sweeps.

This is the package's only command-line entry point; the experiment
drivers and the netlist frontend are reached through its subcommands.

Usage::

    python -m repro list                # show the experiment registry
    python -m repro run EXP-E18         # regenerate one table/figure
    python -m repro run all             # regenerate everything (slow)
    python -m repro run --netlist f.cir # measure a netlist at one point
    python -m repro run --netlist dir   # ...or every *.cir file in dir
    python -m repro sweep --list        # show the batch quantities
    python -m repro sweep propagation_delay --axis rt=log:100:5000:7 \\
        --fixed lt=1e-8 --fixed ct=1e-12
    python -m repro sweep --netlist f.cir --axis rt=log:10:1000:7
    python -m repro lint                # static analysis of src/repro
    python -m repro lint --fix-baseline # refresh manifest + baseline
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time

from repro import obs
from repro.errors import ReproError
from repro.experiments import REGISTRY, render_table
from repro.experiments.common import metrics_footer
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.sweep.cli import (
    _measure_netlist_args,
    _parse_fixed,
    add_simulation_arguments,
    add_sweep_arguments,
    run_sweep,
)


#: ``run`` options that only a netlist run reads: ``--param``,
#: ``--summary`` and the shared simulation options.
_NETLIST_OPTIONS = (
    "param", "summary", "node", "n_samples", "window", "dt", "backend",
    "model", "rom_order", "rom_error_bound",
)


def _cmd_list() -> int:
    width = max(len(k) for k in REGISTRY)
    for exp_id, module in REGISTRY.items():
        doc = (module.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{exp_id:<{width}}  {summary}")
    return 0


def _run_netlist_file(args: argparse.Namespace, path, overrides) -> dict:
    """Measure one netlist file at one point, a one-point netlist sweep;
    print its report and return its summary record."""
    from repro.spice.parser import parse_netlist_file
    from repro.units import format_si

    parsed = parse_netlist_file(path)
    node, [(circuit, t_stop, dt, delay, final)] = _measure_netlist_args(
        args, parsed, [overrides]
    )
    print(f"netlist: {path} (title: {parsed.title})")
    bound = (
        ", ".join(f"{k}={v:g}" for k, v in sorted(overrides.items()))
        if overrides
        else "defaults"
    )
    print(
        f"elements: {len(circuit)}, nodes: {len(circuit.node_names())}, "
        f"params: {bound}"
    )
    print(
        f"window: t_stop={format_si(t_stop, 's')}, "
        f"dt={format_si(dt, 's')}"
    )
    delay_text = (
        "n/a (no 50% crossing)" if math.isnan(delay) else format_si(delay, "s")
    )
    print(f"v({node}): final={final:.6g} V, delay_50={delay_text}")
    return {
        "title": parsed.title,
        "n_elements": len(circuit),
        "n_nodes": len(circuit.node_names()),
        "params": {**parsed.defaults, **overrides},
        "output_node": node,
        "v_final": final,
        "delay_50_s": None if math.isnan(delay) else delay,
    }


def _cmd_run_netlist(args: argparse.Namespace) -> int:
    """Measure a netlist file, or every ``*.cir`` file of a directory
    (sorted; each one fails alone), and optionally write a JSON
    summary of the per-file records."""
    if args.metrics:
        obs.enable()
    root = pathlib.Path(args.netlist)
    corpus = root.is_dir()
    files = sorted(root.glob("*.cir")) if corpus else [args.netlist]
    try:
        if not files:
            raise ReproError(f"no *.cir files in {args.netlist!r}")
        overrides = dict(_parse_fixed(text) for text in args.param)
    except ReproError as exc:
        print(f"netlist run failed: {exc}", file=sys.stderr)
        return 2
    records = []
    for path in files:
        record: dict = {"file": str(path)}
        started = time.perf_counter()
        try:
            record.update(_run_netlist_file(args, path, overrides), ok=True)
        except (ReproError, OSError) as exc:
            if not corpus:
                print(f"netlist run failed: {exc}", file=sys.stderr)
                return 2
            print(f"{path}: FAIL: {exc}")
            record.update(ok=False, error=str(exc))
        record["seconds"] = round(time.perf_counter() - started, 6)
        records.append(record)
    n_ok = sum(record["ok"] for record in records)
    if corpus:
        print(f"{n_ok}/{len(records)} netlists ok")
    if args.summary:
        with open(args.summary, "w") as handle:
            json.dump(
                {
                    "schema": 1,
                    "generated_by": "python -m repro run --netlist",
                    "n_files": len(records),
                    "n_ok": n_ok,
                    "files": records,
                },
                handle,
                indent=1,
                sort_keys=True,
            )
        print(f"summary written to {args.summary}")
    if args.metrics:
        print()
        print(metrics_footer())
    return 0 if n_ok == len(records) else 1


def _cmd_run(exp_id: str, metrics: bool = False) -> int:
    if metrics:
        obs.enable()
    if exp_id == "all":
        for key in REGISTRY:
            print(render_table(REGISTRY[key].run()))
            print()
    else:
        module = REGISTRY.get(exp_id.upper())
        if module is None:
            known = ", ".join(REGISTRY)
            print(
                f"unknown experiment {exp_id!r}; known: {known}",
                file=sys.stderr,
            )
            return 2
        print(render_table(module.run()))
    if metrics:
        print()
        print(metrics_footer())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser and its subcommands."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of Ismail & Friedman (DAC 1999): "
        "regenerate the paper's tables and figures, or sweep the models "
        "over parameter grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the experiment registry")
    run_parser = sub.add_parser(
        "run",
        help="regenerate one experiment (or 'all'), or simulate a netlist",
    )
    run_parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id, e.g. EXP-T1 (omit with --netlist)",
    )
    run_parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable instrumentation and print a telemetry footer",
    )
    run_parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a netlist {...} parameter (repeatable)",
    )
    run_parser.add_argument(
        "--summary",
        metavar="PATH",
        help="write the per-netlist JSON summary of --netlist here",
    )
    add_simulation_arguments(run_parser)
    sweep_parser = sub.add_parser(
        "sweep",
        help="batch-evaluate a quantity over a parameter grid",
        description="Vectorized batch evaluation over cartesian/zipped "
        "parameter grids with result caching (see repro.sweep).",
    )
    add_sweep_arguments(sweep_parser)
    lint_parser = sub.add_parser(
        "lint",
        help="run the repository's static-analysis rules",
        description="AST-based invariant checks: numerics fingerprint "
        "guard, SI-unit hygiene, observability hygiene, API-surface "
        "drift (see repro.lint and docs/static-analysis.md).",
    )
    add_lint_arguments(lint_parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "sweep":
        return run_sweep(args)
    if args.command == "lint":
        return run_lint_command(args)
    if args.netlist:
        if args.experiment:
            print(
                "give an experiment id or --netlist, not both",
                file=sys.stderr,
            )
            return 2
        return _cmd_run_netlist(args)
    if not args.experiment:
        print(
            "an experiment id (or --netlist PATH) is required",
            file=sys.stderr,
        )
        return 2
    ignored = [
        "--" + name.replace("_", "-")
        for name in _NETLIST_OPTIONS
        if getattr(args, name) not in (None, [])
    ]
    if ignored:
        print(
            f"run {args.experiment} does not take {', '.join(ignored)} "
            "(netlist options; see run --netlist)",
            file=sys.stderr,
        )
        return 2
    return _cmd_run(args.experiment, metrics=args.metrics)


if __name__ == "__main__":
    raise SystemExit(main())
