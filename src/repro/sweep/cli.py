"""``python -m repro sweep`` -- run batch sweeps from the command line.

Axis syntax (repeat ``--axis`` per dimension; declaration order is the
grid order, first axis varies slowest)::

    --axis rt=log:10:10000:25        25 log-spaced values
    --axis ct=lin:1e-13:1e-12:5      5 linearly spaced values
    --axis lt=1e-9,5e-9,1e-8         an explicit list
    --axis node=250nm,180nm          a technology-node axis (strings)

``--zip a,b`` fuses previously declared axes into one dimension that
advances in lockstep (e.g. ``rt``/``lt``/``ct`` columns of a length
sweep).  ``--fixed name=value`` supplies scalars shared by all points.

Examples::

    python -m repro sweep --list
    python -m repro sweep propagation_delay \\
        --axis rt=log:100:5000:7 --axis lt=log:1e-9:1e-6:5 \\
        --fixed ct=1e-12 --fixed rtr=100 --fixed cl=1e-13 --max-rows 12
    python -m repro sweep simulated_delay_50 \\
        --axis zeta=0.5,1,2 --fixed r_ratio=0.1 --fixed c_ratio=0.1 \\
        --route tline --workers 4

``--netlist FILE`` sweeps a parametric netlist file instead of a named
quantity: the axes/fixed values map onto the netlist's ``{...}``
parameter slots and every grid point is stepped in one
:func:`~repro.spice.transient.simulate_transient_batch` call::

    python -m repro sweep --netlist line.cir --axis rt=log:10:1000:7 \\
        --node out
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys

from repro import obs
from repro.errors import ReproError
from repro.sweep.grid import Axis, ParameterGrid, Sweep
from repro.sweep.runner import _SIMULATOR_OPTIONS, QUANTITIES, SweepRunner

__all__ = [
    "add_simulation_arguments",
    "add_sweep_arguments",
    "build_sweep",
    "run_sweep",
]


def add_simulation_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the simulation options both ``run`` and ``sweep`` take.

    One argument group -- ``--netlist``, ``--node``, ``--n-samples``,
    ``--window``, ``--dt``, ``--backend``, ``--model``, ``--rom-order``
    and ``--rom-error-bound`` -- so the two subcommands cannot drift
    apart in option names, types or help.  Every option defaults to
    ``None`` (the callee's default).
    """
    group = parser.add_argument_group("simulation options")
    group.add_argument(
        "--netlist",
        metavar="PATH",
        help="SPICE-like netlist file to simulate (run; a directory "
        "runs each of its *.cir files) or whose {...} parameter slots "
        "to sweep (sweep)",
    )
    group.add_argument(
        "--node",
        help="netlist node to measure (default: last node in the file)",
    )
    group.add_argument(
        "--n-samples", type=int, help="output samples across the window"
    )
    group.add_argument(
        "--window", type=float, help="simulated span multiplier"
    )
    group.add_argument(
        "--dt",
        type=float,
        help="MNA time step in seconds (default: from the window and "
        "sample count)",
    )
    group.add_argument(
        "--backend",
        help="MNA linear-solver backend (auto | dense | sparse | banded)",
    )
    group.add_argument(
        "--model",
        help="evaluation-model tier for MNA simulation "
        "(full | reduced | auto)",
    )
    group.add_argument(
        "--rom-order",
        type=int,
        help="reduced order q for --model reduced/auto",
    )
    group.add_argument(
        "--rom-error-bound",
        type=float,
        help="error bound gating reduced answers under --model auto",
    )


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``sweep`` subcommand's arguments to ``parser``."""
    parser.add_argument(
        "quantity",
        nargs="?",
        help="batch quantity to evaluate (see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_quantities",
        help="list the available quantities and exit",
    )
    parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help="add an axis: name=log:start:stop:num | name=lin:start:stop:num"
        " | name=v1,v2,...",
    )
    parser.add_argument(
        "--zip",
        action="append",
        default=[],
        dest="zips",
        metavar="A,B[,C...]",
        help="advance the named (previously declared) axes in lockstep",
    )
    parser.add_argument(
        "--fixed",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fix a scalar parameter for every grid point",
    )
    parser.add_argument(
        "--route",
        help="simulator route for simulated quantities "
        "(statespace | tline | mna)",
    )
    parser.add_argument(
        "--n-segments", type=int, help="ladder segments (simulated routes)"
    )
    add_simulation_arguments(parser)
    parser.add_argument(
        "--workers",
        type=int,
        help=(
            "worker-pool size for simulated sweeps (default: the CPUs "
            "this process may run on)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        help="directory for the on-disk result cache (default: no disk cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="force re-evaluation even if a cached result exists",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=32,
        help="cap printed rows (evenly subsampled); 0 prints all",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable instrumentation and print the span tree after the run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="enable instrumentation and write the metrics JSON to PATH",
    )


def _parse_axis(text: str) -> Axis:
    name, sep, spec = text.partition("=")
    if not sep or not name or not spec:
        raise ReproError(f"bad axis {text!r}; expected NAME=SPEC")
    if spec.startswith(("log:", "lin:")):
        kind, *parts = spec.split(":")
        if len(parts) != 3:
            raise ReproError(
                f"bad axis {text!r}; expected {kind}:start:stop:num"
            )
        try:
            start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ReproError(f"bad axis {text!r}: {exc}") from exc
        maker = Axis.log if kind == "log" else Axis.linear
        return maker(name, start, stop, num)
    values: list = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ReproError(f"bad axis {text!r}; empty value")
        try:
            values.append(float(token))
        except ValueError:
            values.append(token)
    return Axis(name, values)


def _parse_fixed(text: str):
    name, sep, value = text.partition("=")
    if not sep or not name or not value:
        raise ReproError(f"bad parameter value {text!r}; expected NAME=VALUE")
    try:
        return name, float(value)
    except ValueError:
        return name, value


def _build_grid(args: argparse.Namespace) -> tuple[ParameterGrid, dict]:
    """The ``--axis``/``--zip``/``--fixed`` arguments as (grid, fixed)."""
    axes = [_parse_axis(text) for text in args.axis]
    if not axes:
        raise ReproError("at least one --axis is required")
    by_name = {axis.name: axis for axis in axes}
    if len(by_name) != len(axes):
        raise ReproError("duplicate axis names")

    zipped: dict[str, int] = {}
    groups: list[list[Axis]] = []
    for zip_spec in args.zips:
        members = [token.strip() for token in zip_spec.split(",")]
        unknown = [m for m in members if m not in by_name]
        if len(members) < 2 or unknown:
            raise ReproError(
                f"bad --zip {zip_spec!r}; name >= 2 declared axes"
            )
        if any(m in zipped for m in members):
            raise ReproError(f"axis in more than one --zip: {zip_spec!r}")
        group_index = len(groups)
        groups.append([by_name[m] for m in members])
        zipped.update({m: group_index for m in members})

    components: list = []
    seen_groups: set[int] = set()
    for axis in axes:
        if axis.name in zipped:
            index = zipped[axis.name]
            if index not in seen_groups:
                seen_groups.add(index)
                components.append(tuple(groups[index]))
        else:
            components.append(axis)

    fixed = dict(_parse_fixed(text) for text in args.fixed)
    return ParameterGrid(*components), fixed


def build_sweep(args: argparse.Namespace) -> Sweep:
    """Translate parsed CLI arguments into a :class:`Sweep` spec."""
    grid, fixed = _build_grid(args)
    options = {
        name: getattr(args, name)
        for name in _SIMULATOR_OPTIONS
        if getattr(args, name) is not None
    }
    return Sweep(args.quantity, grid, fixed, options)


def _subsample(rows: list, max_rows: int | None) -> list:
    """Evenly subsample ``rows`` down to ``max_rows`` (None keeps all)."""
    if max_rows is None or len(rows) <= max_rows:
        return rows
    step = (len(rows) - 1) / (max_rows - 1) if max_rows > 1 else 0.0
    return [rows[round(i * step)] for i in range(max_rows)]


def _measure_netlist_args(args: argparse.Namespace, parsed, points):
    """``_measure_netlist`` of ``points`` under the simulator options of
    ``args``, all but the ladder's ``route`` and ``n_segments``."""
    from repro.spice.parser import _measure_netlist

    options = {
        name: getattr(args, name)
        for name in _SIMULATOR_OPTIONS
        if name not in ("route", "n_segments")
    }
    return _measure_netlist(parsed, points, args.node, **options)


def _run_netlist_sweep(args: argparse.Namespace) -> int:
    """Sweep a parametric netlist file's ``{...}`` slots over a grid."""
    from repro.experiments.common import ExperimentTable, render_table
    from repro.spice.parser import parse_netlist_file

    ignored = [
        flag
        for flag, value in (
            ("--route", args.route), ("--n-segments", args.n_segments),
            ("--workers", args.workers), ("--cache-dir", args.cache_dir),
            ("--no-cache", args.no_cache or None),
        )
        if value is not None
    ]
    if ignored:
        raise ReproError(f"sweep --netlist does not take {', '.join(ignored)}")
    if pathlib.Path(args.netlist).is_dir():
        raise ReproError(
            f"sweep --netlist takes one file, not the directory "
            f"{args.netlist!r}; 'python -m repro run --netlist' measures "
            "every netlist of a directory"
        )
    parsed = parse_netlist_file(args.netlist)
    if not parsed.is_parametric:
        raise ReproError(
            f"netlist {args.netlist!r} has no {{...}} parameter slots to "
            "sweep; use 'python -m repro run --netlist' for a single shot"
        )
    grid, fixed = _build_grid(args)
    slots = set(parsed.circuit.parameter_names())
    unknown = sorted((set(grid.names) | set(fixed)) - slots)
    if unknown:
        raise ReproError(
            f"unknown netlist parameter(s) {', '.join(unknown)}; "
            f"slots: {', '.join(sorted(slots))}"
        )
    overlap = sorted(set(grid.names) & set(fixed))
    if overlap:
        raise ReproError(
            f"parameter(s) both swept and fixed: {', '.join(overlap)}"
        )
    points = [{**fixed, **point} for point in grid.points()]
    node, answers = _measure_netlist_args(args, parsed, points)
    rows = [
        tuple(point[name] for name in grid.names) + (delay, final)
        for point, (_, _, _, delay, final) in zip(points, answers)
    ]
    shown = _subsample(rows, args.max_rows if args.max_rows > 0 else None)
    # The lockstep batch's step count (one for every point): its span
    # over its step, less round-off, as simulate_transient_batch counts.
    _, span, step, _, _ = answers[0]
    notes = [
        f"{grid.size} grid point(s) stepped in one "
        f"simulate_transient_batch call; "
        f"{max(1, math.ceil(span / step * (1.0 - 1e-12)))} samples/point",
    ]
    if fixed:
        notes.append(
            "fixed: "
            + ", ".join(f"{k}={v:g}" for k, v in sorted(fixed.items()))
        )
    if len(shown) < len(rows):
        notes.append(f"showing {len(shown)} of {len(rows)} rows")
    table = ExperimentTable(
        experiment_id="SWEEP",
        title=f"netlist sweep: {args.netlist} v({node})",
        headers=tuple(grid.names) + ("delay_50_s", "v_final_v"),
        rows=tuple(shown),
        notes=tuple(notes),
    )
    print(render_table(table))
    return 0


def _list_quantities() -> int:
    width = max(len(name) for name in QUANTITIES)
    for name in sorted(QUANTITIES):
        quantity = QUANTITIES[name]
        kind = "simulator" if quantity.simulated else "kernel"
        inputs = ", ".join(quantity.inputs)
        outputs = ", ".join(quantity.outputs)
        print(f"{name:<{width}}  [{kind}]  ({inputs}) -> ({outputs})")
    return 0


def run_sweep(args: argparse.Namespace) -> int:
    """Entry point for the ``sweep`` subcommand; returns an exit code."""
    from repro.experiments.common import render_table

    if args.list_quantities:
        return _list_quantities()
    instrumented = bool(args.trace or args.metrics_out)
    if args.netlist:
        if args.quantity:
            print(
                "give a quantity or --netlist, not both", file=sys.stderr
            )
            return 2
        if instrumented:
            obs.enable()
        try:
            status = _run_netlist_sweep(args)
        except ReproError as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            print()
            print(obs.render_trace())
        if args.metrics_out:
            path = obs.write_metrics(
                args.metrics_out, extra={"netlist": args.netlist}
            )
            print(f"metrics written to {path}")
        return status
    if not args.quantity:
        print("a quantity is required (see --list)", file=sys.stderr)
        return 2
    if instrumented:
        obs.enable()
    try:
        sweep = build_sweep(args)
        runner = SweepRunner(
            cache_dir=args.cache_dir, max_workers=args.workers
        )
        result = runner.run(sweep, refresh=args.no_cache)
        table = result.to_table(
            max_rows=args.max_rows if args.max_rows > 0 else None
        )
    except ReproError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    print(render_table(table))
    print(runner.stats.summary())
    if args.trace:
        print()
        print(obs.render_trace())
    if args.metrics_out:
        path = obs.write_metrics(
            args.metrics_out,
            extra={"sweep": sweep.spec(), "stats": runner.stats.as_dict()},
        )
        print(f"metrics written to {path}")
    return 0
