"""EXP-X9: H-tree sink skew vs repeater insertion (extension).

Not a paper artifact -- the clock-distribution scenario the new
:mod:`repro.topology` generators unlock.  A symmetric H-tree delivers
the clock to every sink with (ideally) zero skew; in practice one sink
is often heavier than the rest (a hungry local clock gater, a bigger
latch bank), and the shared upstream wire lets that one load slow
*every* sink while still skewing its own branch the most.  The classic
fix is repeater insertion at the branch points: each repeater isolates
its subtree, so upstream delay is shared exactly and the load
imbalance is confined to the heavy sink's own (short) branch wire.

Four scenarios on the chosen technology node's global layer, all
simulated by full MNA transients of the generated topologies:

- ``flat``            -- one driver, passive tree, symmetric loads;
- ``flat+heavy``      -- same tree, one sink ``heavy_weight`` x larger;
- ``repeatered``      -- repeaters at the level-1 branch points; each
  stage simulated separately and path delays added per sink (the
  standard stage-decoupling approximation);
- ``repeatered+heavy``-- repeatered tree with the same heavy sink.

Reported per scenario: min/max sink delay and the skew (max - min).
The headline comparison is ``flat+heavy`` vs ``repeatered+heavy``:
repeaters cut the load-imbalance skew by confining it to the last
stage.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.experiments.common import ExperimentTable
from repro.spice.netlist import Circuit, Step
from repro.spice.parser import suggest_transient_window
from repro.spice.transient import simulate_transient
from repro.technology.nodes import node_by_name
from repro.topology import HTreeSpec, add_rlc_line, build_htree_circuit

__all__ = ["make_tree_spec", "run"]


def make_tree_spec(
    node_name: str = "250nm",
    span: float = 4e-3,
    levels: int = 2,
    driver_size: float = 120.0,
    sink_size: float = 30.0,
    n_segments: int = 4,
    sink_cl_weights: tuple[float, ...] | None = None,
) -> HTreeSpec:
    """An H-tree on the node's global layer spanning ``span`` meters.

    The trunk is half the span; each level halves the wire length
    (``length_ratio = 0.5``), so the driver-to-sink wire totals
    ``span/2 + span/4 + ...`` approach ``span``.  Driver and sink
    loads come from the node's buffer parameters (``r0 / driver_size``
    and ``c0 * sink_size``), keeping every physical value derived from
    the technology description.
    """
    node = node_by_name(node_name)
    r, l, c = node.wire_rlc("global")
    trunk = span / 2.0
    return HTreeSpec(
        levels=levels,
        rt=r * trunk,
        lt=l * trunk,
        ct=c * trunk,
        rtr=node.r0 / driver_size,
        cl=node.c0 * sink_size,
        n_segments=n_segments,
        sink_cl_weights=sink_cl_weights,
    )


def _sink_delays(
    circuit: Circuit, sinks, backend: str = "auto"
) -> dict[str, float]:
    """Per-sink 50% delays of one transient run over ``circuit``."""
    t_stop, dt = suggest_transient_window(circuit)
    result = simulate_transient(circuit, t_stop, dt, backend=backend)
    return {s: result.voltage(s).delay_50() for s in sinks}


def _repeater_stage2(
    spec: HTreeSpec,
    repeater_size: float,
    node_name: str,
    weights: tuple[float, float],
    backend: str,
) -> dict[str, float]:
    """Delays of one repeater's 2-sink subtree (built incrementally).

    The subtree branches immediately at the repeater output (no trunk),
    so it is stamped directly with :func:`~repro.topology.add_rlc_line`
    -- the per-branch wires are the tree's level-``levels`` wires.
    """
    node = node_by_name(node_name)
    scale = spec.length_ratio**spec.levels
    ckt = Circuit("repeater stage-2 subtree")
    ckt.add_voltage_source("vin", "in", "0", Step(0.0, 1.0))
    ckt.add_resistor("rdrv", "in", "hub", node.r0 / repeater_size)
    for j, weight in enumerate(weights):
        add_rlc_line(
            ckt,
            f"b{j}",
            "hub",
            f"s{j}",
            spec.rt * scale,
            spec.lt * scale,
            spec.ct * scale,
            spec.n_segments,
        )
        ckt.add_capacitor(f"cl{j}", f"s{j}", "0", spec.cl * weight)
    return _sink_delays(ckt, [f"s{j}" for j in range(len(weights))], backend)


def _repeatered_delays(
    spec: HTreeSpec,
    repeater_size: float,
    node_name: str,
    backend: str,
) -> dict[str, float]:
    """Per-sink path delays with repeaters at the level-1 branch points.

    Stage 1 is the trunk + level-1 wires loaded by the repeater input
    capacitances (an ``levels=1`` H-tree); stage 2 is each repeater
    driving its own 2-sink subtree.  Path delay = stage-1 delay at the
    repeater's branch point + stage-2 delay at the sink, the standard
    decoupled-stage approximation for repeatered nets.
    """
    if spec.levels != 2:
        raise ParameterError(
            f"repeater insertion is modeled at the level-1 branch points "
            f"of a levels=2 tree, got levels={spec.levels}"
        )
    node = node_by_name(node_name)
    stage1 = HTreeSpec(
        levels=1,
        rt=spec.rt,
        lt=spec.lt,
        ct=spec.ct,
        rtr=spec.rtr,
        cl=node.c0 * repeater_size,
        n_segments=spec.n_segments,
        length_ratio=spec.length_ratio,
    )
    stage1_delays = _sink_delays(
        build_htree_circuit(stage1), stage1.sink_nodes, backend
    )
    weights = spec.sink_cl_weights or (1.0,) * 4
    delays = {}
    for branch, (w_even, w_odd) in zip(
        ("b0", "b1"), (weights[0:2], weights[2:4])
    ):
        stage2 = _repeater_stage2(
            spec, repeater_size, node_name, (w_even, w_odd), backend
        )
        for j, sub_sink in enumerate(("s0", "s1")):
            sink = branch + str(j)
            delays[sink] = stage1_delays[branch] + stage2[sub_sink]
    return delays


def run(
    node_name: str = "250nm",
    span: float = 4e-3,
    driver_size: float = 120.0,
    sink_size: float = 30.0,
    repeater_sizes=(60.0, 120.0, 240.0),
    heavy_weight: float = 3.0,
    n_segments: int = 4,
    backend: str = "auto",
) -> ExperimentTable:
    """Flat vs repeatered H-tree under a heavy sink, vs repeater size.

    The flat rows set the baseline (balanced tree: zero skew; heavy
    sink: the skew to beat).  The repeatered rows re-run the heavy
    scenario with branch-point repeaters of increasing strength: weak
    repeaters *add* skew (their own resistance multiplies the load
    imbalance), strong ones isolate the subtrees and push the skew well
    below the flat tree -- at the price of total path delay.  The table
    exposes that tradeoff directly.
    """
    heavy = (heavy_weight,) + (1.0,) * 3
    scenarios = []

    def add_row(label, repeater, delays) -> None:
        values = list(delays.values())
        t_min, t_max = min(values), max(values)
        scenarios.append(
            (
                label,
                repeater,
                round(t_min * 1e12, 1),
                round(t_max * 1e12, 1),
                round((t_max - t_min) * 1e12, 2),
            )
        )

    for label, weights in (("flat", None), ("flat+heavy", heavy)):
        spec = make_tree_spec(
            node_name=node_name,
            span=span,
            levels=2,
            driver_size=driver_size,
            sink_size=sink_size,
            n_segments=n_segments,
            sink_cl_weights=weights,
        )
        add_row(
            label,
            "-",
            _sink_delays(build_htree_circuit(spec), spec.sink_nodes, backend),
        )
    heavy_spec = make_tree_spec(
        node_name=node_name,
        span=span,
        levels=2,
        driver_size=driver_size,
        sink_size=sink_size,
        n_segments=n_segments,
        sink_cl_weights=heavy,
    )
    for size in repeater_sizes:
        add_row(
            "repeatered+heavy",
            f"h={size:g}",
            _repeatered_delays(heavy_spec, float(size), node_name, backend),
        )
    notes = (
        f"levels=2 H-tree (4 sinks) spanning {span * 1e3:.0f} mm on the "
        f"{node_name} global layer; h={driver_size:.0f} driver, "
        f"h={sink_size:.0f} sinks",
        f"heavy rows load sink b00 with {heavy_weight:g}x the nominal "
        "capacitance",
        "repeatered rows insert repeaters at the level-1 branch points; "
        "path delay = sum of decoupled stage delays",
        "skew = max - min sink delay; strong repeaters isolate the "
        "heavy subtree (skew below the flat tree), weak ones amplify "
        "the imbalance through their own resistance",
    )
    return ExperimentTable(
        experiment_id="EXP-X9",
        title="H-tree sink skew vs repeater insertion (extension study)",
        headers=(
            "scenario",
            "repeater",
            "t50_min_ps",
            "t50_max_ps",
            "skew_ps",
        ),
        rows=tuple(scenarios),
        notes=notes,
    )
