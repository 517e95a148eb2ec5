"""Materialize a :class:`~repro.bus.spec.BusSpec` as a netlist.

The generated circuit is ``n_physical`` parallel PI ladders (one per
track, shields included) with distributed coupling capacitances and
segmentwise mutual inductances between every coupled slot pair, all
expressed with the primitive elements of :mod:`repro.spice.netlist` --
so MNA assembly stays on the backend-neutral COO-triplet path and every
:class:`~repro.spice.backend.SimulationBackend` (dense / sparse /
banded) can serve the resulting system.

One materializer emits both flavors of the bus:

- :func:`build_bus_circuit` -- the concrete netlist for one parameter
  point (unchanged public behavior), and
- :func:`build_bus_template` -- a
  :class:`~repro.spice.mna.CircuitTemplate` whose electrical values
  (``rt``/``lt``/``ct``/``cct``/``rtr``/``cl``) are
  :class:`~repro.spice.netlist.Param` slots, for the stamp-once /
  re-value-many batch analyses.  Both paths walk the same element loop,
  so they cannot drift structurally; the equivalence suite additionally
  pins ``template.bind(values)`` against the concrete builder.

Node naming (prefix ``P`` is :meth:`BusSpec.slot_prefix`, i.e.
``b{slot}_``): driver source node ``inP``, ladder nodes ``P0 .. Pn``,
internal R-L split nodes ``xP1 .. xPn``.  A two-line spec is the
classic aggressor/victim pair: slot 0 is ``b0_``, slot 1 ``b1_``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.bus.spec import BusSpec, LineSwitch
from repro.errors import ParameterError
from repro.spice.mna import CircuitTemplate
from repro.spice.netlist import Circuit, Param, Step

__all__ = ["build_bus_circuit", "build_bus_template", "switch_waveform"]


def switch_waveform(switch: LineSwitch | str, v_step: float = 1.0) -> Step:
    """Driver waveform for one line's switching behaviour.

    ``rise``/``fall`` are ideal steps at ``t = 0`` between 0 and
    ``v_step``; ``quiet``/``high`` hold 0 / ``v_step`` throughout.
    """
    switch = LineSwitch(switch)
    if switch is LineSwitch.RISE:
        return Step(0.0, v_step)
    if switch is LineSwitch.FALL:
        return Step(v_step, 0.0)
    if switch is LineSwitch.QUIET:
        return Step(0.0, 0.0)
    return Step(v_step, v_step)


def _pi_weights(n: int) -> list[float]:
    """Per-node PI capacitance weights: half segments at both ends."""
    weights = [1.0] * (n + 1)
    weights[0] = 0.5
    weights[n] = 0.5
    return weights


def _is_nonzero(value) -> bool:
    """True for a Param (always a live slot) or a nonzero number."""
    return isinstance(value, Param) or value > 0.0


def _materialize_bus(
    spec: BusSpec,
    switches: tuple[LineSwitch, ...],
    v_step: float,
    parametric: bool,
) -> Circuit:
    """Shared element loop behind the concrete and template builders.

    In ``parametric`` mode the uniform electrical values are emitted as
    :class:`~repro.spice.netlist.Param` slots (shield tracks follow the
    line parameters unless an explicit ``shield_rlc`` pins them); in
    concrete mode the element values come straight from the spec, and
    zero-valued shunts/couplings are skipped as always.
    """
    n = spec.n_segments
    n_physical = spec.n_physical
    prefixes = [spec.slot_prefix(slot) for slot in range(n_physical)]
    kind = "bus template" if parametric else "bus"
    title = (
        f"{kind} n_lines={spec.n_lines} shields={len(spec.shields)} "
        f"n={n} (Cc={spec.cct:g}, km={spec.km:g}, "
        f"pattern={'/'.join(s.value for s in switches)})"
    )

    if parametric:
        def line_rtr(line: int):
            return Param("rtr")

        def line_cl(line: int):
            return Param("cl")

        def slot_rlc(slot: int):
            if spec.is_shield_slot(slot) and spec.shield_rlc is not None:
                return spec.shield_rlc
            return (Param("rt"), Param("lt"), Param("ct"))

        def pair_cct(separation: int):
            decay = spec.cct_decay_factor(separation)
            return Param("cct", decay) if decay > 0.0 else 0.0
    else:
        def line_rtr(line: int):
            return spec.rtr[line]

        def line_cl(line: int):
            return spec.cl[line]

        def slot_rlc(slot: int):
            return spec.slot_rlc(slot)

        def pair_cct(separation: int):
            return spec.cct * spec.cct_decay_factor(separation)

    ckt = Circuit(title)
    weights = _pi_weights(n)
    shield_set = set(spec.shields)

    # Drivers first (legacy element order: sources, then ladders).
    for line, slot in enumerate(spec.signal_slots):
        p = prefixes[slot]
        ckt.add_voltage_source(
            f"vin{p}", f"in{p}", "0", switch_waveform(switches[line], v_step)
        )
        ckt.add_resistor(f"rtr{p}", f"in{p}", f"{p}0", line_rtr(line))
    for slot in sorted(shield_set):
        p = prefixes[slot]
        ckt.add_resistor(f"rsh{p}", f"{p}0", "0", spec.rtr_shield)

    # Per-track PI ladders: series R-L branches, then shunt caps.
    for slot in range(n_physical):
        p = prefixes[slot]
        rt, lt, _ = slot_rlc(slot)
        r_seg = rt / n
        l_seg = lt / n
        for i in range(n):
            ckt.add_resistor(f"r{p}{i + 1}", f"{p}{i}", f"x{p}{i + 1}", r_seg)
            ckt.add_inductor(f"l{p}{i + 1}", f"x{p}{i + 1}", f"{p}{i + 1}", l_seg)
    for i, w in enumerate(weights):
        for slot in range(n_physical):
            p = prefixes[slot]
            c_seg = slot_rlc(slot)[2] / n
            ckt.add_capacitor(f"cg{p}{i}", f"{p}{i}", "0", w * c_seg)

    # Coupling: distributed caps with PI weights, segmentwise mutuals.
    for slot_p, slot_q, s in spec.coupled_pairs():
        cct_pq = pair_cct(s)
        km_pq = spec.km_at(s)
        p, q = prefixes[slot_p], prefixes[slot_q]
        if _is_nonzero(cct_pq):
            cc_seg = cct_pq / n
            for i, w in enumerate(weights):
                ckt.add_capacitor(
                    f"cc{p}{q}{i}", f"{p}{i}", f"{q}{i}", w * cc_seg
                )
        if km_pq > 0.0:
            for i in range(1, n + 1):
                ckt.add_mutual_inductance(
                    f"k{p}{q}{i}", f"l{p}{i}", f"l{q}{i}", km_pq
                )

    # Loads and shield far-end ties.
    for line, slot in enumerate(spec.signal_slots):
        cl = line_cl(line)
        if _is_nonzero(cl):
            p = prefixes[slot]
            ckt.add_capacitor(f"cl{p}", f"{p}{n}", "0", cl)
    if spec.shield_grounded_far:
        for slot in sorted(shield_set):
            p = prefixes[slot]
            ckt.add_resistor(f"rshf{p}", f"{p}{n}", "0", spec.rtr_shield)
    return ckt


def build_bus_circuit(
    spec: BusSpec,
    pattern=LineSwitch.RISE,
    v_step: float = 1.0,
) -> Circuit:
    """Build the coupled-bus netlist for one switching pattern.

    Parameters
    ----------
    spec:
        The bus instance (lines, coupling, shields).
    pattern:
        Per-signal-line switching behaviour: a sequence of
        :class:`~repro.bus.spec.LineSwitch` (or their string values),
        or a single switch broadcast to every line.  Defaults to the
        even mode (all lines rise).
    v_step:
        Driver swing (V).
    """
    switches = spec.normalized_pattern(pattern)
    return _materialize_bus(spec, switches, v_step, parametric=False)


def _require_uniform(spec: BusSpec) -> None:
    nonuniform = [
        name
        for name in ("rt", "lt", "ct", "rtr", "cl")
        if len(set(getattr(spec, name))) != 1
    ]
    if nonuniform:
        raise ParameterError(
            f"bus templates need uniform per-line values; {nonuniform} "
            "vary across lines -- use build_bus_circuit for that spec"
        )


@lru_cache(maxsize=16)
def _cached_bus_template(
    spec: BusSpec,
    switches: tuple[LineSwitch, ...],
    v_step: float,
) -> CircuitTemplate:
    circuit = _materialize_bus(spec, switches, v_step, parametric=True)
    defaults = {
        "rt": spec.rt[0],
        "lt": spec.lt[0],
        "ct": spec.ct[0],
        "cct": spec.cct,
        "rtr": spec.rtr[0],
        "cl": spec.cl[0],
    }
    # A degenerate layout can drop slots entirely (e.g. a single track
    # has no coupling pairs, hence no "cct" Param); keep only defaults
    # whose slot actually exists in the materialized circuit.
    present = set(circuit.parameter_names())
    return CircuitTemplate(
        circuit,
        defaults={k: v for k, v in defaults.items() if k in present},
    )


def build_bus_template(
    spec: BusSpec,
    pattern=LineSwitch.RISE,
    v_step: float = 1.0,
) -> CircuitTemplate:
    """Parameterized bus: structure fixed, electrical values as Params.

    The stamp-once / re-value-many view of :func:`build_bus_circuit`
    for *uniform* buses (every signal line sharing one ``rt``, ``lt``,
    ``ct``, ``rtr`` and ``cl``).  Parameter slots are ``rt``, ``lt``,
    ``ct``, ``cct``, ``rtr`` and ``cl``, with the spec's own values as
    defaults, so ``build_bus_template(spec).bind()`` reproduces
    ``build_bus_circuit(spec)`` element for element.  Shield tracks
    follow the line parameters (same metal layer) unless the spec pins
    an explicit ``shield_rlc``; the switching pattern, shield layout,
    coupling range/decay and ``km`` stay structural.

    Non-uniform specs raise :class:`~repro.errors.ParameterError` --
    per-line variation is a structural difference, use the concrete
    builder for those.

    Templates are memoized per ``(spec, pattern, v_step)``, so repeated
    calls (one per sweep chunk, say) share one cached MNA structure.
    """
    switches = spec.normalized_pattern(pattern)
    _require_uniform(spec)
    return _cached_bus_template(spec, switches, float(v_step))
