"""Lumped-ladder approximations of a distributed RLC line.

The paper's Fig. 1 circuit -- step source, gate resistance ``Rtr``,
uniform distributed RLC line (totals ``Rt``, ``Lt``, ``Ct``), load
capacitance ``CL`` -- is approximated by ``n`` identical lumped segments.
Two builders are provided from one :class:`LadderSpec`:

- :func:`build_ladder_circuit` returns a :class:`~repro.spice.netlist.Circuit`
  for the MNA transient engine;
- :func:`build_ladder_state_space` returns the same network as an explicit
  :class:`~repro.spice.statespace.StateSpace` model (states: inductor
  currents and capacitor voltages) for exact matrix-exponential stepping.

Segment topologies
------------------

``L``  : series (R/n, L/n) then shunt C/n.  Simplest; O(1/n) delay error.
``PI`` : shunt C/2n, series (R/n, L/n), shunt C/2n.  Adjacent half-caps
         merge, giving interior caps of C/n with C/2n at both ends;
         O(1/n**2) error.  Default.
``T``  : series half, shunt C/n, series half.  Interior halves merge;
         also O(1/n**2).

Internally every topology reduces to one *chain description*: ``nb``
series branches ``(R_i, L_i)`` joining node positions ``0 .. nb`` with a
shunt capacitance at each position (possibly zero at the driver side).
Position 0 attaches to the step source through ``Rtr``; the last position
is the measured far end and includes ``CL``.

Convergence of the 50% delay with ``n`` is exercised in the test suite:
with PI segments a few tens of segments give sub-1% delay accuracy
against the exact distributed solution of :mod:`repro.tline`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ParameterError, require_nonnegative, require_positive
from repro.spice.mna import CircuitTemplate
from repro.spice.netlist import Circuit, Param, Step
from repro.spice.statespace import StateSpace

__all__ = [
    "LadderTopology",
    "LadderSpec",
    "build_ladder_circuit",
    "build_ladder_template",
    "build_ladder_state_space",
]


class LadderTopology(str, enum.Enum):
    """Lumped segment arrangement."""

    L = "L"
    PI = "PI"
    T = "T"


@dataclass(frozen=True)
class _Chain:
    """Flattened ladder: branches ``(r[i], l[i])`` join positions i, i+1."""

    r: np.ndarray  # shape (nb,)
    l: np.ndarray  # shape (nb,)
    caps: np.ndarray  # shape (nb + 1,), caps[k] at position k

    @property
    def n_branches(self) -> int:
        return self.r.size


@dataclass(frozen=True)
class LadderSpec:
    """A driver/line/load instance plus its lumping parameters.

    Attributes
    ----------
    rt, lt, ct:
        Total line resistance, inductance, capacitance (SI units).
    rtr:
        Driver output resistance (must be > 0; use a tiny value to
        approximate an ideal driver).
    cl:
        Load capacitance (may be 0).
    n_segments:
        Number of identical lumped segments.
    topology:
        Segment arrangement (default PI).
    """

    rt: float
    lt: float
    ct: float
    rtr: float
    cl: float = 0.0
    n_segments: int = 64
    topology: LadderTopology = LadderTopology.PI

    def __post_init__(self) -> None:
        require_nonnegative("rt", self.rt)
        require_positive("lt", self.lt)
        require_positive("ct", self.ct)
        require_positive("rtr", self.rtr)
        require_nonnegative("cl", self.cl)
        if not isinstance(self.n_segments, int) or self.n_segments < 1:
            raise ParameterError(
                f"n_segments must be a positive integer, got {self.n_segments!r}"
            )
        object.__setattr__(self, "topology", LadderTopology(self.topology))

    @property
    def output_node(self) -> str:
        """Name of the far-end node in the generated circuit."""
        return f"n{self._chain().n_branches}"

    def _chain(self) -> _Chain:
        """Reduce the topology to the flat chain description."""
        branch_w, cap_w = _chain_weights(
            self.n_segments, self.topology, loaded=self.cl > 0
        )
        r = self.rt * np.asarray(branch_w)
        lind = self.lt * np.asarray(branch_w)
        caps = self.ct * np.asarray(cap_w)
        caps[-1] += self.cl
        return _Chain(r=r, l=lind, caps=caps)


def _chain_weights(
    n: int, topology: LadderTopology, loaded: bool
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-position weights of the flat chain, as fractions of the totals.

    Returns ``(branch_weights, cap_weights)``: branch ``i`` carries
    ``branch_weights[i] * (Rt, Lt)`` and position ``k`` carries
    ``cap_weights[k] * Ct`` (the load capacitance is *not* folded in
    here).  This single source of truth feeds both the numeric
    :meth:`LadderSpec._chain` and the parameterized
    :func:`build_ladder_template`.
    """
    topology = LadderTopology(topology)
    seg = 1.0 / n
    if topology is LadderTopology.L:
        branch = (seg,) * n
        caps = (0.0,) + (seg,) * n
    elif topology is LadderTopology.PI:
        branch = (seg,) * n
        caps = (seg / 2,) + (seg,) * (n - 1) + (seg / 2,)
    elif loaded:
        # T, loaded far end: half | C | full | ... | C | half.
        branch = (seg / 2,) + (seg,) * (n - 1) + (seg / 2,)
        caps = (0.0,) + (seg,) * n + (0.0,)
    else:
        # T, open far end: the trailing half-branch carries no current
        # and is dropped exactly; the far node is the last mid-cap.
        branch = (seg / 2,) + (seg,) * (n - 1)
        caps = (0.0,) + (seg,) * n
    return branch, caps


@lru_cache(maxsize=64)
def build_ladder_template(
    n_segments: int = 64,
    topology: LadderTopology | str = LadderTopology.PI,
    loaded: bool = True,
    v_step: float = 1.0,
) -> CircuitTemplate:
    """Parameterized ladder: structure fixed, element values as Params.

    The stamp-once / re-value-many view of
    :func:`build_ladder_circuit`: one template serves every
    ``(rt, lt, ct, rtr, cl)`` combination that shares the segment count
    and topology.  Parameter slots are ``rt``, ``lt``, ``ct``, ``rtr``
    and -- when ``loaded`` -- ``cl``; the far-end capacitor merges its
    ``ct`` share with ``cl`` exactly as the concrete builder does.

    ``loaded`` selects the ``cl > 0`` structure (a load capacitor at
    the far end; for the T topology also the trailing half-branch) --
    it must match the circuits being modeled, because zero-vs-nonzero
    ``cl`` is a *structural* difference for T ladders.

    Results are memoized per ``(n_segments, topology, loaded, v_step)``,
    so repeated calls (e.g. one per sweep chunk) reuse the cached MNA
    structure.
    """
    topology = LadderTopology(topology)
    branch_w, cap_w = _chain_weights(n_segments, topology, loaded)
    ckt = Circuit(
        f"RLC ladder template {topology.value} n={n_segments}"
    )
    ckt.add_voltage_source("vin", "in", "0", Step(0.0, v_step))
    ckt.add_resistor("rtr", "in", "n0", Param("rtr"))
    for i, w in enumerate(branch_w):
        ckt.add_resistor(f"r{i + 1}", f"n{i}", f"x{i + 1}", Param("rt", w))
        ckt.add_inductor(f"l{i + 1}", f"x{i + 1}", f"n{i + 1}", Param("lt", w))
    last = len(cap_w) - 1
    for k, w in enumerate(cap_w):
        value = Param("ct", w) if w > 0 else None
        if k == last and loaded:
            value = value + Param("cl") if value is not None else Param("cl")
        if value is not None:
            ckt.add_capacitor(f"c{k}", f"n{k}", "0", value)
    return CircuitTemplate(ckt)


def build_ladder_circuit(spec: LadderSpec, v_step: float = 1.0) -> Circuit:
    """Materialize the ladder as a netlist driven by an ideal step.

    Node names: ``in`` (source), ``n0`` (after ``Rtr``, the line input),
    ``n1 .. n{nb}`` along the chain; ``spec.output_node`` is the far end.
    Internal nodes ``x{i}`` split each branch's R from its L.

    This is a thin ``template.bind(...)`` wrapper over
    :func:`build_ladder_template`; the template path and this concrete
    path are therefore structurally identical by construction (and
    regression-pinned to <= 1e-12 agreement in the equivalence suite).
    """
    loaded = spec.cl > 0
    template = build_ladder_template(
        spec.n_segments, spec.topology, loaded=loaded, v_step=v_step
    )
    params = {"rt": spec.rt, "lt": spec.lt, "ct": spec.ct, "rtr": spec.rtr}
    if loaded:
        params["cl"] = spec.cl
    return template.bind(
        params,
        title=(
            f"RLC ladder {spec.topology.value} n={spec.n_segments} "
            f"(Rt={spec.rt:g}, Lt={spec.lt:g}, Ct={spec.ct:g})"
        ),
    )


def build_ladder_state_space(spec: LadderSpec) -> StateSpace:
    """Explicit state-space model of the ladder (input: source voltage).

    States: the ``nb`` branch (inductor) currents followed by the
    capacitor voltages of every position with nonzero capacitance; the
    output is the far-end node voltage.  When position 0 carries no
    capacitance (L and T topologies) the driver resistor is merged into
    the first branch, whose left terminal is then the ideal source.

    The states are in scaled units: branch current ``I_i`` is stored
    as ``sigma_i * I_i`` with ``sigma_i`` the power of two nearest
    ``sqrt(L_i)``, and capacitor voltage ``V_k`` as ``sigma_k * V_k``
    with ``sigma_k`` nearest ``sqrt(C_k)`` (each state's square is then
    about twice its stored energy).  Raw SI states mix ``1/L`` and
    ``1/C`` entries many decades apart, so ``expm(A dt)`` on an
    inductance-dominated line squares a badly scaled matrix and runs on
    subnormal numbers; scaled, every coupling entry is about
    ``1/sqrt(L_i C_k)``, the segment's natural frequency.  Powers of
    two make this diagonal similarity exact: the transfer function is
    unchanged and the output row reads ``V_far`` back with one exact
    factor.
    """
    chain = spec._chain()
    nb = chain.n_branches
    caps = chain.caps
    if caps[-1] <= 0:  # pragma: no cover - excluded by _chain construction
        raise ParameterError("far-end position carries no capacitance")

    has_input_cap = caps[0] > 0.0
    cap_positions = [k for k in range(nb + 1) if caps[k] > 0.0]
    cap_state = {pos: nb + i for i, pos in enumerate(cap_positions)}
    n_states = nb + len(cap_positions)

    a = np.zeros((n_states, n_states))
    b = np.zeros((n_states, 1))

    # Branch equations: L_i dI_i/dt = V_i - V_{i+1} - R_i I_i.
    for i in range(nb):
        r_eff = chain.r[i]
        left_state = cap_state.get(i)
        if i == 0 and not has_input_cap:
            # No cap at the line input: the driver resistor is in series
            # with branch 0 and the left terminal is the unit source.
            r_eff += spec.rtr
            b[0, 0] = 1.0 / chain.l[0]
        elif left_state is not None:
            a[i, left_state] += 1.0 / chain.l[i]
        right_state = cap_state.get(i + 1)
        if right_state is not None:
            a[i, right_state] -= 1.0 / chain.l[i]
        a[i, i] -= r_eff / chain.l[i]

    # Node equations: C_k dV_k/dt = I_in - I_out (+ driver feed at pos 0).
    for pos in cap_positions:
        row = cap_state[pos]
        ck = caps[pos]
        if pos > 0:
            a[row, pos - 1] += 1.0 / ck
        if pos < nb:
            a[row, pos] -= 1.0 / ck
        if pos == 0:
            a[row, row] -= 1.0 / (spec.rtr * ck)
            b[row, 0] = 1.0 / (spec.rtr * ck)

    c_row = np.zeros(n_states)
    c_row[cap_state[nb]] = 1.0

    sigma = _state_units(chain)
    a *= sigma[:, None] / sigma[None, :]
    b *= sigma[:, None]
    c_row /= sigma
    return StateSpace(a=a, b=b, c=c_row)


def _state_units(chain: _Chain) -> np.ndarray:
    """Per-state factors of :func:`build_ladder_state_space`'s units.

    The power of two nearest (on a log scale) ``sqrt(L_i)`` for each
    branch current, then ``sqrt(C_k)`` for each nonzero capacitance.
    """
    inertia = np.concatenate([chain.l, chain.caps[chain.caps > 0.0]])
    return np.ldexp(1.0, np.rint(0.5 * np.log2(inertia)).astype(int))
