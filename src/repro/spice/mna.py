"""Modified Nodal Analysis (MNA) assembly.

Builds the standard linear MNA description of a circuit::

    G x(t) + C dx/dt = b(t)

where ``x`` stacks the non-ground node voltages followed by the branch
currents of voltage sources and inductors.  ``G`` collects resistive and
topological stamps, ``C`` collects capacitive/inductive (dynamic) stamps,
and ``b(t)`` collects the independent sources.

Stamps (rows/cols ``i``/``j`` are the element's +/- node indices, ``m``
its branch index):

=================  =====================================================
Resistor ``R``     ``G[i,i] += 1/R`` etc. (classic conductance stamp)
Capacitor ``C``    same pattern into the ``C`` matrix
Inductor ``L``     KCL: ``G[i,m] += 1``, ``G[j,m] -= 1``;
                   branch: ``G[m,i] += 1``, ``G[m,j] -= 1``, ``C[m,m] -= L``
V source           KCL: ``G[i,m] += 1``, ``G[j,m] -= 1``;
                   branch: ``G[m,i] += 1``, ``G[m,j] -= 1``, ``b[m] = V(t)``
I source           ``b[i] -= I(t)``, ``b[j] += I(t)``
=================  =====================================================

Assembly is split into a *structural* pass and a *numeric* pass
(the stamp-once / re-value-many design):

- :func:`build_mna_structure` walks the netlist once and produces an
  :class:`MnaStructure`: the frozen COO sparsity pattern, the node and
  branch index maps, the source slots, and -- for every element value
  declared as a :class:`~repro.spice.netlist.Param` -- the bookkeeping
  needed to rewrite just the COO ``data`` arrays for new values.
- :meth:`MnaStructure.revalue_many` maps a batch of parameter points,
  normalized by :meth:`MnaStructure.param_columns`, to fresh
  ``(g_data, c_data)`` rows in O(nnz) NumPy work per point, with no
  Python loop over elements; :meth:`MnaStructure.revalue` is a batch
  of one.

:class:`MnaStructure` is the one MNA representation: every analysis
(DC, transient, AC and the reduced tier) revalues it and reads its
index maps.  :class:`CircuitTemplate` packages a parameterized circuit
with its structure and can ``bind`` concrete netlists.

Stamps accumulate as COO triplets
(:class:`~repro.spice.backend.CooMatrix`), the form every
:class:`~repro.spice.backend.SimulationBackend` consumes directly, so a
1000-segment ladder never allocates an O(n^2) matrix unless a caller
explicitly asks for one (``CooMatrix.to_dense``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from repro import obs
from repro.errors import NetlistError, ParameterError
from repro.spice.backend import (
    CooMatrix,
    SimulationBackend,
    _record_selection,
    resolve_backend,
)
from repro.spice.netlist import (
    GROUND,
    Capacitor,
    Circuit,
    CurrentControlledCurrentSource,
    CurrentControlledVoltageSource,
    CurrentSource,
    Element,
    Inductor,
    Param,
    ParamAffine,
    Resistor,
    VoltageControlledCurrentSource,
    VoltageControlledVoltageSource,
    VoltageSource,
    canonical_node,
    is_parametric,
    resolve_value,
)

__all__ = [
    "MnaStructure",
    "CircuitTemplate",
    "build_mna_structure",
]


# ---------------------------------------------------------------------------
# Structural pass: pattern + revaluation plans
# ---------------------------------------------------------------------------

# Value-expression keys.  Each parameter-dependent COO entry belongs to
# one or more *groups*; a group is a scalar expression of the parameter
# values plus per-entry coefficients:
#
#   ("lin", p)         ->  params[p]           (capacitors, inductors)
#   ("inv", p)         ->  1 / params[p]       (resistor conductances)
#   ("sqrt", p)        ->  sqrt(params[p])     (mutuals, one L concrete)
#   ("sqrtprod", p, q) ->  sqrt(params[p] * params[q])   (mutuals)
#
# revalue_many() evaluates each key once per point and applies
# ``data[:, idx] += coeffs * value`` per group -- O(nnz) with no Python
# loop over elements.


def _key_value(key: tuple, get):
    """Evaluate one expression key; ``get(name)`` is scalar or array."""
    kind = key[0]
    if kind == "lin":
        return get(key[1])
    if kind == "inv":
        return 1.0 / get(key[1])
    if kind == "sqrt":
        return np.sqrt(get(key[1]))
    return np.sqrt(get(key[1]) * get(key[2]))


class _PlanBuilder:
    """Accumulates one matrix's constant triplets and param groups."""

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.const: list[float] = []
        self.groups: dict[tuple, tuple[list[int], list[float]]] = {}

    def add_const(self, row: int, col: int, value: float) -> None:
        self.rows.append(row)
        self.cols.append(col)
        self.const.append(value)

    def add_entry(self, row: int, col: int, const: float, terms) -> None:
        """One entry with a constant part plus ``(key, coeff)`` terms."""
        index = len(self.rows)
        self.add_const(row, col, const)
        for key, coeff in terms:
            idx, coeffs = self.groups.setdefault(key, ([], []))
            idx.append(index)
            coeffs.append(coeff)

    def finish(self, size: int) -> "_MatrixPlan":
        if self.rows:
            rows = np.asarray(self.rows, dtype=np.intp)
            cols = np.asarray(self.cols, dtype=np.intp)
            const = np.asarray(self.const, dtype=float)
        else:
            rows = cols = np.empty(0, dtype=np.intp)
            const = np.empty(0, dtype=float)
        groups = tuple(
            (key, np.asarray(idx, dtype=np.intp), np.asarray(coeffs, dtype=float))
            for key, (idx, coeffs) in self.groups.items()
        )
        return _MatrixPlan(rows=rows, cols=cols, const=const, groups=groups, size=size)


class _Columns(dict):
    """Normalized batch columns that keep their point count.

    Made by :meth:`MnaStructure.param_columns`, which reads the count
    back when given them again; ``B`` points over a structure without
    parameters have no column to carry it.
    """

    def __init__(self, columns: Mapping[str, np.ndarray], n_points: int) -> None:
        super().__init__(columns)
        self.n_points = n_points

    def take(self, index) -> "_Columns":
        """The points ``index`` (a slice or boolean mask) selects."""
        return _Columns(
            {name: col[index] for name, col in self.items()},
            np.arange(self.n_points)[index].size,
        )


@dataclass(frozen=True)
class _MatrixPlan:
    """One MNA matrix as a frozen pattern plus a revaluation recipe.

    ``const`` holds the concrete stamp values with zeros at every
    parameter-dependent slot; each group ``(key, idx, coeffs)`` adds
    ``coeffs * expr(key)`` into ``data[idx]`` during revaluation.
    """

    rows: np.ndarray
    cols: np.ndarray
    const: np.ndarray
    groups: tuple[tuple[tuple, np.ndarray, np.ndarray], ...]
    size: int

    @property
    def nnz(self) -> int:
        return self.const.size

    def coo(self, data: np.ndarray) -> CooMatrix:
        """The matrix with ``data`` on this plan's pattern."""
        return CooMatrix(self.rows, self.cols, data, (self.size, self.size))

    def pattern(self) -> CooMatrix:
        """The sparsity pattern as a CooMatrix (param slots hold 0)."""
        return self.coo(self.const)

    def data_many(
        self, columns: Mapping[str, np.ndarray], n_points: int
    ) -> np.ndarray:
        """``(n_points, nnz)`` data for normalized ``(n_points,)`` columns."""
        out = np.tile(self.const, (n_points, 1))
        values = _key_values([key for key, _, _ in self.groups], columns, n_points)
        for (_key, idx, coeffs), value in zip(self.groups, values.T):
            out[:, idx] += coeffs[None, :] * value[:, None]
        return out


def _key_values(
    keys, columns: Mapping[str, np.ndarray], n_points: int, lead: int = 0
) -> np.ndarray:
    """Each expression key's value per point: ``(n_points, lead + len(keys))``.

    ``columns`` are normalized ``(n_points,)`` parameter columns (see
    :meth:`MnaStructure.param_columns`); the first ``lead`` columns of
    the result are left unset for the caller.  A zero resistance
    inverts to ``inf`` without a warning; callers check finiteness.
    """
    values = np.empty((n_points, lead + len(keys)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, key in enumerate(keys):
            values[:, lead + i] = _key_value(key, columns.__getitem__)
    return values


@dataclass(frozen=True)
class MnaStructure:
    """The structural half of an MNA system: pattern, maps, revaluation.

    Produced by :func:`build_mna_structure`.  Everything here depends
    only on the circuit's *topology* (which elements connect which
    nodes) -- never on the element values -- so one structure serves
    arbitrarily many parameter points:

    - the COO sparsity patterns of ``G`` and ``C`` (param slots appear
      as explicit entries holding 0),
    - the node-name / branch-name to row-index maps,
    - the independent-source slots, and
    - the revaluation recipes that turn a ``{param: value}`` mapping
      into fresh COO ``data`` arrays without touching the pattern.

    Attributes
    ----------
    node_index:
        Map from node name to row index (ground excluded).
    branch_index:
        Map from element name to its branch-current row index.
    source_rows:
        ``(row, sign, waveform)`` triples: ``b(t)[row] += sign *
        waveform(t)``.
    param_names:
        Sorted names of every parameter slot; empty for a concrete
        circuit.
    """

    g_plan: _MatrixPlan
    c_plan: _MatrixPlan
    node_index: dict[str, int]
    branch_index: dict[str, int]
    source_rows: tuple[tuple[int, float, Callable], ...]
    param_names: tuple[str, ...]

    @property
    def size(self) -> int:
        """Total number of MNA unknowns."""
        return self.g_plan.size

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self.node_index)

    def voltage_row(self, node) -> int:
        """Row index of a node voltage (raises for unknown nodes)."""
        name = canonical_node(node)
        if name == GROUND:
            raise NetlistError("ground has no MNA row (its voltage is 0)")
        try:
            return self.node_index[name]
        except KeyError:
            raise NetlistError(f"unknown node {name!r}") from None

    def current_row(self, element_name: str) -> int:
        """Row index of a branch current (V sources and inductors only)."""
        try:
            return self.branch_index[element_name]
        except KeyError:
            raise NetlistError(
                f"element {element_name!r} has no branch current"
            ) from None

    def source_samples(self, times) -> np.ndarray:
        """Source waveform samples ``w(t)``, shape ``times.shape + (m,)``.

        Column ``s`` is the (unsigned) waveform of ``source_rows[s]``,
        the ``w`` of ``b(t) = B w(t)``.  Waveforms evaluate elementwise,
        so every sample equals its instant evaluated alone.
        """
        times = np.asarray(times, dtype=float)
        w = np.empty(times.shape + (len(self.source_rows),))
        for s, (_row, _sign, waveform) in enumerate(self.source_rows):
            w[..., s] = waveform(times)
        return w

    def source_rhs(self, times) -> tuple[np.ndarray, np.ndarray]:
        """``b(t)`` at its distinct source rows: ``(rows, b)``.

        ``rows`` are the sorted MNA rows that carry a source and ``b``
        has shape ``times.shape + (len(rows),)``; every other row of
        ``b(t)`` is zero.  Sources accumulate in ``source_rows`` order.
        """
        w = self.source_samples(times)
        rows = sorted({row for row, _, _ in self.source_rows})
        column = {row: i for i, row in enumerate(rows)}
        b = np.zeros(w.shape[:-1] + (len(rows),))
        for s, (row, sign, _waveform) in enumerate(self.source_rows):
            b[..., column[row]] += sign * w[..., s]
        return np.asarray(rows, dtype=np.intp), b

    def rhs(self) -> np.ndarray:
        """Source vector ``b(0)``: the right-hand side of the DC start."""
        rows, b_rows = self.source_rhs(0.0)
        b = np.zeros(self.size)
        b[rows] = b_rows
        return b

    def g_pattern(self) -> CooMatrix:
        """Sparsity pattern of ``G`` (parameter slots hold 0)."""
        return self.g_plan.pattern()

    def c_pattern(self) -> CooMatrix:
        """Sparsity pattern of ``C`` (parameter slots hold 0)."""
        return self.c_plan.pattern()

    def combined_pattern(self) -> CooMatrix:
        """Union pattern ``[G; C]`` in the canonical concatenation order.

        The data layout matches ``concatenate([g_data, c_data])``: a
        weighted combination ``a*G + b*C`` for this pattern is exactly
        ``concatenate([a * g_data, b * c_data])``.
        """
        n = self.size
        return CooMatrix(
            np.concatenate([self.g_plan.rows, self.c_plan.rows]),
            np.concatenate([self.g_plan.cols, self.c_plan.cols]),
            np.concatenate([self.g_plan.const, self.c_plan.const]),
            (n, n),
        )

    @cached_property
    def _backends(self) -> dict[str, SimulationBackend]:
        return {}

    def resolve_backend(self, backend: SimulationBackend | str) -> SimulationBackend:
        """``resolve_backend(backend, self.combined_pattern())``, memoized.

        Named requests are resolved once per structure, so repeated
        batches over it -- the chunks of a sweep -- share one backend
        instance: ``"auto"`` decides once (each reuse still counts in
        ``spice.backend.auto_selected``), and a banded backend keeps the
        RCM profiles of the stepping and DC patterns across calls.  A
        :class:`~repro.spice.backend.SimulationBackend` instance is
        returned unchanged.
        """
        if not isinstance(backend, str):
            return resolve_backend(backend)
        key = backend.lower()
        chosen = self._backends.get(key)
        if chosen is None:
            chosen = resolve_backend(key, self.combined_pattern())
            self._backends[key] = chosen
        elif chosen.selection is not None:
            _record_selection(chosen.selection)
        return chosen

    def param_columns(
        self, params, defaults: Mapping[str, float] | None = None
    ) -> tuple[dict[str, np.ndarray], int]:
        """Normalize a parameter batch: ``(columns, n_points)``.

        The one definition of a batch.  ``params`` is either a mapping
        of parameter name to value column (scalars broadcast) or a
        sequence of per-point ``{name: value}`` mappings, which must
        all give the same names.  ``defaults`` (a template's) fill the
        names ``params`` leaves out.  Columns come back in a fixed
        order -- ``defaults`` first, then the given names, sorted for a
        sequence of points -- which corner samples and the reduced
        basis follow, each as a read-only ``(n_points,)`` array, in a
        dict that also keeps ``n_points``: ``B`` point mappings are ``B``
        points whatever names they carry, none for a structure without
        parameters.  The names must be exactly :attr:`param_names`;
        missing or unknown names and columns of mismatched lengths raise
        :class:`~repro.errors.ParameterError`.
        """
        if isinstance(params, Mapping):
            given = {
                name: np.asarray(v, dtype=float).ravel()
                for name, v in params.items()
            }
            # Normalized columns carry their own count, which a batch
            # over a structure without parameters has no column to hold.
            n_given = params.n_points if isinstance(params, _Columns) else 1
        else:
            points = list(params or ())
            if not points:
                raise ParameterError("params must name at least one batch point")
            names = set().union(*(p.keys() for p in points))
            if any(set(p) != names for p in points):
                raise ParameterError(
                    "every batch point must provide the same parameter names"
                )
            # Sorted, not set order: the column order must not depend
            # on the hash seed.
            given = {
                name: np.asarray([float(p[name]) for p in points], dtype=float)
                for name in sorted(names)
            }
            n_given = len(points)
        columns = {
            **{
                name: np.asarray(v, dtype=float).ravel()
                for name, v in dict(defaults or {}).items()
            },
            **given,
        }
        _check_param_names(self.param_names, columns)
        sizes = {c.size for c in columns.values()} | {n_given}
        sizes.discard(1)
        if len(sizes) > 1:
            raise ParameterError(
                f"parameter columns have mismatched lengths {sorted(sizes)}"
            )
        n_points = sizes.pop() if sizes else 1
        return _Columns(
            {name: np.broadcast_to(c, (n_points,)) for name, c in columns.items()},
            n_points,
        ), n_points

    def revalue(self, params: Mapping[str, float] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """COO ``(g_data, c_data)`` for one parameter point.

        A batch of one: row 0 of :meth:`revalue_many`.  This is the
        cheap numeric half of the stamp-once / re-value-many split:
        O(nnz) array work, no netlist walk, no re-validation.
        """
        obs.inc("spice.mna.revalue_calls")
        g_data, c_data = self.revalue_many(params or {})
        return g_data[0], c_data[0]

    def revalue_many(self, params) -> tuple[np.ndarray, np.ndarray]:
        """COO data of a parameter batch: ``(B, nnz_g)`` and ``(B, nnz_c)``.

        ``params`` is any batch :meth:`param_columns` accepts (names
        exactly :attr:`param_names`); values that stamp non-finite
        entries, e.g. a zero resistance, raise
        :class:`~repro.errors.ParameterError`.
        """
        columns, n_points = self.param_columns(params)
        obs.inc("spice.mna.revalue_many_calls")
        obs.inc("spice.mna.revalue_points", n_points)
        with np.errstate(divide="ignore", invalid="ignore"):
            g_data = self.g_plan.data_many(columns, n_points)
            c_data = self.c_plan.data_many(columns, n_points)
        if not (np.isfinite(g_data).all() and np.isfinite(c_data).all()):
            raise ParameterError(
                "some parameter points stamp non-finite matrix entries "
                "(zero resistance or non-finite value?)"
            )
        return g_data, c_data


def _linear_terms(value) -> tuple[float, tuple[tuple[tuple, float], ...]]:
    """Split a linearly-stamped value into ``(const, ((key, coeff), ...))``."""
    if isinstance(value, Param):
        return 0.0, ((("lin", value.name), value.scale),)
    if isinstance(value, ParamAffine):
        return value.const, tuple(
            (("lin", name), coeff) for name, coeff in value.terms
        )
    return float(value), ()


def _conductance_terms(element: Resistor) -> tuple[float, tuple[tuple[tuple, float], ...]]:
    """Reciprocal stamp of a resistor value (float or single Param)."""
    value = element.value
    if isinstance(value, Param):
        if value.scale <= 0:
            raise NetlistError(
                f"resistor {element.name!r} parameter scale must be "
                f"positive, got {value.scale}"
            )
        return 0.0, ((("inv", value.name), 1.0 / value.scale),)
    return 1.0 / value, ()


def _mutual_terms(coupling: float, l1, l2) -> tuple[float, tuple[tuple[tuple, float], ...]]:
    """``-M = -k * sqrt(L1 * L2)`` with either inductance parametric."""
    for value in (l1, l2):
        if isinstance(value, Param) and value.scale <= 0:
            raise NetlistError(
                "inductors coupled by a mutual inductance need positive "
                f"parameter scales, got {value.scale}"
            )
    if isinstance(l1, Param) and isinstance(l2, Param):
        coeff = -coupling * math.sqrt(l1.scale * l2.scale)
        if l1.name == l2.name:
            return 0.0, ((("lin", l1.name), coeff),)
        p, q = sorted((l1.name, l2.name))
        return 0.0, ((("sqrtprod", p, q), coeff),)
    if isinstance(l1, Param) or isinstance(l2, Param):
        param, concrete = (l1, l2) if isinstance(l1, Param) else (l2, l1)
        coeff = -coupling * math.sqrt(param.scale * float(concrete))
        return 0.0, ((("sqrt", param.name), coeff),)
    return -coupling * math.sqrt(float(l1) * float(l2)), ()


def build_mna_structure(circuit: Circuit) -> MnaStructure:
    """Run the structural assembly pass over a validated circuit.

    Walks the netlist exactly once, producing the frozen
    :class:`MnaStructure` that :meth:`MnaStructure.revalue_many` (and
    the batched analyses built on it) reuse for every parameter point.
    Concrete circuits work too -- their structure simply has no
    parameter groups.

    Only resistor, capacitor and inductor values (and, through the
    inductors, mutual-inductance stamps) may be parameterized;
    controlled-source gains and source waveforms must be concrete.
    """
    circuit.validate()

    nodes = circuit.node_names()
    node_index = {name: i for i, name in enumerate(nodes)}
    n = len(nodes)

    branch_elements = [e for e in circuit.elements if e.needs_branch_current]
    branch_index = {e.name: n + k for k, e in enumerate(branch_elements)}
    size = n + len(branch_elements)

    g = _PlanBuilder()
    c = _PlanBuilder()
    sources: list[tuple[int, float, Callable]] = []

    def idx(node: str) -> int | None:
        return None if node == GROUND else node_index[node]

    def stamp_pair(plan: _PlanBuilder, i, j, const: float, terms) -> None:
        """Conductance-style two-node stamp of a (possibly param) value."""
        neg = tuple((key, -coeff) for key, coeff in terms)
        if i is not None:
            plan.add_entry(i, i, const, terms)
        if j is not None:
            plan.add_entry(j, j, const, terms)
        if i is not None and j is not None:
            plan.add_entry(i, j, -const, neg)
            plan.add_entry(j, i, -const, neg)

    def stamp_branch_topology(i, j, m: int) -> None:
        """KCL coupling + voltage constraint pattern shared by L and V."""
        if i is not None:
            g.add_const(i, m, 1.0)
            g.add_const(m, i, 1.0)
        if j is not None:
            g.add_const(j, m, -1.0)
            g.add_const(m, j, -1.0)

    def stamp_node_column(row: int, node: str, value: float) -> None:
        """``g[row, node] += value`` skipping ground."""
        col = idx(node)
        if col is not None:
            g.add_const(row, col, value)

    def require_concrete(element: Element, label: str, value) -> float:
        if is_parametric(value):
            raise NetlistError(
                f"{label} of {element.name!r} cannot be a parameter; "
                "only R, L and C values may use Param slots"
            )
        return float(value)

    for element in circuit.elements:
        i = idx(element.node_pos)
        j = idx(element.node_neg)
        if isinstance(element, Resistor):
            const, terms = _conductance_terms(element)
            stamp_pair(g, i, j, const, terms)
        elif isinstance(element, Capacitor):
            const, terms = _linear_terms(element.value)
            stamp_pair(c, i, j, const, terms)
        elif isinstance(element, Inductor):
            m = branch_index[element.name]
            stamp_branch_topology(i, j, m)
            const, terms = _linear_terms(element.value)
            c.add_entry(m, m, -const, tuple((k, -co) for k, co in terms))
        elif isinstance(element, VoltageControlledVoltageSource):
            # v_i - v_j - gain*(v_cp - v_cn) = 0, plus KCL coupling.
            gain = require_concrete(element, "gain", element.gain)
            m = branch_index[element.name]
            stamp_branch_topology(i, j, m)
            stamp_node_column(m, element.ctrl_pos, -gain)
            stamp_node_column(m, element.ctrl_neg, +gain)
        elif isinstance(element, CurrentControlledVoltageSource):
            # v_i - v_j - r * I(ctrl) = 0.
            r = require_concrete(
                element, "transresistance", element.transresistance
            )
            m = branch_index[element.name]
            stamp_branch_topology(i, j, m)
            g.add_const(m, branch_index[element.ctrl_source], -r)
        elif isinstance(element, VoltageSource):
            m = branch_index[element.name]
            stamp_branch_topology(i, j, m)
            sources.append((m, 1.0, element.waveform))
        elif isinstance(element, VoltageControlledCurrentSource):
            # gm*(v_cp - v_cn) leaves node_pos, enters node_neg.
            gm = require_concrete(
                element, "transconductance", element.transconductance
            )
            if i is not None:
                stamp_node_column(i, element.ctrl_pos, +gm)
                stamp_node_column(i, element.ctrl_neg, -gm)
            if j is not None:
                stamp_node_column(j, element.ctrl_pos, -gm)
                stamp_node_column(j, element.ctrl_neg, +gm)
        elif isinstance(element, CurrentControlledCurrentSource):
            gain = require_concrete(element, "gain", element.gain)
            m_ctrl = branch_index[element.ctrl_source]
            if i is not None:
                g.add_const(i, m_ctrl, gain)
            if j is not None:
                g.add_const(j, m_ctrl, -gain)
        elif isinstance(element, CurrentSource):
            if i is not None:
                sources.append((i, -1.0, element.waveform))
            if j is not None:
                sources.append((j, 1.0, element.waveform))
        else:  # pragma: no cover - future element types
            raise NetlistError(f"unsupported element type: {type(element).__name__}")

    # Mutual inductances: M = k*sqrt(L1*L2) couples the two branch
    # equations (v = L dI/dt + M dI_other/dt).
    inductor_values = {
        e.name: e.value for e in circuit.elements if isinstance(e, Inductor)
    }
    for mutual in circuit.mutual_inductances:
        m1 = branch_index[mutual.inductor1]
        m2 = branch_index[mutual.inductor2]
        const, terms = _mutual_terms(
            mutual.coupling,
            inductor_values[mutual.inductor1],
            inductor_values[mutual.inductor2],
        )
        c.add_entry(m1, m2, const, terms)
        c.add_entry(m2, m1, const, terms)

    obs.inc("spice.mna.structure_builds")
    obs.observe(
        "spice.mna.structure_size", size, buckets=obs.COUNT_BUCKETS
    )
    return MnaStructure(
        g_plan=g.finish(size),
        c_plan=c.finish(size),
        node_index=node_index,
        branch_index=branch_index,
        source_rows=tuple(sources),
        param_names=circuit.parameter_names(),
    )


def _concrete_structure(circuit: Circuit) -> MnaStructure:
    """:func:`build_mna_structure` of a circuit with no Param slots."""
    structure = build_mna_structure(circuit)
    if structure.param_names:
        raise NetlistError(
            f"circuit has unbound parameters {list(structure.param_names)}; "
            "wrap it in a CircuitTemplate (or bind values) before analyzing it"
        )
    return structure


class CircuitTemplate:
    """A parameterized circuit: structure stamped once, values per use.

    Wraps a :class:`~repro.spice.netlist.Circuit` whose element values
    may be :class:`~repro.spice.netlist.Param` slots, together with the
    (lazily built, cached) :class:`MnaStructure` and optional default
    parameter values.  The batched analyses
    (:func:`~repro.spice.transient.simulate_transient_batch`,
    :func:`~repro.spice.ac.ac_sweep_batch`) consume templates directly;
    :meth:`bind` materializes ordinary concrete netlists for the scalar
    entry points and for regression pinning.

    Parameters
    ----------
    circuit:
        The parameterized netlist (must contain at least one Param).
    defaults:
        Optional baseline parameter values; :meth:`bind` and
        :meth:`resolve_params` overlay their ``params`` argument on top.
    """

    def __init__(
        self, circuit: Circuit, defaults: Mapping[str, float] | None = None
    ) -> None:
        names = circuit.parameter_names()
        if not names:
            raise NetlistError(
                "circuit has no parameter slots; analyze it directly"
            )
        self._circuit = circuit
        self._names = names
        self._defaults = {}
        for key, value in dict(defaults or {}).items():
            if key not in names:
                raise ParameterError(
                    f"default for unknown parameter {key!r}; "
                    f"template has {list(names)}"
                )
            self._defaults[key] = float(value)

    @property
    def circuit(self) -> Circuit:
        """The underlying parameterized netlist."""
        return self._circuit

    @property
    def param_names(self) -> tuple[str, ...]:
        """Sorted names of the template's parameter slots."""
        return self._names

    @property
    def defaults(self) -> dict[str, float]:
        """Copy of the default parameter values."""
        return dict(self._defaults)

    @cached_property
    def structure(self) -> MnaStructure:
        """The frozen MNA structure (built on first access, then cached)."""
        return build_mna_structure(self._circuit)

    def resolve_params(self, params: Mapping[str, float] | None = None) -> dict[str, float]:
        """Defaults overlaid with ``params``; every slot must resolve.

        Checks the names like :meth:`MnaStructure.param_columns`, with
        the same texts, but never builds :attr:`structure`.
        """
        merged = {**self._defaults, **dict(params or {})}
        _check_param_names(self._names, merged)
        return {key: float(value) for key, value in merged.items()}

    def bind(
        self,
        params: Mapping[str, float] | None = None,
        *,
        title: str | None = None,
    ) -> Circuit:
        """Materialize a concrete :class:`~repro.spice.netlist.Circuit`.

        Every Param resolves against :meth:`resolve_params`; capacitors
        whose value resolves to exactly zero are dropped (matching the
        skip-zero-shunt convention of the concrete builders), so e.g. a
        bus template bound with ``cct=0`` reproduces the uncoupled
        netlist element for element.
        """
        from dataclasses import replace

        values = self.resolve_params(params)
        bound = Circuit(title if title is not None else self._circuit.title)
        for element in self._circuit.elements:
            value = getattr(element, "value", None)
            if value is None or not is_parametric(value):
                bound.add(element)
                continue
            resolved = resolve_value(value, values)
            if isinstance(element, Capacitor) and resolved == 0.0:
                continue
            bound.add(replace(element, value=resolved))
        for mutual in self._circuit.mutual_inductances:
            bound.add_mutual_inductance(
                mutual.name, mutual.inductor1, mutual.inductor2, mutual.coupling
            )
        return bound

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitTemplate({self._circuit.title!r}, "
            f"params={list(self._names)})"
        )


def _check_param_names(expected, given) -> None:
    """Raise unless the names ``given`` are exactly ``expected``.

    The one name rule of a parameter point or batch: missing names are
    reported first, then unknown ones, each as a
    :class:`~repro.errors.ParameterError`.
    """
    missing = sorted(set(expected) - set(given))
    if missing:
        raise ParameterError(f"missing parameter value(s): {missing}")
    unknown = sorted(set(given) - set(expected))
    if unknown:
        raise ParameterError(
            f"unknown parameter(s) {unknown}; this structure has "
            f"{list(expected) or 'no parameters'}"
        )


def _param_columns(
    template: CircuitTemplate | MnaStructure, params
) -> tuple[MnaStructure, dict[str, np.ndarray], int]:
    """``(structure, columns, n_points)`` of a batch over a template.

    A :class:`CircuitTemplate` supplies its structure and defaults, a
    bare :class:`MnaStructure` itself and none;
    :meth:`MnaStructure.param_columns` normalizes the batch.
    """
    if isinstance(template, CircuitTemplate):
        structure, defaults = template.structure, template.defaults
    elif isinstance(template, MnaStructure):
        structure, defaults = template, None
    else:
        raise ParameterError(
            f"expected a CircuitTemplate or MnaStructure, got {template!r}"
        )
    columns, n_points = structure.param_columns(params, defaults)
    return structure, columns, n_points


def _check_initial(initial) -> str:
    """A transient start: ``"dc"`` (the operating point at ``t = 0``) or ``"zero"``."""
    if isinstance(initial, str) and initial in ("dc", "zero"):
        return initial
    raise ParameterError(f"initial must be 'dc' or 'zero', got {initial!r}")


def _recorded_rows(structure: MnaStructure, record) -> np.ndarray:
    """Resolve a ``record`` request to MNA row indices."""
    if record is None:
        return np.arange(structure.size, dtype=np.intp)
    rows = []
    for item in record:
        if isinstance(item, (int, np.integer)):
            row = int(item)
            if not 0 <= row < structure.size:
                raise ParameterError(
                    f"recorded row {row} outside [0, {structure.size})"
                )
            rows.append(row)
        else:
            rows.append(structure.voltage_row(item))
    return np.asarray(rows, dtype=np.intp)


class _RecordedRows:
    """Node and branch lookups of a batch result's recorded rows.

    Shared by the transient and AC batch results, whose ``states`` are
    ``(B, K, R)`` over the ``R`` MNA rows in ``recorded_rows``, indexed
    through ``structure``.  The results take ``recorded_rows`` as the
    row array :func:`_recorded_rows` resolves and keep it as a tuple of
    ints.
    """

    states: np.ndarray
    structure: MnaStructure
    recorded_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(np.asarray(self.recorded_rows).tolist())
        object.__setattr__(self, "recorded_rows", rows)

    @property
    def n_points(self) -> int:
        """Number of batch points ``B``."""
        return self.states.shape[0]

    def _column(self, row: int) -> int:
        try:
            return self.recorded_rows.index(row)
        except ValueError:
            raise ParameterError(
                f"MNA row {row} was not recorded; pass it in record= "
                "(or record everything with record=None)"
            ) from None

    def voltage(self, node) -> np.ndarray:
        """Node voltage ``(B, K)`` (ground is 0, in the states' dtype)."""
        if canonical_node(node) == GROUND:
            return np.zeros(self.states.shape[:2], dtype=self.states.dtype)
        col = self._column(self.structure.voltage_row(node))
        return self.states[:, :, col].copy()

    def current(self, element_name: str) -> np.ndarray:
        """Branch current ``(B, K)`` of one element."""
        col = self._column(self.structure.current_row(element_name))
        return self.states[:, :, col].copy()
