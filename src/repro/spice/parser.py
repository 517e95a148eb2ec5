"""SPICE-like text netlist frontend.

Parses the classic element-per-line netlist dialect into the existing
:class:`~repro.spice.netlist.Circuit`, which then feeds the COO
:func:`~repro.spice.mna.build_mna_structure` path unchanged -- every
solver backend, template revaluation, and batch analysis serves parsed
circuits exactly as it serves the programmatic builders.

Supported statements (see ``docs/netlist.md`` for the full grammar)::

    * comment                      ; trailing comments with ';' or '$'
    R1 in mid 50                   resistor (SPICE unit suffixes: 2.2k, 1u)
    C1 mid 0 1p ic=0.5             capacitor, optional initial voltage
    L1 mid out 10n ic=1m           inductor, optional initial current
    V1 in 0 STEP(0 1)              sources: DC / STEP / PULSE / SIN / PWL
    I1 0 out DC 1m                 current source
    K1 L1 L2 0.6                   mutual inductance (coupling k)
    E1 out 0 a b 2.0               VCVS; G/H/F likewise
    W1 n1 n2                       ideal wire: merges the two nodes
    R2 n1 n2 0                     a zero-ohm resistor is a wire too
    .param rt=120 ct=2p            default values for {...} parameters
    Rl a b {rt/2}                  parameterized values -> Param slots
    + 					continuation lines start with '+'
    .end

Ground is node ``0`` (aliases ``gnd``/``GND``/``ground``).  Wires (and
zero-ohm resistors) are collapsed *before* stamping with a union-find
pass over the node names: each connected class of shorted nodes is
replaced by one representative (ground wins; otherwise the first name
seen in the file), so the MNA system never sees the redundant nodes.

``{...}`` value expressions build the existing symbolic slots: a free
name becomes a :class:`~repro.spice.netlist.Param`, affine combinations
(``{ct/2 + cl}``) become :class:`~repro.spice.netlist.ParamAffine`, and
``.param`` directives supply *default* values -- the parsed result can
be bound concrete (:meth:`ParsedNetlist.bind`) or used as a
:class:`~repro.spice.mna.CircuitTemplate`
(:meth:`ParsedNetlist.template`) for batched sweeps.

Syntax errors carry their position: :class:`NetlistSyntaxError` knows
the 1-based line number, the column, and the offending line, and its
message embeds all three.

:func:`_measure_netlist` is where a parsed netlist becomes measured
far-end answers; ``python -m repro run --netlist`` (a file, or every
``.cir`` file of a directory) and ``sweep --netlist`` reach it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import NetlistError
from repro.spice.netlist import (
    Circuit,
    Dc,
    Param,
    ParamAffine,
    PiecewiseLinear,
    Pulse,
    Sine,
    SourceWaveform,
    Step,
    canonical_node,
    is_parametric,
)

__all__ = [
    "NetlistSyntaxError",
    "ParsedNetlist",
    "UnionFind",
    "parse_netlist",
    "parse_netlist_file",
    "parse_spice_number",
    "parse_statement",
    "suggest_transient_window",
]


class NetlistSyntaxError(NetlistError):
    """A malformed netlist statement, with its source position.

    Attributes
    ----------
    line_no:
        1-based line number of the offending statement (the first
        physical line of a continued statement), or ``None`` when the
        error is not tied to one line (e.g. a connectivity failure).
    column:
        1-based column of the offending token, or ``None``.
    line:
        The offending source line text, or ``None``.
    """

    def __init__(
        self,
        message: str,
        line_no: int | None = None,
        column: int | None = None,
        line: str | None = None,
    ) -> None:
        position = ""
        if line_no is not None:
            position = f"line {line_no}"
            if column is not None:
                position += f", column {column}"
            position = f" ({position})"
        full = f"{message}{position}"
        if line is not None:
            full += f"\n  {line.rstrip()}"
            if column is not None:
                full += "\n  " + " " * (column - 1) + "^"
        super().__init__(full)
        self.line_no = line_no
        self.column = column
        self.line = line


# ---------------------------------------------------------------------------
# Numbers with SPICE scale suffixes
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([a-zA-Z]*)$"
)

#: SPICE scale factors, longest match first (``meg`` and ``mil`` must
#: win over ``m``).  Letters after the matched factor are unit names
#: and are ignored (``5pF``, ``10kOhm``).
_SCALE_FACTORS = (
    ("meg", 1e6),
    ("mil", 25.4e-6),
    ("t", 1e12),
    ("g", 1e9),
    ("k", 1e3),
    ("m", 1e-3),
    ("u", 1e-6),
    ("n", 1e-9),
    ("p", 1e-12),
    ("f", 1e-15),
)

_KNOWN_UNIT_TAILS = frozenset(
    {"", "s", "f", "h", "hz", "v", "a", "ohm", "ohms", "farad", "henry"}
)


def parse_spice_number(token: str) -> float:
    """Parse a SPICE-style number: ``2.2k``, ``100meg``, ``1e-12``, ``5pF``.

    The optional letter tail is interpreted as a scale factor
    (``t g meg k m u n p f``, plus ``mil`` = 25.4e-6) followed by an
    ignored unit name; an unrecognized tail raises
    :class:`~repro.errors.NetlistError` (a bad unit suffix is a syntax
    error, not silently 1.0).
    """
    match = _NUMBER_RE.match(token.strip())
    if not match:
        raise NetlistError(f"not a number: {token!r}")
    mantissa = float(match.group(1))
    tail = match.group(2).lower()
    if not tail:
        return mantissa
    for suffix, scale in _SCALE_FACTORS:
        if tail.startswith(suffix):
            rest = tail[len(suffix):]
            if rest in _KNOWN_UNIT_TAILS:
                return mantissa * scale
            raise NetlistError(
                f"unknown unit suffix {match.group(2)!r} in {token!r}"
            )
    if tail in _KNOWN_UNIT_TAILS:
        # A bare unit name with no scale factor: '50ohm', '3V'.
        return mantissa
    raise NetlistError(f"unknown unit suffix {match.group(2)!r} in {token!r}")


# ---------------------------------------------------------------------------
# {...} value expressions -> float | Param | ParamAffine
# ---------------------------------------------------------------------------

_EXPR_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[a-zA-Z]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()])"
    r")"
)


@dataclass
class _Affine:
    """Intermediate affine value: ``const + sum(coeff * name)``."""

    const: float = 0.0
    terms: dict = field(default_factory=dict)

    @property
    def is_const(self) -> bool:
        return not self.terms

    def scaled(self, k: float) -> "_Affine":
        return _Affine(
            self.const * k, {n: c * k for n, c in self.terms.items()}
        )

    def plus(self, other: "_Affine") -> "_Affine":
        terms = dict(self.terms)
        for name, coeff in other.terms.items():
            terms[name] = terms.get(name, 0.0) + coeff
        return _Affine(self.const + other.const, terms)


class _ExprParser:
    """Recursive-descent parser for the affine ``{...}`` expressions."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            match = _EXPR_TOKEN_RE.match(text, pos)
            if not match or match.end() == pos:
                raise NetlistError(
                    f"bad character in expression {{{text}}} at "
                    f"offset {pos}: {text[pos:]!r}"
                )
            self.tokens.append(match.group().strip())
            pos = match.end()
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise NetlistError(
                f"unexpected end of expression {{{self.text}}}"
            )
        self.index += 1
        return token

    def parse(self) -> _Affine:
        value = self.expr()
        if self.peek() is not None:
            raise NetlistError(
                f"trailing {self.peek()!r} in expression {{{self.text}}}"
            )
        return value

    def expr(self) -> _Affine:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value.plus(rhs if op == "+" else rhs.scaled(-1.0))
        return value

    def term(self) -> _Affine:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                if not value.is_const and not rhs.is_const:
                    raise NetlistError(
                        f"expression {{{self.text}}} multiplies two "
                        "parameters; only affine combinations "
                        "(const * param + ...) map onto Param slots"
                    )
                value = (
                    rhs.scaled(value.const)
                    if value.is_const
                    else value.scaled(rhs.const)
                )
            else:
                if not rhs.is_const:
                    raise NetlistError(
                        f"expression {{{self.text}}} divides by a "
                        "parameter; only division by constants is affine"
                    )
                if rhs.const == 0.0:
                    raise NetlistError(
                        f"expression {{{self.text}}} divides by zero"
                    )
                value = value.scaled(1.0 / rhs.const)
        return value

    def factor(self) -> _Affine:
        token = self.take()
        if token == "-":
            return self.factor().scaled(-1.0)
        if token == "+":
            return self.factor()
        if token == "(":
            value = self.expr()
            closing = self.take()
            if closing != ")":
                raise NetlistError(
                    f"expected ')' in expression {{{self.text}}}, "
                    f"got {closing!r}"
                )
            return value
        if token in ")*/":
            raise NetlistError(
                f"unexpected {token!r} in expression {{{self.text}}}"
            )
        if token[0].isdigit() or token[0] == ".":
            return _Affine(const=parse_spice_number(token))
        return _Affine(terms={token: 1.0})


def _parse_value_expression(text: str):
    """``{...}`` body -> float, :class:`Param` or :class:`ParamAffine`."""
    affine = _ExprParser(text).parse()
    terms = {n: c for n, c in affine.terms.items() if c != 0.0}
    if not terms:
        return affine.const
    if len(terms) == 1 and affine.const == 0.0:
        (name, coeff), = terms.items()
        return Param(name, coeff)
    return ParamAffine(tuple(terms.items()), affine.const)


# ---------------------------------------------------------------------------
# Union-find over node names
# ---------------------------------------------------------------------------


class UnionFind:
    """Disjoint-set forest over hashable items (path-halving + rank).

    Used by the parser to collapse wire-connected node classes before
    stamping; exposed publicly so tests (and other frontends) can
    verify collapse equivalence directly.
    """

    def __init__(self) -> None:
        self._parent: dict = {}
        self._rank: dict = {}

    def add(self, item) -> None:
        """Register ``item`` as its own class (no-op if known)."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def __contains__(self, item) -> bool:
        return item in self._parent

    def find(self, item):
        """Representative of ``item``'s class (registers new items)."""
        self.add(item)
        parent = self._parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a, b) -> None:
        """Merge the classes of ``a`` and ``b``."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1

    def groups(self) -> list[list]:
        """The classes, each as a list in registration order."""
        out: dict = {}
        for item in self._parent:
            out.setdefault(self.find(item), []).append(item)
        return list(out.values())


# ---------------------------------------------------------------------------
# Statement scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Statement:
    """One logical statement: joined continuations plus its position."""

    text: str
    line_no: int
    line: str


def _strip_comment(line: str) -> str:
    """Remove ``;`` / ``$`` trailing comments (outside any brackets)."""
    depth = 0
    for i, ch in enumerate(line):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch in ";$" and depth == 0:
            return line[:i]
    return line


def _scan_statements(source: str) -> list[_Statement]:
    """Split source text into logical statements (continuations joined)."""
    statements: list[_Statement] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not statements:
                raise NetlistSyntaxError(
                    "continuation line with nothing to continue",
                    line_no,
                    1,
                    raw,
                )
            prev = statements[-1]
            statements[-1] = _Statement(
                prev.text + " " + stripped[1:].strip(), prev.line_no, prev.line
            )
            continue
        statements.append(_Statement(stripped, line_no, raw))
    return statements


def _split_fields(statement: _Statement) -> list[tuple[str, int]]:
    """Whitespace-split keeping ``(...)``/``{...}`` groups intact.

    Returns ``(token, column)`` pairs; the column is 1-based within the
    statement's first physical line (best-effort for continuations).
    """
    text = statement.text
    fields: list[tuple[str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        depth = 0
        while i < n and (depth > 0 or not text[i].isspace()):
            if text[i] in "({":
                depth += 1
            elif text[i] in ")}":
                depth -= 1
                if depth < 0:
                    raise NetlistSyntaxError(
                        f"unbalanced {text[i]!r}",
                        statement.line_no,
                        _column_of(statement, start),
                        statement.line,
                    )
            i += 1
        if depth != 0:
            raise NetlistSyntaxError(
                "unclosed '(' or '{' in statement",
                statement.line_no,
                _column_of(statement, start),
                statement.line,
            )
        fields.append((text[start:i], _column_of(statement, start)))
    return fields


def _column_of(statement: _Statement, offset: int) -> int | None:
    """Map a joined-statement offset back to a column of the first line.

    Statements are stripped of leading whitespace before joining, so the
    column is the offset shifted by the raw line's indent.  Offsets that
    fall past the first physical line (continuation tokens) have no
    meaningful column and map to ``None``.
    """
    indent = len(statement.line) - len(statement.line.lstrip())
    column = indent + offset + 1
    if column <= len(statement.line.rstrip()):
        return column
    return None


# ---------------------------------------------------------------------------
# Element-line parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PendingElement:
    """An element statement awaiting node collapse: kind + raw fields."""

    kind: str
    name: str
    fields: tuple
    statement: _Statement


_WAVEFORM_FORMS = ("DC", "STEP", "PULSE", "SIN", "PWL")


def _numbers_in_group(body: str) -> list[float]:
    """Numbers inside a ``NAME(...)`` group (commas act as spaces)."""
    tokens = [t for t in body.replace(",", " ").split() if t]
    return [parse_spice_number(t) for t in tokens]


def _parse_waveform(tokens: list[str]) -> SourceWaveform:
    """Parse the waveform tail of a V/I line."""
    if not tokens:
        raise NetlistError("source needs a value or waveform")
    head = tokens[0]
    upper = head.upper()
    if upper == "DC":
        if len(tokens) != 2:
            raise NetlistError("DC takes exactly one value")
        return Dc(parse_spice_number(tokens[1]))
    match = re.match(r"^([A-Za-z]+)\s*\((.*)\)$", " ".join(tokens), re.DOTALL)
    if match:
        form = match.group(1).upper()
        values = _numbers_in_group(match.group(2))
        if form == "STEP":
            if not 1 <= len(values) <= 4:
                raise NetlistError(
                    "STEP takes 1-4 values: v1 | v0 v1 [t_delay [t_rise]]"
                )
            if len(values) == 1:
                return Step(0.0, values[0])
            return Step(*values)
        if form == "PULSE":
            if len(values) != 7:
                raise NetlistError(
                    "PULSE takes 7 values: v0 v1 t_delay t_rise t_fall "
                    "width period"
                )
            return Pulse(*values)
        if form == "SIN":
            if not 3 <= len(values) <= 4:
                raise NetlistError(
                    "SIN takes 3-4 values: offset amplitude frequency "
                    "[t_delay]"
                )
            return Sine(*values)
        if form == "PWL":
            if len(values) < 4 or len(values) % 2:
                raise NetlistError(
                    "PWL takes an even number (>= 4) of values: t1 v1 t2 v2 ..."
                )
            pairs = tuple(zip(values[0::2], values[1::2]))
            return PiecewiseLinear(pairs)
        raise NetlistError(
            f"unknown waveform {form!r}; known: {', '.join(_WAVEFORM_FORMS)}"
        )
    if len(tokens) == 1:
        return Dc(parse_spice_number(head))
    raise NetlistError(
        f"cannot parse source specification {' '.join(tokens)!r}"
    )


def _parse_element_value(token: str):
    """An element value field: number-with-suffix or ``{expr}``."""
    if token.startswith("{") and token.endswith("}"):
        return _parse_value_expression(token[1:-1])
    return parse_spice_number(token)


def _split_ic(tokens: list[str], what: str) -> tuple[list[str], float]:
    """Pull an optional trailing ``ic=value`` field off ``tokens``."""
    ic = 0.0
    rest = []
    for token in tokens:
        if token.lower().startswith("ic="):
            ic = parse_spice_number(token[3:])
        else:
            rest.append(token)
    if len(rest) + 1 < len(tokens):
        raise NetlistError(f"{what} has more than one ic= field")
    return rest, ic


class _Parser:
    """Stateful single-pass parser feeding the collapse/build phase."""

    def __init__(self, source: str, title: str | None) -> None:
        self.source = source
        self.title = title
        self.defaults: dict[str, float] = {}
        self.pending: list[_PendingElement] = []
        self.wires: list[tuple[str, str, _Statement]] = []
        self.names: dict[str, _Statement] = {}
        self.nodes = UnionFind()
        self.node_order: list[str] = []

    # -- helpers ------------------------------------------------------------

    def error(
        self, message: str, statement: _Statement, column: int | None = None
    ) -> NetlistSyntaxError:
        return NetlistSyntaxError(
            message, statement.line_no, column, statement.line
        )

    def node(self, token: str, statement: _Statement, column: int) -> str:
        """Canonicalize a node token and track first-seen order."""
        if token.startswith("{"):
            raise self.error(
                f"expected a node name, got expression {token!r}",
                statement,
                column,
            )
        try:
            name = canonical_node(token)
        except NetlistError as exc:
            raise self.error(str(exc), statement, column) from None
        if name not in self.nodes:
            self.node_order.append(name)
        self.nodes.add(name)
        return name

    def claim_name(self, name: str, statement: _Statement) -> None:
        previous = self.names.get(name)
        if previous is not None:
            raise self.error(
                f"duplicate element name {name!r} (first defined on "
                f"line {previous.line_no})",
                statement,
            )
        self.names[name] = statement

    # -- statement dispatch -------------------------------------------------

    def feed(self, statement: _Statement) -> bool:
        """Process one statement; returns False at ``.end``."""
        if statement.text.startswith("."):
            return self.directive(statement)
        fields = _split_fields(statement)
        name, column = fields[0]
        kind = name[0].upper()
        if kind not in "RCLVIKEGHFW":
            raise self.error(
                f"unknown element type {name[0]!r} in {name!r} (known: "
                "R C L V I K E G H F W)",
                statement,
                column,
            )
        self.claim_name(name, statement)
        handler = getattr(self, f"element_{kind}")
        handler(name, fields, statement)
        return True

    def directive(self, statement: _Statement) -> bool:
        fields = _split_fields(statement)
        word = fields[0][0].lower()
        if word == ".end":
            return False
        if word == ".title":
            text = statement.text[len(".title"):].strip()
            if self.title is None:
                self.title = text
            return True
        if word == ".param":
            if len(fields) < 2:
                raise self.error(
                    ".param needs NAME=VALUE assignments", statement
                )
            for token, column in fields[1:]:
                name, sep, value = token.partition("=")
                if not sep or not name or not value:
                    raise self.error(
                        f"bad .param assignment {token!r}; expected "
                        "NAME=VALUE",
                        statement,
                        column,
                    )
                try:
                    self.defaults[name] = parse_spice_number(value)
                except NetlistError as exc:
                    raise self.error(str(exc), statement, column) from None
            return True
        raise self.error(
            f"unsupported directive {fields[0][0]!r} (known: .param, "
            ".title, .end)",
            statement,
            fields[0][1],
        )

    def two_nodes(
        self, fields: list, statement: _Statement, what: str, n_extra: int
    ) -> tuple[str, str, list]:
        """Common ``name n1 n2 ...`` prefix with arity checking."""
        if len(fields) < 3 + n_extra:
            raise self.error(
                f"{what} needs at least {2 + n_extra} fields after the "
                f"name, got {len(fields) - 1}",
                statement,
            )
        n1 = self.node(fields[1][0], statement, fields[1][1])
        n2 = self.node(fields[2][0], statement, fields[2][1])
        return n1, n2, fields[3:]

    # -- element kinds ------------------------------------------------------

    def element_W(self, name, fields, statement) -> None:
        n1, n2, rest = self.two_nodes(fields, statement, "wire", 0)
        if rest:
            raise self.error(
                f"wire {name!r} takes exactly two nodes", statement, rest[0][1]
            )
        self.wires.append((n1, n2, statement))

    def _value_element(self, kind, name, fields, statement, ic_label):
        n1, n2, rest = self.two_nodes(fields, statement, kind, 1)
        tokens = [t for t, _ in rest]
        try:
            tokens, ic = _split_ic(tokens, name)
            if len(tokens) != 1:
                raise NetlistError(
                    f"{name!r} takes one value field, got {tokens!r}"
                )
            value = _parse_element_value(tokens[0])
        except NetlistError as exc:
            raise self.error(str(exc), statement, rest[0][1]) from None
        if ic and ic_label is None:
            raise self.error(
                f"{name!r} does not take an ic= field", statement
            )
        self.pending.append(
            _PendingElement(kind, name, (n1, n2, value, ic), statement)
        )

    def element_R(self, name, fields, statement) -> None:
        self._value_element("R", name, fields, statement, None)
        # Intercept exact zero-ohm resistors: they are wires.
        pending = self.pending[-1]
        if pending.fields[2] == 0.0:
            self.pending.pop()
            self.wires.append(
                (pending.fields[0], pending.fields[1], statement)
            )

    def element_C(self, name, fields, statement) -> None:
        self._value_element("C", name, fields, statement, "initial_voltage")

    def element_L(self, name, fields, statement) -> None:
        self._value_element("L", name, fields, statement, "initial_current")

    def _source_element(self, kind, name, fields, statement) -> None:
        n1, n2, rest = self.two_nodes(fields, statement, "source", 1)
        try:
            waveform = _parse_waveform([t for t, _ in rest])
        except NetlistError as exc:
            raise self.error(
                str(exc), statement, rest[0][1] if rest else None
            ) from None
        self.pending.append(
            _PendingElement(kind, name, (n1, n2, waveform), statement)
        )

    def element_V(self, name, fields, statement) -> None:
        self._source_element("V", name, fields, statement)

    def element_I(self, name, fields, statement) -> None:
        self._source_element("I", name, fields, statement)

    def element_K(self, name, fields, statement) -> None:
        if len(fields) != 4:
            raise self.error(
                f"mutual inductance {name!r} takes: K L1 L2 coupling",
                statement,
            )
        l1, l2 = fields[1][0], fields[2][0]
        try:
            coupling = parse_spice_number(fields[3][0])
        except NetlistError as exc:
            raise self.error(str(exc), statement, fields[3][1]) from None
        self.pending.append(
            _PendingElement("K", name, (l1, l2, coupling), statement)
        )

    def _controlled_v(self, kind, name, fields, statement) -> None:
        """E (VCVS) / G (VCCS): name n+ n- cp cn gain."""
        if len(fields) != 6:
            raise self.error(
                f"{name!r} takes: {kind} n+ n- ctrl+ ctrl- gain", statement
            )
        n1 = self.node(fields[1][0], statement, fields[1][1])
        n2 = self.node(fields[2][0], statement, fields[2][1])
        cp = self.node(fields[3][0], statement, fields[3][1])
        cn = self.node(fields[4][0], statement, fields[4][1])
        try:
            gain = parse_spice_number(fields[5][0])
        except NetlistError as exc:
            raise self.error(str(exc), statement, fields[5][1]) from None
        self.pending.append(
            _PendingElement(kind, name, (n1, n2, cp, cn, gain), statement)
        )

    def element_E(self, name, fields, statement) -> None:
        self._controlled_v("E", name, fields, statement)

    def element_G(self, name, fields, statement) -> None:
        self._controlled_v("G", name, fields, statement)

    def _controlled_i(self, kind, name, fields, statement) -> None:
        """H (CCVS) / F (CCCS): name n+ n- vname gain."""
        if len(fields) != 5:
            raise self.error(
                f"{name!r} takes: {kind} n+ n- ctrl_source gain", statement
            )
        n1 = self.node(fields[1][0], statement, fields[1][1])
        n2 = self.node(fields[2][0], statement, fields[2][1])
        ctrl = fields[3][0]
        try:
            gain = parse_spice_number(fields[4][0])
        except NetlistError as exc:
            raise self.error(str(exc), statement, fields[4][1]) from None
        self.pending.append(
            _PendingElement(kind, name, (n1, n2, ctrl, gain), statement)
        )

    def element_H(self, name, fields, statement) -> None:
        self._controlled_i("H", name, fields, statement)

    def element_F(self, name, fields, statement) -> None:
        self._controlled_i("F", name, fields, statement)

    # -- collapse + build ---------------------------------------------------

    def collapse_map(self) -> dict[str, str]:
        """Node -> representative map from the wire union-find pass.

        Ground always represents its class; otherwise the first node of
        the class in file order wins, so collapsed netlists keep stable,
        human-predictable names.
        """
        for n1, n2, _ in self.wires:
            self.nodes.union(n1, n2)
        representative: dict[str, str] = {}
        for node in self.node_order:
            root = self.nodes.find(node)
            if node == "0":
                representative[root] = "0"
            else:
                representative.setdefault(root, node)
        return {
            node: representative[self.nodes.find(node)]
            for node in self.node_order
        }

    def build(self, circuit: Circuit | None = None) -> Circuit:
        """Add the pending elements, collapsed, to ``circuit`` (or a new one).

        The one element dispatch, behind both :func:`parse_netlist` and
        ``Circuit.add(text)``.
        """
        mapping = self.collapse_map()
        if circuit is None:
            circuit = Circuit(self.title or "")

        def mapped(pending: _PendingElement, *nodes: str) -> list[str]:
            out = [mapping[n] for n in nodes]
            if len(out) >= 2 and out[0] == out[1]:
                raise self.error(
                    f"element {pending.name!r} is short-circuited: wires "
                    f"merge {nodes[0]!r} and {nodes[1]!r} into one node",
                    pending.statement,
                )
            return out

        for pending in self.pending:
            f = pending.fields
            try:
                if pending.kind == "R":
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_resistor(pending.name, n1, n2, f[2])
                elif pending.kind == "C":
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_capacitor(
                        pending.name, n1, n2, f[2], initial_voltage=f[3]
                    )
                elif pending.kind == "L":
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_inductor(
                        pending.name, n1, n2, f[2], initial_current=f[3]
                    )
                elif pending.kind == "V":
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_voltage_source(pending.name, n1, n2, f[2])
                elif pending.kind == "I":
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_current_source(pending.name, n1, n2, f[2])
                elif pending.kind == "K":
                    for ref in (f[0], f[1]):
                        if ref not in self.names:
                            raise NetlistError(
                                f"mutual {pending.name!r} references "
                                f"unknown inductor {ref!r}"
                            )
                    circuit.add_mutual_inductance(
                        pending.name, f[0], f[1], f[2]
                    )
                elif pending.kind == "E":
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_vcvs(
                        pending.name, n1, n2, mapping[f[2]], mapping[f[3]], f[4]
                    )
                elif pending.kind == "G":
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_vccs(
                        pending.name, n1, n2, mapping[f[2]], mapping[f[3]], f[4]
                    )
                elif pending.kind == "H":
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_ccvs(pending.name, n1, n2, f[2], f[3])
                else:  # F
                    n1, n2 = mapped(pending, f[0], f[1])
                    circuit.add_cccs(pending.name, n1, n2, f[2], f[3])
            except NetlistSyntaxError:
                raise
            except NetlistError as exc:
                raise self.error(str(exc), pending.statement) from None
        return circuit


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedNetlist:
    """The result of parsing a netlist: circuit + parameter defaults.

    Attributes
    ----------
    circuit:
        The collapsed :class:`~repro.spice.netlist.Circuit`; element
        values referenced through ``{...}`` expressions are
        :class:`~repro.spice.netlist.Param` /
        :class:`~repro.spice.netlist.ParamAffine` slots.
    defaults:
        ``.param`` name -> value assignments (may cover only a subset
        of the slots actually used).
    title:
        The ``.title`` text (or the caller-supplied title), possibly
        empty.
    path:
        Source file path when parsed via :func:`parse_netlist_file`.
    """

    circuit: Circuit
    defaults: dict
    title: str
    path: str | None = None

    @property
    def is_parametric(self) -> bool:
        """True when the netlist uses any ``{...}`` parameter slots."""
        return bool(self.circuit.parameter_names())

    def template(self):
        """The circuit as a :class:`~repro.spice.mna.CircuitTemplate`.

        ``.param`` values become template defaults.  Raises
        :class:`~repro.errors.NetlistError` for a fully concrete netlist
        -- use :attr:`circuit` directly.
        """
        from repro.spice.mna import CircuitTemplate

        return CircuitTemplate(self.circuit, self.defaults)

    def bind(self, params: Mapping[str, float] | None = None) -> Circuit:
        """A concrete circuit: defaults overlaid with ``params``.

        For a netlist with no parameter slots this returns
        :attr:`circuit` itself (``params`` must then be empty).
        """
        if not self.is_parametric:
            if params:
                raise NetlistError(
                    f"netlist has no parameter slots; got {sorted(params)}"
                )
            return self.circuit
        return self.template().bind(params)


def parse_netlist(
    source: str, *, title: str | None = None
) -> ParsedNetlist:
    """Parse SPICE-like netlist text into a :class:`ParsedNetlist`.

    Comments (``*`` lines, ``;``/``$`` tails) and ``+`` continuations
    are handled; ``.param``/``.title``/``.end`` are the supported
    directives; wires (``W`` elements and zero-ohm resistors) are
    collapsed with a union-find pass before the circuit is built; the
    result is validated (ground reference, connectivity, dangling
    controlled-source references).

    Raises
    ------
    NetlistSyntaxError
        For malformed statements, with 1-based line/column position.
    NetlistError
        For whole-circuit failures (no ground, unreachable nodes).
    """
    parser = _Parser(source, title)
    for statement in _scan_statements(source):
        if not parser.feed(statement):
            break
    circuit = parser.build()
    circuit.validate()
    unknown = set(parser.defaults) - set(circuit.parameter_names())
    if unknown:
        raise NetlistError(
            f".param defines {sorted(unknown)} but no element value "
            "references them"
        )
    from repro import obs

    obs.inc("spice.parser.netlists")
    return ParsedNetlist(
        circuit=circuit,
        defaults=dict(parser.defaults),
        title=parser.title or "",
    )


def parse_netlist_file(path) -> ParsedNetlist:
    """Parse a netlist file (UTF-8); see :func:`parse_netlist`."""
    import pathlib

    path = pathlib.Path(path)
    parsed = parse_netlist(path.read_text(), title=None)
    return ParsedNetlist(
        circuit=parsed.circuit,
        defaults=parsed.defaults,
        title=parsed.title or path.stem,
        path=str(path),
    )


def parse_statement(circuit: Circuit, text: str):
    """Parse element statement(s) and add them to ``circuit``.

    The engine behind ``Circuit.add("R1 in mid 50")``: accepts element
    lines of the netlist grammar (R/C/L/V/I/K/E/G/H/F), including
    comments and ``+`` continuations.  Wires and directives are
    rejected -- retroactive node merging on a live circuit would
    silently rename nodes other elements already reference; use
    :func:`parse_netlist` for wire collapsing.

    Returns the added element (or
    :class:`~repro.spice.netlist.MutualInductance` for ``K`` lines);
    a multi-line ``text`` adds every statement and returns the list.
    """
    statements = _scan_statements(text)
    if not statements:
        raise NetlistError(f"no element statements in {text!r}")
    added = [_add_statement(circuit, s) for s in statements]
    return added[0] if len(added) == 1 else added


def _add_statement(circuit: Circuit, statement: _Statement):
    """Parse one scanned statement and add its element to ``circuit``."""
    if statement.text.startswith("."):
        raise NetlistSyntaxError(
            "directives are not allowed in Circuit.add(); only element "
            "lines",
            statement.line_no,
            1,
            statement.line,
        )
    if statement.text[0].upper() == "W":
        raise NetlistSyntaxError(
            "wire statements are only supported in full netlists "
            "(parse_netlist), where nodes can be collapsed before "
            "stamping",
            statement.line_no,
            1,
            statement.line,
        )
    parser = _Parser(statement.text, None)
    for name in (e.name for e in circuit.elements):
        parser.names[name] = statement
    for mutual in circuit.mutual_inductances:
        parser.names[mutual.name] = statement
    # Existing inductors must be visible to K-line reference checks.
    parser.feed(statement)
    if parser.wires:
        # A zero-ohm resistor lands here too: it is a wire in disguise.
        raise NetlistSyntaxError(
            "wire statements are only supported in full netlists "
            "(parse_netlist), where nodes can be collapsed before "
            "stamping",
            statement.line_no,
            1,
            statement.line,
        )
    parser.build(circuit)
    if parser.pending[-1].kind == "K":
        return circuit.mutual_inductances[-1]
    return circuit.elements[-1]


# ---------------------------------------------------------------------------
# Simulation-window heuristic + measurement
# ---------------------------------------------------------------------------


def suggest_transient_window(
    circuit: Circuit, n_samples: int = 2000
) -> tuple[float, float]:
    """Heuristic ``(t_stop, dt)`` for a concrete circuit's step response.

    Sums the total series resistance, inductance and shunt capacitance
    and covers several RC time constants plus several LC periods::

        t_stop = 8 * (R_tot * C_tot) + 6 * 2*pi*sqrt(L_tot * C_tot)

    with a 1 ns floor so degenerate (resistor-only) netlists still get
    a usable grid.  ``dt = t_stop / n_samples``.  This is a *default*
    for CLI runs, not a convergence guarantee -- pass explicit
    values for accuracy-critical measurements.
    """
    import math

    from repro.spice.netlist import Capacitor, Inductor, Resistor

    r_tot = c_tot = l_tot = 0.0
    for element in circuit.elements:
        value = getattr(element, "value", None)
        if value is None or is_parametric(value):
            continue
        if isinstance(element, Resistor):
            r_tot += float(value)
        elif isinstance(element, Capacitor):
            c_tot += float(value)
        elif isinstance(element, Inductor):
            l_tot += float(value)
    t_stop = 8.0 * r_tot * c_tot + 6.0 * 2.0 * math.pi * math.sqrt(
        l_tot * c_tot
    )
    t_stop = max(t_stop, 1e-9)
    return t_stop, t_stop / n_samples


def _measure_netlist(
    parsed: ParsedNetlist,
    points: Sequence[Mapping[str, float]],
    node: str | None = None,
    *,
    n_samples: int | None = None,
    window: float | None = None,
    dt: float | None = None,
    backend: str | None = None,
    model: str | None = None,
    rom_order: int | None = None,
    rom_error_bound: float | None = None,
) -> tuple[str, list[tuple]]:
    """Step a parsed netlist at each parameter point; measure one node.

    The one place a netlist becomes measured answers, for ``sweep
    --netlist`` (its grid) and ``run --netlist`` (one point per file).
    A point overlays the ``.param`` defaults.  Each point's span is
    ``window * suggest_transient_window(point, n_samples)[0]``
    (defaults 1 and 2000), stepped at ``span / n_samples``; a given
    ``dt`` steps every point over the largest span.  All points step in
    one :func:`~repro.spice.transient.simulate_transient_batch`
    recording only ``node`` (default: the last node), under its
    ``backend``, ``model`` and ``rom_*`` options (``None``: its
    default).

    Returns ``(node, rows)``, one ``(circuit, t_stop, dt, delay_50,
    v_final)`` row per point: the bound circuit, its window, its 50%
    delay (``nan`` without a crossing) and its final value.
    """
    import numpy as np

    from repro.errors import ReproError
    from repro.spice.mna import build_mna_structure
    from repro.spice.transient import simulate_transient_batch

    nodes = parsed.circuit.node_names()
    node = node or nodes[-1]
    if node not in nodes:
        raise NetlistError(
            f"node {node!r} not in netlist; nodes: {', '.join(nodes)}"
        )
    bad = sorted({
        name
        for point in points
        for name, value in point.items()
        if not isinstance(value, float)
    })
    if bad:
        raise NetlistError(
            f"parameter values must be numbers: {', '.join(bad)}"
        )
    n_samples = n_samples or 2000
    circuits = [parsed.bind(point) for point in points]
    spans = np.array([
        (window or 1.0) * suggest_transient_window(circuit, n_samples)[0]
        for circuit in circuits
    ])
    if dt is None:
        steps = spans / n_samples
    else:
        spans = np.full_like(spans, spans.max())
        steps = np.full_like(spans, dt)
    result = simulate_transient_batch(
        parsed.template() if parsed.is_parametric
        else build_mna_structure(parsed.circuit),
        points,
        spans,
        steps,
        backend=backend or "auto",
        record=[node],
        model=model or "full",
        rom_order=rom_order,
        rom_error_bound=rom_error_bound,
    )
    rows = []
    for i, circuit in enumerate(circuits):
        wave = result.waveform(i, node)
        try:
            delay = wave.delay_50()
        except ReproError:
            delay = float("nan")
        rows.append((
            circuit, float(spans[i]), float(steps[i]), delay, wave.final_value
        ))
    return node, rows
