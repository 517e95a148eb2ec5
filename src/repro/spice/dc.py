"""DC operating point.

At DC, capacitors are open circuits and inductors are shorts; both limits
fall out naturally from solving ``G x = b(0)`` with the dynamic matrix
``C`` dropped (the inductor's branch row reduces to ``v+ - v- = 0``).

The solve goes through a pluggable
:class:`~repro.spice.backend.SimulationBackend` (dense LU, sparse LU,
or RCM-banded LU), so operating points of very long ladder chains stay
O(n) instead of O(n^3).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.spice.backend import (
    PatternFactorizer,
    SimulationBackend,
    resolve_backend,
)
from repro.spice.mna import MnaStructure, _concrete_structure
from repro.spice.netlist import GROUND, Circuit, canonical_node

__all__ = ["dc_operating_point", "DcSolution"]


class DcSolution:
    """Node voltages and branch currents at the DC operating point."""

    def __init__(self, structure: MnaStructure, x: np.ndarray) -> None:
        self._structure = structure
        self._x = x

    def voltage(self, node) -> float:
        """DC voltage of ``node`` (ground returns 0)."""
        if canonical_node(node) == GROUND:
            return 0.0
        return float(self._x[self._structure.voltage_row(node)])

    def current(self, element_name: str) -> float:
        """DC branch current of a voltage source or inductor."""
        return float(self._x[self._structure.current_row(element_name)])

    @property
    def vector(self) -> np.ndarray:
        """Raw MNA solution vector (copy)."""
        return self._x.copy()


def dc_operating_point(
    circuit: Circuit,
    backend: SimulationBackend | str = "auto",
) -> DcSolution:
    """Solve the DC operating point with sources held at ``t = 0``.

    This is the operating point a transient with ``initial="dc"``
    starts from.

    Parameters
    ----------
    circuit:
        The netlist to solve.
    backend:
        Linear-solver implementation (``"auto"``, ``"dense"``,
        ``"sparse"``, ``"banded"``, or a
        :class:`~repro.spice.backend.SimulationBackend` instance).

    Raises
    ------
    SimulationError
        If the MNA matrix is singular (floating node, inductor loop...).
    """
    structure = _concrete_structure(circuit)
    g_data, _c_data = structure.revalue()
    g = structure.g_plan.coo(g_data)
    backend = resolve_backend(backend, g)
    x = _dc_solve_rows(
        backend.factorizer(g),
        g.data[None, :],
        structure.rhs(),
        lambda _i: (
            "singular DC system: check for floating nodes (capacitor-only "
            "islands) or voltage-source/inductor loops"
        ),
    )[0]
    if not np.all(np.isfinite(x)):
        raise SimulationError("DC solution contains non-finite values")
    return DcSolution(structure, x)


def _dc_solve_rows(
    factorizer: PatternFactorizer,
    g_data: np.ndarray,
    b: np.ndarray,
    singular: Callable[[int], str],
) -> np.ndarray:
    """DC operating points ``(B, n)``: ``G_j x_j = b`` per row of ``g_data``.

    The one DC factor-and-solve loop, behind :func:`dc_operating_point`
    (a batch of one) and the transient batch's ``initial="dc"`` start.
    Each row is ``G``'s data on ``factorizer``'s pattern; rows with equal
    data share one factorization.  A singular row ``j`` raises
    :class:`~repro.errors.SimulationError` with the message
    ``singular(j)``.
    """
    x = np.empty((g_data.shape[0], b.size))
    solved: dict[bytes, np.ndarray] = {}
    for j, row in enumerate(g_data):
        key = row.tobytes()
        if key not in solved:
            try:
                solved[key] = factorizer.refactorize(row).solve(b)
            except SimulationError as exc:
                raise SimulationError(singular(j)) from exc
        x[j] = solved[key]
    return x
