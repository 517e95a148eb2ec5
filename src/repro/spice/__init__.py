"""SPICE-class lumped circuit simulation substrate.

This subpackage stands in for AS/X, the IBM dynamic circuit simulator the
paper validates against.  It provides:

- :mod:`repro.spice.netlist`    -- circuit description (R, L, C, sources),
  including :class:`~repro.spice.netlist.Param` slots for symbolic
  element values,
- :mod:`repro.spice.mna`        -- Modified Nodal Analysis assembly in
  backend-neutral triplet (COO) form, split into a structural pass
  (:class:`~repro.spice.mna.MnaStructure`, the one MNA representation
  every analysis reads, and :class:`~repro.spice.mna.CircuitTemplate`)
  and a cheap revaluation pass for value-only parameter changes,
- :mod:`repro.spice.backend`    -- pluggable linear-solver backends:
  dense LU (reference), ``scipy.sparse`` SuperLU, and an RCM-reordered
  banded LAPACK path for ladder chains, with ``"auto"`` selection by
  system size and bandwidth, pattern-reusing
  :class:`~repro.spice.backend.PatternFactorizer` revaluations,
  multi-RHS block solves, and block-diagonal stacks of per-point
  factorizations (:func:`~repro.spice.backend.stack_factorizations`),
- :mod:`repro.spice.dc`         -- DC operating point,
- :mod:`repro.spice.transient`  -- trapezoidal transient from the DC
  operating point or from rest at ``t = 0`` (one factorization reused
  across every step; the grid always ends exactly at ``t_stop``): lockstep batched stepping of
  structure-identical parameter points as one stacked block-diagonal
  system (:func:`~repro.spice.transient.simulate_transient_batch`), with
  the scalar :func:`~repro.spice.transient.simulate_transient` as its
  batch of one,
- :mod:`repro.spice.ac`         -- small-signal frequency sweeps (triplet
  assembly per frequency, no dense rebuilds) over batches
  (:func:`~repro.spice.ac.ac_sweep_batch`), with the scalar
  :func:`~repro.spice.ac.ac_sweep` as its batch of one,
- :mod:`repro.spice.statespace` -- exact matrix-exponential integration of
  LTI state-space models,
- :mod:`repro.spice.ladder`     -- lumped-segment approximations of the
  distributed RLC line (the workload of every experiment in the paper),
- :mod:`repro.spice.parser`     -- SPICE-like text netlist frontend:
  :func:`~repro.spice.parser.parse_netlist` turns ``.cir`` text (with
  ``.param`` defaults and ``{expr}`` parameter slots) into the same
  :class:`~repro.spice.netlist.Circuit` objects the programmatic API
  builds, and :meth:`~repro.spice.netlist.Circuit.to_netlist` goes the
  other way.

The distributed line of the paper is simulated here as an ``n``-segment
ladder; tests drive ``n`` up until the 50% delay converges and compare
against the exact frequency-domain solution in :mod:`repro.tline`.  The
transient/AC/DC entry points all take a ``backend=`` argument
(``"auto"`` | ``"dense"`` | ``"sparse"`` | ``"banded"`` | a
:class:`~repro.spice.backend.SimulationBackend` instance), which lets
simulator-backed sweeps scale to 1000+-segment lines.
"""

from repro.spice.backend import (
    BACKENDS,
    BandedLuBackend,
    CooMatrix,
    DenseLuBackend,
    PatternFactorizer,
    SimulationBackend,
    SparseLuBackend,
    resolve_backend,
)
from repro.spice.ladder import (
    LadderSpec,
    LadderTopology,
    build_ladder_circuit,
    build_ladder_state_space,
    build_ladder_template,
)
from repro.spice.mna import (
    CircuitTemplate,
    MnaStructure,
    build_mna_structure,
)
from repro.spice.netlist import (
    Capacitor,
    Circuit,
    CurrentSource,
    Inductor,
    Param,
    ParamAffine,
    PiecewiseLinear,
    Pulse,
    Resistor,
    Sine,
    Step,
    VoltageSource,
)
from repro.spice.parser import (
    NetlistSyntaxError,
    ParsedNetlist,
    parse_netlist,
    parse_netlist_file,
    parse_spice_number,
    suggest_transient_window,
)
from repro.spice.transient import (
    TransientBatchResult,
    TransientResult,
    simulate_transient,
    simulate_transient_batch,
)
from repro.spice.statespace import StateSpace, simulate_step
from repro.spice.dc import dc_operating_point
from repro.spice.ac import AcBatchResult, ac_sweep, ac_sweep_batch

__all__ = [
    "Circuit",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "Step",
    "Pulse",
    "Sine",
    "PiecewiseLinear",
    "Param",
    "ParamAffine",
    "NetlistSyntaxError",
    "ParsedNetlist",
    "parse_netlist",
    "parse_netlist_file",
    "parse_spice_number",
    "suggest_transient_window",
    "CircuitTemplate",
    "MnaStructure",
    "build_mna_structure",
    "simulate_transient",
    "simulate_transient_batch",
    "TransientResult",
    "TransientBatchResult",
    "StateSpace",
    "simulate_step",
    "dc_operating_point",
    "ac_sweep",
    "ac_sweep_batch",
    "AcBatchResult",
    "LadderSpec",
    "LadderTopology",
    "build_ladder_circuit",
    "build_ladder_template",
    "build_ladder_state_space",
    "SimulationBackend",
    "PatternFactorizer",
    "DenseLuBackend",
    "SparseLuBackend",
    "BandedLuBackend",
    "BACKENDS",
    "CooMatrix",
    "resolve_backend",
]
