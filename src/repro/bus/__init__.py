"""repro.bus -- N-line coupled bus structures with shield insertion.

The paper's wide upper-metal wires never run alone: a realistic workload
is a multi-bit *bus* whose lines couple capacitively (sidewall ``Cc``)
and magnetically (mutual inductance ``km``) to their neighbors.  This
subpackage models an arbitrary N-line bus; ``n_lines=2`` is the classic
aggressor/victim pair:

- :mod:`repro.bus.spec` -- :class:`BusSpec`: per-line RLC totals,
  nearest-neighbor and configurable-range coupling with separation
  decay, per-line drivers/loads, per-line switching patterns
  (:class:`LineSwitch`: rise / fall / quiet / high) and grounded
  **shield** lines insertable at arbitrary physical positions -- the
  classic countermeasure studied by Mishra et al. for inductively
  coupled interconnect;
- :mod:`repro.bus.builder` -- :func:`build_bus_circuit`: materializes a
  spec + pattern as a :class:`~repro.spice.netlist.Circuit`, assembled
  through the backend-neutral COO MNA path so all three
  :class:`~repro.spice.backend.SimulationBackend` implementations
  (dense / sparse / banded) serve bus transients; and
  :func:`build_bus_template`: the same netlist with its electrical
  values (``rt``/``lt``/``ct``/``cct``/``rtr``/``cl``) as
  :class:`~repro.spice.netlist.Param` slots, feeding the batched
  stamp-once / re-value-many analyses
  (:func:`~repro.spice.transient.simulate_transient_batch`,
  :func:`~repro.spice.ac.ac_sweep_batch`).

Higher-level bus *metrics* (victim noise, worst-pattern delay push-out,
settling, shield-count trade-offs) live in :mod:`repro.analysis.bus`;
the crosstalk-aware repeater stage is in :mod:`repro.core.repeater`.

Quickstart
----------
>>> from repro.bus import BusSpec, build_bus_circuit, odd_pattern
>>> spec = BusSpec(n_lines=4, rt=100.0, lt=2e-8, ct=1e-12, cct=4e-13,
...                km=0.4, rtr=50.0, n_segments=8, shields=(2,))
>>> ckt = build_bus_circuit(spec, odd_pattern(4, victim=1))
>>> len(ckt) > 0
True
"""

from repro.bus.spec import (
    BusSpec,
    LineSwitch,
    even_pattern,
    odd_pattern,
    quiet_victim_pattern,
    solo_pattern,
)
from repro.bus.builder import build_bus_circuit, build_bus_template

__all__ = [
    "BusSpec",
    "LineSwitch",
    "build_bus_circuit",
    "build_bus_template",
    "even_pattern",
    "odd_pattern",
    "quiet_victim_pattern",
    "solo_pattern",
]
