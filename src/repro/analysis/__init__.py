"""Higher-level analyses built on the core model and the simulators.

- :mod:`repro.analysis.length_dependence` -- the quadratic-to-linear
  transition of delay vs wire length as inductance grows (Section II),
- :mod:`repro.analysis.zeta_collapse`     -- how completely ``zeta``
  captures the five impedances (Fig. 2's "weak RT/CT dependence"),
- :mod:`repro.analysis.merit`             -- when inductance matters: the
  length window criterion of the companion paper [8],
- :mod:`repro.analysis.bus`               -- N-line bus crosstalk metrics
  (victim noise, worst-pattern delay push-out, settling, shield-count
  trade-off curves) over :mod:`repro.bus` structures, the two-line
  aggressor/victim pair included,
- :mod:`repro.analysis.comparison`        -- RC-vs-RLC repeater design
  comparison engine (model, simulation, area, power),
- :mod:`repro.analysis.scaling_study`     -- penalties across technology
  nodes (the paper's closing scaling argument),
- :mod:`repro.analysis.sensitivity`       -- delay elasticities w.r.t.
  each of the five impedances.
"""

from repro.analysis.bus import (
    BusReport,
    BusWaveforms,
    analyze_bus,
    batch_delay_50,
    evenly_spread_shields,
    shield_tradeoff,
    simulate_bus,
)
from repro.analysis.length_dependence import (
    delay_versus_length,
    fitted_length_exponent,
    rc_lc_crossover_length,
)
from repro.analysis.zeta_collapse import collapse_spread
from repro.analysis.merit import inductance_length_window, inductance_matters
from repro.analysis.comparison import DesignComparison, compare_designs
from repro.analysis.scaling_study import scaling_table
from repro.analysis.sensitivity import delay_elasticities

__all__ = [
    "BusReport",
    "BusWaveforms",
    "analyze_bus",
    "batch_delay_50",
    "evenly_spread_shields",
    "shield_tradeoff",
    "simulate_bus",
    "delay_versus_length",
    "fitted_length_exponent",
    "rc_lc_crossover_length",
    "collapse_spread",
    "inductance_length_window",
    "inductance_matters",
    "DesignComparison",
    "compare_designs",
    "scaling_table",
    "delay_elasticities",
]
