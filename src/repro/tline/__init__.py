"""Distributed transmission-line substrate.

This subpackage is one of the three independent "simulator" routes used to
stand in for AS/X (IBM's dynamic circuit simulator used in the paper):

- :mod:`repro.tline.laplace`  -- numerical inverse Laplace transforms
  (de Hoog--Knight--Stokes, with fixed Talbot as its check),
- :mod:`repro.tline.abcd`     -- frequency-domain two-port (ABCD) algebra,
  including the exact distributed-RLC line two-port,
- :mod:`repro.tline.transfer` -- the exact transfer function of the paper's
  Fig. 1 circuit (step-driven gate resistance, distributed RLC line,
  capacitive load) and its step response,
- :mod:`repro.tline.waveform` -- waveform measurements (50% delay, rise
  time, overshoot) applied to sampled responses.
"""

from repro.tline.abcd import TwoPort, rlc_line, series_impedance, shunt_admittance
from repro.tline.laplace import step_response
from repro.tline.transfer import (
    DriverLineLoadTransfer,
    denominator_coefficients,
    line_transfer_function,
)
from repro.tline.waveform import Waveform, propagation_delay_50, rise_time

__all__ = [
    "TwoPort",
    "rlc_line",
    "series_impedance",
    "shunt_admittance",
    "step_response",
    "DriverLineLoadTransfer",
    "line_transfer_function",
    "denominator_coefficients",
    "Waveform",
    "propagation_delay_50",
    "rise_time",
]
