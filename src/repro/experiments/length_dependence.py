"""EXP-X1: quadratic-to-linear delay growth with wire length.

Section II (text): "the traditional quadratic dependence of the
propagation delay on the length of an RC line approaches a linear
dependence as inductance effects increase."  We sweep length on a
realistic global wire at three inductance levels (none, nominal, high)
and report the fitted log-log exponent in short/long-length windows.

Each length sweep is a zipped-axis batch through the
:mod:`repro.sweep` engine (see
:func:`repro.analysis.length_dependence.delay_versus_length`).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.length_dependence import (
    delay_versus_length,
    fitted_length_exponent,
    rc_lc_crossover_length,
)
from repro.experiments.common import ExperimentTable
from repro.technology.nodes import node_by_name

__all__ = ["run"]


def run(
    node_name: str = "250nm",
    inductance_scales=(1e-6, 1.0, 10.0),
    lengths=None,
) -> ExperimentTable:
    """Regenerate the length-dependence study.

    ``inductance_scales`` multiply the extracted per-unit-length L; the
    near-zero entry emulates the RC modeling convention.
    """
    node = node_by_name(node_name)
    r, l, c = node.wire_rlc("global")
    if lengths is None:
        lengths = np.geomspace(1e-3, 64e-3, 13)  # 1 mm .. 64 mm
    lengths = np.asarray(lengths, dtype=float)
    half = lengths.size // 2

    rows = []
    for scale in inductance_scales:
        # Bare line (no gate impedances): the paper's statement is about
        # the wire's own scaling -- 0.37*R*C*l**2 vs sqrt(L*C)*l.
        delays = delay_versus_length(r, scale * l, c, lengths)
        short_exp = fitted_length_exponent(lengths[:half], delays[:half])
        long_exp = fitted_length_exponent(lengths[half:], delays[half:])
        crossover = rc_lc_crossover_length(r, scale * l, c)
        rows.append(
            (
                f"{scale:g}x L",
                round(short_exp, 3),
                round(long_exp, 3),
                round(crossover * 1e3, 2),
                round(float(delays[0] * 1e12), 1),
                round(float(delays[-1] * 1e12), 1),
            )
        )
    notes = (
        "exponent ~2 = RC diffusion; ~1 = LC flight; higher inductance "
        "pushes the linear regime to longer wires",
        f"wire: {node_name} global layer, bare line (no gate impedances)",
    )
    return ExperimentTable(
        experiment_id="EXP-X1",
        title="delay vs length -- quadratic-to-linear transition",
        headers=(
            "L scale",
            "exp(short)",
            "exp(long)",
            "crossover_mm",
            "t(1mm)_ps",
            "t(64mm)_ps",
        ),
        rows=tuple(rows),
        notes=notes,
    )
