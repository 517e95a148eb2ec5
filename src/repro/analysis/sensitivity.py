"""Delay sensitivity to each of the five impedances.

Elasticities ``(param / t_pd) * d(t_pd)/d(param)`` quantify which knob
moves the delay: in the RC regime the delay is degree-2 homogeneous in
``(R, C)`` and insensitive to ``L``; in the LC regime it is degree-1/2 in
``L`` and ``C`` and insensitive to ``R``.  The elasticities therefore
sum to ~2 in the RC limit and ~1 in the LC limit -- a compact signature
of the quadratic-to-linear transition that the test suite asserts.

The full central-difference stencil -- base point plus two
perturbations per nonzero impedance -- is evaluated as one
:func:`repro.sweep.kernels.batch_propagation_delay` call rather than up
to eleven scalar evaluations.
"""

from __future__ import annotations

import numpy as np

from repro.core.canonical import DriverLineLoad
from repro.errors import ParameterError

__all__ = ["delay_elasticities"]

_FIELDS = ("rt", "lt", "ct", "rtr", "cl")


def delay_elasticities(
    line: DriverLineLoad, relative_step: float = 1e-4
) -> dict[str, float]:
    """Central-difference elasticity of the eq. 9 delay w.r.t. each
    impedance.

    Parameters with value zero are skipped (elasticity 0 by convention).
    For simulated elasticities, run the same stencil as a zipped
    ``Sweep("simulated_delay_50", grid, ...)``.

    >>> line = DriverLineLoad(rt=1000.0, lt=1e-9, ct=1e-12)
    >>> e = delay_elasticities(line)
    >>> abs(e['rt'] - 1.0) < 0.05 and abs(e['ct'] - 1.0) < 0.05
    True
    """
    from repro.sweep.kernels import batch_propagation_delay

    if not 0 < relative_step < 0.1:
        raise ParameterError(f"relative_step must be in (0, 0.1), got {relative_step}")
    active = [name for name in _FIELDS if getattr(line, name) != 0]
    stencil = [{name: getattr(line, name) for name in _FIELDS}]
    for name in active:
        for sign in (1.0, -1.0):
            point = dict(stencil[0])
            point[name] = point[name] * (1 + sign * relative_step)
            stencil.append(point)
    columns = {
        name: np.array([point[name] for point in stencil]) for name in _FIELDS
    }
    delays = batch_propagation_delay(
        columns["rt"], columns["lt"], columns["ct"], columns["rtr"], columns["cl"]
    )
    base = delays[0]
    if base <= 0:
        raise ParameterError("baseline delay must be positive")
    out = {name: 0.0 for name in _FIELDS}
    for i, name in enumerate(active):
        up, down = delays[1 + 2 * i], delays[2 + 2 * i]
        out[name] = float((up - down) / (2.0 * relative_step * base))
    return out
