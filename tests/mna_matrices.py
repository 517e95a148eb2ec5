"""Hand-built MNA matrices for tests: weighted sums ``sum(w_k * A_k)``
of a circuit's ``G``/``C`` triplets, the references the library's own
assembly and solves are checked against.

Import it from a test module as ``from mna_matrices import ...`` (the
``tests`` directory is on ``sys.path`` under pytest's default import
mode).
"""

from __future__ import annotations

import numpy as np

from repro.spice.backend import CooMatrix
from repro.spice.mna import build_mna_structure


def triplets(circuit):
    """The concrete circuit's structure and its ``G``/``C`` triplets."""
    structure = build_mna_structure(circuit)
    g_data, c_data = structure.revalue()
    return structure, structure.g_plan.coo(g_data), structure.c_plan.coo(c_data)


def combine(*terms: tuple[float, CooMatrix]) -> CooMatrix:
    """Weighted sum ``sum(w_k * A_k)`` of same-shape COO matrices.

    The result concatenates the scaled triplets; zero weights keep
    their matrix's sparsity *pattern* (as explicit zeros).
    """
    rows = np.concatenate([m.rows for _, m in terms])
    cols = np.concatenate([m.cols for _, m in terms])
    data = np.concatenate([np.asarray(w * m.data) for w, m in terms])
    return CooMatrix(rows, cols, data, terms[0][1].shape)
