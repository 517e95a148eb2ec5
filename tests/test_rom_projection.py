"""Property: the pre-projected revaluation plans equal the dense projection.

:func:`repro.rom.prima._project_plan` splits ``V^T D A(p) V`` into a
constant part plus one fixed ``q x q`` matrix per revaluation group,
each computed on that group's own rows.  Recombined at any parameter
point, the parts must equal the congruence projection of the dense
matrix that :meth:`~repro.spice.mna.MnaStructure.revalue` stamps at that
point, to 1e-12 relative -- over the topology generators, the netlist
corpus, and hand-built plans with duplicate slots, zero constant slots
and empty groups.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.bus.builder import build_bus_template
from repro.bus.spec import BusSpec
from repro.rom import prima
from repro.spice.ladder import build_ladder_template
from repro.spice.mna import _key_value, _MatrixPlan, build_mna_structure
from repro.spice.parser import parse_netlist_file
from repro.topology.htree import build_htree_template
from repro.topology.mesh import build_mesh_template

NETLIST_DIR = pathlib.Path(__file__).parent / "netlists"

RTOL = 1e-12


def _basis(n: int, seed: int) -> np.ndarray:
    q = min(8, n)
    rng = np.random.default_rng([seed, n])
    return np.linalg.qr(rng.standard_normal((n, q)))[0]


def _recombine(parts, point: dict) -> np.ndarray:
    const, groups = parts

    def get(name: str) -> np.float64:
        return np.float64(point[name])

    out = const.copy()
    for key, mat in groups:
        out += _key_value(key, get) * mat
    return out


def _assert_close(got: np.ndarray, ref: np.ndarray) -> None:
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= RTOL * max(scale, np.finfo(float).tiny)


def _check_structure(structure, point: dict, seed: int) -> None:
    n = structure.size
    basis = _basis(n, seed)
    signs = prima._row_signs(structure.branch_index, n)
    test_basis = signs[:, None] * basis
    g_data, c_data = structure.revalue(point)
    for plan, data in ((structure.g_plan, g_data), (structure.c_plan, c_data)):
        ref = test_basis.T @ plan.coo(data).to_dense() @ basis
        _assert_close(_recombine(prima._project_plan(plan, basis, signs), point), ref)


def _perturbed(nominal: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {name: value * rng.uniform(0.5, 2.0) for name, value in nominal.items()}


TEMPLATES = {
    "ladder": (
        lambda: build_ladder_template(30, "PI", loaded=True),
        dict(rt=1000.0, lt=1e-6, ct=1e-12, rtr=100.0, cl=1e-13),
    ),
    "bus": (
        lambda: build_bus_template(
            BusSpec(n_lines=3, rt=200.0, lt=2e-8, ct=1e-12, cct=4e-13, km=0.4,
                    rtr=50.0, cl=5e-14, n_segments=10),
            ("rise", "fall", "rise"),
        ),
        dict(rt=200.0, lt=2e-8, ct=1e-12, cct=4e-13, rtr=50.0, cl=5e-14),
    ),
    "htree": (
        lambda: build_htree_template(2, 6),
        dict(rt=200.0, lt=2e-8, ct=2e-12, rtr=50.0, cl=2e-13),
    ),
    "mesh": (
        lambda: build_mesh_template(4, 5, inductive=True, loaded=True, terminated=True),
        dict(re=20.0, le=1e-9, cn=1e-13, rtr=50.0, cl=1e-13, rl=1e3),
    ),
}


@pytest.mark.parametrize("name", sorted(TEMPLATES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_template_projection_matches_dense(name, seed):
    build, nominal = TEMPLATES[name]
    template = build()
    point = _perturbed(template.resolve_params(nominal), seed)
    _check_structure(template.structure, point, seed)


@pytest.mark.parametrize(
    "path", sorted(NETLIST_DIR.glob("*.cir")), ids=lambda p: p.name
)
def test_netlist_projection_matches_dense(path):
    parsed = parse_netlist_file(path)
    if parsed.is_parametric:
        template = parsed.template()
        structure = template.structure
        point = _perturbed(template.resolve_params(None), 3)
    else:
        structure = build_mna_structure(parsed.circuit)
        point = {}
    _check_structure(structure, point, 4)


def test_hand_built_plan_with_duplicates_zeros_and_empty_group():
    """Slots sharing a ``(row, col)`` sum, zero ``const`` slots and
    all-zero or empty groups project to exact zeros, and the parts still
    recombine."""
    n = 6
    rows = np.array([0, 0, 1, 2, 2, 2, 3, 5, 5, 4])
    cols = np.array([0, 0, 1, 2, 3, 2, 3, 5, 0, 4])
    const = np.array([1.5, -0.5, 0.0, 2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 0.0])
    groups = (
        (("lin", "a"), np.array([0, 1, 6]), np.array([0.25, 2.0, 4.0])),
        (("inv", "b"), np.array([4, 8, 9]), np.array([1.0, -3.0, 0.5])),
        (("lin", "c"), np.array([], dtype=np.intp), np.array([])),
        (("sqrt", "a"), np.array([2, 3]), np.array([0.0, 0.0])),
    )
    plan = _MatrixPlan(rows, cols, const, groups, n)
    basis = _basis(n, 5)
    signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    const_part, group_parts = prima._project_plan(plan, basis, signs)
    assert [key for key, _ in group_parts] == [key for key, _, _ in groups]
    assert np.all(group_parts[2][1] == 0.0)
    assert np.all(group_parts[3][1] == 0.0)
    point = dict(a=1.7, b=0.3, c=9.0)
    dense = np.zeros((n, n))
    columns = {name: np.asarray([value]) for name, value in point.items()}
    np.add.at(dense, (rows, cols), plan.data_many(columns, 1)[0])
    ref = (signs[:, None] * basis).T @ dense @ basis
    _assert_close(_recombine((const_part, group_parts), point), ref)


def test_empty_plan_projects_to_zero():
    empty = np.array([], dtype=np.intp)
    plan = _MatrixPlan(empty, empty, np.array([]), (), 4)
    const, groups = prima._project_plan(plan, _basis(4, 6), np.ones(4))
    assert groups == ()
    assert const.shape == (4, 4) and np.all(const == 0.0)
