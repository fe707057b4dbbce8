"""Lagrange space oracles: DOF counts, interpolation exactness, lifting."""

import numpy as np
import pytest

from cavityrb.fespace import (FeFunction, interpolate_lifting, make_space,
                              shape_values, zero_function)
from cavityrb.mesh import LID, WALL, build_rect_mesh
from oracles import PointNotFoundError, eval_gradient, fe_eval, interpolate


@pytest.mark.parametrize("family,expected", [("P1", 4), ("P2", 9), ("P0", 2)])
def test_scalar_dof_counts_single_cell(family, expected):
    space = make_space(build_rect_mesh(1.0, 1.0, 1, 1), family, 1)
    assert space.n_scalar == expected
    assert space.dof_count == expected


def test_vector_space_doubles_dofs():
    mesh = build_rect_mesh(2.0, 1.0, 3, 2)
    for family in ("P1", "P2"):
        scalar = make_space(mesh, family, 1)
        vector = make_space(mesh, family, 2)
        assert vector.dof_count == 2 * scalar.n_scalar


def test_p0_vector_rejected():
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    with pytest.raises(ValueError):
        make_space(mesh, "P0", 2)
    with pytest.raises(ValueError):
        make_space(mesh, "P3", 1)


def test_cell_dofs_cover_every_dof():
    mesh = build_rect_mesh(2.0, 1.0, 4, 3)
    for family in ("P0", "P1", "P2"):
        space = make_space(mesh, family, 1)
        seen = np.unique(space.cell_dofs)
        assert seen.size == space.n_scalar
        if family == "P0":
            assert space.cell_dofs.size == space.n_scalar


@pytest.mark.parametrize("family", ["P1", "P2"])
def test_partition_of_unity(family):
    rng = np.random.default_rng(5)
    pts = rng.dirichlet((1.0, 1.0, 1.0), size=40)
    vals = shape_values(family, pts)
    assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12


def test_constant_function_evaluates_to_one():
    space = make_space(build_rect_mesh(2.0, 1.0, 3, 2), "P1", 1)
    f = FeFunction(space, np.ones(space.dof_count))
    for point in [(0.3, 0.4), (1.9, 0.05), (1.0, 0.5)]:
        assert fe_eval(f, point) == pytest.approx(1.0, abs=1e-14)


def test_linear_gradient_exact():
    space = make_space(build_rect_mesh(2.0, 1.0, 3, 2), "P1", 1)
    f = interpolate(space, lambda x, y: x)
    assert np.allclose(eval_gradient(f, (0.7, 0.3)), [1.0, 0.0], atol=1e-13)


def test_p2_reproduces_quadratics():
    space = make_space(build_rect_mesh(2.0, 1.0, 3, 2), "P2", 1)

    def quad(x, y):
        return 1.3 * x * x - 0.7 * x * y + 2.1 * y * y + 0.4 * x - y + 0.2

    f = interpolate(space, quad)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y = rng.uniform(0, 2), rng.uniform(0, 1)
        assert fe_eval(f, (x, y)) == pytest.approx(quad(x, y), abs=1e-12)
    g = interpolate(space, lambda x, y: x * x)
    assert np.allclose(eval_gradient(g, (0.5, 0.25)), [1.0, 0.0], atol=1e-12)


def test_eval_outside_domain():
    space = make_space(build_rect_mesh(1.0, 1.0, 1, 1), "P1", 1)
    with pytest.raises(PointNotFoundError):
        fe_eval(zero_function(space), (3.0, 3.0))


def test_vector_interpolation_interleaving():
    space = make_space(build_rect_mesh(2.0, 1.0, 2, 2), "P1", 2)
    f = interpolate(space, lambda x, y: (x, -y))
    assert np.allclose(f.values[0::2], space.dof_coords[:, 0])
    assert np.allclose(f.values[1::2], -space.dof_coords[:, 1])
    vd = space.cell_vector_dofs()
    assert np.array_equal(vd[:, 0::2], 2 * space.cell_dofs)
    assert np.array_equal(vd[:, 1::2], 2 * space.cell_dofs + 1)


def test_coefficient_length_checked():
    space = make_space(build_rect_mesh(1.0, 1.0, 1, 1), "P1", 1)
    with pytest.raises(ValueError):
        FeFunction(space, np.zeros(space.dof_count + 1))


def test_boundary_classification_counts():
    space = make_space(build_rect_mesh(2.0, 1.0, 4, 2), "P1", 1)
    assert space.boundary_dofs[LID].size == 5          # lid vertices
    assert space.boundary_dofs[WALL].size == 5 + 2 + 2  # bottom + side columns
    corners = set(space.boundary_dofs[LID]) & set(space.boundary_dofs[WALL])
    assert len(corners) == 2                            # top corners shared
    free = space.free_dofs()
    assert np.intersect1d(free, space.dirichlet_dofs()).size == 0
    assert free.size + space.dirichlet_dofs().size == space.dof_count


def test_lifting_single_cell_is_zero():
    # with one cell both lid vertices are corners, so the lid data
    # resolves to the all-zero field
    space = make_space(build_rect_mesh(1.0, 1.0, 1, 1), "P1", 2)
    assert np.all(interpolate_lifting(space).values == 0.0)


def test_lifting_two_cells_single_node():
    space = make_space(build_rect_mesh(2.0, 1.0, 2, 1), "P1", 2)
    lift = interpolate_lifting(space)
    nz = np.flatnonzero(lift.values)
    assert nz.size == 1
    dof = int(nz[0])
    assert dof % 2 == 0                                 # horizontal component
    assert np.allclose(space.dof_coords[dof // 2], [1.0, 1.0])
    assert lift.values[dof] == 1.0


def test_lifting_nodal_values():
    space = make_space(build_rect_mesh(2.0, 1.0, 4, 2), "P2", 2)
    lift = interpolate_lifting(space)
    lid = set(space.boundary_dofs[LID].tolist())
    wall = set(space.boundary_dofs[WALL].tolist())
    for dof in range(space.dof_count):
        x, y = space.dof_coords[dof // 2]
        if dof in lid and dof not in wall and dof % 2 == 0:
            assert lift.values[dof] == 1.0, (x, y)
        else:
            assert lift.values[dof] == 0.0, (x, y)
    assert np.allclose(fe_eval(lift, (1.0, 1.0)), [1.0, 0.0], atol=1e-14)


def test_lifting_requires_vector_space():
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    with pytest.raises(ValueError):
        interpolate_lifting(make_space(mesh, "P1", 1))
