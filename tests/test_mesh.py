"""Mesh construction oracles: hand-counted structured grids."""

import numpy as np
import pytest

from cavityrb.mesh import LID, WALL, Mesh, build_rect_mesh


def unit_right_triangle() -> Mesh:
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    tags = {(0, 1): WALL, (1, 2): WALL, (0, 2): WALL}
    return Mesh(verts, tris, tags, 1.0, 1.0)


def test_single_cell_counts():
    m = build_rect_mesh(1.0, 1.0, 1, 1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.interior_edges.size == 1
    assert abs(m.edge_lengths[m.interior_edges[0]] - np.sqrt(2.0)) < 1e-15
    assert m.n_edges == 5


def test_two_cell_counts_and_area():
    m = build_rect_mesh(2.0, 1.0, 2, 1)
    assert m.n_vertices == 6
    assert m.n_triangles == 4
    assert m.n_edges == 9
    assert m.areas.sum() == pytest.approx(2.0, abs=1e-14)


def test_desk_mesh_counts_and_lid_tags():
    m = build_rect_mesh(2.0, 1.0, 32, 16)
    assert m.n_vertices == 33 * 17
    assert m.n_triangles == 2 * 32 * 16
    lid = [e for e, tag in zip(m.boundary_edges, m.boundary_edge_tags)
           if tag == LID]
    for e in lid:
        assert np.allclose(m.vertices[m.edges[e], 1], 1.0)
    assert len(lid) == 32
    assert len(m.boundary_edges) - len(lid) == 16 + 16 + 32


def test_element_geometry_unit_triangle():
    m = unit_right_triangle()
    assert m.areas[0] == pytest.approx(0.5, abs=1e-15)
    assert m.element_diameters[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    expected = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(m.grad_bary[0], expected, atol=1e-14)


def test_barycentric_gradients_sum_to_zero():
    m = build_rect_mesh(1.7, 0.9, 5, 3)
    assert np.abs(m.grad_bary.sum(axis=1)).max() < 1e-14


@pytest.mark.parametrize("dims", [(2.0, 1.0, 7, 3), (1.3, 2.4, 4, 9)])
def test_area_partition(dims):
    length, height, nx, ny = dims
    m = build_rect_mesh(length, height, nx, ny)
    assert m.areas.sum() == pytest.approx(length * height, rel=1e-12)


def test_refinement_halves_max_diameter_exactly():
    coarse = build_rect_mesh(2.0, 1.0, 8, 4)
    fine = build_rect_mesh(2.0, 1.0, 16, 8)
    assert fine.element_diameters.max() == 0.5 * coarse.element_diameters.max()


def test_edge_classification_partition():
    m = build_rect_mesh(2.0, 1.0, 6, 5)
    assert m.interior_edges.size + m.boundary_edges.size == m.n_edges
    assert np.all(m.edge_tris[m.interior_edges, 1] >= 0)
    assert np.all(m.edge_tris[m.boundary_edges, 1] == -1)
    # the two triangles of an interior edge are ordered lower id first
    pairs = m.interior_edge_tris
    assert np.all(pairs[:, 0] < pairs[:, 1])


def test_diameter_is_longest_edge():
    m = build_rect_mesh(2.0, 1.0, 4, 2)
    for k in range(m.n_triangles):
        v = m.vertices[m.triangles[k]]
        edges = [np.linalg.norm(v[a] - v[b])
                 for a, b in ((0, 1), (1, 2), (2, 0))]
        assert m.element_diameters[k] == pytest.approx(max(edges), abs=1e-15)


@pytest.mark.parametrize("bad", [(0.0, 1.0, 1, 1), (1.0, -2.0, 1, 1),
                                 (1.0, 1.0, 0, 1), (1.0, 1.0, 1, 0)])
def test_invalid_arguments_rejected(bad):
    with pytest.raises(ValueError):
        build_rect_mesh(*bad)


def test_clockwise_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tags = {(0, 1): WALL, (1, 2): WALL, (0, 2): WALL}
    with pytest.raises(ValueError):
        Mesh(verts, np.array([[0, 2, 1]]), tags, 1.0, 1.0)


def test_untagged_boundary_edge_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Mesh(verts, np.array([[0, 1, 2]]), {(0, 1): WALL}, 1.0, 1.0)
