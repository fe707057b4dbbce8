"""Structured triangulations of the mu-independent reference rectangle.

The reference domain is a rectangle meshed by an nx-by-ny grid of cells,
each split into two right triangles along the bottom-left to top-right
diagonal.  The mesh stores per-element diameters h_K (the longest edge)
and the interior-edge connectivity needed by jump stabilization.
"""

from __future__ import annotations

import numpy as np

LID = "Lid"
WALL = "Wall"


class Mesh:
    """Immutable triangulation of a rectangle.

    Attributes
    ----------
    vertices : (n_v, 2) float array
    triangles : (n_t, 3) int array
        Vertex indices, counterclockwise.
    edges : (n_e, 2) int array
        All distinct edges as sorted vertex pairs, lexicographic order.
    cell_edges : (n_t, 3) int array
        Global edge id of the local edges (v0,v1), (v1,v2), (v2,v0).
    interior_edges : (n_ie,) int array of edge ids
    edge_tris : (n_e, 2) int array
        The triangles sharing each edge, lower id first; -1 on the boundary.
    boundary_edges : (n_be,) int array of edge ids
    boundary_edge_tags : list of str, one of LID or WALL
    element_diameters : (n_t,) float array, longest edge per triangle
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray,
                 boundary_tags: dict[tuple[int, int], str]):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.n_vertices = self.vertices.shape[0]
        self.n_triangles = self.triangles.shape[0]

        v = self.vertices[self.triangles]          # (n_t, 3, 2)
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(signed <= 0.0):
            bad = int(np.argmin(signed))
            raise ValueError(f"triangle {bad} has non-positive area {signed[bad]}")
        self.areas = signed

        e01 = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        e12 = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
        e20 = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        self.element_diameters = np.maximum(np.maximum(e01, e12), e20)

        # Gradients of the barycentric coordinates; grad lambda_i is the
        # inward normal of the opposite edge scaled by 1/(2 area).
        g = np.empty((self.n_triangles, 3, 2))
        two_a = (2.0 * self.areas)[:, None]
        g[:, 0] = np.stack([v[:, 1, 1] - v[:, 2, 1], v[:, 2, 0] - v[:, 1, 0]], axis=1) / two_a
        g[:, 1] = np.stack([v[:, 2, 1] - v[:, 0, 1], v[:, 0, 0] - v[:, 2, 0]], axis=1) / two_a
        g[:, 2] = np.stack([v[:, 0, 1] - v[:, 1, 1], v[:, 1, 0] - v[:, 0, 0]], axis=1) / two_a
        self.grad_bary = g

        self._build_edges(boundary_tags)

    def _build_edges(self, boundary_tags: dict[tuple[int, int], str]) -> None:
        t = self.triangles
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        pairs_sorted = np.sort(pairs, axis=1)
        edges, inverse = np.unique(pairs_sorted, axis=0, return_inverse=True)
        self.edges = edges
        self.n_edges = edges.shape[0]
        self.cell_edges = inverse.reshape(3, self.n_triangles).T

        counts = np.bincount(inverse, minlength=self.n_edges)
        if counts.max() > 2:
            raise ValueError("non-manifold edge: shared by more than 2 triangles")
        self.interior_edges = np.flatnonzero(counts == 2)
        self.boundary_edges = np.flatnonzero(counts == 1)

        # Triangles adjacent to each edge, lower triangle index first.
        adjacency = np.full((self.n_edges, 2), -1, dtype=np.int64)
        tri_ids = np.tile(np.arange(self.n_triangles), 3)
        order = np.argsort(inverse, kind="stable")
        sorted_edges = inverse[order]
        sorted_tris = tri_ids[order]
        starts = np.searchsorted(sorted_edges, np.arange(self.n_edges))
        adjacency[:, 0] = sorted_tris[starts]
        second = counts == 2
        adjacency[second, 1] = sorted_tris[starts[second] + 1]
        adjacency[second] = np.sort(adjacency[second], axis=1)
        self.edge_tris = adjacency

        ev = self.vertices[edges]
        self.edge_lengths = np.linalg.norm(ev[:, 1] - ev[:, 0], axis=1)

        tags = []
        for e in self.boundary_edges:
            key = (int(edges[e, 0]), int(edges[e, 1]))
            if key not in boundary_tags:
                raise ValueError(f"boundary edge {key} has no tag")
            tags.append(boundary_tags[key])
        self.boundary_edge_tags = tags


def build_rect_mesh(length: float, height: float, nx: int, ny: int) -> Mesh:
    """Build a structured triangulation of (0, length) x (0, height).

    Each of the nx*ny cells is split along the bottom-left to top-right
    diagonal.  The top edge is tagged Lid, the rest of the boundary Wall.

    Parameters
    ----------
    length, height : positive floats
    nx, ny : positive ints, cells per direction
    """
    if not (length > 0.0 and height > 0.0):
        raise ValueError(f"domain dimensions must be positive, got {length} x {height}")
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")

    xs = np.linspace(0.0, length, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys)                    # row j = constant y
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i: int, j: int) -> int:
        return j * (nx + 1) + i

    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    k = 0
    for j in range(ny):
        for i in range(nx):
            bl = vid(i, j)
            br = vid(i + 1, j)
            tl = vid(i, j + 1)
            tr = vid(i + 1, j + 1)
            tris[k] = (bl, br, tr)
            tris[k + 1] = (bl, tr, tl)
            k += 2

    tags: dict[tuple[int, int], str] = {}
    for i in range(nx):
        tags[tuple(sorted((vid(i, 0), vid(i + 1, 0))))] = WALL
        tags[tuple(sorted((vid(i, ny), vid(i + 1, ny))))] = LID
    for j in range(ny):
        tags[tuple(sorted((vid(0, j), vid(0, j + 1))))] = WALL
        tags[tuple(sorted((vid(nx, j), vid(nx, j + 1))))] = WALL

    return Mesh(vertices, tris, tags)
