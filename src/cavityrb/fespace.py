"""Lagrange finite element spaces on triangles: P0, P1 and P2.

Scalar degrees of freedom are enumerated vertices first, then edge
midpoints for P2 (P0 uses one DOF per triangle).  Vector spaces
interleave components: scalar DOF s owns vector DOFs 2s and 2s+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import LID, WALL, Mesh

FAMILIES = ("P0", "P1", "P2")
N_LOCAL = {"P0": 1, "P1": 3, "P2": 6}


def bary_coords(points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates on the unit triangle for (n, 2) points."""
    points = np.atleast_2d(points)
    lam = np.empty((points.shape[0], 3))
    lam[:, 0] = 1.0 - points[:, 0] - points[:, 1]
    lam[:, 1] = points[:, 0]
    lam[:, 2] = points[:, 1]
    return lam


def shape_values(family: str, lam: np.ndarray) -> np.ndarray:
    """Shape function values, (n, nloc), from barycentric coordinates."""
    if family == "P0":
        return np.ones((lam.shape[0], 1))
    if family == "P1":
        return lam.copy()
    if family == "P2":
        l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
        return np.column_stack([
            l0 * (2.0 * l0 - 1.0),
            l1 * (2.0 * l1 - 1.0),
            l2 * (2.0 * l2 - 1.0),
            4.0 * l0 * l1,
            4.0 * l1 * l2,
            4.0 * l2 * l0,
        ])
    raise ValueError(f"unknown family {family!r}")


def shape_dlam(family: str, lam: np.ndarray) -> np.ndarray:
    """Partials of the shape functions w.r.t. barycentric coordinates.

    Returns (n, nloc, 3).  Physical gradients follow by contracting the
    last axis with the barycentric gradients of the element: since
    sum_i grad(lambda_i) = 0, any homogeneous representative is valid.
    """
    n = lam.shape[0]
    if family == "P0":
        return np.zeros((n, 1, 3))
    if family == "P1":
        d = np.zeros((n, 3, 3))
        d[:] = np.eye(3)
        return d
    if family == "P2":
        d = np.zeros((n, 6, 3))
        for i in range(3):
            d[:, i, i] = 4.0 * lam[:, i] - 1.0
        for a, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
            d[:, 3 + a, i] = 4.0 * lam[:, j]
            d[:, 3 + a, j] = 4.0 * lam[:, i]
        return d
    raise ValueError(f"unknown family {family!r}")


class FunctionSpace:
    """Scalar or 2-vector Lagrange space over a mesh.

    Attributes
    ----------
    dof_count : total number of (vector) DOFs
    n_scalar : number of scalar DOFs
    cell_dofs : (n_t, nloc) int array of scalar DOF ids per cell
    boundary_dofs : dict tag -> sorted int array of DOF ids on that part
        of the boundary.  Corner vertices appear under both tags.
    dof_coords : (n_scalar, 2) nodal coordinates (P0: cell centroids)
    """

    def __init__(self, mesh: Mesh, family: str, components: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if components not in (1, 2):
            raise ValueError(f"components must be 1 or 2, got {components}")
        if family == "P0" and components != 1:
            raise ValueError("P0 is supported for pressure only (components=1)")
        self.mesh = mesh
        self.family = family
        self.components = components
        self.n_local = N_LOCAL[family]

        if family == "P0":
            self.n_scalar = mesh.n_triangles
            self.cell_dofs = np.arange(mesh.n_triangles, dtype=np.int64)[:, None]
            self.dof_coords = mesh.vertices[mesh.triangles].mean(axis=1)
        elif family == "P1":
            self.n_scalar = mesh.n_vertices
            self.cell_dofs = mesh.triangles.copy()
            self.dof_coords = mesh.vertices.copy()
        else:
            self.n_scalar = mesh.n_vertices + mesh.n_edges
            self.cell_dofs = np.concatenate(
                [mesh.triangles, mesh.n_vertices + mesh.cell_edges], axis=1)
            mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                          + mesh.vertices[mesh.edges[:, 1]])
            self.dof_coords = np.concatenate([mesh.vertices, mids], axis=0)

        self.dof_count = components * self.n_scalar
        self.boundary_dofs = self._classify_boundary()

    def _classify_boundary(self) -> dict[str, np.ndarray]:
        scalar: dict[str, set[int]] = {LID: set(), WALL: set()}
        if self.family != "P0":
            mesh = self.mesh
            for e, tag in zip(mesh.boundary_edges, mesh.boundary_edge_tags):
                va, vb = mesh.edges[e]
                scalar[tag].add(int(va))
                scalar[tag].add(int(vb))
                if self.family == "P2":
                    scalar[tag].add(int(mesh.n_vertices + e))
        out = {}
        for tag, dofs in scalar.items():
            ds = np.array(sorted(dofs), dtype=np.int64)
            if self.components == 2:
                ds = np.sort(np.concatenate([2 * ds, 2 * ds + 1]))
            out[tag] = ds
        return out

    def dirichlet_dofs(self) -> np.ndarray:
        """All boundary DOFs (union of tags), sorted."""
        return np.unique(np.concatenate([self.boundary_dofs[LID],
                                         self.boundary_dofs[WALL]]))

    def free_dofs(self) -> np.ndarray:
        mask = np.ones(self.dof_count, dtype=bool)
        mask[self.dirichlet_dofs()] = False
        return np.flatnonzero(mask)

    def cell_vector_dofs(self) -> np.ndarray:
        """(n_t, 2*nloc) vector DOF ids, component-interleaved per node."""
        if self.components != 2:
            raise ValueError("vector DOF map requested on a scalar space")
        s = self.cell_dofs
        out = np.empty((s.shape[0], 2 * s.shape[1]), dtype=np.int64)
        out[:, 0::2] = 2 * s
        out[:, 1::2] = 2 * s + 1
        return out

    def cell_second_derivatives(self) -> np.ndarray:
        """Per-cell constant d_xx and d_yy of each local shape function.

        Returns (n_t, nloc, 2); the Laplacian is the sum over the last
        axis.  Zero for P1 (and P0); for P2 the second derivatives are
        constant: 4*(d_d l_i)^2 on vertex functions, 8*d_d l_i d_d l_j on
        edge functions.
        """
        g = self.mesh.grad_bary                      # (n_t, 3, 2)
        n_t = self.mesh.n_triangles
        if self.family != "P2":
            return np.zeros((n_t, self.n_local, 2))
        out = np.empty((n_t, 6, 2))
        for i in range(3):
            out[:, i] = 4.0 * g[:, i] * g[:, i]
        for a, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
            out[:, 3 + a] = 8.0 * g[:, i] * g[:, j]
        return out


@dataclass
class FeFunction:
    """Coefficient vector over a FunctionSpace."""

    space: FunctionSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.dof_count,):
            raise ValueError(
                f"coefficient length {self.values.shape} does not match "
                f"space dimension {self.space.dof_count}")


def make_space(mesh: Mesh, family: str, components: int) -> FunctionSpace:
    """Create a Lagrange space; see FunctionSpace for conventions."""
    return FunctionSpace(mesh, family, components)


def zero_function(space: FunctionSpace) -> FeFunction:
    return FeFunction(space, np.zeros(space.dof_count))


def interpolate_lifting(space: FunctionSpace) -> FeFunction:
    """Unit horizontal lid velocity as a nodal FE field.

    Horizontal component 1 at every Lid DOF, 0 on Wall DOFs and in the
    interior; corner nodes carry both tags and resolve to 0 (non-leaky
    cavity).  Vertical component identically 0.
    """
    if space.components != 2:
        raise ValueError("lifting lives in a vector velocity space")
    if space.family == "P0":
        raise ValueError("P0 velocity spaces are unsupported")
    lid = set(space.boundary_dofs[LID].tolist())
    wall = set(space.boundary_dofs[WALL].tolist())
    values = np.zeros(space.dof_count)
    for dof in sorted(lid - wall):
        if dof % 2 == 0:                       # horizontal component only
            values[dof] = 1.0
    return FeFunction(space, values)


def vertex_point_fields(f: FeFunction) -> dict[str, np.ndarray]:
    """Vertex-sampled values for VTK export (P2 subsampled at vertices)."""
    n_v = f.space.mesh.n_vertices
    if f.space.family == "P0":
        raise ValueError("P0 fields export as cell data")
    if f.space.components == 1:
        return {"values": f.values[:n_v]}
    vx = f.values[0:2 * n_v:2]
    vy = f.values[1:2 * n_v:2]
    return {"values": np.column_stack([vx, vy])}
