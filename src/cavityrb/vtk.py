"""Legacy ASCII VTK export of a flow solution."""

from __future__ import annotations

from .hifi import FeSolution
from .util import fmt17


def write_vtk(path: str, solution: FeSolution, title: str) -> None:
    """Write a legacy VTK unstructured grid (CELL_TYPE 5 triangles).

    The total velocity goes out at the mesh vertices, whose dofs come
    first in every space, so P2 is sampled there; the pressure too, or
    as cell data for P0.  The title line is truncated to the 255
    characters the legacy format allows.
    """
    pressure = solution.pressure
    mesh = pressure.space.mesh
    n_v = mesh.n_vertices
    n_t = mesh.n_triangles
    velocity = solution.total_velocity.values[:2 * n_v].reshape(n_v, 2)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(title[:255] + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n_v} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{fmt17(x)} {fmt17(y)} 0\n")
        fh.write(f"CELLS {n_t} {4 * n_t}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {n_t}\n")
        fh.write("5\n" * n_t)

        fh.write(f"POINT_DATA {n_v}\n")
        fh.write("VECTORS velocity double\n")
        for vx, vy in velocity:
            fh.write(f"{fmt17(vx)} {fmt17(vy)} 0\n")
        if pressure.space.family == "P0":
            fh.write(f"CELL_DATA {n_t}\n")
            values = pressure.values
        else:
            values = pressure.values[:n_v]
        fh.write("SCALARS pressure double\n")
        fh.write("LOOKUP_TABLE default\n")
        for s in values:
            fh.write(fmt17(s) + "\n")
