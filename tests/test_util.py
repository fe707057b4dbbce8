"""Plumbing contracts: error types, deterministic map, CSV/VTK formats."""

import threading

import numpy as np
import pytest

from cavityrb.fespace import FeFunction, make_space
from cavityrb.hifi import FeSolution
from cavityrb.mesh import build_rect_mesh
from cavityrb.util import (ConfigError, NonConvergenceError,
                           SingularSystemError, csv_escape, fmt17,
                           parallel_map, write_csv)
from cavityrb.vtk import write_vtk
from oracles import interpolate


def test_error_types():
    assert issubclass(ConfigError, ValueError)
    err = SingularSystemError("pivot vanished", context="stokes at mu=(1,2)")
    assert err.context == "stokes at mu=(1,2)"
    assert "pivot vanished [stokes at mu=(1,2)]" in str(err)
    bare = SingularSystemError("pivot vanished")
    assert "[" not in str(bare)
    nc = NonConvergenceError("stalled", residual_history=[1.0, 0.5])
    assert nc.residual_history == [1.0, 0.5]


def test_parallel_map_preserves_order():
    items = list(range(40))
    want = [i * i for i in items]
    assert parallel_map(lambda i: i * i, items) == want
    assert parallel_map(lambda i: i * i, items, threads=4) == want
    assert parallel_map(lambda i: i, [], threads=4) == []


def test_parallel_map_actually_uses_workers():
    seen = set()

    def record(i):
        seen.add(threading.get_ident())
        return i

    parallel_map(record, range(64), threads=4)
    assert len(seen) >= 2


def test_parallel_map_propagates_exceptions():
    def boom(i):
        if i == 3:
            raise RuntimeError("item 3")
        return i

    with pytest.raises(RuntimeError, match="item 3"):
        parallel_map(boom, range(6), threads=3)


def test_fmt17_round_trips():
    rng = np.random.default_rng(0)
    specials = [0.0, 1.0, -1.0, 0.1, 2.0 / 3.0, 1e-300, 1e300, np.pi]
    samples = specials + list(rng.standard_normal(200))
    for x in samples:
        assert float(fmt17(float(x))) == float(x)


def test_csv_escape():
    assert csv_escape("plain") == "plain"
    assert csv_escape("a,b") == '"a,b"'
    assert csv_escape('say "hi"') == '"say ""hi"""'
    assert csv_escape("line\nbreak") == '"line\nbreak"'


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("name", "value"),
              [("alpha", 0.1), ("com,ma", 2)],
              echo=["seed = 4"])
    raw = path.read_bytes().decode("ascii")
    assert raw == ('# seed = 4\r\n'
                   'name,value\r\n'
                   'alpha,0.10000000000000001\r\n'
                   '"com,ma",2\r\n')


def _vtk_solution(mesh, v_family, p_family, rng):
    # total velocity (y + 1, x^2 - x) at the nodes, random pressure
    vel = make_space(mesh, v_family, 2)
    prs = make_space(mesh, p_family, 1)
    return FeSolution(interpolate(vel, lambda x, y: (y, x * x)),
                      FeFunction(prs, rng.standard_normal(prs.dof_count)),
                      interpolate(vel, lambda x, y: (1.0, -x)),
                      (0.5, 2.0), {})


def _vtk_rows(lines, header, n):
    start = lines.index(header) + 1
    return np.array([[float(x) for x in line.split()]
                     for line in lines[start:start + n]])


def test_write_vtk_layout(tmp_path):
    # P1 point pressure, P0 cell pressure, P2 velocity and pressure
    for v_family, p_family in (("P2", "P1"), ("P1", "P0"), ("P2", "P2")):
        _check_vtk_layout(tmp_path / f"{v_family}{p_family}.vtk",
                          v_family, p_family)


def _check_vtk_layout(path, v_family, p_family):
    mesh = build_rect_mesh(2.0, 1.0, 2, 1)
    n_v, n_t = mesh.n_vertices, mesh.n_triangles
    sol = _vtk_solution(mesh, v_family, p_family, np.random.default_rng(5))
    write_vtk(path, sol, title="t" * 300)
    lines = path.read_text().splitlines()
    assert lines[:4] == ["# vtk DataFile Version 2.0", "t" * 255, "ASCII",
                         "DATASET UNSTRUCTURED_GRID"]
    assert np.array_equal(_vtk_rows(lines, f"POINTS {n_v} double", n_v),
                          np.column_stack([mesh.vertices, np.zeros(n_v)]))
    assert np.array_equal(_vtk_rows(lines, f"CELLS {n_t} {4 * n_t}", n_t),
                          np.column_stack([np.full(n_t, 3), mesh.triangles]))
    assert np.all(_vtk_rows(lines, f"CELL_TYPES {n_t}", n_t) == 5)
    # the total velocity's vertex dofs, in vertex order
    total = sol.total_velocity.values
    velocity = _vtk_rows(lines, "VECTORS velocity double", n_v)
    assert lines[lines.index("VECTORS velocity double") - 1] \
        == f"POINT_DATA {n_v}"
    assert np.array_equal(velocity[:, 0], total[0:2 * n_v:2])
    assert np.array_equal(velocity[:, 1], total[1:2 * n_v:2])
    assert np.all(velocity[:, 2] == 0.0)
    x, y = mesh.vertices.T
    assert np.allclose(velocity[:, :2], np.column_stack([y + 1.0, x * x - x]),
                       rtol=0.0, atol=1e-15)
    # P0 pressure is cell data, any other pressure is sampled at vertices
    at = lines.index("SCALARS pressure double")
    assert lines[at + 1] == "LOOKUP_TABLE default"
    if p_family == "P0":
        assert lines[at - 1] == f"CELL_DATA {n_t}"
        want = sol.pressure.values
    else:
        assert not any(line.startswith("CELL_DATA") for line in lines)
        want = sol.pressure.values[:n_v]
    assert len(lines) == at + 2 + len(want)
    assert np.array_equal(_vtk_rows(lines, "LOOKUP_TABLE default",
                                    len(want))[:, 0], want)
