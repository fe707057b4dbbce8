"""Plumbing contracts: error types, deterministic map, CSV/VTK formats."""

import threading

import numpy as np
import pytest

from cavityrb.mesh import build_rect_mesh
from cavityrb.util import (ConfigError, NonConvergenceError,
                           PointNotFoundError, SingularSystemError,
                           csv_escape, fmt17, parallel_map, write_csv)
from cavityrb.vtk import write_vtk


def test_error_types():
    assert issubclass(ConfigError, ValueError)
    assert issubclass(PointNotFoundError, ValueError)
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


def test_write_vtk_layout(tmp_path):
    mesh = build_rect_mesh(2.0, 1.0, 2, 1)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh, title="t" * 300,
              point_vectors={"velocity": np.ones((mesh.n_vertices, 2))},
              point_scalars={"pressure": np.zeros(mesh.n_vertices)},
              cell_scalars={"rank": np.arange(mesh.n_triangles,
                                              dtype=float)})
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[1] == "t" * 255
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert f"POINTS {mesh.n_vertices} double" in lines
    assert f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}" in lines
    assert f"POINT_DATA {mesh.n_vertices}" in lines
    assert f"CELL_DATA {mesh.n_triangles}" in lines
    assert lines.count("LOOKUP_TABLE default") == 2
    assert all(line == "5" for line in
               lines[lines.index(f"CELL_TYPES {mesh.n_triangles}") + 1:]
               [:mesh.n_triangles])


def test_write_vtk_shape_validation(tmp_path):
    mesh = build_rect_mesh(1.0, 1.0, 1, 1)
    with pytest.raises(ValueError, match="vector field"):
        write_vtk(tmp_path / "bad.vtk", mesh,
                  point_vectors={"velocity": np.ones((3, 2))})
    with pytest.raises(ValueError, match="scalar field"):
        write_vtk(tmp_path / "bad2.vtk", mesh,
                  point_scalars={"pressure": np.ones(7)})
