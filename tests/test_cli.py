"""End-to-end command-line checks: config grammar, exit codes, artifact
formats, and byte-level determinism of the pipeline outputs."""

import argparse
import os

import numpy as np
import pytest
import scipy.io

from cavityrb.cli import (RunConfig, build_parser, main, parse_config_text,
                          resolve_config)
from cavityrb.util import ConfigError

TINY_CONFIG = """\
# tiny smoke configuration
problem = stokes
fe_pair = P1P1
stabilization.method = BrezziPitkaranta
stabilization.delta = 0.05
n_max = 3
train_size = 9
test_size = 4
mesh.nx = 8
mesh.ny = 4
seed = 11
online.mu1 = 0.5
online.mu2 = 2.0
"""


def write_config(directory, text=TINY_CONFIG, name="run.cfg"):
    path = os.path.join(str(directory), name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# configuration grammar


def test_parse_config_text_grammar():
    parsed = parse_config_text(
        "problem = stokes  # trailing comment\n\n# full comment\nseed = 4\n")
    assert parsed == {"problem": "stokes", "seed": "4"}


def test_parse_errors_cite_source_and_line():
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key"):
        parse_config_text("seed = 1\nwhat = 2\n", source="run.cfg")
    with pytest.raises(ConfigError, match=r"<config>:1: expected 'key = value'"):
        parse_config_text("this is not an assignment\n")
    with pytest.raises(ConfigError, match=r":3: empty value"):
        parse_config_text("\n\nseed =\n")


def _resolve(tmp_path, text, seed=None, threads=None):
    path = write_config(tmp_path, text)
    return resolve_config(argparse.Namespace(config=path, seed=seed,
                                             threads=threads))


def test_resolve_defaults_and_overrides(tmp_path):
    rc = _resolve(tmp_path, TINY_CONFIG)
    assert (rc.problem, rc.fe_pair, rc.method) == ("stokes", "P1P1",
                                                   "BrezziPitkaranta")
    assert rc.delta == 0.05 and rc.seed == 11 and rc.threads == 1
    assert (rc.mu1_min, rc.mu1_max) == (0.25, 0.75)   # Stokes default box
    assert (rc.mu2_min, rc.mu2_max) == (1.0, 3.0)
    rc2 = _resolve(tmp_path, TINY_CONFIG, seed=99, threads=2)
    assert rc2.seed == 99 and rc2.threads == 2


def test_resolve_ns_default_box(tmp_path):
    text = "problem = navier_stokes\nfe_pair = P2P2\n" \
           "stabilization.method = SUPGFamily\nstabilization.delta = 1.0\n" \
           "seed = 1\n"
    rc = _resolve(tmp_path, text)
    assert (rc.mu1_min, rc.mu1_max) == (100.0, 200.0)
    assert (rc.mu2_min, rc.mu2_max) == (1.5, 3.0)


def test_resolve_rejections(tmp_path):
    with pytest.raises(ConfigError, match="seed is required"):
        _resolve(tmp_path, "problem = stokes\n")
    with pytest.raises(ConfigError, match="must be one of"):
        _resolve(tmp_path, "problem = heat\nseed = 1\n")
    with pytest.raises(ConfigError, match="expects an integer"):
        _resolve(tmp_path, "n_max = 2.5\nseed = 1\n")
    with pytest.raises(ConfigError, match="min < max"):
        _resolve(tmp_path, "mu1.min = 0.7\nmu1.max = 0.3\nseed = 1\n")
    with pytest.raises(ConfigError, match="at least 1"):
        _resolve(tmp_path, "train_size = 0\nseed = 1\n")
    with pytest.raises(ConfigError, match="positive"):
        _resolve(tmp_path, "seed = 1\n", threads=0)
    with pytest.raises(ConfigError, match="cannot read"):
        resolve_config(argparse.Namespace(config=str(tmp_path / "nope.cfg"),
                                          seed=1, threads=None))


def test_echo_omits_threads():
    rc = RunConfig(seed=5, threads=8)
    keys = [k for k, _ in rc.echo_items()]
    assert "threads" not in keys
    assert "seed" in keys and "problem" in keys


# ---------------------------------------------------------------------------
# exit codes


def test_missing_seed_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "problem = stokes\n")
    code = main(["fe-solve", "--config", path, "--mu1", "0.5",
                 "--mu2", "2.0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_negative_delta_exits_2(tmp_path, capsys):
    text = "stabilization.method = BrezziPitkaranta\n" \
           "stabilization.delta = -1\nseed = 1\n"
    path = write_config(tmp_path, text)
    code = main(["fe-solve", "--config", path, "--mu1", "0.5",
                 "--mu2", "2.0", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unstabilized_equal_order_exits_3(tmp_path, capsys):
    text = "fe_pair = P1P1\nmesh.nx = 8\nmesh.ny = 4\nseed = 1\n"
    path = write_config(tmp_path, text)
    code = main(["fe-solve", "--config", path, "--mu1", "0.5",
                 "--mu2", "2.0", "--out", str(tmp_path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("delta, code", [("1e-14", 3), ("1e-8", 0)])
def test_near_singular_residual_based_exits_3(tmp_path, capsys, delta, code):
    # rcond is 2.4e-16 at delta = 1e-14 and 2.4e-10 at 1e-8 on this mesh
    text = ("fe_pair = P2P2\nstabilization.method = ResidualBased\n"
            f"stabilization.delta = {delta}\nmesh.nx = 8\nmesh.ny = 4\n"
            "seed = 1\n")
    path = write_config(tmp_path, text)
    assert main(["fe-solve", "--config", path, "--mu1", "0.5",
                 "--mu2", "2.0", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert ("rcond" in err) == (code == 3)


def test_missing_online_point_exits_2(tmp_path, capsys):
    text = "mesh.nx = 8\nmesh.ny = 4\nseed = 1\n" \
           "stabilization.method = BrezziPitkaranta\n" \
           "stabilization.delta = 0.05\n"
    path = write_config(tmp_path, text)
    code = main(["fe-solve", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "parameter point" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    (["fe-solve", "--mu1", "-0.5", "--mu2", "2.0"], ""),     # nu < 0
    (["fe-solve", "--mu1", "0.5", "--mu2", "-1"], ""),       # a = 0
    (["fe-solve", "--mu1", "0.5", "--mu2", "-3"], ""),       # a < 0
    (["offline"], "mu2.min = -3\nmu2.max = -2\n"),
    (["fe-solve", "--mu1", "0.5", "--mu2", "2.0"], "mu_bar2 = -1\n"),
])
def test_out_of_domain_parameters_exit_2(tmp_path, capsys, command, text):
    # nu = mu1 needs mu1 > 0; the stretch (1 + mu2) / (1 + mu_bar2)
    # needs mu2 > -1 and mu_bar2 > -1
    path = write_config(tmp_path, "fe_pair = P1P1\nmesh.nx = 4\n"
                        "mesh.ny = 2\nstabilization.method = "
                        "BrezziPitkaranta\nstabilization.delta = 0.05\n"
                        "n_max = 2\ntrain_size = 4\nseed = 1\n" + text)
    code = main([*command, "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "model.rbm")


def test_missing_model_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["sweep", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_old_format_model_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    model = tmp_path / "model.rbm"
    for old in ("cavityrb-rbm-1", "cavityrb-rbm-4", "cavityrb-rbm-5",
                "cavityrb-rbm-6", "cavityrb-rbm-7"):
        model.write_text(f"format = {old}\narrays = 0\n")
        code = main(["online", "--config", path, "--model", str(model)])
        assert code == 2
        assert old in capsys.readouterr().err


def test_incomplete_model_exits_2(tmp_path, capsys):
    # the current format line, but no header keys and no arrays
    path = write_config(tmp_path)
    model = tmp_path / "model.rbm"
    model.write_text("format = cavityrb-rbm-8\narrays = 0\n")
    code = main(["online", "--config", path, "--model", str(model)])
    assert code == 2
    err = capsys.readouterr().err
    assert "lacks" in err and "z_v" in err


# ---------------------------------------------------------------------------
# fe-solve artifacts


def test_fe_solve_artifacts(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["fe-solve", "--config", path, "--out", str(out)])
    assert code == 0
    assert "fe-solve:" in capsys.readouterr().out

    with open(out / "fe_solve.txt") as fh:
        text = fh.read()
    assert text.startswith("# problem = stokes\n")
    assert "# stabilization.delta = 0.050000000000000003\n" in text
    assert "# threads" not in text
    assert "velocity_dofs = 90\n" in text
    assert "iterations = 1\n" in text

    with open(out / "solution.vtk") as fh:
        vtk = fh.read().splitlines()
    assert vtk[0] == "# vtk DataFile Version 2.0"
    assert "POINT_DATA 45" in vtk
    assert any(line.startswith("VECTORS velocity double") for line in vtk)
    assert any(line.startswith("SCALARS pressure double") for line in vtk)


def test_fe_solve_p0_pressure_goes_to_cells(tmp_path):
    text = "fe_pair = P1P0\nstabilization.method = EdgeJumpP1P0\n" \
           "stabilization.delta = 0.05\nmesh.nx = 8\nmesh.ny = 4\nseed = 2\n"
    path = write_config(tmp_path, text)
    out = tmp_path / "p0"
    assert main(["fe-solve", "--config", path, "--out", str(out),
                 "--mu1", "0.5", "--mu2", "2.0"]) == 0
    with open(out / "solution.vtk") as fh:
        vtk = fh.read()
    assert "CELL_DATA 64" in vtk


def test_fe_solve_dump_operators(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "dump"
    assert main(["fe-solve", "--config", path, "--out", str(out),
                 "--dump-operators"]) == 0
    names = sorted(p for p in os.listdir(out) if p.endswith(".mtx"))
    assert names == ["b_q0_one.mtx", "b_q1_a.mtx", "spq_q0_a.mtx",
                     "visc_q0_nu_over_a.mtx", "visc_q1_nu_times_a.mtx"]
    m = scipy.io.mmread(out / "visc_q0_nu_over_a.mtx")
    assert m.shape == (90, 90)
    b = scipy.io.mmread(out / "b_q0_one.mtx")
    assert b.shape == (45, 90)


# ---------------------------------------------------------------------------
# pipeline: offline -> online/sweep/infsup


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root)
    out = root / "out"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_offline_artifacts(pipeline):
    _, out = pipeline
    assert (out / "model.rbm").exists()
    raw = read_bytes(out / "trace.csv")
    assert b"\r\n" in raw                      # RFC-4180 line endings
    text = raw.decode("ascii")
    lines = [l for l in text.split("\r\n") if l]
    echo = [l for l in lines if l.startswith("# ")]
    assert "# seed = 11" in echo
    assert not any("threads" in l for l in echo)
    header_at = len(echo)
    assert lines[header_at] == "n,mu1,mu2,max_indicator"
    data = lines[header_at + 1:]
    assert len(data) == 3
    assert data[0].startswith("1,0.5,2,1")


def test_offline_without_new_supremizers_stops_cleanly(tmp_path, capsys):
    # on 4x2 P1P1 the sixth snapshot's supremizers all lie in the
    # velocity basis: the greedy stops at five and the model serves i
    text = TINY_CONFIG.replace("n_max = 3", "n_max = 12") \
        .replace("train_size = 9", "train_size = 25") \
        .replace("mesh.nx = 8", "mesh.nx = 4").replace("mesh.ny = 4",
                                                       "mesh.ny = 2") \
        .replace("seed = 11", "seed = 42")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
    assert "greedy stopped at n=5" in capsys.readouterr().err
    rows = read_bytes(out / "trace.csv").decode("ascii").split("\r\n")
    assert [l for l in rows if l[:1].isdigit()][-1].startswith("5,")
    assert main(["online", "--config", cfg, "--out", str(out),
                 "--option", "i"]) == 0


def test_online_reproduces_training_point(pipeline, capsys):
    cfg, out = pipeline
    code = main(["online", "--config", cfg, "--out", str(out),
                 "--option", "ii"])
    assert code == 0
    assert "online:" in capsys.readouterr().out
    with open(out / "online.txt") as fh:
        text = fh.read()
    assert "option = ii\n" in text
    values = dict(
        line.split(" = ") for line in text.splitlines()
        if not line.startswith("#") and " = " in line)
    assert float(values["velocity_rel_err_h1semi"]) <= 1e-8
    assert float(values["pressure_rel_err_l2"]) <= 1e-8
    with open(out / "online.vtk") as fh:
        assert fh.readline().rstrip("\n") == "# vtk DataFile Version 2.0"


def test_online_option_iv_refused(pipeline, capsys):
    cfg, out = pipeline
    code = main(["online", "--config", cfg, "--out", str(out / "iv"),
                 "--model", str(out / "model.rbm"), "--option", "iv"])
    assert code == 3
    assert "inf-sup" in capsys.readouterr().err
    assert not (out / "iv" / "online.txt").exists()


def test_model_with_corrupted_n_u_exits_2(pipeline, tmp_path, capsys):
    # a header n_u beyond the stored velocity basis, edited in place
    cfg, out = pipeline
    raw = read_bytes(out / "model.rbm")
    assert raw.count(b"\nn_u = 3\n") == 1
    model = tmp_path / "model.rbm"
    model.write_bytes(raw.replace(b"\nn_u = 3\n", b"\nn_u = 9\n"))
    code = main(["online", "--config", cfg, "--out", str(tmp_path),
                 "--model", str(model)])
    assert code == 2
    assert "n_u = 9" in capsys.readouterr().err
    assert not (tmp_path / "online.txt").exists()


@pytest.mark.parametrize("line,edited", [
    (b"\nmu_bar2 = 1\n", b"\nmu_bar2 =-1\n"),     # stretch undefined
    (b"\nfe_pair = P1P1\n", b"\nfe_pair = P2P1\n"),  # pair refuses BP
])
def test_model_with_refused_configuration_exits_2(pipeline, tmp_path,
                                                  capsys, line, edited):
    # a header the configuration refuses, edited in place at equal length
    cfg, out = pipeline
    raw = read_bytes(out / "model.rbm")
    assert raw.count(line) == 1
    model = tmp_path / "model.rbm"
    model.write_bytes(raw.replace(line, edited))
    for command in ("online", "sweep", "infsup"):
        code = main([command, "--config", cfg, "--out", str(tmp_path),
                     "--model", str(model)])
        assert code == 2
        assert "cannot load reduced model" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.txt")) and not any(tmp_path.glob("*.csv"))


def test_sweep_artifact(pipeline, capsys):
    cfg, out = pipeline
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "timing" in captured.err
    assert "sweep: 18 rows, 0 failed points" in captured.out
    text = read_bytes(out / "errors.csv").decode("ascii")
    lines = [l for l in text.split("\r\n") if l and not l.startswith("# ")]
    assert lines[0] == "N,option,field,norm,mean_rel_err,max_rel_err,n_test,seed"
    assert len(lines) == 1 + 18
    assert lines[1].startswith("1,i,velocity,H1semi,")
    assert all(l.endswith(",4,11") for l in lines[1:])


def test_infsup_artifact(pipeline, capsys):
    cfg, out = pipeline
    assert main(["infsup", "--config", cfg, "--out", str(out),
                 "--grid", "2"]) == 0
    assert "min modified beta" in capsys.readouterr().out
    text = read_bytes(out / "infsup.csv").decode("ascii")
    lines = [l for l in text.split("\r\n") if l and not l.startswith("# ")]
    assert lines[0] == "mu1,mu2,option,beta_plain,beta_modified"
    assert len(lines) == 1 + 4 * 4


def test_offline_outputs_are_byte_deterministic(pipeline, tmp_path):
    cfg, out = pipeline
    rep1 = tmp_path / "rep1"
    rep2 = tmp_path / "rep2"
    assert main(["offline", "--config", cfg, "--out", str(rep1)]) == 0
    assert main(["offline", "--config", cfg, "--out", str(rep2),
                 "--threads", "2"]) == 0
    for name in ("model.rbm", "trace.csv"):
        base = read_bytes(out / name)
        assert read_bytes(rep1 / name) == base, name
        assert read_bytes(rep2 / name) == base, name


def test_sweep_output_is_byte_deterministic(pipeline, tmp_path):
    cfg, out = pipeline
    model = str(out / "model.rbm")
    s1 = tmp_path / "s1"
    s2 = tmp_path / "s2"
    assert main(["sweep", "--config", cfg, "--out", str(s1),
                 "--model", model]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(s2),
                 "--model", model, "--threads", "2"]) == 0
    assert read_bytes(s1 / "errors.csv") == read_bytes(s2 / "errors.csv")


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
