"""Error measurement: manufactured fields, convergence rates, reduced
error sweeps, and inf-sup profiles."""

import dataclasses

import numpy as np
import pytest

from cavityrb.analysis import (INFSUP_HEADER, SWEEP_HEADER, ErrorReport,
                               convergence_study, error_sweep, gram_seminorm,
                               infsup_profile, manufactured_body_force,
                               manufactured_errors, manufactured_pressure,
                               manufactured_velocity_gradient, parameter_grid,
                               relative_errors)
from cavityrb.assembly import StabilizationConfig
from cavityrb.fespace import FeFunction, make_space, zero_function
from cavityrb.hifi import FeSolution, FlowSystem, ProblemConfig
from cavityrb.mesh import build_rect_mesh
from cavityrb.rb import greedy_offline, with_option
from oracles import interpolate, manufactured_velocity

SEED = 3


@pytest.fixture(scope="module")
def small_rb():
    cfg = ProblemConfig("stokes", "P1P1",
                        StabilizationConfig("BrezziPitkaranta", 0.05))
    system = FlowSystem(cfg, 8, 4)
    model, _ = greedy_offline(system, n_max=3, train_size=9, seed=SEED)
    return system, model


# ---------------------------------------------------------------------------
# manufactured fields


def test_manufactured_velocity_vanishes_on_boundary():
    for x, y in [(0.0, 0.3), (2.0, 0.7), (0.5, 0.0), (1.25, 1.0),
                 (0.0, 0.0), (2.0, 1.0)]:
        ux, uy = manufactured_velocity(x, y)
        assert abs(ux) < 1e-13 and abs(uy) < 1e-13


def test_manufactured_velocity_is_divergence_free():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(0, 2, 50), rng.uniform(0, 1, 50)])
    g = manufactured_velocity_gradient(pts[:, 0], pts[:, 1])
    div = g[..., 0, 0] + g[..., 1, 1]
    assert np.abs(div).max() < 1e-12


def test_manufactured_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(20):
        x, y = rng.uniform(0.1, 1.9), rng.uniform(0.1, 0.9)
        g = manufactured_velocity_gradient(x, y)
        for c in range(2):
            dx = (manufactured_velocity(x + h, y)[c]
                  - manufactured_velocity(x - h, y)[c]) / (2 * h)
            dy = (manufactured_velocity(x, y + h)[c]
                  - manufactured_velocity(x, y - h)[c]) / (2 * h)
            assert g[c, 0] == pytest.approx(dx, abs=5e-5)
            assert g[c, 1] == pytest.approx(dy, abs=5e-5)


def test_manufactured_body_force_consistency():
    # f = -nu lap(u) + grad(p), checked against finite differences
    nu = 0.37
    force = manufactured_body_force(nu)
    rng = np.random.default_rng(4)
    h = 1e-4
    for _ in range(10):
        x, y = rng.uniform(0.2, 1.8), rng.uniform(0.2, 0.8)
        f = force(x, y)
        for c in range(2):
            lap = (manufactured_velocity(x + h, y)[c]
                   + manufactured_velocity(x - h, y)[c]
                   + manufactured_velocity(x, y + h)[c]
                   + manufactured_velocity(x, y - h)[c]
                   - 4 * manufactured_velocity(x, y)[c]) / h ** 2
            gp = ((manufactured_pressure(x + h, y)
                   - manufactured_pressure(x - h, y)) / (2 * h) if c == 0 else
                  (manufactured_pressure(x, y + h)
                   - manufactured_pressure(x, y - h)) / (2 * h))
            assert f[c] == pytest.approx(-nu * lap + gp, abs=1e-4)


def test_manufactured_errors_of_interpolants_are_small():
    cfg = ProblemConfig("stokes", "P2P1", StabilizationConfig())
    mesh = build_rect_mesh(2.0, 1.0, 16, 8)
    vspace = make_space(mesh, "P2", 2)
    system = FlowSystem(cfg, 16, 8, lifting=zero_function(vspace), mesh=mesh)
    sol = FeSolution(
        velocity=interpolate(system.velocity_space, manufactured_velocity),
        pressure=interpolate(system.pressure_space, manufactured_pressure),
        lifting=system.lifting, mu=(0.5, 1.0), diagnostics={})
    eu, ep = manufactured_errors(system, sol)
    assert 0.0 < eu < 0.05
    assert 0.0 < ep < 0.05


def test_convergence_rates_quick():
    r = convergence_study("P2P1", None, (4, 8, 16))
    assert r.method == "None" and r.fe_pair == "P2P1"
    nxs, hs, eus, eps = zip(*r.rows)
    assert nxs == (4, 8, 16)
    assert hs[0] == pytest.approx(2 * hs[1]) and hs[1] == pytest.approx(2 * hs[2])
    assert eus[0] > eus[1] > eus[2]
    assert eps[0] > eps[1] > eps[2]
    assert r.rate_u >= 1.7          # preasymptotic on these coarse meshes
    assert r.rate_p >= 1.9

    r2 = convergence_study(
        "P1P1", StabilizationConfig("BrezziPitkaranta", 0.05), (8, 16))
    assert r2.rate_u >= 0.8
    assert r2.rate_p >= 0.9

    with pytest.raises(ValueError):
        convergence_study("P2P1", None, (8,))


def test_relative_errors_zero_on_identical_state(small_rb):
    system, _ = small_rb
    truth = system.solve((0.5, 2.0))
    eu, ep = relative_errors(system, truth, truth.velocity.values,
                             truth.pressure.values)
    assert eu == 0.0 and ep == 0.0


def test_gram_seminorm_hand_value():
    gram = np.diag([4.0, 9.0])
    assert gram_seminorm(gram, np.array([1.0, 1.0])) == pytest.approx(
        np.sqrt(13.0))
    assert gram_seminorm(np.array([[-1.0]]), np.array([2.0])) == 0.0


# ---------------------------------------------------------------------------
# error sweep


def test_sweep_shape_and_order(small_rb):
    system, model = small_rb
    report = error_sweep(system, model, seed=SEED, test_size=4)
    assert report.header == SWEEP_HEADER
    assert len(report.rows) == 3 * 3 * 2
    assert len(report.test_points) == 4
    assert not report.failures
    assert set(report.timings) == {"fe_truth_s", "sweep_s"}
    expect = [(n, opt, fld) for n in (1, 2, 3) for opt in ("i", "ii", "iii")
              for fld in ("velocity", "pressure")]
    assert [(r[0], r[1], r[2]) for r in report.rows] == expect
    for row in report.rows:
        assert row[3] == ("H1semi" if row[2] == "velocity" else "L2")
        assert row[6] == 4 and row[7] == SEED
        assert row[4] <= row[5]     # mean <= max
    # accuracy improves with basis size for the consistent option
    vel_i = {r[0]: r[4] for r in report.rows if r[1] == "i"
             and r[2] == "velocity"}
    assert vel_i[3] < vel_i[1]


def test_sweep_is_thread_deterministic(small_rb):
    system, model = small_rb
    a = error_sweep(system, model, seed=SEED, test_size=4, threads=1)
    b = error_sweep(system, model, seed=SEED, test_size=4, threads=2)
    assert a.rows == b.rows
    assert a.test_points == b.test_points


def test_sweep_truths_are_bit_identical_across_threads(small_rb):
    # each sweep runs on a fresh system, so at 4 threads the first truth
    # solves race to build its center factor
    _, model = small_rb
    truths = []
    for threads in (1, 4):
        system = FlowSystem(ProblemConfig(
            "stokes", "P1P1", StabilizationConfig("BrezziPitkaranta", 0.05)),
            8, 4)
        seen = {}
        solve = system.solve

        def record(mu, solve=solve, seen=seen):
            seen[tuple(mu)] = sol = solve(mu)
            return sol
        system.solve = record
        error_sweep(system, model, seed=SEED, test_size=8, threads=threads)
        truths.append(seen)
    one, four = truths
    assert len(one) == 8 and one.keys() == four.keys()
    for mu, sol in one.items():
        assert np.array_equal(sol.velocity.values, four[mu].velocity.values)
        assert np.array_equal(sol.pressure.values, four[mu].pressure.values)
        assert sol.diagnostics == four[mu].diagnostics


def test_sweep_and_infsup_accept_any_option_view(small_rb):
    # a view of option ii still truncates and re-views like the master
    system, model = small_rb
    view = with_option(model, "ii")
    want = error_sweep(system, model, seed=SEED, test_size=2)
    got = error_sweep(system, view, seed=SEED, test_size=2)
    assert got.rows == want.rows and got.test_points == want.test_points
    assert infsup_profile(view, grid_n=2) == infsup_profile(model, grid_n=2)


def test_sweep_excludes_training_points(small_rb):
    system, model = small_rb
    report = error_sweep(system, model, seed=SEED, test_size=6)
    assert not set(report.test_points) & {tuple(m) for m in model.mus}


def test_sweep_reproduction_via_test_points(small_rb):
    system, model = small_rb
    report = error_sweep(system, model, seed=SEED, options=("i",),
                         n_values=[3], test_points=model.mus)
    for row in report.rows:
        assert row[4] <= 1e-8


def test_sweep_records_failures(small_rb, capsys):
    system, model = small_rb
    broken = dataclasses.replace(
        model,
        b=[(tag, np.zeros_like(m)) for tag, m in model.b],
        spq=[(tag, np.zeros_like(m)) for tag, m in model.spq],
        suq=None, gstab=None)
    report = error_sweep(system, broken, seed=SEED, test_size=2,
                         options=("i",), n_values=[3])
    assert len(report.failures) == 2
    assert [r[6] for r in report.rows] == [0, 0]
    assert all(np.isinf(r[4]) for r in report.rows)
    assert "point excluded" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# inf-sup profile


def test_parameter_grid_covers_corners():
    grid = parameter_grid((0.25, 0.75), (1.0, 3.0), 3, 2)
    assert len(grid) == 6
    assert grid[0] == (0.25, 1.0)
    assert grid[-1] == (0.75, 3.0)
    assert (0.5, 1.0) in grid and (0.75, 1.0) in grid


def test_infsup_profile_rows(small_rb):
    _, model = small_rb
    rows = infsup_profile(model, grid_n=2)
    assert len(rows) == 4 * 4
    assert len(INFSUP_HEADER) == len(rows[0])
    for mu1, mu2, opt, beta, beta_mod in rows:
        assert 0.25 <= mu1 <= 0.75 and 1.0 <= mu2 <= 3.0
        assert opt in ("i", "ii", "iii", "iv")
        assert beta >= 0.0 and beta_mod >= 0.0
        if opt in ("iii", "iv"):
            assert beta_mod == pytest.approx(beta, rel=1e-8)
        else:
            assert beta_mod >= beta - 1e-12


def test_infsup_profile_supremizer_effect(small_rb):
    _, model = small_rb
    rows = infsup_profile(model, grid_n=2, options=("i", "ii"))
    by_opt = {}
    for mu1, mu2, opt, beta, _ in rows:
        by_opt.setdefault(opt, []).append(beta)
    assert min(by_opt["i"]) > max(by_opt["ii"])
