"""High-fidelity solver checks: configuration rules, saddle-point solve
invariants, the equal-order instability, mirror symmetry, Newton, and
the saddle table against the named-block assembly it replaced."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from cavityrb.assembly import (AffineOperator, StabilizationConfig,
                               assemble_body_force,
                               assemble_momentum_stab_body_force,
                               assemble_stab_body_force)
from cavityrb.fespace import make_space, zero_function
from cavityrb.hifi import (CENTER_TOL, KRYLOV_FORCING, NEWTON_TOL, FlowSystem,
                           ProblemConfig)
from cavityrb.linalg import RCOND_TOL, SparseLU
from cavityrb.mesh import build_rect_mesh
from cavityrb.util import NonConvergenceError, SingularSystemError
from oracles import direct_newton, direct_stokes, fe_eval, interpolate


# ---------------------------------------------------------------------------
# configuration


def test_default_parameter_boxes():
    st = ProblemConfig("stokes", "P1P1",
                       StabilizationConfig("BrezziPitkaranta", 0.05))
    assert st.mu1_range == (0.25, 0.75)
    assert st.mu2_range == (1.0, 3.0)
    assert st.viscosity_mode == "direct"
    ns = ProblemConfig("navier_stokes", "P2P2",
                       StabilizationConfig("SUPGFamily", 1.0))
    assert ns.mu1_range == (100.0, 200.0)
    assert ns.mu2_range == (1.5, 3.0)
    assert ns.viscosity_mode == "inverse"
    assert ns.geometry().nu((200.0, 2.0)) == pytest.approx(0.005)


def test_explicit_ranges_survive():
    cfg = ProblemConfig("stokes", "P2P1", StabilizationConfig(),
                        mu1_range=(0.1, 0.2), mu2_range=(2.0, 4.0))
    assert cfg.mu1_range == (0.1, 0.2)
    assert cfg.mu2_range == (2.0, 4.0)


@pytest.mark.parametrize("problem,pair,method", [
    ("stokes", "P2P1", "BrezziPitkaranta"),      # stable pair, no stab
    ("stokes", "P1P0", "BrezziPitkaranta"),      # P1P0 only edge jumps
    ("stokes", "P1P1", "EdgeJumpP1P0"),          # edge jumps only on P1P0
    ("stokes", "P2P2", "SUPGFamily"),            # transport stab needs NS
    ("navier_stokes", "P2P2", "BrezziPitkaranta"),
    ("navier_stokes", "P2P2", "ResidualBased"),
    ("navier_stokes", "P1P0", "EdgeJumpP1P0"),
])
def test_rejected_pairings(problem, pair, method):
    with pytest.raises(ValueError):
        ProblemConfig(problem, pair, StabilizationConfig(method, 0.05))


def test_unstabilized_ns_on_stable_pair_is_allowed():
    cfg = ProblemConfig("navier_stokes", "P2P1", StabilizationConfig())
    assert cfg.stabilization.method == "None"


@pytest.mark.parametrize("ranges", [
    {"mu2_range": (-3.0, -2.0)},      # the stretch a(mu2) would be negative
    {"mu2_range": (-1.0, 1.0)},       # a(-1) = 0
    {"mu_bar2": -1.0},                # a's denominator 1 + mu_bar2 = 0
    {"mu1_range": (-0.5, 0.5)},       # nu = mu1 must be positive
])
def test_out_of_domain_parameters_rejected(ranges):
    with pytest.raises(ValueError):
        ProblemConfig("stokes", "P1P1",
                      StabilizationConfig("BrezziPitkaranta", 0.05), **ranges)


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        ProblemConfig("euler", "P1P1", StabilizationConfig())
    with pytest.raises(ValueError):
        ProblemConfig("stokes", "P3P2", StabilizationConfig())


# ---------------------------------------------------------------------------
# Stokes saddle solves


@pytest.fixture(scope="module")
def stokes_bp():
    cfg = ProblemConfig("stokes", "P1P1",
                        StabilizationConfig("BrezziPitkaranta", 0.05))
    system = FlowSystem(cfg, 16, 8)
    return system, system.solve((0.6, 2.0))


def test_stokes_diagnostics(stokes_bp):
    _, sol = stokes_bp
    assert sol.diagnostics["type"] == "stokes"
    assert sol.diagnostics["iterations"] == 1
    assert sol.diagnostics["residual"] < 1e-12
    assert RCOND_TOL < sol.diagnostics["rcond"] < 1.0
    assert sol.mu == (0.6, 2.0)


def test_dirichlet_values_are_exact(stokes_bp):
    system, sol = stokes_bp
    diri = system.velocity_space.dirichlet_dofs()
    assert np.abs(sol.velocity.values[diri]).max() == 0.0
    total = sol.total_velocity
    assert np.abs(total.values[diri]
                  - system.lifting.values[diri]).max() == 0.0
    assert fe_eval(total, (1.0, 1.0))[0] == pytest.approx(1.0, abs=1e-13)


def test_pressure_mean_is_zero(stokes_bp):
    system, sol = stokes_bp
    p = sol.pressure.values
    assert abs(system.mean_vector @ p) <= 1e-10 * np.linalg.norm(p)


def test_multiplier_is_tiny(stokes_bp):
    _, sol = stokes_bp
    assert abs(sol.diagnostics["lambda"]) < 1e-10


def test_algebraic_residual_at_solution(stokes_bp):
    system, sol = stokes_bp
    mu = (0.6, 2.0)
    r = system.residual(mu, sol.velocity.values, sol.pressure.values,
                        sol.diagnostics["lambda"])
    assert np.linalg.norm(r) <= 1e-10 * system.residual_reference(mu)


def test_residual_of_zero_state_matches_reference(stokes_bp):
    system, _ = stokes_bp
    mu = (0.41, 1.7)
    r0 = system.residual(mu, np.zeros(system.velocity_space.dof_count),
                         np.zeros(system.n_pressure))
    assert np.linalg.norm(r0) == pytest.approx(system.residual_reference(mu))


def test_global_mass_conservation_plain_pair():
    cfg = ProblemConfig("stokes", "P2P1", StabilizationConfig())
    system = FlowSystem(cfg, 16, 8)
    sol = system.solve((0.33, 2.4))
    b = system.operators["b"].evaluate(system.geometry, (0.33, 2.4))
    flux = np.ones(system.n_pressure) @ (b @ sol.total_velocity.values)
    assert abs(flux) < 1e-10


@pytest.mark.parametrize("pair,method,delta", [
    ("P2P2", "ResidualBased", 0.05),
    ("P1P0", "EdgeJumpP1P0", 0.05),
])
def test_other_stabilized_pairs_solve(pair, method, delta):
    cfg = ProblemConfig("stokes", pair, StabilizationConfig(method, delta))
    system = FlowSystem(cfg, 16, 8)
    mu = (0.5, 1.8)
    sol = system.solve(mu)
    p = sol.pressure.values
    assert abs(system.mean_vector @ p) <= 1e-10 * np.linalg.norm(p)
    r = system.residual(mu, sol.velocity.values, p,
                        sol.diagnostics["lambda"])
    assert np.linalg.norm(r) <= 1e-10 * system.residual_reference(mu)


@pytest.mark.parametrize("rho", [0.0, 1.0, -1.0])
def test_residual_based_reproduces_p2_solution_at_every_stretch(rho):
    # u = (y^2, 0), p = 2 nu (x - a) solves the physical Stokes problem
    # on [0, 2a] x [0, 1] with no body force and lies in P2/P2, so a
    # strongly consistent scheme returns it exactly; on the reference
    # rectangle p = 2 nu a (x - 1)
    nu = 0.4
    mesh = build_rect_mesh(2.0, 1.0, 8, 4)
    vel = make_space(mesh, "P2", 2)
    lifting = interpolate(vel, lambda x, y: (y * y, 0.0))
    cfg = ProblemConfig("stokes", "P2P2",
                        StabilizationConfig("ResidualBased", 0.5, rho=rho))
    system = FlowSystem(cfg, 8, 4, lifting=lifting, mesh=mesh)
    for mu2 in (1.0, 2.0, 3.0):
        a = system.geometry.a(mu2)
        sol = system.solve((nu, mu2))
        p = interpolate(system.pressure_space,
                        lambda x, y: 2.0 * nu * a * (x - 1.0)).values
        assert np.abs(sol.velocity.values).max() < 1e-12
        assert np.abs(sol.pressure.values - p).max() < 1e-12


@pytest.mark.parametrize("rho", [0.0, 1.0, -1.0])
def test_residual_based_reproduces_p2_solution_with_body_force(rho):
    # u = (y^2, 0), p = 0 solves -nu lap u + grad p = f = (-2 nu, 0); the
    # momentum-row stabilization holds the consistency term
    # rho delta h^2 (f, nu lap v), without which rho != 0 misses it
    nu = 0.4
    mesh = build_rect_mesh(2.0, 1.0, 8, 4)
    vel = make_space(mesh, "P2", 2)
    lifting = interpolate(vel, lambda x, y: (y * y, 0.0))
    cfg = ProblemConfig("stokes", "P2P2",
                        StabilizationConfig("ResidualBased", 0.5, rho=rho))
    system = FlowSystem(cfg, 8, 4, lifting=lifting, mesh=mesh,
                        body_force=lambda x, y: (-2.0 * nu, 0.0))
    sol = system.solve((nu, cfg.mu_bar2))
    assert np.abs(sol.velocity.values).max() < 1e-12
    assert np.abs(sol.pressure.values).max() < 1e-12


def test_residual_based_response_is_smooth_in_viscosity():
    # a 1e-3 step in mu1 = 0.3 changes nu by 1/300; a stable scheme moves
    # the velocity by no more than that (stabilization blocks left on
    # the reference domain made this change 0.18 at this stretch)
    cfg = ProblemConfig("stokes", "P2P2",
                        StabilizationConfig("ResidualBased", 0.5))
    system = FlowSystem(cfg, 16, 8)
    u0 = system.solve((0.3, 2.0)).velocity.values
    u1 = system.solve((0.301, 2.0)).velocity.values
    assert np.linalg.norm(u1 - u0) <= (0.001 / 0.3) * np.linalg.norm(u0)


def test_equal_order_without_stabilization_is_singular():
    cfg = ProblemConfig("stokes", "P1P1", StabilizationConfig())
    system = FlowSystem(cfg, 8, 4)
    with pytest.raises(SingularSystemError):
        system.solve((0.5, 2.0))


def test_checkerboard_mode_invisible_to_divergence():
    # the classic equal-order failure: the checkerboard pressure lies in
    # the kernel of B^T on the interior dofs, while the pressure
    # stabilization gives it positive energy
    cfg = ProblemConfig("stokes", "P1P1",
                        StabilizationConfig("BrezziPitkaranta", 0.05))
    system = FlowSystem(cfg, 32, 16)
    verts = system.mesh.vertices
    i = np.rint(verts[:, 0] / (2.0 / 32)).astype(int)
    j = np.rint(verts[:, 1] / (1.0 / 16)).astype(int)
    checker = ((-1.0) ** (i + j)).astype(float)
    for mu in [(0.5, 1.0), (0.6, 2.0)]:
        b = system.operators["b"].evaluate(system.geometry, mu)
        assert np.abs((b.T @ checker)[system.free]).max() == 0.0
    s = system.operators["spq"].terms[0][1]
    assert checker @ (s @ checker) == pytest.approx(1.6, rel=1e-12)


def test_mirror_symmetry_of_horizontal_velocity():
    # reflecting the cavity across its vertical midline maps the problem
    # onto its sign-reversed twin, so u_x must be mirror-even; the lid
    # corners carry the discontinuous-data singularity and the single
    # diagonal direction breaks the discrete symmetry there, so compare
    # away from the corners
    cfg = ProblemConfig("stokes", "P2P1", StabilizationConfig())
    system = FlowSystem(cfg, 32, 16)
    sol = system.solve((0.75, 1.0))
    total = sol.total_velocity
    coords = system.velocity_space.dof_coords
    ux = total.values[0::2]
    worst = 0.0
    for k in range(coords.shape[0]):
        x, y = coords[k]
        corner = min(np.hypot(x, y - 1.0), np.hypot(x - 2.0, y - 1.0))
        if corner <= 0.25:
            continue
        mirrored = fe_eval(total, (2.0 - x, y))[0]
        worst = max(worst, abs(ux[k] - mirrored))
    assert worst < 1e-2


# ---------------------------------------------------------------------------
# Navier-Stokes


@pytest.fixture(scope="module")
def ns_system():
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    return FlowSystem(cfg, 32, 16)


def test_newton_converges_quadratically(ns_system):
    mu = (120.0, 2.0)
    sol = ns_system.solve_navier_stokes(mu)
    diag = sol.diagnostics
    assert diag["type"] == "newton"
    assert diag["iterations"] <= 10
    assert RCOND_TOL < diag["rcond"] < 1.0
    ref = ns_system.residual_reference(mu)
    hist = np.asarray(diag["residuals"]) / ref
    assert hist[-1] <= NEWTON_TOL
    # quadratic convergence on every step whose GMRES forcing is the
    # relative residual itself, i.e. from a residual at or above
    # sqrt(0.5 NEWTON_TOL); below it the safeguard asks only for what
    # NEWTON_TOL needs (test_newton_safeguard_binds_on_the_last_step)
    quadratic = hist[:-1] >= np.sqrt(0.5 * NEWTON_TOL)
    assert quadratic.sum() >= 2
    assert np.all(hist[1:][quadratic] <= 10.0 * hist[:-1][quadratic] ** 2)
    assert np.all(np.diff(hist) < 0)


def test_newton_safeguard_binds_on_the_last_step(ns_system):
    # every step's forcing is min(KRYLOV_FORCING, max(||r_k|| / ref,
    # 0.5 NEWTON_TOL ref / ||r_k||)); on the last step the second term
    # wins, so GMRES stops well short of the relative residual
    mu = (120.0, 2.0)
    diag = ns_system.solve_navier_stokes(mu).diagnostics
    ref = ns_system.residual_reference(mu)
    hist = np.asarray(diag["residuals"]) / ref
    forcing = np.asarray(diag["forcing"])
    assert forcing.shape == (diag["iterations"],)
    want = np.minimum(KRYLOV_FORCING,
                      np.maximum(hist[:-1], 0.5 * NEWTON_TOL / hist[:-1]))
    assert np.allclose(forcing, want, rtol=1e-12, atol=0.0)
    assert forcing[-1] == pytest.approx(0.5 * NEWTON_TOL / hist[-2],
                                        rel=1e-12)
    assert forcing[-1] > hist[-2]
    assert hist[-1] <= NEWTON_TOL


def test_ns_solution_invariants(ns_system):
    mu = (120.0, 2.0)
    sol = ns_system.solve_navier_stokes(mu)
    diri = ns_system.velocity_space.dirichlet_dofs()
    assert np.abs(sol.velocity.values[diri]).max() == 0.0
    p = sol.pressure.values
    assert abs(ns_system.mean_vector @ p) <= 1e-10 * np.linalg.norm(p)
    r = ns_system.residual(mu, sol.velocity.values, p,
                           sol.diagnostics["lambda"])
    assert np.linalg.norm(r) <= 1e-9 * ns_system.residual_reference(mu)


def test_ns_approaches_stokes_at_high_viscosity():
    # with the transport terms scaled away (nu = 1e4, tiny delta) the
    # nonlinear solution must collapse onto the linear one; compared at
    # the reference stretch, the only one where the Navier-Stokes linear
    # stabilization blocks (reference-domain forms) coincide with the
    # pulled-back Stokes ones
    nu = 1e4
    mu2 = 1.0
    ns_cfg = ProblemConfig("navier_stokes", "P2P2",
                           StabilizationConfig("SUPGFamily", 1e-3),
                           mu1_range=(1.0 / (2 * nu), 2.0 / nu))
    ns_sys = FlowSystem(ns_cfg, 16, 8)
    ns_sol = ns_sys.solve((1.0 / nu, mu2))
    st_cfg = ProblemConfig("stokes", "P2P2",
                           StabilizationConfig("ResidualBased", 1e-3),
                           mu1_range=(nu / 2, 2 * nu))
    st_sys = FlowSystem(st_cfg, 16, 8)
    st_sol = st_sys.solve((nu, mu2))
    du = ns_sol.velocity.values - st_sol.velocity.values
    xu = st_sys.gram_velocity
    num = np.sqrt(du @ (xu @ du))
    den = np.sqrt(st_sol.velocity.values @ (xu @ st_sol.velocity.values))
    assert num <= 1e-3 * den


def test_zero_lid_gives_zero_flow():
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    mesh = build_rect_mesh(2.0, 1.0, 8, 4)
    base = FlowSystem(cfg, 8, 4, mesh=mesh)
    system = FlowSystem(cfg, 8, 4,
                        lifting=zero_function(base.velocity_space),
                        mesh=mesh)
    sol = system.solve((150.0, 2.0))
    assert np.abs(sol.velocity.values).max() == 0.0
    assert np.abs(sol.pressure.values).max() == 0.0
    assert sol.diagnostics["iterations"] == 0
    assert sol.diagnostics["rcond"] is None


@pytest.mark.parametrize("pair,method,delta", [
    ("P2P2", "SUPGFamily", 1.0),
    ("P1P1", "SUPGFamily", 1.0),
    ("P2P1", "None", 0.0),
])
def test_jacobian_action_matches_assembled_jacobian(pair, method, delta):
    cfg = ProblemConfig("navier_stokes", pair,
                        StabilizationConfig(method, delta))
    system = FlowSystem(cfg, 8, 4)
    rng = np.random.default_rng(12)
    mu = (170.0, 2.4)
    u = np.zeros(system.velocity_space.dof_count)
    u[system.free] = rng.standard_normal(system.n_free)
    u_t = u + system.lifting.values
    jac = system._saddle_matrix(mu, u_t)
    # a factored step sees the Jacobian's nonzeros alone, not the zeros
    # its blocks store (the quadratic kernels' structural ones among them)
    assert jac.nnz == np.count_nonzero(jac.data)
    op = system.jacobian_action(mu, u_t, system._saddle_matrix(mu))
    assert op.shape == jac.shape
    # one operator serves every Krylov iteration of its step
    for _ in range(2):
        x = rng.standard_normal(jac.shape[0])
        assert _rel(op @ x, jac @ x) <= 1e-12


def test_newton_refactors_when_its_factor_is_stale(monkeypatch):
    # a center factor from far outside the box (Reynolds 1, the linear
    # matrix alone) preconditions GMRES too poorly for two restart
    # cycles: each missed step factors its own Jacobian, and Newton still
    # reaches the usual tolerance and the direct Newton solution
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    system = FlowSystem(cfg, 16, 8)
    mu = (120.0, 2.0)
    far = SparseLU(system._saddle_matrix((1.0, 1.5)))
    monkeypatch.setattr(system, "_center", far)
    sol = system.solve_navier_stokes(mu)
    diag = sol.diagnostics
    assert system.center_factor() is far
    assert diag["factorizations"] >= 2
    assert diag["krylov_iterations"] > 0
    assert diag["rcond_factor"] == "own"
    assert diag["rcond"] != far.rcond
    ref = system.residual_reference(mu)
    assert diag["residuals"][-1] <= NEWTON_TOL * ref
    r = system.residual(mu, sol.velocity.values, sol.pressure.values,
                        diag["lambda"])
    assert np.linalg.norm(r) <= NEWTON_TOL * ref
    u, p = direct_newton(system, mu)
    assert _rel(sol.velocity.values, u) <= 1e-8
    assert _rel(sol.pressure.values, p) <= 1e-8


def test_newton_diagnostics_count_factors_and_krylov_steps(ns_system):
    mu = (150.0, 2.5)
    first = ns_system.solve_navier_stokes(mu)
    diag = first.diagnostics
    assert isinstance(diag["factorizations"], int)
    assert isinstance(diag["krylov_iterations"], int)
    # inside the box the center factor serves every step
    assert diag["factorizations"] == 0
    assert diag["rcond_factor"] == "center"
    assert diag["rcond"] == ns_system.center_factor().rcond
    assert diag["krylov_iterations"] >= diag["iterations"]
    # repeat solves are bit-identical, diagnostics included
    again = ns_system.solve_navier_stokes(mu)
    assert np.array_equal(first.velocity.values, again.velocity.values)
    assert np.array_equal(first.pressure.values, again.pressure.values)
    assert again.diagnostics == diag


def test_newton_requires_ns_configuration(stokes_bp):
    system, _ = stokes_bp
    with pytest.raises(ValueError):
        system.solve_navier_stokes((0.5, 2.0))


def test_stokes_solve_requires_stokes_configuration():
    # its right-hand side is minus the zero-state residual, which for
    # Navier-Stokes holds the convection of the lifting
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    with pytest.raises(ValueError, match="not Stokes"):
        FlowSystem(cfg, 4, 2).solve_stokes((150.0, 2.0))


def test_total_velocity_adds_lifting(stokes_bp):
    system, sol = stokes_bp
    want = sol.velocity.values + system.lifting.values
    assert np.array_equal(sol.total_velocity.values, want)


# ---------------------------------------------------------------------------
# the center factor: one kept factor per system preconditions every solve


STOKES_PAIRS = [("P1P1", "BrezziPitkaranta", 0.05),
                ("P2P2", "ResidualBased", 0.05),
                ("P2P1", "None", 0.0),
                ("P1P0", "EdgeJumpP1P0", 0.05)]


@pytest.mark.parametrize("pair,method,delta", STOKES_PAIRS)
def test_stokes_matches_direct_solve(pair, method, delta):
    cfg = ProblemConfig("stokes", pair, StabilizationConfig(method, delta))
    system = FlowSystem(cfg, 16, 8)
    for mu in [(0.25, 1.0), (0.75, 3.0), (0.25, 3.0), (0.61, 1.3)]:
        sol = system.solve_stokes(mu)
        u, p = direct_stokes(system, mu)
        assert _rel(sol.velocity.values, u) <= 1e-10
        assert _rel(sol.pressure.values, p) <= 1e-10
        diag = sol.diagnostics
        assert diag["factorizations"] == 0
        assert diag["rcond_factor"] == "center"
        assert diag["rcond"] == system.center_factor().rcond
        assert diag["krylov_iterations"] > 0


def test_stokes_miss_factors_its_own_matrix(monkeypatch):
    # a center factor from far outside the box leaves GMRES short of
    # STOKES_ACCEPT: the solve falls back to its own factor, once
    cfg = ProblemConfig("stokes", "P2P2",
                        StabilizationConfig("ResidualBased", 0.05))
    system = FlowSystem(cfg, 8, 4)
    far = SparseLU(system._saddle_matrix((1e3, -0.9)))
    monkeypatch.setattr(system, "_center", far)
    mu = (0.3, 2.5)
    sol = system.solve_stokes(mu)
    diag = sol.diagnostics
    assert diag["factorizations"] == 1
    assert diag["rcond_factor"] == "own"
    assert diag["rcond"] != far.rcond
    assert diag["residual"] <= 1e-12
    u, p = direct_stokes(system, mu)
    assert _rel(sol.velocity.values, u) <= 1e-12
    assert _rel(sol.pressure.values, p) <= 1e-12


@pytest.mark.parametrize("problem", ["stokes", "navier_stokes"])
def test_truth_does_not_depend_on_earlier_solves(problem):
    cfg = ProblemConfig(problem, "P2P2", StabilizationConfig(
        "ResidualBased" if problem == "stokes" else "SUPGFamily", 0.05))
    first, then = [(0.3, 1.2), (0.7, 2.9)] if problem == "stokes" \
        else [(110.0, 1.6), (190.0, 2.8)]
    alone = FlowSystem(cfg, 16, 8).solve(then)
    system = FlowSystem(cfg, 16, 8)
    system.solve(first)
    after = system.solve(then)
    assert np.array_equal(alone.velocity.values, after.velocity.values)
    assert np.array_equal(alone.pressure.values, after.pressure.values)
    assert alone.diagnostics == after.diagnostics


def test_concurrent_first_solves_share_one_center_factor(monkeypatch):
    # four threads race to the first solve of a fresh Navier-Stokes
    # system: one center factor is built, no Stokes factor at all, and
    # every truth equals the one-thread solve bit for bit
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    points = [(100.0, 1.5), (200.0, 3.0), (130.0, 2.6), (170.0, 1.9)]
    serial = [FlowSystem(cfg, 8, 4).solve(mu) for mu in points]
    contexts = []

    class Counted(SparseLU):
        def __init__(self, matrix, context=""):
            contexts.append(context)
            super().__init__(matrix, context)
    monkeypatch.setattr(sys.modules[FlowSystem.__module__], "SparseLU",
                        Counted)
    system = FlowSystem(cfg, 8, 4)
    assert system._center is None      # built by the first solve, lazily
    with ThreadPoolExecutor(max_workers=4) as pool:
        racing = list(pool.map(system.solve, points))
    assert sum(c.startswith("center factor") for c in contexts) == 1
    assert not any(c.startswith("stokes") for c in contexts)
    for a, b in zip(serial, racing):
        assert np.array_equal(a.velocity.values, b.velocity.values)
        assert np.array_equal(a.pressure.values, b.pressure.values)
        assert a.diagnostics == b.diagnostics


def test_center_run_stops_at_center_tol_and_is_no_truth(monkeypatch):
    # the center factor's own Newton run factors every step and stops at
    # the first iterate within CENTER_TOL; the cold solve at the center
    # is then an ordinary solve, preconditioned by that factor
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    center = cfg.center()
    assert center == (150.0, 2.25)
    system = FlowSystem(cfg, 8, 4)
    runs = []
    newton = system._newton

    def spy(mu, u, p, precond, tol=NEWTON_TOL):
        sol = newton(mu, u, p, precond, tol)
        runs.append((tol, sol))
        return sol
    monkeypatch.setattr(system, "_newton", spy)
    sol = system.solve(center)
    assert [tol for tol, _ in runs] == [CENTER_TOL, NEWTON_TOL]
    near = runs[0][1].diagnostics
    ref = system.residual_reference(center)
    assert near["residuals"][-1] <= CENTER_TOL * ref < near["residuals"][-2]
    assert near["factorizations"] == near["iterations"] > 0
    assert near["krylov_iterations"] == 0
    diag = sol.diagnostics
    assert diag["factorizations"] == 0
    assert diag["rcond_factor"] == "center"
    assert diag["residuals"][-1] <= NEWTON_TOL * ref
    u, p = direct_newton(system, center)
    assert _rel(sol.velocity.values, u) <= 1e-9
    assert _rel(sol.pressure.values, p) <= 1e-9


def test_failed_center_run_is_not_repeated(monkeypatch):
    # a center run that stalls fails every solve of the system, and is
    # run once: later and concurrent solves raise its error again
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    system = FlowSystem(cfg, 8, 4)
    runs = []
    newton = system._newton

    def stalls_at_center(mu, u, p, precond, tol=NEWTON_TOL):
        if precond is not None:     # a solve, not the center run
            return newton(mu, u, p, precond, tol)
        runs.append(tuple(mu))
        raise NonConvergenceError("planted stall", [1.0])
    monkeypatch.setattr(system, "_newton", stalls_at_center)

    def attempt(mu):
        try:
            system.solve(mu)
        except NonConvergenceError as exc:
            return str(exc)
        return "solved"
    points = [(110.0, 1.6), (190.0, 2.8), (130.0, 2.6), (170.0, 1.9)]
    assert attempt(points[0]) == "planted stall"
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(attempt, points)) == ["planted stall"] * 4
    assert runs == [cfg.center()]


def test_newton_matches_direct_newton_cold_and_warm(ns_system):
    mu, near = (185.0, 1.7), (175.0, 1.8)
    cold = ns_system.solve_navier_stokes(mu)
    guess = ns_system.solve_navier_stokes(near)
    warm = ns_system.solve_navier_stokes(mu, initial_guess=guess)
    assert warm.diagnostics["iterations"] < cold.diagnostics["iterations"]
    for sol, start in ((cold, None), (warm, guess)):
        u, p = direct_newton(ns_system, mu, start)
        assert _rel(sol.velocity.values, u) <= 1e-9
        assert _rel(sol.pressure.values, p) <= 1e-9


# ---------------------------------------------------------------------------
# the saddle table against the named-block assembly it replaced


def _named_blocks(system, mu) -> dict:
    g = system.geometry
    return {name: system.operators[name].evaluate(g, mu)
            for name in ("suq", "spq", "suv", "spv")
            if name in system.operators}


def _named_saddle_matrix(system, mu, a_extra=None, b_extra=None):
    """[[A - Suv, B^T - Spv, 0], [B - Suq, -Spq, m], [0, m^T, 0]] on the
    free velocity dofs; a_extra / b_extra are the Newton corrections of
    the momentum and continuity velocity blocks."""
    g = system.geometry
    a_mu = system.operators["visc"].evaluate(g, mu)
    b_mu = system.operators["b"].evaluate(g, mu)
    sb = _named_blocks(system, mu)
    if "suv" in sb:
        a_mu = a_mu - sb["suv"]
    if a_extra is not None:
        a_mu = a_mu + a_extra
    bt = b_mu.T.tocsr()
    if "spv" in sb:
        bt = bt - sb["spv"]
    btilde = b_mu
    if "suq" in sb:
        btilde = btilde - sb["suq"]
    if b_extra is not None:
        btilde = btilde - b_extra
    fr = system.free
    s_blk = -sb["spq"] if "spq" in sb else None
    m_col = scipy.sparse.csr_matrix(system.mean_vector.reshape(-1, 1))
    m_row = scipy.sparse.csr_matrix(system.mean_vector.reshape(1, -1))
    return scipy.sparse.bmat(
        [[a_mu[fr][:, fr], bt[fr], None],
         [btilde[:, fr], s_blk, m_col],
         [None, m_row, None]], format="csc")


def _named_body_vectors(system, force):
    """(f, v), the continuity term and rho delta h^2 (f, lap v), the
    momentum-row term that takes the factor nu (None where absent)."""
    sc = system.config.stabilization
    body = assemble_body_force(system.velocity_space, force)
    stab_body = mom_body = None
    if sc.active and sc.method != "EdgeJumpP1P0":
        stab_body = assemble_stab_body_force(
            system.pressure_space, force, sc.delta)
    if "suv" in system.operators:
        mom_body = assemble_momentum_stab_body_force(
            system.velocity_space, force, sc.delta, sc.rho)
    return body, stab_body, mom_body


def _named_rhs(system, force):
    """Lifting right-hand sides (fbar, gbar): fbar = (f, v) - a(l, v)
    [+ Suv l + rho delta h^2 (f, nu lap v)], gbar = -b(l, q) [+ Suq l]
    [+ stabilized body force]."""
    lvec = system.lifting.values
    body, stab_body, mom_body = _named_body_vectors(system, force)
    ops = system.operators
    fterms = [(tag, -(m @ lvec)) for tag, m in ops["visc"].terms]
    if "suv" in ops:
        fterms += [(tag, m @ lvec) for tag, m in ops["suv"].terms]
        fterms.append(("nu", mom_body))
    fterms.append(("one", body))
    gterms = [(tag, -(m @ lvec)) for tag, m in ops["b"].terms]
    if "suq" in ops:
        gterms += [(tag, m @ lvec) for tag, m in ops["suq"].terms]
    if stab_body is not None:
        gterms.append(("one", stab_body))
    return AffineOperator(fterms), AffineOperator(gterms)


def _named_residual(system, mu, u_homog, p, lam, force):
    g = system.geometry
    body, stab_body, mom_body = _named_body_vectors(system, force)
    u_t = u_homog + system.lifting.values
    a_mu = system.operators["visc"].evaluate(g, mu)
    b_mu = system.operators["b"].evaluate(g, mu)
    sb = _named_blocks(system, mu)
    r_mom = a_mu @ u_t + b_mu.T @ p - body
    if "conv" in system.quadratic:
        r_mom += system.quadratic["conv"].matrix(u_t).evaluate(g, mu) @ u_t
    if "suv" in sb:
        r_mom -= sb["suv"] @ u_t
        r_mom -= sb["spv"] @ p
        r_mom -= g.theta("nu", mu) * mom_body
    r_cont = b_mu @ u_t + lam * system.mean_vector
    if "suq" in sb:
        r_cont -= sb["suq"] @ u_t
    if "spq" in sb:
        r_cont -= sb["spq"] @ p
    if "tn" in system.quadratic:
        r_cont -= system.quadratic["tn"].transport(u_t).evaluate(g, mu) @ u_t
    if stab_body is not None:
        r_cont -= stab_body
    return np.concatenate([r_mom[system.free], r_cont,
                           [system.mean_vector @ p]])


def _named_jacobian(system, mu, u_t):
    g = system.geometry
    conv = system.quadratic["conv"]
    a_extra = conv.matrix(u_t).evaluate(g, mu) \
        + conv.transport_jacobian(u_t).evaluate(g, mu)
    b_extra = None
    if "tn" in system.quadratic:
        supg = system.quadratic["tn"]
        b_extra = supg.transport(u_t).evaluate(g, mu) \
            + supg.jacobian(u_t).evaluate(g, mu)
    return _named_saddle_matrix(system, mu, a_extra, b_extra)


def _rel(new, old):
    norm = scipy.sparse.linalg.norm if scipy.sparse.issparse(old) \
        else np.linalg.norm
    return norm(new - old) / norm(old)


@pytest.mark.parametrize("problem,pair,method,rho,linear,quadratic", [
    ("stokes", "P1P1", "None", 0.0, "visc b", ""),
    ("stokes", "P1P1", "BrezziPitkaranta", 0.0, "visc b spq", ""),
    ("stokes", "P2P2", "BrezziPitkaranta", 0.0, "visc b spq", ""),
    ("stokes", "P1P1", "ResidualBased", 0.0, "visc b suq spq", ""),
    ("stokes", "P2P2", "ResidualBased", 0.0, "visc b suq spq", ""),
    ("stokes", "P2P2", "ResidualBased", 1.0, "visc b suq spq suv spv", ""),
    ("stokes", "P2P2", "ResidualBased", -1.0, "visc b suq spq suv spv", ""),
    ("stokes", "P1P0", "None", 0.0, "visc b", ""),
    ("stokes", "P1P0", "EdgeJumpP1P0", 0.0, "visc b spq", ""),
    ("stokes", "P2P1", "None", 0.0, "visc b", ""),
    ("navier_stokes", "P1P1", "SUPGFamily", 0.0, "visc b suq spq",
     "conv tn"),
    ("navier_stokes", "P2P2", "SUPGFamily", 0.0, "visc b suq spq",
     "conv tn"),
    ("navier_stokes", "P2P2", "None", 0.0, "visc b", "conv"),
    ("navier_stokes", "P2P1", "None", 0.0, "visc b", "conv"),
])
def test_block_set_of_every_configuration(problem, pair, method, rho,
                                          linear, quadratic):
    # the two dicts are the one record of a configuration's terms, the
    # operators in SADDLE_BLOCKS order
    delta = 0.0 if method == "None" else 0.05
    cfg = ProblemConfig(problem, pair,
                        StabilizationConfig(method, delta, rho=rho))
    system = FlowSystem(cfg, 4, 2)
    assert list(system.operators) == linear.split()
    assert list(system.quadratic) == quadratic.split()


@pytest.mark.parametrize("problem,pair,method,delta,rho", [
    ("stokes", "P1P1", "BrezziPitkaranta", 0.05, 0.0),
    ("stokes", "P2P2", "ResidualBased", 0.05, 0.0),
    ("stokes", "P2P2", "ResidualBased", 0.05, 1.0),
    ("stokes", "P1P0", "EdgeJumpP1P0", 0.05, 0.0),
    ("stokes", "P2P1", "None", 0.0, 0.0),
    ("navier_stokes", "P2P2", "SUPGFamily", 1.0, 0.0),
])
def test_saddle_table_matches_named_blocks(problem, pair, method, delta,
                                           rho):
    # the bordered matrix, the lifting right-hand side, the residual at
    # a nonzero state and the Newton Jacobian read from SADDLE_BLOCKS
    # agree with the block-by-block assembly, body forces included
    def force(x, y):
        return (np.sin(x) * y, x - y * y)

    cfg = ProblemConfig(problem, pair,
                        StabilizationConfig(method, delta, rho=rho))
    system = FlowSystem(cfg, 8, 4, body_force=force)
    g = system.geometry
    rng = np.random.default_rng(4)
    fbar, gbar = _named_rhs(system, force)
    lifting = system.lifting_rhs()
    for mu in (tuple(cfg.mu1_range), (cfg.mu1_range[1], cfg.mu2_range[0])):
        k = _named_saddle_matrix(system, mu)
        assert _rel(system._saddle_matrix(mu), k) <= 1e-13
        for rows, whole in (("v", fbar), ("p", gbar)):
            got = sum(op.evaluate(g, mu) for (r, _), op in lifting.items()
                      if r == rows)
            assert _rel(got, whole.evaluate(g, mu)) <= 1e-13

        u = np.zeros(system.velocity_space.dof_count)
        u[system.free] = rng.standard_normal(system.n_free)
        p = rng.standard_normal(system.n_pressure)
        want = _named_residual(system, mu, u, p, 0.3, force)
        assert _rel(system.residual(mu, u, p, 0.3), want) <= 1e-13
        if problem == "stokes":
            # the Stokes solve: the named matrix and right-hand side
            rhs = np.concatenate([fbar.evaluate(g, mu)[system.free],
                                  gbar.evaluate(g, mu), [0.0]])
            x = scipy.sparse.linalg.spsolve(k, rhs)
            sol = system.solve_stokes(mu)
            assert _rel(sol.velocity.values[system.free],
                        x[:system.n_free]) <= 1e-10
            assert _rel(sol.pressure.values,
                        x[system.n_free:-1]) <= 1e-10
        else:
            u_t = u + system.lifting.values
            assert _rel(system._saddle_matrix(mu, u_t),
                        _named_jacobian(system, mu, u_t)) <= 1e-13


@pytest.mark.parametrize("problem,pair,method,delta,rho,forced", [
    ("stokes", "P1P1", "BrezziPitkaranta", 0.05, 0.0, False),
    ("stokes", "P2P2", "ResidualBased", 0.05, 0.0, False),
    ("stokes", "P2P2", "ResidualBased", 0.05, 1.0, False),
    ("stokes", "P2P2", "ResidualBased", 0.05, 1.0, True),
    ("stokes", "P1P0", "EdgeJumpP1P0", 0.05, 0.0, False),
    ("stokes", "P2P1", "None", 0.0, 0.0, False),
    ("navier_stokes", "P2P2", "SUPGFamily", 1.0, 0.0, False),
])
def test_column_stacked_residual_matches_each_column(problem, pair, method,
                                                     delta, rho, forced):
    # one call on k states with one parameter per column gives the k
    # residuals of the one-state call; the zero state gives the reference
    def force(x, y):
        return (np.sin(x) * y, x - y * y)

    cfg = ProblemConfig(problem, pair,
                        StabilizationConfig(method, delta, rho=rho))
    system = FlowSystem(cfg, 8, 4, body_force=force if forced else None)
    rng = np.random.default_rng(6)
    k = 5
    mus = [(rng.uniform(*cfg.mu1_range), rng.uniform(*cfg.mu2_range))
           for _ in range(k)]
    u = np.zeros((system.velocity_space.dof_count, k))
    u[system.free, 1:] = rng.standard_normal((system.n_free, k - 1))
    p = np.zeros((system.n_pressure, k))
    p[:, 1:] = rng.standard_normal((system.n_pressure, k - 1))
    got = system.residual(mus, u, p)
    assert got.shape == (system.n_free + system.n_pressure + 1, k)
    for j, mu in enumerate(mus):
        assert _rel(got[:, j], system.residual(mu, u[:, j], p[:, j])) \
            <= 1e-14
    assert np.linalg.norm(got[:, 0]) == pytest.approx(
        system.residual_reference(mus[0]), rel=1e-14)


def test_column_stacked_residual_is_thread_safe():
    # the quadratic kernels keep no scratch state: four threads sharing
    # one Navier-Stokes system give the serial residual bit for bit,
    # with the interpreter switching threads often
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    system = FlowSystem(cfg, 16, 8)
    rng = np.random.default_rng(9)
    k = 6
    mus = [(rng.uniform(*cfg.mu1_range), rng.uniform(*cfg.mu2_range))
           for _ in range(k)]
    states = []
    for _ in range(8):
        u = np.zeros((system.velocity_space.dof_count, k))
        u[system.free] = rng.standard_normal((system.n_free, k))
        states.append((u, rng.standard_normal((system.n_pressure, k))))
    serial = [system.residual(mus, u, p) for u, p in states]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(system.residual, mus, u, p)
                       for _ in range(4) for u, p in states]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, r in enumerate(got):
        assert np.array_equal(r, serial[i % len(states)])
