"""Accuracy measurement: error norms, mesh-convergence rates, reduced
error sweeps over parameter test sets, and inf-sup profiles.

Velocity errors use the H1 seminorm, pressure errors the L2 norm, both
relative and both evaluated on the reference domain (where the Gram
matrices live).  Sweep output rows are plain tuples so the CLI can dump
them byte-reproducibly; wall-clock timings stay out of the rows and are
reported separately.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .fespace import (bary_coords, make_space, shape_dlam, shape_values,
                      zero_function)
from .hifi import PAIRS, FeSolution, FlowSystem, ProblemConfig
from .mesh import build_rect_mesh
from .quadrature import triangle_rule
from .rb import (ReducedModel, held_out_parameters, infsup_constants,
                 solve_reduced, truncate_model, with_option)
from .util import NonConvergenceError, SingularSystemError, parallel_map

SWEEP_HEADER = ("N", "option", "field", "norm",
                "mean_rel_err", "max_rel_err", "n_test", "seed")
INFSUP_HEADER = ("mu1", "mu2", "option", "beta_plain", "beta_modified")

_PI = np.pi
# quadrature degree of the manufactured errors: the exact fields are
# trigonometric, so no rule integrates them exactly
MANUFACTURED_DEGREE = 10


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# norms and relative errors


def gram_seminorm(gram, vec: np.ndarray) -> float:
    return float(np.sqrt(max(vec @ (gram @ vec), 0.0)))


def relative_errors(system: FlowSystem, truth: FeSolution,
                    u_homog: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """(velocity H1-seminorm, pressure L2) errors relative to the truth.

    Both states share the system lifting, so the velocity difference is
    the homogeneous difference; the reference scale uses the full
    (lifted) truth velocity.
    """
    xu, xp = system.gram_velocity, system.gram_pressure
    du = truth.velocity.values - u_homog
    dp = truth.pressure.values - p
    ref_u = gram_seminorm(xu, truth.total_velocity.values)
    ref_p = gram_seminorm(xp, truth.pressure.values)
    return (gram_seminorm(xu, du) / ref_u, gram_seminorm(xp, dp) / ref_p)


# ---------------------------------------------------------------------------
# manufactured solution (divergence-free, homogeneous on the boundary),
# which enters the errors through its gradient alone


def manufactured_velocity_gradient(x, y):
    """d u_c / d x_d stacked as [..., c, d]."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.shape + (2, 2))
    g[..., 0, 0] = _PI ** 2 * np.sin(2 * _PI * x) * np.sin(2 * _PI * y)
    g[..., 0, 1] = 2 * _PI ** 2 * np.sin(_PI * x) ** 2 * np.cos(2 * _PI * y)
    g[..., 1, 0] = -2 * _PI ** 2 * np.cos(2 * _PI * x) * np.sin(_PI * y) ** 2
    g[..., 1, 1] = -_PI ** 2 * np.sin(2 * _PI * x) * np.sin(2 * _PI * y)
    return g


def manufactured_pressure(x, y):
    return np.sin(_PI * x) * np.cos(_PI * y)


def manufactured_body_force(nu: float):
    """f = -nu lap(u) + grad(p) for the manufactured pair."""
    def force(x, y):
        lap1 = 2 * _PI ** 3 * np.sin(2 * _PI * y) * (2 * np.cos(2 * _PI * x) - 1)
        lap2 = 2 * _PI ** 3 * np.sin(2 * _PI * x) * (1 - 2 * np.cos(2 * _PI * y))
        return (-nu * lap1 + _PI * np.cos(_PI * x) * np.cos(_PI * y),
                -nu * lap2 - _PI * np.sin(_PI * x) * np.sin(_PI * y))
    return force


def manufactured_errors(system: FlowSystem,
                        solution: FeSolution) -> tuple[float, float]:
    """Relative H1-seminorm / L2 errors against the manufactured fields."""
    mesh = system.mesh
    vspace, pspace = system.velocity_space, system.pressure_space
    pts, w = triangle_rule(MANUFACTURED_DEGREE)
    lam = bary_coords(pts)
    verts = mesh.vertices[mesh.triangles]
    phys = np.einsum("qi,tid->tqd", lam, verts)
    wdet = 2.0 * mesh.areas[:, None] * w[None, :]
    x, y = phys[..., 0], phys[..., 1]

    dlam_v = shape_dlam(vspace.family, lam)
    grads_v = np.einsum("qni,tid->tqnd", dlam_v, mesh.grad_bary)
    nloc = grads_v.shape[2]
    uvals = solution.total_velocity.values[vspace.cell_vector_dofs()]
    uvals = uvals.reshape(-1, nloc, 2)
    gh = np.einsum("tqnd,tnc->tqcd", grads_v, uvals)
    gex = manufactured_velocity_gradient(x, y)
    err_u = np.einsum("tq,tqcd->", wdet, (gh - gex) ** 2)
    ref_u = np.einsum("tq,tqcd->", wdet, gex ** 2)

    vals_p = shape_values(pspace.family, lam)
    ph = np.einsum("qn,tn->tq", vals_p, solution.pressure.values[pspace.cell_dofs])
    pex = manufactured_pressure(x, y)
    err_p = np.einsum("tq,tq->", wdet, (ph - pex) ** 2)
    ref_p = np.einsum("tq,tq->", wdet, pex ** 2)
    return (float(np.sqrt(err_u / ref_u)), float(np.sqrt(err_p / ref_p)))


@dataclass
class ConvergenceResult:
    fe_pair: str
    method: str
    rows: list            # (nx, h_max, err_u, err_p)
    rate_u: float         # observed order on the finest mesh pair
    rate_p: float


def convergence_study(fe_pair: str = "P2P1", stabilization=None,
                      mesh_sizes=(8, 16, 32), nu: float = 0.5) -> ConvergenceResult:
    """Mesh-refinement study on the manufactured Stokes solution.

    Solves with zero lifting and the matching body force at the
    reference geometry (mu2 = mu_bar2), so the exact solution is known
    in closed form and the observed orders isolate the FE/stabilization
    accuracy.
    """
    from .assembly import StabilizationConfig
    stab = stabilization if stabilization is not None else StabilizationConfig()
    rows = []
    force = manufactured_body_force(nu)
    for nx in mesh_sizes:
        ny = max(nx // 2, 1)
        config = ProblemConfig(problem="stokes", fe_pair=fe_pair,
                               stabilization=stab)
        mesh = build_rect_mesh(2.0, 1.0, nx, ny)
        vfam, _ = PAIRS[fe_pair]
        vspace = make_space(mesh, vfam, 2)
        system = FlowSystem(config, nx, ny, lifting=zero_function(vspace),
                            body_force=force, mesh=mesh)
        sol = system.solve_stokes((nu, config.mu_bar2))
        err_u, err_p = manufactured_errors(system, sol)
        rows.append((nx, float(mesh.element_diameters.max()), err_u, err_p))
    if len(rows) < 2:
        raise ValueError("need at least two mesh sizes for a rate")
    rate_u = float(np.log2(rows[-2][2] / rows[-1][2]))
    rate_p = float(np.log2(rows[-2][3] / rows[-1][3]))
    return ConvergenceResult(fe_pair=fe_pair, method=stab.method,
                             rows=rows, rate_u=rate_u, rate_p=rate_p)


# ---------------------------------------------------------------------------
# reduced-order error sweep


@dataclass
class ErrorReport:
    """Sweep rows plus bookkeeping kept out of the deterministic output."""

    rows: list
    test_points: list
    failures: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)


def _sweep_point(args):
    model, mu, truth, system = args
    try:
        u, p, _ = solve_reduced(model, mu)
    except (SingularSystemError, NonConvergenceError) as exc:
        return (float("inf"), float("inf"), str(exc))
    u_full = model.z_velocity() @ u
    p_full = model.z_p @ p
    eu, ep = relative_errors(system, truth, u_full, p_full)
    return (eu, ep, None)


def error_sweep(system: FlowSystem, model: ReducedModel, seed: int,
                test_size: int = 50, options=("i", "ii", "iii"),
                n_values=None, threads: int = 1,
                test_points=None) -> ErrorReport:
    """Accuracy of the reduced solves over a random test set.

    For every basis size the reduced model is truncated to the leading
    greedy snapshots (in reduced coordinates), viewed per online option,
    and compared to the cached FE truth in relative H1-seminorm / L2.
    ``model`` may be a view of any option.  Points where the
    reduced solve fails are excluded from the statistics (with a
    warning) and recorded in the report.  ``test_points`` overrides the
    random draw with an explicit parameter list -- passing the training
    snapshots themselves checks pure reproduction.
    """
    cfg = system.config
    n_max = len(model.mus)
    if n_values is None:
        n_values = list(range(1, n_max + 1))
    if test_points is not None:
        test = [tuple(map(float, mu)) for mu in test_points]
    else:
        test = held_out_parameters(cfg.mu1_range, cfg.mu2_range,
                                   test_size, seed + 1,
                                   exclude=[tuple(m) for m in model.mus])
    t0 = time.perf_counter()
    truths = parallel_map(system.solve, test, threads)
    t_truth = time.perf_counter() - t0

    rows, failures = [], []
    t0 = time.perf_counter()
    for n in n_values:
        base = truncate_model(model, n)
        for opt in options:
            om = with_option(base, opt)
            results = parallel_map(
                _sweep_point,
                [(om, mu, truth, system) for mu, truth in zip(test, truths)],
                threads)
            errs_u, errs_p = [], []
            for mu, (eu, ep, fail) in zip(test, results):
                if fail is not None:
                    failures.append((n, opt, mu, fail))
                    _warn(f"N={n} option={opt} mu={mu}: reduced solve "
                          f"failed ({fail}); point excluded")
                    continue
                errs_u.append(eu)
                errs_p.append(ep)
            for field_name, errs in (("velocity", errs_u), ("pressure", errs_p)):
                norm = "H1semi" if field_name == "velocity" else "L2"
                mean = float(np.mean(errs)) if errs else float("inf")
                mx = float(np.max(errs)) if errs else float("inf")
                rows.append((n, opt, field_name, norm, mean, mx,
                             len(errs), seed))
    t_sweep = time.perf_counter() - t0
    return ErrorReport(rows=rows, test_points=test, failures=failures,
                       timings={"fe_truth_s": t_truth, "sweep_s": t_sweep})


# ---------------------------------------------------------------------------
# inf-sup profiles


def parameter_grid(mu1_range, mu2_range, n1: int, n2: int) -> list[tuple]:
    """Tensor grid including the box corners, row-major in mu1."""
    out = []
    for a in np.linspace(mu1_range[0], mu1_range[1], n1):
        for b in np.linspace(mu2_range[0], mu2_range[1], n2):
            out.append((float(a), float(b)))
    return out


def infsup_profile(model: ReducedModel, grid_n: int = 5,
                   options=("i", "ii", "iii", "iv")) -> list[tuple]:
    """Plain and stabilization-augmented inf-sup constants per option.

    Returns (mu1, mu2, option, beta_plain, beta_modified) rows over a
    grid_n x grid_n parameter grid, one ``rb.infsup_constants`` call per
    row; for options iii/iv the modified constant coincides with the
    plain one by construction.
    """
    per_option = {opt: with_option(model, opt) for opt in options}
    rows = []
    for mu in parameter_grid(model.mu1_range, model.mu2_range, grid_n, grid_n):
        for opt in options:
            rows.append((mu[0], mu[1], opt,
                         *infsup_constants(per_option[opt], mu)))
    return rows
