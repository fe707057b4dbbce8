"""Output checks of one benchmark run.

Each check tests a property the method must have, never a stored copy
of an earlier output, and returns a list of violations (empty when the
check passes) together with the worst value it measured.

(a) ``fe_equations``: an FE snapshot or truth satisfies its discrete
    equations, and its pressure has zero mean.
(b) ``galerkin``: a reduced solution of option i or ii is the Galerkin
    solution, i.e. its FE residual is orthogonal to the option's bases.
(c) ``reproduction``: options i and ii reproduce the greedy snapshots.
(d) ``paper_findings``: option iii loses pressure accuracy against
    option i, and the modified inf-sup constant of i and ii is positive.
(e) ``roundtrip``: a saved and reloaded model gives bit-identical
    reduced solutions.
"""

from __future__ import annotations

import numpy as np

from cavityrb import analysis, rb
from cavityrb.hifi import FeSolution
from cavityrb.fespace import FeFunction

FE_RESIDUAL_TOL = 1e-9
GALERKIN_TOL = 1e-8
REPRODUCTION_TOL = {"stokes": 1e-8, "navier_stokes": 1e-6}
PRESSURE_GAP = 10.0
INFSUP_MIN = 1e-6


def fe_equations(system, mu, u_homog, p, label: str):
    """(a) relative FE residual <= 1e-9 and |mean(p)| <= 1e-9 rms(p)."""
    rel = (np.linalg.norm(system.residual(mu, u_homog, p))
           / system.residual_reference(mu))
    area = float(system.mean_vector.sum())
    mean = float(system.mean_vector @ p) / area
    rms = float(np.sqrt(max(p @ (system.gram_pressure @ p), 0.0) / area))
    mean_rel = abs(mean) / rms if rms > 0 else abs(mean)
    bad = []
    if not rel <= FE_RESIDUAL_TOL:
        bad.append(f"(a) {label} at mu={mu}: FE residual {rel:.2e} of the "
                   f"reference > {FE_RESIDUAL_TOL:g}")
    if not mean_rel <= FE_RESIDUAL_TOL:
        bad.append(f"(a) {label} at mu={mu}: pressure mean {mean_rel:.2e} "
                   f"of its rms > {FE_RESIDUAL_TOL:g}")
    return bad, max(rel, mean_rel)


def galerkin(system, view, mu, u, p):
    """(b) FE residual of the reconstruction, projected on the bases."""
    zv = view.z_velocity()
    r = system.residual(mu, zv @ u, view.z_p @ p)
    nf, npr = system.n_free, system.n_pressure
    projected = np.concatenate([zv[system.free].T @ r[:nf],
                                view.z_p.T @ r[nf:nf + npr]])
    rel = np.linalg.norm(projected) / system.residual_reference(mu)
    bad = []
    if not rel <= GALERKIN_TOL:
        bad.append(f"(b) option {view.option} at mu={mu}: projected FE "
                   f"residual {rel:.2e} of the reference > {GALERKIN_TOL:g}")
    return bad, rel


def snapshot_solution(system, model, k: int) -> FeSolution:
    """The k-th greedy snapshot as an FE solution."""
    return FeSolution(
        velocity=FeFunction(system.velocity_space, model.u_snaps[:, k]),
        pressure=FeFunction(system.pressure_space, model.p_snaps[:, k]),
        lifting=system.lifting, mu=tuple(model.mus[k]), diagnostics={})


def reproduction(system, model):
    """(c) options i and ii reproduce every greedy snapshot."""
    tol = REPRODUCTION_TOL[model.problem]
    bad, worst = [], 0.0
    for opt in ("i", "ii"):
        view = rb.with_option(model, opt)
        for k, mu in enumerate(model.mus):
            mu = tuple(mu)
            u, p, _ = rb.solve_reduced(view, mu)
            err = max(analysis.relative_errors(
                system, snapshot_solution(system, model, k),
                view.z_velocity() @ u, view.z_p @ p))
            worst = max(worst, err)
            if not err <= tol:
                bad.append(f"(c) option {opt} misses the snapshot at mu={mu}"
                           f" by {err:.2e} > {tol:g}")
    return bad, worst


def paper_findings(sweep_rows, infsup_rows, n: int):
    """(d) iii/i held-out pressure error >= 10 at N=n; modified beta > 0."""
    mean_p = {opt: mean for rn, opt, fld, _, mean, _, _, _ in sweep_rows
              if rn == n and fld == "pressure"}
    ratio = mean_p["iii"] / mean_p["i"]
    beta = min(mod for _, _, opt, _, mod in infsup_rows if opt in ("i", "ii"))
    bad = []
    if not ratio >= PRESSURE_GAP:
        bad.append(f"(d) held-out pressure error iii/i = {ratio:.2f} at "
                   f"N={n} < {PRESSURE_GAP:g}")
    if not beta >= INFSUP_MIN:
        bad.append(f"(d) modified inf-sup of options i/ii reaches "
                   f"{beta:.2e} < {INFSUP_MIN:g}")
    return bad, (ratio, beta)


def roundtrip(model, loaded, mus, options=("i", "ii", "iii")):
    """(e) the reloaded model solves bit-identically to the saved one."""
    bad = []
    for opt in options:
        a, b = rb.with_option(model, opt), rb.with_option(loaded, opt)
        for mu in mus:
            ua, pa, _ = rb.solve_reduced(a, mu)
            ub, pb, _ = rb.solve_reduced(b, mu)
            if not (np.array_equal(ua, ub) and np.array_equal(pa, pb)):
                bad.append(f"(e) option {opt} at mu={mu}: the reloaded "
                           "model's reduced solution differs")
    return bad, len(bad)
