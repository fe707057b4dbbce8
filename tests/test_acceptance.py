"""Acceptance gate: one test per numbered criterion.

Every test appends exactly one "[criterion NN] PASS/FAIL" line to the
shared report (printed in the terminal summary by conftest) and then
asserts its verdict, so a red criterion is both visible and failing.
The heavy offline stages are session fixtures shared across criteria;
the stated runtime budgets count the offline cost once, at the
criterion that owns it.
"""

import os
import statistics
import time

import numpy as np
import pytest

from cavityrb.analysis import (SWEEP_HEADER, convergence_study, error_sweep,
                               infsup_profile, relative_errors)
from cavityrb.assembly import StabilizationConfig
from cavityrb.cli import main
from cavityrb.hifi import FlowSystem, ProblemConfig
from cavityrb.rb import (SupremizerOperator, greedy_offline, load_model,
                         solve_reduced, with_option)
from cavityrb.rb import held_out_parameters as draw_test_parameters
from cavityrb.util import write_csv

SEED = 42
NX, NY = 32, 16


def _run(report, num, fn):
    try:
        ok, detail = fn()
    except Exception as exc:  # a crashed criterion still gets a verdict line
        ok, detail = False, f"errored: {exc}"
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}"
    report.append(line)
    assert ok, line


def _build(problem, fe_pair, method, delta, n_max, train_size):
    stab = StabilizationConfig(method=method, delta=delta)
    config = ProblemConfig(problem=problem, fe_pair=fe_pair,
                           stabilization=stab)
    system = FlowSystem(config, NX, NY)
    t0 = time.perf_counter()
    model, trace = greedy_offline(system, n_max, train_size, SEED)
    return system, model, trace, time.perf_counter() - t0


def _point_errors(system, model, truth, mu):
    u, p, _ = solve_reduced(model, mu)
    return relative_errors(system, truth,
                           model.z_velocity() @ u, model.z_p @ p)


def _mean_errors(report_rows):
    """{(n, option, field): mean_rel_err} from sweep rows."""
    return {(n, opt, fld): mean
            for n, opt, fld, _, mean, _, _, _ in report_rows}


# ---------------------------------------------------------------------------
# offline stages (session-wide, one build each)


@pytest.fixture(scope="session")
def p1p1_offline():
    return _build("stokes", "P1P1", "BrezziPitkaranta", 0.05, 20, 100)


@pytest.fixture(scope="session")
def p2p2_offline_d005():
    return _build("stokes", "P2P2", "ResidualBased", 0.05, 20, 100)


@pytest.fixture(scope="session")
def p2p2_offline_d05():
    return _build("stokes", "P2P2", "ResidualBased", 0.5, 20, 100)


@pytest.fixture(scope="session")
def p1p0_offline():
    return _build("stokes", "P1P0", "EdgeJumpP1P0", 0.05, 20, 100)


@pytest.fixture(scope="session")
def p2p1_offline():
    # the greedy saturates before 20 on this stable pair; keep whatever
    # basis it settled on
    return _build("stokes", "P2P1", "None", 0.0, 20, 100)


@pytest.fixture(scope="session")
def ns_offline():
    return _build("navier_stokes", "P2P2", "SUPGFamily", 1.0, 16, 64)


@pytest.fixture(scope="session")
def stokes_truth(p1p1_offline):
    system = p1p1_offline[0]
    return system.solve((0.6, 2.0))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_manufactured_convergence(acceptance_report):
    def check():
        t0 = time.perf_counter()
        taylor = convergence_study("P2P1", None, (8, 16, 32))
        bp = convergence_study(
            "P1P1",
            StabilizationConfig(method="BrezziPitkaranta", delta=0.05),
            (8, 16, 32))
        elapsed = time.perf_counter() - t0
        ok = (taylor.rate_u >= 1.9 and taylor.rate_p >= 1.9
              and bp.rate_u >= 0.9 and bp.rate_p >= 0.9
              and elapsed <= 120.0)
        detail = (f"P2P1 rates u={taylor.rate_u:.2f}, p={taylor.rate_p:.2f} "
                  f"(need >=1.9); P1P1+BP u={bp.rate_u:.2f}, "
                  f"p={bp.rate_p:.2f} (need >=0.9); {elapsed:.0f}s of 120s")
        return ok, detail
    _run(acceptance_report, 1, check)


def test_criterion_02_training_reproduction(acceptance_report, p1p1_offline):
    def check():
        system, model, _, offline_s = p1p1_offline
        t0 = time.perf_counter()
        report = error_sweep(system, model, SEED,
                             test_points=[tuple(m) for m in model.mus],
                             n_values=[model.n_u], options=("i", "ii"))
        elapsed = offline_s + time.perf_counter() - t0
        worst = max(row[5] for row in report.rows)
        ok = worst <= 1e-8 and not report.failures and elapsed <= 600.0
        detail = (f"worst rel err over 20 training points, options i/ii: "
                  f"{worst:.2e} (need <=1e-8); {elapsed:.0f}s of 600s")
        return ok, detail
    _run(acceptance_report, 2, check)


def test_criterion_03_held_out_accuracy(acceptance_report, p1p1_offline,
                                        stokes_truth):
    def check():
        system, model, _, _ = p1p1_offline
        errs = {}
        for opt in ("i", "ii"):
            eu, ep = _point_errors(system, with_option(model, opt),
                                   stokes_truth, (0.6, 2.0))
            errs[opt] = (eu, ep)
        worst = max(max(v) for v in errs.values())
        ok = worst <= 1e-3
        detail = (f"mu=(0.6,2), N=20: option i u={errs['i'][0]:.2e} "
                  f"p={errs['i'][1]:.2e}, option ii u={errs['ii'][0]:.2e} "
                  f"p={errs['ii'][1]:.2e} (need <=1e-3)")
        return ok, detail
    _run(acceptance_report, 3, check)


def test_criterion_04_offline_only_pressure_blowup(acceptance_report,
                                                   p1p1_offline,
                                                   stokes_truth):
    def check():
        system, model, _, _ = p1p1_offline
        _, p_i = _point_errors(system, model, stokes_truth, (0.6, 2.0))
        _, p_iii = _point_errors(system, with_option(model, "iii"),
                                 stokes_truth, (0.6, 2.0))
        ratio = p_iii / p_i
        ok = ratio >= 10.0
        detail = (f"mu=(0.6,2): pressure err iii/i = {p_iii:.2e}/{p_i:.2e} "
                  f"= {ratio:.1f}x (need >=10x)")
        return ok, detail
    _run(acceptance_report, 4, check)


def test_criterion_05_supremizer_pressure_benefit(acceptance_report,
                                                  p1p1_offline):
    def check():
        system, model, _, _ = p1p1_offline
        cfg = system.config
        points = draw_test_parameters(cfg.mu1_range, cfg.mu2_range, 50,
                                      SEED + 1,
                                      exclude=[tuple(m) for m in model.mus])
        plain = with_option(model, "ii")
        ratios_p, ratios_u = [], []
        for mu in points:
            truth = system.solve(mu)
            eu_i, ep_i = _point_errors(system, model, truth, mu)
            eu_ii, ep_ii = _point_errors(system, plain, truth, mu)
            ratios_p.append(ep_ii / ep_i)
            ratios_u.append(eu_ii / eu_i)
        med_p = statistics.median(ratios_p)
        med_u = statistics.median(ratios_u)
        ok = med_p >= 3.0 and 0.3 <= med_u <= 3.0
        detail = (f"median over 50 points: pressure ii/i = {med_p:.1f}x "
                  f"(need >=3), velocity ii/i = {med_u:.2f} "
                  f"(need in [0.3, 3])")
        return ok, detail
    _run(acceptance_report, 5, check)


def test_criterion_06_equal_order_parity(acceptance_report,
                                         p2p2_offline_d005,
                                         p2p2_offline_d05):
    def check():
        n_values = (4, 8, 12, 16, 20)
        means = {}
        for delta, bundle in ((0.05, p2p2_offline_d005),
                              (0.5, p2p2_offline_d05)):
            system, model, _, _ = bundle
            report = error_sweep(system, model, SEED, test_size=50,
                                 options=("i", "ii"), n_values=n_values)
            means[delta] = _mean_errors(report.rows)
        bad = []
        for delta in (0.05, 0.5):
            for n in n_values:
                r = (means[delta][(n, "i", "pressure")]
                     / means[delta][(n, "ii", "pressure")])
                if not 0.1 <= r <= 10.0:
                    bad.append(f"delta={delta} N={n} i/ii={r:.3f}")
        for opt in ("i", "ii"):
            r = (means[0.05][(20, opt, "pressure")]
                 / means[0.5][(20, opt, "pressure")])
            if not 0.1 <= r <= 10.0:
                bad.append(f"option {opt} cross-delta {r:.3f}")
        ok = not bad
        if ok:
            detail = ("P2P2 pressure errors of i and ii within 10x at "
                      "N in {4..20} for delta 0.05 and 0.5, stable "
                      "across delta")
        else:
            detail = ("pressure errors of i and ii differ by more than "
                      "10x: " + "; ".join(bad))
        return ok, detail
    _run(acceptance_report, 6, check)


def test_criterion_07_edge_jump_pressure(acceptance_report, p1p0_offline):
    def check():
        system, model, _, _ = p1p0_offline
        report = error_sweep(system, model, SEED, test_size=50,
                             options=("i", "ii"), n_values=[model.n_u])
        means = _mean_errors(report.rows)
        p_i = means[(model.n_u, "i", "pressure")]
        p_ii = means[(model.n_u, "ii", "pressure")]
        ratio = p_i / p_ii
        ok = p_ii <= 1e-2 and ratio <= 10.0
        detail = (f"P1P0 N={model.n_u}: option ii pressure err {p_ii:.2e} "
                  f"(need <=1e-2); i/ii = {ratio:.3f} (need <=10; "
                  f"enrichment gains {p_ii / p_i:.1f}x)")
        return ok, detail
    _run(acceptance_report, 7, check)


def test_criterion_08_taylor_hood_needs_supremizer(acceptance_report,
                                                   p2p1_offline):
    def check():
        system, model, _, _ = p2p1_offline
        report = error_sweep(system, model, SEED, test_size=50,
                             options=("i", "ii"), n_values=[model.n_u])
        means = _mean_errors(report.rows)
        ratio = (means[(model.n_u, "ii", "pressure")]
                 / means[(model.n_u, "i", "pressure")])
        betas = {}
        for mu1, mu2, opt, beta, _ in infsup_profile(model, 5,
                                                     options=("i", "ii")):
            betas.setdefault((mu1, mu2), {})[opt] = beta
        margin = min(b["i"] - b["ii"] for b in betas.values())
        ok = ratio >= 10.0 and margin > 0.0
        detail = (f"P2P1 N={model.n_u}: pressure err without/with "
                  f"supremizers = {ratio:.0f}x (need >=10x); "
                  f"min over 5x5 grid of beta_i - beta_ii = {margin:.3f} "
                  f"(need >0)")
        return ok, detail
    _run(acceptance_report, 8, check)


def test_criterion_09_navier_stokes_protocol(acceptance_report, ns_offline):
    def check():
        system, model, _, offline_s = ns_offline
        t0 = time.perf_counter()
        mu = (120.0, 2.0)
        truth = system.solve(mu)
        newton_its = truth.diagnostics["iterations"]

        repro = error_sweep(system, model, SEED,
                            test_points=[tuple(m) for m in model.mus],
                            n_values=[model.n_u], options=("i", "ii"))
        worst_repro = max(row[5] for row in repro.rows)

        errs = {opt: _point_errors(system, with_option(model, opt),
                                   truth, mu)
                for opt in ("i", "ii", "iii")}
        held_out = max(max(errs[opt]) for opt in ("i", "ii"))
        p_ratio = errs["iii"][1] / errs["i"][1]
        u_ratio = errs["ii"][0] / errs["i"][0]
        elapsed = offline_s + time.perf_counter() - t0
        ok = (newton_its <= 10 and worst_repro <= 1e-6
              and not repro.failures and held_out <= 1e-3
              and p_ratio >= 10.0 and u_ratio <= 3.0
              and elapsed <= 1800.0)
        detail = (f"Newton {newton_its} its (<=10); training repro "
                  f"{worst_repro:.1e} (<=1e-6); held-out i/ii errs "
                  f"{held_out:.1e} (<=1e-3); pressure iii/i "
                  f"{p_ratio:.0f}x (>=10); velocity ii/i {u_ratio:.2f} "
                  f"(<=3); {elapsed:.0f}s of 1800s")
        return ok, detail
    _run(acceptance_report, 9, check)


def test_criterion_10_modified_infsup_positivity(acceptance_report,
                                                 p1p1_offline,
                                                 p2p2_offline_d005):
    def check():
        stats = {}
        for name, bundle in (("P1P1", p1p1_offline),
                             ("P2P2", p2p2_offline_d005)):
            rows = infsup_profile(bundle[1], 5, options=("i", "ii", "iv"))
            per_mu = {}
            for mu1, mu2, opt, beta, beta_mod in rows:
                per_mu.setdefault((mu1, mu2), {})[opt] = (beta, beta_mod)
            min_mod = min(min(d["i"][1], d["ii"][1])
                          for d in per_mu.values())
            iv_below = all(d["iv"][0] < d["i"][0] for d in per_mu.values())
            max_iv = max(d["iv"][0] for d in per_mu.values())
            stats[name] = (min_mod, iv_below, max_iv)
        ok = all(m >= 1e-6 and below for m, below, _ in stats.values())
        detail = ("; ".join(
            f"{name}: min modified beta(i,ii) = {m:.3f} (>=1e-6), "
            f"plain beta(iv) <= {mx:.1e} below beta(i) at all 25 points"
            f"{'' if below else ' VIOLATED'}"
            for name, (m, below, mx) in stats.items()))
        return ok, detail
    _run(acceptance_report, 10, check)


def test_criterion_11_projection_identities(acceptance_report, p1p1_offline):
    def check():
        system, model, _, _ = p1p1_offline
        rng = np.random.default_rng(SEED)
        zv, zp = model.z_velocity(), model.z_p
        ops = system.operators
        pairs = [("visc", model.visc, ops["visc"].terms, zv, zv),
                 ("b", model.b, ops["b"].terms, zp, zv),
                 ("spq", model.spq, ops.get("spq"), zp, zp),
                 ("suq", model.suq, ops.get("suq"), zp, zv)]
        worst_op = 0.0
        for _, reduced, full, left, right in pairs:
            if full is None:     # a block this stabilization does not have
                continue
            for (tag, red), (tag2, mat) in zip(reduced, full):
                assert tag == tag2
                for _ in range(20):
                    v = rng.standard_normal(right.shape[1])
                    direct = left.T @ (mat @ (right @ v))
                    gap = np.linalg.norm(red @ v - direct)
                    worst_op = max(worst_op,
                                   gap / (1.0 + np.linalg.norm(direct)))
        sup_op = SupremizerOperator(system)
        xu, free = system.gram_velocity, system.free
        bt = ops["b"].evaluate(system.config.geometry(), (0.6, 2.0)).T
        worst_sup = 0.0
        for _ in range(20):
            q = zp @ rng.standard_normal(zp.shape[1])
            s = sup_op.solve(q, (0.6, 2.0))
            lhs, rhs = (xu @ s)[free], (bt @ q)[free]
            worst_sup = max(worst_sup, np.linalg.norm(lhs - rhs)
                            / np.linalg.norm(rhs))
        ok = worst_op <= 1e-10 and worst_sup <= 1e-9
        detail = (f"projection identity residual {worst_op:.1e} "
                  f"(<=1e-10, 20 vectors per operator); supremizer "
                  f"identity {worst_sup:.1e} (<=1e-9)")
        return ok, detail
    _run(acceptance_report, 11, check)


STOKES_CFG = """\
problem = stokes
fe_pair = P1P1
stabilization.method = BrezziPitkaranta
stabilization.delta = 0.05
n_max = 20
train_size = 100
test_size = 50
mesh.nx = 32
mesh.ny = 16
seed = 42
"""

NS_CFG = """\
problem = navier_stokes
fe_pair = P2P2
stabilization.method = SUPGFamily
stabilization.delta = 1.0
n_max = 16
train_size = 64
test_size = 50
mesh.nx = 32
mesh.ny = 16
seed = 42
"""


def test_criterion_12_byte_determinism(acceptance_report, tmp_path):
    def check():
        cfg_st = tmp_path / "stokes.cfg"
        cfg_st.write_text(STOKES_CFG)
        cfg_ns = tmp_path / "ns.cfg"
        cfg_ns.write_text(NS_CFG)

        mismatches = []

        def compare(label, paths):
            blobs = [p.read_bytes() for p in paths]
            if any(b != blobs[0] for b in blobs[1:]):
                mismatches.append(label)

        st_dirs = []
        for name, threads in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / "st" / name
            os.makedirs(out)
            assert main(["offline", "--config", str(cfg_st),
                         "--out", str(out), "--threads", str(threads)]) == 0
            assert main(["sweep", "--config", str(cfg_st),
                         "--out", str(out),
                         "--model", str(out / "model.rbm"),
                         "--threads", str(threads)]) == 0
            st_dirs.append(out)
        for artifact in ("trace.csv", "errors.csv", "model.rbm"):
            compare(f"stokes {artifact}",
                    [d / artifact for d in st_dirs])

        ns_dirs = []
        for name, threads in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / "ns" / name
            os.makedirs(out)
            assert main(["offline", "--config", str(cfg_ns),
                         "--out", str(out), "--threads", str(threads)]) == 0
            ns_dirs.append(out)
        for artifact in ("trace.csv", "model.rbm"):
            compare(f"ns {artifact}", [d / artifact for d in ns_dirs])

        model, _ = load_model(ns_dirs[0] / "model.rbm")
        stab = StabilizationConfig(method=model.method, delta=model.delta,
                                   rho=model.rho)
        system = FlowSystem(ProblemConfig(problem=model.problem,
                                          fe_pair=model.fe_pair,
                                          stabilization=stab),
                            model.nx, model.ny)
        repro_files = []
        for name, threads in (("a", 1), ("b", 1), ("c", 8)):
            report = error_sweep(system, model, SEED,
                                 test_points=[tuple(m) for m in model.mus],
                                 n_values=[model.n_u], options=("i", "ii"),
                                 threads=threads)
            path = tmp_path / f"ns_repro_{name}.csv"
            write_csv(path, SWEEP_HEADER, report.rows)
            repro_files.append(path)
        compare("ns reproduction errors.csv", repro_files)

        ok = not mismatches
        detail = ("offline/sweep CSVs and model files byte-identical "
                  "across repeat runs and threads 1 vs 8 (Stokes and "
                  "Navier-Stokes)" if ok
                  else "byte mismatch in: " + ", ".join(mismatches))
        return ok, detail
    _run(acceptance_report, 12, check)
