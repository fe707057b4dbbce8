"""The benchmark's output checks reject corrupted outputs; the tracer
restores what it wraps and accounts self time; the harness refuses a
directory without the package source.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cavityrb import rb
from cavityrb.assembly import StabilizationConfig
from cavityrb.hifi import FlowSystem, ProblemConfig

import checks
import run
import tracing

MU = (0.4, 2.2)


@pytest.fixture(scope="module")
def small():
    config = ProblemConfig(problem="stokes", fe_pair="P1P1",
                           stabilization=StabilizationConfig(
                               method="BrezziPitkaranta", delta=0.05))
    system = FlowSystem(config, 8, 4)
    model, _ = rb.greedy_offline(system, 4, 9, 3)
    return system, model


def test_fe_equations_accepts_solution_rejects_perturbations(small):
    system, _ = small
    sol = system.solve(MU)
    u, p = sol.velocity.values, sol.pressure.values
    bad, worst = checks.fe_equations(system, MU, u, p, "truth")
    assert bad == [] and worst < 1e-12
    u_bad = u.copy()
    u_bad[system.free[0]] += 1e-6
    bad, _ = checks.fe_equations(system, MU, u_bad, p, "truth")
    assert any("FE residual" in b for b in bad)
    bad, _ = checks.fe_equations(system, MU, u, p + 1e-6, "truth")
    assert any("pressure mean" in b for b in bad)


def test_galerkin_accepts_reduced_solution_rejects_perturbed(small):
    system, model = small
    for opt in ("i", "ii"):
        view = rb.with_option(model, opt)
        u, p, _ = rb.solve_reduced(view, MU)
        assert checks.galerkin(system, view, MU, u, p)[0] == []
        bad, _ = checks.galerkin(system, view, MU, u * (1 + 1e-6), p)
        assert len(bad) == 1
        bad, _ = checks.galerkin(system, view, MU, u, p + 1e-6)
        assert len(bad) == 1


def test_reproduction_rejects_corrupted_snapshot(small):
    system, model = small
    assert checks.reproduction(system, model)[0] == []
    p_snaps = model.p_snaps.copy()
    p_snaps[:, 1] *= 1.001
    bad, worst = checks.reproduction(
        system, dataclasses.replace(model, p_snaps=p_snaps))
    assert len(bad) == 2 and worst > 1e-4     # options i and ii, snapshot 1


def _rows(p_i, p_iii, n=4):
    return [(n, opt, "pressure", "L2", err, err, 5, 0)
            for opt, err in (("i", p_i), ("ii", 2 * p_i), ("iii", p_iii))]


def test_paper_findings_rejects_small_gap_and_lost_stability():
    good_infsup = [(0.5, 2.0, "i", 0.1, 0.2), (0.5, 2.0, "ii", 0.0, 0.1),
                   (0.5, 2.0, "iv", 0.0, 0.0)]
    assert checks.paper_findings(_rows(1e-4, 1e-2), good_infsup, 4)[0] == []
    bad, (gap, _) = checks.paper_findings(_rows(1e-4, 5e-4), good_infsup, 4)
    assert len(bad) == 1 and gap == pytest.approx(5.0)
    lost = good_infsup + [(0.7, 3.0, "ii", 0.0, 1e-9)]
    bad, (_, beta) = checks.paper_findings(_rows(1e-4, 1e-2), lost, 4)
    assert len(bad) == 1 and beta == 1e-9


def test_roundtrip_rejects_one_ulp(small, tmp_path):
    _, model = small
    path = os.path.join(tmp_path, "m.rbm")
    rb.save_model(model, path)
    loaded, _ = rb.load_model(path)
    assert checks.roundtrip(model, loaded, [MU]) == ([], 0)
    # the largest right-hand-side entry: a velocity row of every option
    fvisc = [(tag, f.copy()) for tag, f in loaded.fvisc]
    q = max(range(len(fvisc)), key=lambda k: np.abs(fvisc[k][1]).max())
    f = fvisc[q][1]
    j = int(np.argmax(np.abs(f)))
    f[j] = np.nextafter(f[j], np.inf)
    nudged = dataclasses.replace(loaded, fvisc=fvisc)
    bad, count = checks.roundtrip(model, nudged, [MU])
    assert count == 3 and len(bad) == 3


def test_tracer_restores_wrapped_functions_and_counts_self_time(small):
    system, model = small
    before = (rb.solve_reduced, FlowSystem.residual)
    with tracing.Tracer() as tracer:
        assert rb.solve_reduced is not before[0]
        rb.fe_indicator(system, model, MU)
    assert (rb.solve_reduced, FlowSystem.residual) == before
    layers = tracer.layers()
    assert layers["rb.indicator"]["count"] == 1
    assert layers["rb.solve_reduced"]["count"] == 1
    # residual_reference calls residual: two residual spans in all
    assert layers["hifi.residual"]["count"] == 2
    total = layers["rb.indicator"]["total_s"]
    self_sum = sum(agg["self_s"] for agg in layers.values())
    assert self_sum == pytest.approx(total, rel=1e-9)
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["assembly.convection_count"]["value"] == 0


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer(traced=())

    def inner():
        time.sleep(0.02)

    def outer():
        wrapped_inner()
        time.sleep(0.01)

    wrapped_inner = tracer._wrap(inner, "rb.build")
    tracer._wrap(outer, "rb.truncate")()
    layers = tracer.layers()
    assert layers["rb.build"]["self_s"] >= 0.02
    assert 0.01 <= layers["rb.truncate"]["self_s"] < 0.02
    assert layers["rb.truncate"]["total_s"] >= 0.03


def test_run_refuses_a_directory_without_the_source(tmp_path):
    out = subprocess.run([sys.executable, run.__file__,
                          "--workload", "online-p1p1",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2 and out.stdout == ""
