"""Reduced-basis offline/online checks on deliberately small meshes."""

import dataclasses
import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from cavityrb import rb
from cavityrb.assembly import AffineOperator, StabilizationConfig
from cavityrb.cli import main
from cavityrb.hifi import (PROBLEMS, QUADRATIC_TERMS, SADDLE_BLOCKS, FeSolution,
                           FlowSystem, ProblemConfig)
from cavityrb.linalg import RCOND_TOL
from cavityrb.rb import (_AXES, _LIFTING_RHS, OPTIONS, RB_NEWTON_TOL,
                         GreedyTrace, ReducedModel, SupremizerOperator,
                         _anchor, _map_axes,
                         build_reduced_model, fe_indicator, greedy_offline,
                         held_out_parameters, infsup_constants, load_model,
                         reconstruct, save_model,
                         solve_reduced, training_grid, truncate_model,
                         with_option)
from cavityrb.util import NonConvergenceError, SingularSystemError
from oracles import direct_newton

SEED = 7
MU = (0.61, 2.3)


@pytest.fixture(scope="module")
def stokes_rb():
    cfg = ProblemConfig("stokes", "P1P1",
                        StabilizationConfig("BrezziPitkaranta", 0.05))
    system = FlowSystem(cfg, 8, 4)
    model, trace = greedy_offline(system, n_max=4, train_size=16, seed=SEED)
    return system, model, trace


@pytest.fixture(scope="module")
def p2p2_rb():
    cfg = ProblemConfig("stokes", "P2P2",
                        StabilizationConfig("ResidualBased", 0.05))
    system = FlowSystem(cfg, 8, 4)
    model, trace = greedy_offline(system, n_max=3, train_size=9, seed=SEED)
    return system, model, trace


@pytest.fixture(scope="module")
def p2p2_rho_rb():
    # rho = 1 adds the momentum-row terms: the only setup with suv/spv
    cfg = ProblemConfig("stokes", "P2P2",
                        StabilizationConfig("ResidualBased", 0.05, 1.0))
    system = FlowSystem(cfg, 8, 4)
    model, trace = greedy_offline(system, n_max=3, train_size=9, seed=SEED)
    return system, model, trace


@pytest.fixture(scope="module")
def p1p0_rb():
    cfg = ProblemConfig("stokes", "P1P0",
                        StabilizationConfig("EdgeJumpP1P0", 0.05))
    system = FlowSystem(cfg, 8, 4)
    model, trace = greedy_offline(system, n_max=3, train_size=9, seed=SEED)
    return system, model, trace


@pytest.fixture(scope="module")
def ns_rb():
    cfg = ProblemConfig("navier_stokes", "P2P2",
                        StabilizationConfig("SUPGFamily", 1.0))
    system = FlowSystem(cfg, 8, 4)
    model, trace = greedy_offline(system, n_max=3, train_size=9, seed=SEED)
    return system, model, trace


# ---------------------------------------------------------------------------
# training sets


def test_training_grid_is_deterministic_and_inside_box():
    pts = training_grid((0.25, 0.75), (1.0, 3.0), 16, 42)
    again = training_grid((0.25, 0.75), (1.0, 3.0), 16, 42)
    assert pts == again
    assert len(set(pts)) == 16
    for m1, m2 in pts:
        assert 0.25 <= m1 <= 0.75 and 1.0 <= m2 <= 3.0
    assert training_grid((0.25, 0.75), (1.0, 3.0), 16, 1) != pts


def test_test_parameters_exclude_and_reproduce():
    train = training_grid((0.25, 0.75), (1.0, 3.0), 9, 5)
    test = held_out_parameters((0.25, 0.75), (1.0, 3.0), 20, 6,
                               exclude=train)
    assert len(test) == 20
    assert not set(test) & set(train)
    assert test == held_out_parameters((0.25, 0.75), (1.0, 3.0), 20, 6,
                                       exclude=train)


# ---------------------------------------------------------------------------
# greedy construction


def test_greedy_trace_structure(stokes_rb):
    _, model, trace = stokes_rb
    assert isinstance(trace, GreedyTrace)
    assert trace.train_size == 16 and trace.seed == SEED
    assert [r[0] for r in trace.rows] == [1, 2, 3, 4]
    assert trace.rows[0][1:3] == (0.5, 2.0)      # box center first
    assert trace.rows[0][3] == 1.0
    mus = [tuple(r[1:3]) for r in trace.rows]
    assert len(set(mus)) == 4
    assert np.allclose(model.mus, np.asarray(mus))
    # indicators recorded at selection time shrink as the basis grows
    inds = [r[3] for r in trace.rows[1:]]
    assert all(i > 1e-8 for i in inds)


def _check_every_pick(system, model, trace):
    """Each greedy pick is the argmax over the training set of the
    worse ``fe_indicator`` of the options that keep the stabilization,
    on the model of the snapshots before it, and the trace records it."""
    cfg = system.config
    train = training_grid(cfg.mu1_range, cfg.mu2_range, trace.train_size,
                          trace.seed)
    for n in range(1, len(trace.rows)):
        views = [with_option(_prefix_rebuild(system, model, n), opt)
                 for opt in ("i", "ii")]
        worst = [max(fe_indicator(system, v, mu) for v in views)
                 for mu in train]
        k = int(np.argmax(worst))
        assert trace.rows[n][1:3] == tuple(train[k]), n
        assert trace.rows[n][3] == pytest.approx(worst[k], rel=1e-12), n


def test_greedy_indicator_covers_options_i_and_ii(stokes_rb):
    # one model serves both stabilized online options, so each pick is
    # the training point where the worse of the two residuals is largest
    _check_every_pick(*stokes_rb)


def test_greedy_indicator_covers_options_i_and_ii_navier_stokes(ns_rb):
    _check_every_pick(*ns_rb)


def test_greedy_stops_before_a_step_without_supremizers(capsys):
    # 4x2 P1P1 has 6 free velocity dofs: at step 6 the velocity basis
    # spans them all and every supremizer is dropped, so the greedy
    # returns the step-5 model, which still serves option i
    cfg = ProblemConfig("stokes", "P1P1",
                        StabilizationConfig("BrezziPitkaranta", 0.05))
    system = FlowSystem(cfg, 4, 2)
    model, trace = greedy_offline(system, n_max=12, train_size=25, seed=42)
    assert "greedy stopped at n=5" in capsys.readouterr().err
    assert len(trace.rows) == len(model.mus) == model.n_u == 5
    assert model.n_s >= 1
    solve_reduced(with_option(model, "i"), MU)


def test_greedy_rejects_bad_budget(stokes_rb):
    system, _, _ = stokes_rb
    with pytest.raises(ValueError):
        greedy_offline(system, n_max=0, train_size=4, seed=1)


def test_greedy_frees_earlier_reference_cycles(stokes_rb):
    # an unreachable cycle that a full collection has already aged into
    # the oldest generation, as a wrapper of a FlowSystem's solve left by
    # an earlier stage would be; the offline stage must free it first
    class Node:
        pass

    node = Node()
    node.self, node.payload = node, np.zeros(1000)
    alive = weakref.ref(node)
    gc.collect()
    del node
    assert alive() is not None
    system, _, _ = stokes_rb
    greedy_offline(system, n_max=1, train_size=4, seed=1)
    assert alive() is None


def test_basis_blocks_are_orthonormal(stokes_rb):
    system, model, _ = stokes_rb
    xu = system.gram_velocity
    xp = system.gram_pressure
    gram_u = model.z_u.T @ (xu @ model.z_u)
    gram_s = model.z_s.T @ (xu @ model.z_s)
    cross = model.z_u.T @ (xu @ model.z_s)
    gram_p = model.z_p.T @ (xp @ model.z_p)
    assert np.abs(gram_u - np.eye(model.n_u)).max() < 1e-10
    assert np.abs(gram_s - np.eye(model.n_s)).max() < 1e-10
    assert np.abs(cross).max() < 1e-10
    assert np.abs(gram_p - np.eye(model.n_p)).max() < 1e-10
    assert np.abs(model.xu - np.eye(model.n_vel)).max() < 1e-10
    assert np.abs(model.xp - np.eye(model.n_p)).max() < 1e-10


def test_supremizer_satisfies_riesz_identity(stokes_rb):
    system, _, _ = stokes_rb
    op = SupremizerOperator(system)
    rng = np.random.default_rng(3)
    mu = (0.4, 1.9)
    b_mu = system.operators["b"].evaluate(system.geometry, mu)
    for _ in range(5):
        q = rng.standard_normal(system.n_pressure)
        s = op.solve(q, mu)
        diri = system.velocity_space.dirichlet_dofs()
        assert np.abs(s[diri]).max() == 0.0
        lhs = (system.gram_velocity @ s)[system.free]
        rhs = (b_mu.T @ q)[system.free]
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_projected_operators_match_direct_projection(stokes_rb):
    system, model, _ = stokes_rb
    zv = model.z_velocity()
    for (tag, red), (tag2, full) in zip(model.visc,
                                        system.operators["visc"].terms):
        assert tag == tag2
        assert np.abs(red - zv.T @ (full @ zv)).max() < 1e-12
    for (tag, red), (tag2, full) in zip(model.b,
                                        system.operators["b"].terms):
        assert tag == tag2
        assert np.abs(red - model.z_p.T @ (full @ zv)).max() < 1e-12
    for (tag, red), (tag2, full) in zip(model.spq,
                                        system.operators["spq"].terms):
        assert tag == tag2
        assert np.abs(red - model.z_p.T @ (full @ model.z_p)).max() < 1e-12


def test_reduced_reproduces_training_snapshots(stokes_rb):
    system, model, _ = stokes_rb
    xu = system.gram_velocity
    xp = system.gram_pressure
    for k, mu in enumerate(model.mus):
        u, p, _ = solve_reduced(model, mu)
        sol = reconstruct(model, system, u, p, mu)
        du = sol.velocity.values - model.u_snaps[:, k]
        dp = sol.pressure.values - model.p_snaps[:, k]
        nu = np.sqrt(du @ (xu @ du)) \
            / np.sqrt(model.u_snaps[:, k] @ (xu @ model.u_snaps[:, k]))
        npr = np.sqrt(dp @ (xp @ dp)) \
            / np.sqrt(model.p_snaps[:, k] @ (xp @ model.p_snaps[:, k]))
        assert nu <= 1e-8 and npr <= 1e-8
        assert fe_indicator(system, model, mu) <= 1e-8


def test_single_snapshot_model_reproduces_center(stokes_rb):
    system, _, _ = stokes_rb
    model, trace = greedy_offline(system, n_max=1, train_size=4, seed=1)
    assert model.n_u == 1 and len(trace.rows) == 1
    assert fe_indicator(system, model, (0.5, 2.0)) <= 1e-8


def _prefix_rebuild(system, model, n):
    """Reference: build_reduced_model on the first n snapshots, with the
    supremizers solved again at full order."""
    sup = SupremizerOperator(system)
    s = np.column_stack([sup.solve(model.p_snaps[:, k], tuple(model.mus[k]))
                         for k in range(n)])
    return build_reduced_model(system, model.mus[:n], model.u_snaps[:, :n],
                               model.p_snaps[:, :n], s,
                               model.indicators[:n], model.seed)


def _model_with_repeat(system):
    # the second snapshot repeats the first, so it is dropped
    mus = [(0.5, 2.0), (0.5, 2.0), (0.3, 1.2), (0.7, 2.8)]
    sols = [system.solve(mu) for mu in mus]
    u = np.column_stack([sol.velocity.values for sol in sols])
    p = np.column_stack([sol.pressure.values for sol in sols])
    sup = SupremizerOperator(system)
    s = np.column_stack([sup.solve(p[:, k], mu) for k, mu in enumerate(mus)])
    return build_reduced_model(system, np.array(mus), u, p, s,
                               np.ones(len(mus)), seed=1)


def test_near_dependent_snapshots_are_dropped(stokes_rb, capsys):
    system, _, _ = stokes_rb
    model = _model_with_repeat(system)
    assert model.n_u == 3 and model.n_p == 3
    assert "kept 3 of 4" in capsys.readouterr().err
    assert model.sizes.tolist() == [[1, 1], [1, 1], [2, 2], [3, 3]]


# ---------------------------------------------------------------------------
# options


def test_option_slicing_semantics(stokes_rb):
    _, model, _ = stokes_rb
    assert model.option == "i" and model.n_s > 0 and model.stab_online
    m2 = with_option(model, "ii")
    assert m2.n_s == 0 and m2.stab_online
    assert m2.z_velocity().shape[1] == m2.n_u
    assert np.array_equal(m2.z_u, model.z_u)
    m3 = with_option(model, "iii")
    assert m3.n_s == model.n_s and not m3.stab_online
    m4 = with_option(model, "iv")
    assert m4.n_s == 0 and not m4.stab_online
    with pytest.raises(ValueError):
        with_option(model, "v")
    # a view slices nothing: it shares every array and the operator
    for view in (m2, m3, m4):
        assert view.saddle is model.saddle
        assert all(getattr(view, name) is getattr(model, name)
                   for name in _AXES)
    # a model that stores no supremizers cannot serve options i/iii
    plain = _without_supremizers(model)
    for opt in ("i", "iii"):
        with pytest.raises(ValueError, match="supremizers"):
            with_option(plain, opt)


def _without_supremizers(model):
    """The model with its velocity axes cut to the velocity basis."""
    return dataclasses.replace(model, **_map_axes(model, {"v": model.n_u}))


def test_stripped_operators_are_leading_blocks(stokes_rb):
    # options ii and iv solve exactly the leading n_u + n_p block of the
    # enriched system: the same bits as a model that never stored the
    # supremizers
    _, model, _ = stokes_rb
    plain = _without_supremizers(model)
    size = model.n_u + model.n_p
    geom = model.geometry()
    for keep in (True, False):
        k, f, n = model.saddle.evaluate(geom, MU, size, keep)
        k0, f0, n0 = plain.saddle.evaluate(geom, MU, size, keep)
        assert np.array_equal(k, k0) and np.array_equal(f, f0)
        assert n is None and n0 is None
    for opt in ("ii", "iv"):
        got = solve_reduced(with_option(model, opt), MU)
        want = solve_reduced(with_option(plain, opt), MU)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[0].shape == (model.n_u,)


def _same_arrays(a, b):
    for name in _AXES:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if isinstance(x, AffineOperator):
            assert [t for t, _ in x.terms] == [t for t, _ in y.terms], name
            assert all(np.array_equal(p, q) for (_, p), (_, q)
                       in zip(x.terms, y.terms)), name
        elif x is not None:
            assert np.array_equal(x, y), name


def test_views_switch_to_any_option_and_back(stokes_rb):
    _, model, _ = stokes_rb
    for first in OPTIONS:
        view = with_option(model, first)
        for opt in OPTIONS:
            again = with_option(view, opt)
            assert again.option == opt
            _same_arrays(again, with_option(model, opt))
        _same_arrays(with_option(with_option(view, "ii"), first), view)


def test_truncate_is_prefix_consistent(stokes_rb):
    _, model, _ = stokes_rb
    same = truncate_model(model, model.u_snaps.shape[1])
    _same_arrays(same, model)
    small = truncate_model(model, 2)
    assert small.n_u == 2
    assert np.array_equal(small.z_u, model.z_u[:, :2])
    assert np.array_equal(small.mus, model.mus[:2])
    assert truncate_model(with_option(model, "ii"), 2).option == "ii"
    # Stokes takes one step from zero: no Newton starts are stored
    assert model.u_coords is None and model.p_coords is None
    with pytest.raises(ValueError):
        truncate_model(model, 0)
    with pytest.raises(ValueError):
        truncate_model(model, 99)


def _assert_close(x, ref, name, tol=1e-10):
    x, ref = np.asarray(x), np.asarray(ref)
    assert x.shape == ref.shape, name
    assert np.abs(x - ref).max() <= tol * max(np.abs(ref).max(), 1.0), name


@pytest.mark.parametrize("case", ["stokes", "navier_stokes", "repeat"])
def test_truncation_matches_prefix_rebuild(stokes_rb, ns_rb, case):
    # truncation works in reduced coordinates only; the reference
    # rebuilds from the prefix snapshots at full order
    system, model, _ = ns_rb if case == "navier_stokes" else stokes_rb
    if case == "repeat":
        model = _model_with_repeat(system)
    for n in range(1, len(model.mus)):
        small = truncate_model(model, n)
        ref = _prefix_rebuild(system, model, n)
        assert (small.n_u, small.n_s, small.n_p) == \
            (ref.n_u, ref.n_s, ref.n_p)
        assert (small.u_coords is None) == (case != "navier_stokes")
        for name in _AXES:
            x, y = getattr(small, name), getattr(ref, name)
            assert (x is None) == (y is None), name
            if isinstance(x, AffineOperator):
                for (tag, a), (tag2, b) in zip(x.terms, y.terms):
                    assert tag == tag2
                    _assert_close(a, b, name)
            elif x is not None:
                _assert_close(x, y, name)
        mu = tuple(model.mus[-1])
        for opt in ("i", "ii"):
            got = solve_reduced(with_option(small, opt), mu)
            want = solve_reduced(with_option(ref, opt), mu)
            _assert_close(got[0], want[0], f"velocity {opt}")
            _assert_close(got[1], want[1], f"pressure {opt}")


def test_offline_only_option_breaks_reproduction(stokes_rb):
    # dropping the stabilization online while the snapshots carry it is
    # a formulation mismatch: training-point pressures no longer match
    system, model, _ = stokes_rb
    m3 = with_option(model, "iii")
    mu = tuple(model.mus[0])
    u, p, _ = solve_reduced(m3, mu)
    sol = reconstruct(m3, system, u, p, mu)
    dp = sol.pressure.values - model.p_snaps[:, 0]
    xp = system.gram_pressure
    rel = np.sqrt(dp @ (xp @ dp)) \
        / np.sqrt(model.p_snaps[:, 0] @ (xp @ model.p_snaps[:, 0]))
    assert rel >= 1e-4


def test_fully_unstabilized_option_degrades_or_fails(stokes_rb):
    system, model, _ = stokes_rb
    m4 = with_option(model, "iv")
    mu = tuple(model.mus[0])
    try:
        u, p, _ = solve_reduced(m4, mu)
    except SingularSystemError:
        return
    sol = reconstruct(m4, system, u, p, mu)
    dp = sol.pressure.values - model.p_snaps[:, 0]
    xp = system.gram_pressure
    rel = np.sqrt(dp @ (xp @ dp)) \
        / np.sqrt(model.p_snaps[:, 0] @ (xp @ model.p_snaps[:, 0]))
    base = 1e-8      # option i reproduces to this level
    assert rel >= 10 * base


# ---------------------------------------------------------------------------
# the reduced system against its block-by-block assembly


def _block_solve(model, mu):
    """Reference solve from the named blocks, cut to the option's
    velocity size: the saddle [[A - Suv, B^T - Spv], [B - Suq, -Spq]]
    with right-hand side [fvisc + fstab, gplain + gstab], the
    stabilization terms only where the option keeps them, and for
    Navier-Stokes Newton on the block residual and Jacobian, started
    from that Stokes solution.  The Navier-Stokes blocks are the named
    arrays of the lifting expansion, read as slices of the tensors on
    [l | Z_v] (``_named_quadratic_arrays`` checks the slices)."""
    geom, n = model.geometry(), model.n_vel
    keep = model.stab_online

    def ev(name, cut=np.s_[...]):
        return getattr(model, name).evaluate(geom, mu)[cut]
    a, b = ev("visc", np.s_[:n, :n]), ev("b", np.s_[:, :n])
    bt, btilde, f, g = b.T, b, ev("fvisc", np.s_[:n]), ev("gplain")
    s = np.zeros((model.n_p, model.n_p))
    if keep:
        if model.suq is not None:
            btilde = btilde - ev("suq", np.s_[:, :n])
        s = ev("spq")
        if model.suv is not None:
            a = a - ev("suv", np.s_[:n, :n])
            bt = bt - ev("spv", np.s_[:n, :])
        if model.fstab is not None:
            f = f + ev("fstab", np.s_[:n])
        if model.gstab is not None:
            g = g + ev("gstab")
    x = np.linalg.solve(np.block([[a, bt], [btilde, -s]]),
                        np.concatenate([f, g]))
    if model.problem == "stokes":
        return x[:n], x[n:]
    z = np.s_[1:n + 1]                  # Z_v columns of [l | Z_v]
    t = ev("conv", np.s_[:n])
    a = a + t[:, 0, z] + t[:, z, 0]     # dconv
    f = f - t[:, 0, 0]                  # fconv
    conv = t[:, z, z]
    supg = keep and model.tn is not None
    if supg:
        t = ev("tn")
        tn, tll = t[:, z, z], t[:, 0, 0]
        tl = t[:, 0, z] + t[:, z, 0]    # tln + tzln

    def residual(u, p):
        r_u = a @ u + np.einsum("ijk,j,k->i", conv, u, u) + bt @ p - f
        r_p = btilde @ u - s @ p - g
        if supg:
            r_p = r_p - (tll + tl @ u + np.einsum("kji,j,i->k", tn, u, u))
        return np.concatenate([r_u, r_p])

    def jacobian(u):
        j_uu = a + np.einsum("ijk,k->ij", conv, u) \
            + np.einsum("ijk,j->ik", conv, u)
        j_pu = btilde
        if supg:
            j_pu = j_pu - (tl + np.einsum("kji,j->ki", tn, u)
                           + np.einsum("kji,i->kj", tn, u))
        return np.block([[j_uu, bt], [j_pu, -s]])

    ref = np.linalg.norm(residual(np.zeros(n), np.zeros(model.n_p)))
    for _ in range(50):
        r = residual(x[:n], x[n:])
        if np.linalg.norm(r) <= 1e-10 * ref:
            return x[:n], x[n:]
        x = x + np.linalg.solve(jacobian(x[:n]), -r)
    raise NonConvergenceError("block Newton stalled", [])


def test_saddle_tables_name_model_arrays():
    # every name the saddle operator reads is a stored, sliceable array,
    # and the table's spaces are the axes it is stored with
    fields = {f.name for f in dataclasses.fields(ReducedModel)}
    for blk in SADDLE_BLOCKS:
        assert blk.name in fields
        axes = (blk.cols, blk.rows) if blk.transposed \
            else (blk.rows, blk.cols)
        assert _AXES[blk.name] == axes, blk.name
    for (rows, _), name in _LIFTING_RHS.items():
        assert name in fields and _AXES[name] == (rows,), name
    for term in QUADRATIC_TERMS:
        assert term.name in fields, term.name
        assert _AXES[term.name] == (term.rows, "w", "w"), term.name


def _named_quadratic_arrays(system, model):
    """The seven arrays of the lifting expansion of the quadratic terms,
    projected on the velocity basis Z alone: fconv = -Z^T C(l) l,
    dconv = Z^T (C(l) + C'(l)) Z, conv[:, j, :] = Z^T C(z_j) Z and the
    SUPG tll = Q^T T(l) l, tln = Q^T T(l) Z, tzln[:, j] = Q^T T(z_j) l,
    tn[:, j, :] = Q^T T(z_j) Z."""
    zv, zp, lvec = model.z_v, model.z_p, system.lifting.values
    conv = system.quadratic["conv"]
    cl, dl = conv.matrix(lvec), conv.transport_jacobian(lvec)
    out = {"fconv": AffineOperator([(tag, -(m @ lvec)) for tag, m in cl])
           .project_vector(zv),
           "dconv": AffineOperator([(tag, m1 + m2) for (tag, m1), (_, m2)
                                    in zip(cl.terms, dl.terms)])
           .project(zv, zv)}
    cz = [conv.matrix(zv[:, j]).project(zv, zv) for j in range(zv.shape[1])]
    out["conv"] = AffineOperator(
        [(tag, np.stack([c.terms[e][1] for c in cz], axis=1))
         for e, (tag, _) in enumerate(cl.terms)])

    def transport(w):
        (tag, m), = system.quadratic["tn"].transport(w).terms
        assert tag == "one"
        return m
    tl = transport(lvec)
    tz = [transport(zv[:, j]) for j in range(zv.shape[1])]
    out["tll"] = zp.T @ (tl @ lvec)
    out["tln"] = zp.T @ (tl @ zv)
    out["tzln"] = np.column_stack([zp.T @ (t @ lvec) for t in tz])
    out["tn"] = np.stack([zp.T @ (t @ zv) for t in tz], axis=1)
    return out


def test_quadratic_tensors_slice_into_the_named_arrays(ns_rb):
    # each quadratic term is stored once, as a tensor on [l | Z_v]; its
    # slices are the seven arrays the lifting expansion used to store
    system, model, _ = ns_rb
    named = _named_quadratic_arrays(system, model)

    def close(x, ref, name):
        assert x.shape == ref.shape, name
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max(), name
    for e, (tag, t) in enumerate(model.conv):
        for name, part in (("fconv", -t[:, 0, 0]),
                           ("dconv", t[:, 0, 1:] + t[:, 1:, 0]),
                           ("conv", t[:, 1:, 1:])):
            assert named[name].terms[e][0] == tag
            close(part, named[name].terms[e][1], name)
    (tag, t), = model.tn
    assert tag == "one"
    for name, part in (("tll", t[:, 0, 0]), ("tln", t[:, 0, 1:]),
                       ("tzln", t[:, 1:, 0]), ("tn", t[:, 1:, 1:])):
        close(part, named[name], name)


def _tensor_oracle(q, z, w):
    """T[i, j, k] = (z_i, Q(w_j) w_k) per tag, one assembled Q(w_j) and
    one projection per column of w."""
    cols = [q(w[:, j]).project(z, w) for j in range(w.shape[1])]
    return [(tag, np.stack([c.terms[e][1] for c in cols], axis=1))
            for e, (tag, _) in enumerate(cols[0].terms)]


def test_quadratic_tensors_match_projection_oracle(ns_rb):
    # the tensors contracted at quadrature points equal the projections
    # of the assembled matrices Q(w_j), w = [l | Z_v]
    system, model, _ = ns_rb
    w = np.column_stack([system.lifting.values, model.z_v])
    for name, q, z in (("conv", system.quadratic["conv"].matrix, model.z_v),
                       ("tn", system.quadratic["tn"].transport, model.z_p)):
        got = getattr(model, name)
        want = _tensor_oracle(q, z, w)
        assert [tag for tag, _ in got] == [tag for tag, _ in want], name
        for (_, t), (_, ref) in zip(got, want):
            assert t.shape == ref.shape, name
            assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max(), name


@pytest.mark.parametrize("case", ["stokes_rb", "p2p2_rho_rb", "p1p0_rb",
                                  "ns_rb"])
def test_solve_reduced_matches_block_assembly(case, request):
    system, model, _ = request.getfixturevalue(case)
    cfg = system.config
    rng = np.random.default_rng(5)
    mus = [tuple(model.mus[-1])] + [
        (rng.uniform(*cfg.mu1_range), rng.uniform(*cfg.mu2_range))
        for _ in range(3)]
    # Stokes agrees to round-off, Navier-Stokes to the Newton tolerance
    tol = 1e-8 if cfg.problem == "navier_stokes" else 1e-11
    for opt in OPTIONS:
        view = with_option(model, opt)
        for mu in mus:
            u, p, info = solve_reduced(view, mu)
            u0, p0 = _block_solve(view, mu)
            assert np.linalg.norm(u - u0) <= tol * np.linalg.norm(u0), opt
            assert np.linalg.norm(p - p0) <= tol * np.linalg.norm(p0), opt
            assert RCOND_TOL < info["rcond"] <= 1.0


@pytest.mark.parametrize("case", ["stokes_rb", "p2p2_rb", "p2p2_rho_rb",
                                  "p1p0_rb", "ns_rb"])
def test_reduced_solution_is_galerkin_for_its_full_order_system(case,
                                                                request):
    # options i/ii project the stabilized FE system, options iii/iv the
    # same configuration without stabilization, right-hand sides
    # included: the FE residual of the reconstructed reduced solution is
    # orthogonal to the option's bases
    system, model, _ = request.getfixturevalue(case)
    cfg = system.config
    plain = FlowSystem(
        dataclasses.replace(cfg, stabilization=StabilizationConfig()),
        system.mesh_nx, system.mesh_ny, mesh=system.mesh)
    rng = np.random.default_rng(9)
    mus = [tuple(model.mus[-1])] + [
        (rng.uniform(*cfg.mu1_range), rng.uniform(*cfg.mu2_range))
        for _ in range(2)]
    nf, npr = system.n_free, system.n_pressure
    solved = set()
    for opt in OPTIONS:
        view = with_option(model, opt)
        full = system if view.stab_online else plain
        zv, zp = view.z_velocity(), view.z_p
        for mu in mus:
            try:
                u, p, _ = solve_reduced(view, mu)
            except SingularSystemError:
                continue
            solved.add(opt)
            r = full.residual(mu, zv @ u, zp @ p)
            projected = np.concatenate([zv[full.free].T @ r[:nf],
                                        zp.T @ r[nf:nf + npr]])
            assert np.linalg.norm(projected) \
                <= 1e-9 * full.residual_reference(mu), (opt, mu)
    assert {"i", "ii", "iii"} <= solved


def _near_duplicate_pressure(model, eps):
    """The model with its second pressure basis column replaced by the
    first plus eps times the second; eps = 0 duplicates the first."""
    w = np.eye(model.n_p)
    w[:2, 1] = (1.0, eps)
    return dataclasses.replace(model, **_map_axes(model, {}, ("p", w)))


def _exact_rcond(view, mu):
    k, _, _ = view.saddle.evaluate(view.geometry(), mu,
                                   view.n_vel + view.n_p, view.stab_online)
    return 1.0 / (np.linalg.norm(k, 1) * np.linalg.norm(np.linalg.inv(k), 1))


@pytest.mark.parametrize("eps", [0.0, 3e-8])
def test_singular_reduced_system_raises_with_rcond(stokes_rb, eps):
    # a near-duplicate column perturbs a row and a column, so rcond
    # falls as eps^2: about 1e-16 to 4e-18 at eps = 3e-8
    _, model, _ = stokes_rb
    bad = _near_duplicate_pressure(model, eps)
    for opt in OPTIONS:
        view = with_option(bad, opt)
        if eps:
            assert 0.0 < _exact_rcond(view, MU) < RCOND_TOL
        with pytest.raises(SingularSystemError,
                           match=r"rcond \d\.\d{3}e[-+]\d+ \(floor 1e-15\)") \
                as err:
            solve_reduced(view, MU)
        assert f"option {opt} at mu={MU}" in str(err.value)


def _rational_rcond(view, mu):
    """_exact_rcond in exact rational arithmetic: the floating matrix's
    entries are binary fractions, so its inverse has no round-off."""
    k, _, _ = view.saddle.evaluate(view.geometry(), mu,
                                   view.n_vel + view.n_p, view.stab_online)
    n = len(k)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                       for j in range(n)]
         for i, row in enumerate(k.tolist())]
    for c in range(n):      # Gauss-Jordan, any nonzero pivot is exact
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]

    def norm1(m):
        return max(sum(abs(row[j]) for row in m) for j in range(n))
    inv = [row[n:] for row in a]
    return float(1 / (norm1([[Fraction(x) for x in row]
                             for row in k.tolist()]) * norm1(inv)))


def test_well_posed_reduced_solve_reports_rcond(stokes_rb):
    _, model, _ = stokes_rb
    for opt in OPTIONS:
        view = with_option(model, opt)
        rcond = solve_reduced(view, MU)[2]["rcond"]
        exact = _exact_rcond(view, MU)
        # gecon's estimate of ||K^-1|| is a lower bound, so rcond is
        # an upper bound up to the inverse's own error (kappa * eps)
        assert rcond > RCOND_TOL
        assert exact * (1 - 1e-6) <= rcond <= 10.0 * exact
    # the same construction at eps = 1e-5 reads rcond 3e-13 to 1e-11:
    # kappa * eps reaches 7e-4, so the estimate's round-off is checked
    # against the exact rational value, to kappa * eps relative
    near = _near_duplicate_pressure(model, 1e-5)
    for opt in OPTIONS:
        view = with_option(near, opt)
        rcond = solve_reduced(view, MU)[2]["rcond"]
        exact = _rational_rcond(view, MU)
        assert rcond > RCOND_TOL
        kappa_eps = np.finfo(float).eps / exact
        assert exact * (1 - kappa_eps) <= rcond <= 10.0 * exact


def test_online_on_singular_model_exits_3(stokes_rb, tmp_path, capsys):
    _, model, _ = stokes_rb
    path = tmp_path / "model.rbm"
    save_model(_near_duplicate_pressure(model, 0.0), path)
    code = main(["online", "--model", str(path), "--seed", "1",
                 "--mu1", str(MU[0]), "--mu2", str(MU[1]),
                 "--out", str(tmp_path)])
    assert code == 3
    assert "rcond" in capsys.readouterr().err
    assert not (tmp_path / "online.txt").exists()


# ---------------------------------------------------------------------------
# inf-sup diagnostics


def _toy_model(stokes_model, b_mat, xu, xp, spq=None, option="i"):
    # as many velocity and pressure columns as B has, so every block
    # agrees in shape with the toy ones
    n_p, n_v = np.shape(b_mat)
    toy = _map_axes(stokes_model, {"v": n_v, "p": n_p})
    toy.update(
        b=[("one", np.asarray(b_mat, dtype=float))],
        xu=np.asarray(xu, dtype=float), xp=np.asarray(xp, dtype=float),
        spq=None if spq is None else [("one", np.asarray(spq, dtype=float))])
    return dataclasses.replace(stokes_model, option=option, n_u=n_v, **toy)


@pytest.mark.parametrize("b_mat,xu,xp,beta", [
    (np.eye(2), np.eye(2), np.eye(2), 1.0),
    (np.diag([2.0, 0.5]), np.eye(2), np.eye(2), 0.5),
    (np.zeros((2, 3)), np.eye(3), np.eye(2), 0.0),
    # B Xu^-1 B^T = diag(4, 9) against Xp = diag(4, 9): unit ratio
    (np.diag([2.0, 3.0]), np.eye(2), np.diag([4.0, 9.0]), 1.0),
], ids=["identity", "diagonal", "zero", "gram_weighted"])
def test_infsup_constants_plain(stokes_rb, b_mat, xu, xp, beta):
    _, model, _ = stokes_rb
    toy = _toy_model(model, b_mat, xu, xp)
    # without S the modified constant is the plain one
    assert infsup_constants(toy, (0.5, 2.0)) \
        == pytest.approx((beta, beta), rel=1e-12, abs=1e-12)


def test_plain_infsup_hand_example(stokes_rb):
    # B Xu^-1 B^T = diag(4, 9) against Xp = diag(4, 9): unit ratio
    _, model, _ = stokes_rb
    toy = _toy_model(model, np.diag([2.0, 3.0]), np.eye(2),
                     np.diag([4.0, 9.0]))
    assert infsup_constants(toy, (0.5, 2.0)) \
        == pytest.approx((1.0, 1.0), rel=1e-12)


def test_modified_infsup_hand_examples(stokes_rb):
    _, model, _ = stokes_rb
    zero_b = np.zeros((2, 2))
    no_stab = _toy_model(model, zero_b, np.eye(2), np.eye(2),
                         spq=np.zeros((2, 2)))
    assert infsup_constants(no_stab, (0.5, 2.0)) \
        == pytest.approx((0.0, 0.0), abs=1e-14)
    stab_only = _toy_model(model, zero_b, np.eye(2), np.eye(2),
                           spq=np.diag([4.0, 9.0]))
    plain, modified = infsup_constants(stab_only, (0.5, 2.0))
    assert plain == pytest.approx(0.0, abs=1e-14)
    assert modified == pytest.approx(2.0, rel=1e-12)


def test_modified_dominates_plain(stokes_rb):
    _, model, _ = stokes_rb
    rng = np.random.default_rng(11)
    for _ in range(4):
        mu = (rng.uniform(0.25, 0.75), rng.uniform(1.0, 3.0))
        plain, modified = infsup_constants(model, mu)
        assert modified >= plain - 1e-12
    plain, modified = infsup_constants(with_option(model, "iii"), (0.5, 1.5))
    assert modified == pytest.approx(plain, rel=1e-8)


def test_supremizers_raise_the_plain_infsup(stokes_rb):
    _, model, _ = stokes_rb
    m2 = with_option(model, "ii")
    rng = np.random.default_rng(13)
    for _ in range(3):
        mu = (rng.uniform(0.25, 0.75), rng.uniform(1.0, 3.0))
        assert infsup_constants(model, mu)[0] > infsup_constants(m2, mu)[0]


# ---------------------------------------------------------------------------
# Navier-Stokes reduced solves


def test_ns_reduced_reproduces_training(ns_rb):
    system, model, _ = ns_rb
    for mu in map(tuple, model.mus):
        assert fe_indicator(system, model, mu) <= 1e-8


def test_ns_reduced_newton_diagnostics(ns_rb):
    # at a point between two snapshots: at a snapshot itself Newton
    # starts from the solution, and its residuals are round-off
    _, model, _ = ns_rb
    u, p, info = solve_reduced(model, tuple(0.5 * (model.mus[0]
                                                   + model.mus[1])))
    assert info["iterations"] <= 50
    hist = info["residuals"]
    assert hist[-1] < hist[0]
    assert len(hist) == info["iterations"] + 1
    assert RCOND_TOL < info["rcond"] <= 1.0
    assert u.shape == (model.n_vel,) and p.shape == (model.n_p,)


def test_ns_option_ii_still_accurate_at_training(ns_rb):
    system, model, _ = ns_rb
    m2 = with_option(model, "ii")
    mu = tuple(model.mus[1])
    u, p, _ = solve_reduced(m2, mu)
    sol = reconstruct(m2, system, u, p, mu)
    k = 1
    xu = system.gram_velocity
    du = sol.velocity.values - model.u_snaps[:, k]
    rel = np.sqrt(du @ (xu @ du)) \
        / np.sqrt(model.u_snaps[:, k] @ (xu @ model.u_snaps[:, k]))
    assert rel <= 1e-2


def _zero_start_newton(view, mu):
    """(u, p, steps) of reduced Newton from x = 0, whose first step is
    the Stokes solve, to the tolerance of ``solve_reduced``."""
    size = view.n_vel + view.n_p
    k, f, n = view.saddle.evaluate(view.geometry(), mu, size,
                                   view.stab_online)
    x, steps = np.zeros(size), 0
    while True:
        nx = n @ x
        r = f - (k + nx) @ x
        if steps and np.linalg.norm(r) <= RB_NEWTON_TOL * np.linalg.norm(f):
            n_u, n_p = view.n_u, view.n_p
            return (np.concatenate([x[:n_u], x[n_u + n_p:]]),
                    x[n_u:n_u + n_p], steps)
        x = x + np.linalg.solve(k + 2.0 * nx, r)
        steps += 1
        assert steps <= 50, f"zero-start Newton stalled at {mu}"


def _assert_same_solution(got, want):
    # both stop at RB_NEWTON_TOL, from different starts
    for a, b in zip(got[:2], want[:2]):
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


def test_snapshot_coordinates_reconstruct_the_snapshots(ns_rb):
    _, model, _ = ns_rb
    for coords, z, snaps in ((model.u_coords, model.z_v, model.u_snaps),
                             (model.p_coords, model.z_p, model.p_snaps)):
        assert coords.shape == (z.shape[1], len(model.mus))
        assert np.abs(z @ coords - snaps).max() \
            <= 1e-10 * np.abs(snaps).max()


def test_anchor_is_the_nearest_snapshot_in_the_scaled_box(ns_rb):
    # mu1 spans 100 and mu2 1.5: unscaled, the query (102, 3) lies
    # nearest to (103, 1.5); scaled to the box, nearest to (100, 3)
    _, model, _ = ns_rb
    assert len(model.mus) == 3
    forged = dataclasses.replace(
        model, mus=np.array([[103.0, 1.5], [100.0, 3.0], [200.0, 1.5]]))
    for opt in OPTIONS:
        view = with_option(forged, opt)
        size, n_u = view.n_vel + view.n_p, view.n_u
        want = np.concatenate([model.u_coords[:n_u, 1], model.p_coords[:, 1],
                               model.u_coords[n_u:, 1]])[:size]
        assert np.array_equal(_anchor(view, (102.0, 3.0), size), want)


def test_anchored_newton_matches_zero_start_in_fewer_steps(ns_rb):
    system, model, _ = ns_rb
    cfg = system.config
    rng = np.random.default_rng(11)
    mus = [(rng.uniform(*cfg.mu1_range), rng.uniform(*cfg.mu2_range))
           for _ in range(20)]
    for opt in ("i", "ii", "iii"):
        view = with_option(model, opt)
        steps, zero_steps = [], []
        for mu in mus:
            got = solve_reduced(view, mu)
            want = _zero_start_newton(view, mu)
            _assert_same_solution(got, want)
            steps.append(got[2]["iterations"])
            zero_steps.append(want[2])
        assert np.mean(steps) < np.mean(zero_steps), opt


def _far_anchors(model, value):
    return dataclasses.replace(
        model, u_coords=np.full_like(model.u_coords, value),
        p_coords=np.full_like(model.p_coords, value))


def test_far_anchor_falls_back_to_the_zero_start(ns_rb, monkeypatch):
    _, model, _ = ns_rb
    mu = (130.0, 2.2)
    want = _zero_start_newton(model, mu)
    # at 1e30 the first Jacobian is refused as singular: one refused step
    got = solve_reduced(_far_anchors(model, 1e30), mu)
    _assert_same_solution(got, want)
    assert got[2]["iterations"] == 1 + want[2]
    assert len(got[2]["residuals"]) == want[2] + 1
    assert RCOND_TOL < got[2]["rcond"] <= 1.0
    # from 1e4 Newton needs more than 8 steps, so with that budget the
    # anchored run stalls after 8
    assert want[2] < 8
    monkeypatch.setattr(rb, "RB_NEWTON_MAX_ITER", 8)
    got = solve_reduced(_far_anchors(model, 1e4), mu)
    _assert_same_solution(got, want)
    assert got[2]["iterations"] == 8 + want[2]
    assert len(got[2]["residuals"]) == want[2] + 1


# ---------------------------------------------------------------------------
# serialization


def _rbm_parts(path):
    """(header lines, blob) of a saved .rbm: the header ends after the
    array table and its newline padding to a multiple of 64 bytes."""
    data = path.read_bytes()
    lines = data.split(b"\n")
    k = next(i for i, ln in enumerate(lines) if ln.startswith(b"arrays = "))
    head = b"\n".join(lines[:k + 1 + int(lines[k].split()[-1])]) + b"\n"
    return head.decode("ascii").splitlines(), data[-len(head) % 64
                                                   + len(head):]


def _write_rbm(path, lines, blob):
    head = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(head + b"\n" * (-len(head) % 64) + blob)


def test_save_load_round_trip(tmp_path, ns_rb):
    _, model, _ = ns_rb
    path = tmp_path / "model.rbm"
    save_model(model, path, config_echo={"problem": "navier_stokes",
                                         "note": "round trip"})
    back, echo = load_model(path)
    assert echo["problem"] == "navier_stokes"
    assert echo["note"] == "round trip"
    assert (back.problem, back.fe_pair, back.method) == \
        (model.problem, model.fe_pair, model.method)
    assert back.delta == model.delta and back.option == model.option
    assert back.mu1_range == model.mu1_range
    assert back.seed == model.seed and (back.nx, back.ny) == (model.nx,
                                                              model.ny)
    assert back.n_u == model.n_u
    _same_arrays(back, model)
    ii = with_option(model, "ii")
    save_model(ii, path)
    back, _ = load_model(path)
    assert back.option == "ii"
    _same_arrays(back, ii)
    _same_arrays(with_option(back, "i"), model)
    lines, _ = _rbm_parts(path)
    k = lines.index(next(ln for ln in lines if ln.startswith("arrays = ")))
    names = {ln.split()[0].partition(".")[0] for ln in lines[k + 1:]}
    assert {"z_v", "conv", "u_coords", "p_coords"} <= names
    for gone in ("sup_raw", "lifting_coords", "mean", "lifting"):
        assert gone not in names


@pytest.mark.parametrize("problem", PROBLEMS)
def test_model_geometry_follows_the_problem_config(tmp_path, request,
                                                   problem):
    _, model, _ = request.getfixturevalue(
        {"stokes": "stokes_rb", "navier_stokes": "ns_rb"}[problem])
    assert model.problem == problem
    want = vars(ProblemConfig(problem).geometry())
    path = tmp_path / "model.rbm"
    save_model(model, path)
    for built in (model, load_model(path)[0]):
        assert vars(built.geometry()) == want


def test_loaded_model_solves_identically(tmp_path, stokes_rb):
    _, model, _ = stokes_rb
    path = tmp_path / "model.rbm"
    save_model(model, path)
    back, _ = load_model(path)
    mu = (0.61, 2.3)
    u0, p0, _ = solve_reduced(model, mu)
    u1, p1, _ = solve_reduced(back, mu)
    assert np.array_equal(u0, u1) and np.array_equal(p0, p1)


@pytest.mark.parametrize("header", ["format = cavityrb-rbm-1",
                                    "format = cavityrb-rbm-2",
                                    "format = cavityrb-rbm-3",
                                    "format = cavityrb-rbm-4",
                                    "format = cavityrb-rbm-5",
                                    "format = cavityrb-rbm-6",
                                    "format = cavityrb-rbm-7", None])
def test_load_model_refuses_other_formats(tmp_path, stokes_rb, header):
    # earlier files hold stabilization terms projected from the
    # reference-domain blocks (rbm-1), the full-order supremizers
    # (rbm-2), the momentum-row stabilization lifting inside the
    # Galerkin fvisc (rbm-3), the quadratic terms as seven arrays on
    # the velocity basis (rbm-4), the arrays as 17-digit text (rbm-5),
    # an unread full-order lifting (rbm-6) or no snapshot coordinates
    # for the reduced Newton start (rbm-7); they must not load as
    # current models
    _, model, _ = stokes_rb
    path = tmp_path / "model.rbm"
    save_model(model, path)
    lines, blob = _rbm_parts(path)
    idx = lines.index("format = cavityrb-rbm-8")
    if header is None:
        del lines[idx]
    else:
        lines[idx] = header
    _write_rbm(path, lines, blob)
    with pytest.raises(ValueError, match="format"):
        load_model(path)


_DAMAGE = {"bare": "lacks", "no_header_key": "lacks n_u",
           "no_array": "lacks xp", "unknown_array": "unknown model array",
           "truncated": "ends inside its header",
           "short_blob": "ends inside array", "long_blob": "after its last",
           "n_u_too_large": "n_u = 99", "n_u_zero": "n_u = 0"}


@pytest.mark.parametrize("damage", list(_DAMAGE))
def test_load_model_refuses_incomplete_files(tmp_path, stokes_rb, damage):
    _, model, _ = stokes_rb
    path = tmp_path / "model.rbm"
    save_model(model, path)
    lines, blob = _rbm_parts(path)
    table = lines.index(next(ln for ln in lines if ln.startswith("arrays = ")))
    if damage == "bare":
        lines, blob = ["format = cavityrb-rbm-8", "arrays = 0"], b""
    elif damage == "no_header_key":
        lines = [ln for ln in lines if not ln.startswith("n_u = ")]
    elif damage == "no_array":
        # drop xp from the table and the blob, shifting the later offsets
        start = next(i for i, ln in enumerate(lines) if ln.startswith("xp "))
        offsets = [int(ln.split()[-1]) for ln in lines[table + 1:]]
        begin = int(lines[start].split()[-1])
        end = offsets[start - table] if start - table < len(offsets) \
            else len(blob)
        blob = blob[:begin] + blob[end:]
        lines = lines[:start] + [
            " ".join(ln.split()[:-1] + [str(int(ln.split()[-1])
                                            - (end - begin))])
            for ln in lines[start + 1:]]
        lines[table] = f"arrays = {len(offsets) - 1}"
    elif damage == "unknown_array":
        lines = [("sup_raw" + ln[2:] if ln.startswith("xp ") else ln)
                 for ln in lines]
    elif damage == "truncated":
        lines, blob = lines[:table], b""    # cut before the array count
    elif damage == "short_blob":
        blob = blob[:len(blob) - 8]
    elif damage == "long_blob":
        blob = blob + bytes(8)
    else:
        n_u = 99 if damage == "n_u_too_large" else 0
        lines = [f"n_u = {n_u}" if ln.startswith("n_u = ") else ln
                 for ln in lines]
    _write_rbm(path, lines, blob)
    with pytest.raises(ValueError, match=_DAMAGE[damage]):
        load_model(path)


def test_load_model_refuses_navier_stokes_without_newton_starts(tmp_path,
                                                                 ns_rb):
    _, model, _ = ns_rb
    path = tmp_path / "model.rbm"
    save_model(dataclasses.replace(model, u_coords=None, p_coords=None), path)
    with pytest.raises(ValueError, match="lacks u_coords, p_coords"):
        load_model(path)


def test_save_model_round_trips_special_floats_bit_exactly(tmp_path,
                                                           stokes_rb):
    # signed zeros, subnormals and the extremes come back bit for bit,
    # and the file is the padded header plus eight bytes per float
    _, model, _ = stokes_rb
    special = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, 1.0 / 3.0, -123456.789]
    xp = model.xp.copy()
    xp.flat[:len(special)] = special
    path = tmp_path / "model.rbm"
    save_model(dataclasses.replace(model, xp=xp), path)
    back, _ = load_model(path)
    assert np.array_equal(back.xp.view(np.uint64), xp.view(np.uint64))
    assert back.xp.view(np.uint64).flat[1] == np.float64(-0.0).view(np.uint64)
    lines, blob = _rbm_parts(path)
    head = len(("\n".join(lines) + "\n").encode("ascii"))
    floats = sum(np.size(m) for name in _AXES
                 for m in ([t for _, t in getattr(back, name)]
                           if isinstance(getattr(back, name), AffineOperator)
                           else [getattr(back, name)])
                 if m is not None)
    assert path.stat().st_size == head + (-head % 64) + 8 * floats
    assert len(blob) == 8 * floats


# ---------------------------------------------------------------------------
# warm-started Navier-Stokes snapshots


def _record_solves(system, monkeypatch):
    calls = []
    solve = system.solve

    def record(mu, **kwargs):
        sol = solve(mu, **kwargs)
        calls.append((tuple(mu), kwargs, sol))
        return sol
    monkeypatch.setattr(system, "solve", record)
    return calls


def test_greedy_warm_starts_navier_stokes_snapshots(ns_rb, monkeypatch):
    system, model, _ = ns_rb
    calls = _record_solves(system, monkeypatch)
    greedy_offline(system, n_max=3, train_size=9, seed=SEED)
    assert [bool(kw) for _, kw, _ in calls] == [False, True, True]
    for k, (mu, kwargs, warm) in enumerate(calls[1:], start=1):
        assert isinstance(kwargs["initial_guess"], FeSolution)
        cold = system.solve_navier_stokes(mu)
        for field in ("velocity", "pressure"):
            w = getattr(warm, field).values
            c = getattr(cold, field).values
            assert np.linalg.norm(w - c) <= 1e-9 * np.linalg.norm(c)
        assert warm.diagnostics["iterations"] \
            < cold.diagnostics["iterations"]
        assert np.array_equal(model.u_snaps[:, k], warm.velocity.values)


def test_warm_snapshots_reuse_factors_and_match_direct_newton(
        ns_rb, monkeypatch):
    system, _, _ = ns_rb
    calls = _record_solves(system, monkeypatch)
    greedy_offline(system, n_max=3, train_size=9, seed=SEED)
    assert len(calls) == 3
    for mu, kwargs, warm in calls[1:]:
        diag = warm.diagnostics
        assert diag["factorizations"] < diag["iterations"]
        u, p = direct_newton(system, mu, kwargs["initial_guess"])
        for got, want in ((warm.velocity.values, u),
                          (warm.pressure.values, p)):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_greedy_falls_back_to_cold_solve(ns_rb, monkeypatch):
    system, _, _ = ns_rb
    newton = system.solve_navier_stokes
    refused = []

    def no_warm_convergence(mu, initial_guess=None, **kwargs):
        if initial_guess is not None:
            refused.append(tuple(mu))
            raise NonConvergenceError("forced", [])
        return newton(mu, **kwargs)
    monkeypatch.setattr(system, "solve_navier_stokes", no_warm_convergence)
    model, _ = greedy_offline(system, n_max=3, train_size=9, seed=SEED)
    assert refused == [tuple(m) for m in model.mus[1:]]
    monkeypatch.undo()
    for k, mu in enumerate(map(tuple, model.mus)):
        cold = system.solve_navier_stokes(mu)
        assert np.array_equal(model.u_snaps[:, k], cold.velocity.values)
        assert np.array_equal(model.p_snaps[:, k], cold.pressure.values)
