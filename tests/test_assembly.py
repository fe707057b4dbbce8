"""Assembly oracles: hand-integrated forms, affine consistency against
independent loop assemblers, and the stabilization block examples."""

import numpy as np
import pytest
import scipy.io
import scipy.signal
import scipy.sparse

from cavityrb.assembly import (AffineOperator, ConvectionAssembler,
                               GeometryMap, StabilizationConfig,
                               SupgAssembler, assemble_divergence,
                               assemble_gram, assemble_mean_vector,
                               assemble_ns_stabilization,
                               assemble_stab_body_force,
                               assemble_stokes_stabilization,
                               assemble_viscous, dump_affine_operator,
                               vector_expand)
from cavityrb.fespace import (interpolate, interpolate_lifting, make_space,
                              zero_function)
from cavityrb.hifi import PAIRS, FlowSystem, ProblemConfig
from cavityrb.mesh import WALL, Mesh, build_rect_mesh

MU = (0.6, 2.0)          # a = 1.5, nu = 0.6 with mu_bar2 = 1


def unit_triangle_mesh() -> Mesh:
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tags = {(0, 1): WALL, (1, 2): WALL, (0, 2): WALL}
    return Mesh(verts, np.array([[0, 1, 2]]), tags, 1.0, 1.0)


def spaces(mesh, vfam="P1", pfam="P1"):
    return make_space(mesh, vfam, 2), make_space(mesh, pfam, 1)


# ---------------------------------------------------------------------------
# geometry coefficients


def test_theta_values_at_benchmark_point():
    g = GeometryMap()
    assert g.a(2.0) == pytest.approx(1.5)
    assert g.theta("one", MU) == 1.0
    assert g.theta("a", MU) == pytest.approx(1.5)
    assert g.theta("nu", MU) == pytest.approx(0.6)
    assert g.theta("nu_over_a", MU) == pytest.approx(0.4)
    assert g.theta("nu_times_a", MU) == pytest.approx(0.9)
    assert g.theta("nu_sq", MU) == pytest.approx(0.36)
    with pytest.raises(ValueError):
        g.theta("bogus", MU)


def test_theta_values_of_mapped_stabilization_tags():
    g = GeometryMap()
    a, nu = 1.5, 0.6
    assert g.theta("nu_times_a_sq", MU) == pytest.approx(nu * a * a)
    assert g.theta("nu_sq_over_a_cu", MU) == pytest.approx(nu * nu / a ** 3)
    assert g.theta("nu_sq_over_a", MU) == pytest.approx(nu * nu / a)
    assert g.theta("nu_sq_times_a", MU) == pytest.approx(nu * nu * a)
    assert g.theta("nu_sq_times_a_cu", MU) == pytest.approx(nu * nu * a ** 3)


def test_geometry_identity_at_reference():
    # at mu2 = mu_bar2 the stretch is the identity: every viscous weight
    # is nu and the divergence weight a is 1
    g = GeometryMap(mu_bar2=1.0)
    assert g.a(1.0) == 1.0 and g.theta("a", (0.7, 1.0)) == 1.0
    for tag in ("nu", "nu_over_a", "nu_times_a"):
        assert g.theta(tag, (0.7, 1.0)) == pytest.approx(0.7, rel=1e-15)


def test_inverse_viscosity_rule():
    g = GeometryMap(viscosity="inverse")
    assert g.nu((200.0, 2.0)) == pytest.approx(0.005)
    with pytest.raises(ValueError):
        g.nu((-1.0, 2.0))
    with pytest.raises(ValueError):
        GeometryMap(viscosity="upside_down")
    with pytest.raises(ValueError):
        GeometryMap(mu_bar2=-1.0)


def test_affine_operator_validation():
    m = np.eye(2)
    with pytest.raises(ValueError):
        AffineOperator([])
    with pytest.raises(ValueError):
        AffineOperator([("one", m), ("a", np.eye(3))])
    with pytest.raises(ValueError):
        AffineOperator([("weird", m)])
    op = AffineOperator([("one", m), ("a", 2.0 * m)])
    assert op.q == 2
    got = op.evaluate(GeometryMap(), MU)
    assert np.allclose(got, (1.0 + 2.0 * 1.5) * m)


# ---------------------------------------------------------------------------
# viscous and divergence forms


def test_viscous_energy_oracles():
    vel, _ = spaces(build_rect_mesh(2.0, 1.0, 4, 2))
    a_op = assemble_viscous(vel)
    assert [tag for tag, _ in a_op.terms] == ["nu_over_a", "nu_times_a"]
    xy = interpolate(vel, lambda x, y: (x, y)).values
    full = a_op.evaluate(GeometryMap(), (1.0, 1.0))
    assert xy @ (full @ xy) == pytest.approx(4.0, rel=1e-13)
    at_mu = a_op.evaluate(GeometryMap(), MU)
    vx = interpolate(vel, lambda x, y: (x, 0.0)).values
    vy = interpolate(vel, lambda x, y: (0.0, y)).values
    assert vx @ (at_mu @ vx) == pytest.approx(0.8, rel=1e-13)
    assert vy @ (at_mu @ vy) == pytest.approx(1.8, rel=1e-13)
    const = interpolate(vel, lambda x, y: (1.0, -2.0)).values
    assert np.abs(full @ const).max() < 1e-13
    for _, m in a_op.terms:
        assert np.abs((m - m.T)).max() < 1e-14


def test_viscous_p2_energy():
    vel = make_space(build_rect_mesh(2.0, 1.0, 4, 2), "P2", 2)
    a_op = assemble_viscous(vel)
    u = interpolate(vel, lambda x, y: (x * x, 0.0)).values
    got = u @ (a_op.evaluate(GeometryMap(), (1.0, 1.0)) @ u)
    assert got == pytest.approx(32.0 / 3.0, rel=1e-12)


def test_viscous_requires_vector_space():
    with pytest.raises(ValueError):
        assemble_viscous(make_space(build_rect_mesh(1, 1, 1, 1), "P1", 1))


def test_divergence_hand_values():
    mesh = build_rect_mesh(2.0, 1.0, 3, 2)
    vel, prs = spaces(mesh)
    b_op = assemble_divergence(vel, prs)
    assert [tag for tag, _ in b_op.terms] == ["one", "a"]
    ones = np.ones(prs.n_scalar)
    vx = interpolate(vel, lambda x, y: (x, 0.0)).values
    vy = interpolate(vel, lambda x, y: (0.0, y)).values
    for mu in [MU, (0.3, 1.0), (0.7, 2.6)]:
        b = b_op.evaluate(GeometryMap(), mu)
        assert ones @ (b @ vx) == pytest.approx(-2.0, rel=1e-13)
    b2 = b_op.evaluate(GeometryMap(), MU)
    assert ones @ (b2 @ vy) == pytest.approx(-3.0, rel=1e-13)


def test_divergence_single_triangle():
    vel, prs = spaces(unit_triangle_mesh())
    b = assemble_divergence(vel, prs) \
        .evaluate(GeometryMap(), (1.0, 1.0))
    vx = interpolate(vel, lambda x, y: (x, 0.0)).values
    assert np.ones(3) @ (b @ vx) == pytest.approx(-0.5, rel=1e-14)


def test_divergence_of_lifting_has_zero_mean():
    # the lid field is tangential, so the mapped divergence integrates
    # to zero at every parameter (divergence theorem)
    vel, prs = spaces(build_rect_mesh(2.0, 1.0, 8, 4))
    b_op = assemble_divergence(vel, prs)
    lift = interpolate_lifting(vel).values
    ones = np.ones(prs.n_scalar)
    for mu in [(0.5, 1.0), MU, (0.25, 3.0)]:
        val = ones @ (b_op.evaluate(GeometryMap(), mu) @ lift)
        assert abs(val) < 1e-12


def test_divergence_mesh_mismatch():
    vel = make_space(build_rect_mesh(1.0, 1.0, 2, 2), "P1", 2)
    prs = make_space(build_rect_mesh(1.0, 1.0, 2, 2), "P1", 1)
    with pytest.raises(ValueError):
        assemble_divergence(vel, prs)


def slow_p1_blocks(mesh):
    """Independent loop assembly of the P1 scalar dx/dy stiffness blocks
    and the two divergence component blocks (exact integrals)."""
    ns = mesh.n_vertices
    kxx = np.zeros((ns, ns))
    kyy = np.zeros((ns, ns))
    bx = np.zeros((ns, 2 * ns))
    by = np.zeros((ns, 2 * ns))
    for t in range(mesh.n_triangles):
        area = mesh.areas[t]
        g = mesh.grad_bary[t]
        dofs = mesh.triangles[t]
        for i in range(3):
            for j in range(3):
                kxx[dofs[i], dofs[j]] += area * g[i, 0] * g[j, 0]
                kyy[dofs[i], dofs[j]] += area * g[i, 1] * g[j, 1]
            for j in range(3):
                bx[dofs[i], 2 * dofs[j]] += -(area / 3.0) * g[j, 0]
                by[dofs[i], 2 * dofs[j] + 1] += -(area / 3.0) * g[j, 1]
    return kxx, kyy, bx, by


def test_affine_consistency_against_loop_assembler():
    mesh = build_rect_mesh(2.0, 1.0, 3, 2)
    vel, prs = spaces(mesh)
    geom = GeometryMap()
    a_op = assemble_viscous(vel)
    b_op = assemble_divergence(vel, prs)
    kxx, kyy, bx, by = slow_p1_blocks(mesh)
    rng = np.random.default_rng(2)
    for _ in range(5):
        mu = (rng.uniform(0.25, 0.75), rng.uniform(1.0, 3.0))
        a = geom.theta("nu_over_a", mu) * np.kron(kxx, np.eye(2)) \
            + geom.theta("nu_times_a", mu) * np.kron(kyy, np.eye(2))
        got_a = a_op.evaluate(geom, mu).toarray()
        assert np.linalg.norm(got_a - a) < 1e-12 * np.linalg.norm(a)
        b = bx + geom.theta("a", mu) * by
        got_b = b_op.evaluate(geom, mu).toarray()
        assert np.linalg.norm(got_b - b) < 1e-12 * np.linalg.norm(b)


def test_gram_matrices():
    mesh = build_rect_mesh(2.0, 1.0, 3, 2)
    scal = make_space(mesh, "P1", 1)
    ones = np.ones(scal.n_scalar)
    l2 = assemble_gram(scal, "l2")
    assert ones @ (l2 @ ones) == pytest.approx(2.0, rel=1e-13)
    h1s = assemble_gram(scal, "h1semi")
    x = interpolate(scal, lambda x, y: x).values
    assert x @ (h1s @ x) == pytest.approx(2.0, rel=1e-13)
    assert np.abs(h1s @ ones).max() < 1e-13
    with pytest.raises(ValueError):
        assemble_gram(scal, "h2")
    vec = make_space(mesh, "P1", 2)
    assert assemble_gram(vec, "l2").shape == (vec.dof_count, vec.dof_count)


def test_mean_vector():
    prs = make_space(build_rect_mesh(2.0, 1.0, 4, 2), "P1", 1)
    m = assemble_mean_vector(prs)
    assert m @ np.ones(prs.n_scalar) == pytest.approx(2.0, rel=1e-13)
    x = interpolate(prs, lambda x, y: x).values
    assert m @ x == pytest.approx(2.0, rel=1e-13)
    p0 = make_space(build_rect_mesh(2.0, 1.0, 4, 2), "P0", 1)
    m0 = assemble_mean_vector(p0)
    assert np.allclose(m0, p0.mesh.areas)


# ---------------------------------------------------------------------------
# convection


def test_convection_zero_transport():
    vel = make_space(build_rect_mesh(2.0, 1.0, 3, 2), "P1", 2)
    conv = ConvectionAssembler(vel)
    c = conv.matrix(np.zeros(vel.dof_count))
    for _, m in c.terms:
        assert m.nnz == 0 or np.abs(m.toarray()).max() == 0.0


def test_convection_hand_integral_single_triangle():
    vel = make_space(unit_triangle_mesh(), "P1", 2)
    conv = ConvectionAssembler(vel)
    w = interpolate(vel, lambda x, y: (1.0, 0.0)).values
    u = interpolate(vel, lambda x, y: (x, 0.0)).values
    c = conv.matrix(w).evaluate(GeometryMap(), (1.0, 1.0))
    assert u @ (c @ u) == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_convection_hand_integral_rectangle():
    vel = make_space(build_rect_mesh(2.0, 1.0, 4, 2), "P1", 2)
    conv = ConvectionAssembler(vel)
    w = interpolate(vel, lambda x, y: (1.0, 0.0)).values
    u = interpolate(vel, lambda x, y: (x, 0.0)).values
    c = conv.matrix(w).evaluate(GeometryMap(), (1.0, 1.0))
    assert u @ (c @ u) == pytest.approx(2.0, rel=1e-13)


def test_convection_linearity_in_transport():
    vel = make_space(build_rect_mesh(2.0, 1.0, 3, 2), "P2", 2)
    conv = ConvectionAssembler(vel)
    rng = np.random.default_rng(4)
    w1 = rng.standard_normal(vel.dof_count)
    w2 = rng.standard_normal(vel.dof_count)
    for (_, ma), (_, mb), (_, mc) in zip(conv.matrix(w1).terms,
                                         conv.matrix(w2).terms,
                                         conv.matrix(w1 + 2.0 * w2).terms):
        assert np.abs((ma + 2.0 * mb - mc)).max() < 1e-12


def test_convection_skew_for_divergence_free_transport():
    # w = (y, 0) is pointwise divergence-free and P1-exact, so the
    # integration-by-parts identity c(w, v, v) = 0 holds discretely for
    # any v vanishing on the boundary
    vel = make_space(build_rect_mesh(2.0, 1.0, 6, 3), "P1", 2)
    conv = ConvectionAssembler(vel)
    w = interpolate(vel, lambda x, y: (y, 0.0)).values
    c = conv.matrix(w).evaluate(GeometryMap(), (0.5, 1.0))
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = np.zeros(vel.dof_count)
        free = vel.free_dofs()
        v[free] = rng.standard_normal(free.size)
        assert abs(v @ (c @ v)) < 1e-10 * float(v @ v)


# ---------------------------------------------------------------------------
# stabilization blocks


def test_stabilization_config_validation():
    with pytest.raises(ValueError):
        StabilizationConfig("Magic", 0.1)
    with pytest.raises(ValueError):
        StabilizationConfig("BrezziPitkaranta", -0.1)
    with pytest.raises(ValueError):
        StabilizationConfig("SUPGFamily", 1.0, rho=1.0)
    with pytest.raises(ValueError):
        StabilizationConfig("BrezziPitkaranta", 0.1, rho=1.0)
    with pytest.raises(ValueError):
        StabilizationConfig("ResidualBased", 0.1, rho=0.5)
    assert not StabilizationConfig().active
    assert not StabilizationConfig("BrezziPitkaranta", 0.0).active
    assert StabilizationConfig("BrezziPitkaranta", 0.05).active


def test_inactive_config_rejected():
    vel, prs = spaces(build_rect_mesh(1.0, 1.0, 2, 2))
    with pytest.raises(ValueError):
        assemble_stokes_stabilization(vel, prs, StabilizationConfig())


def test_pressure_laplacian_local_matrix():
    vel, prs = spaces(unit_triangle_mesh())
    geom = GeometryMap()
    delta = 0.05
    stab = assemble_stokes_stabilization(
        vel, prs, StabilizationConfig("BrezziPitkaranta", delta))
    want = 0.1 * np.array([[1.0, -0.5, -0.5],
                           [-0.5, 0.5, 0.0],
                           [-0.5, 0.0, 0.5]])
    at_ref = stab.spq.evaluate(geom, (1.0, 1.0)).toarray()
    assert np.allclose(at_ref, want, atol=1e-14)
    # the pressure Laplacian is the whole method
    assert stab.suq is None and stab.suv is None and stab.spv is None
    # mapped: q = x_hat is physical x/a, q = y_hat is y; with dx = a dx_hat
    # and the weight h^2 diag(a^2, 1) (h^2 = 2, area 1/2) both give
    # delta * a, so the operator is a times the reference one
    a = geom.a(MU[1])
    s = stab.spq.evaluate(geom, MU)
    qx = interpolate(prs, lambda x, y: x).values
    qy = interpolate(prs, lambda x, y: y).values
    assert qx @ (s @ qx) == pytest.approx(delta * a, rel=1e-13)
    assert qy @ (s @ qy) == pytest.approx(delta * a, rel=1e-13)
    assert np.allclose(s.toarray(), a * want, atol=1e-14)


@pytest.mark.parametrize("delta", [0.05, 0.5])
def test_brezzi_pitkaranta_energy_oracles(delta):
    vel, prs = spaces(build_rect_mesh(2.0, 1.0, 1, 1))
    stab = assemble_stokes_stabilization(
        vel, prs, StabilizationConfig("BrezziPitkaranta", delta))
    s = stab.spq.terms[0][1]
    px = interpolate(prs, lambda x, y: x).values
    pxy = interpolate(prs, lambda x, y: x + 2.0 * y).values
    assert px @ (s @ px) == pytest.approx(10.0 * delta, rel=1e-13)
    assert pxy @ (s @ pxy) == pytest.approx(50.0 * delta, rel=1e-13)
    assert np.abs(s @ np.ones(prs.n_scalar)).max() < 1e-13
    assert np.abs((s - s.T)).max() < 1e-14


def test_residual_based_p1_velocity_block_vanishes():
    # the viscous residual of P1 velocity is zero, so ResidualBased on
    # P1/P1 degenerates to the pressure-Laplacian stabilization
    vel, prs = spaces(build_rect_mesh(2.0, 1.0, 2, 1))
    geom = GeometryMap()
    fh = assemble_stokes_stabilization(
        vel, prs, StabilizationConfig("ResidualBased", 0.05))
    bp = assemble_stokes_stabilization(
        vel, prs, StabilizationConfig("BrezziPitkaranta", 0.05))
    for mu in ((0.6, 1.0), MU):
        assert np.abs(fh.suq.evaluate(geom, mu).toarray()).max() == 0.0
        assert np.abs((fh.spq.evaluate(geom, mu)
                       - bp.spq.evaluate(geom, mu))).max() == 0.0


def test_viscous_residual_block_hand_value():
    # single unit triangle, h^2 = 2, area 1/2.  The reference fields
    # pull back physical ones under x = a x_hat, so
    # q^T S^{uq}(mu) u = delta h^2 (-nu lap u, h^-2 M grad q)_K with
    # M = h^2 diag(a^2, 1) and dx = a dx_hat gives -2 delta nu times
    # 1, a^2, 1/a, a for the four (component, direction) parts
    vel, prs = spaces(unit_triangle_mesh(), "P2", "P1")
    delta = 0.07
    geom = GeometryMap()
    stab = assemble_stokes_stabilization(
        vel, prs, StabilizationConfig("ResidualBased", delta))
    assert [tag for tag, _ in stab.suq.terms] == [
        "nu", "nu_times_a_sq", "nu_over_a", "nu_times_a"]
    qx = interpolate(prs, lambda x, y: x).values
    qy = interpolate(prs, lambda x, y: y).values
    cases = (((lambda x, y: (x * x, 0.0)), qx, lambda a: 1.0),
             ((lambda x, y: (y * y, 0.0)), qx, lambda a: a * a),
             ((lambda x, y: (0.0, x * x)), qy, lambda a: 1.0 / a),
             ((lambda x, y: (0.0, y * y)), qy, lambda a: a))
    for mu, nu in (((1.0, 1.0), 1.0), (MU, 0.6)):
        suq = stab.suq.evaluate(geom, mu)
        a = geom.a(mu[1])
        for field, q, factor in cases:
            u = interpolate(vel, field).values
            assert q @ (suq @ u) == pytest.approx(
                -2.0 * delta * nu * factor(a), rel=1e-13)


def test_momentum_row_blocks_hand_values():
    # (nu lap u, M nu lap v) with lap u_x = 2/a^2 for u = (x_hat^2, 0)
    # and lap u_y = 2/a^2 for u = (0, x_hat^2): rho delta nu^2 4/a and
    # 4/a^3; spv = rho * suq^T gives -2 rho delta nu against p = x_hat
    vel, prs = spaces(unit_triangle_mesh(), "P2", "P1")
    delta, rho = 0.07, 1.0
    geom = GeometryMap()
    stab = assemble_stokes_stabilization(
        vel, prs, StabilizationConfig("ResidualBased", delta, rho=rho))
    assert [tag for tag, _ in stab.suv.terms] == [
        "nu_sq_over_a", "nu_sq_times_a", "nu_sq_times_a_cu",
        "nu_sq_over_a_cu"]
    assert [tag for tag, _ in stab.spv.terms] == [
        tag for tag, _ in stab.suq.terms]
    ux = interpolate(vel, lambda x, y: (x * x, 0.0)).values
    uy = interpolate(vel, lambda x, y: (0.0, x * x)).values
    p = interpolate(prs, lambda x, y: x).values
    for mu, nu in (((1.0, 1.0), 1.0), (MU, 0.6)):
        a = geom.a(mu[1])
        suv = stab.suv.evaluate(geom, mu)
        spv = stab.spv.evaluate(geom, mu)
        assert ux @ (suv @ ux) == pytest.approx(
            4.0 * rho * delta * nu * nu / a, rel=1e-13)
        assert uy @ (suv @ uy) == pytest.approx(
            4.0 * rho * delta * nu * nu / a ** 3, rel=1e-13)
        assert ux @ (spv @ p) == pytest.approx(-2.0 * rho * delta * nu,
                                               rel=1e-13)
        assert np.abs((spv - rho * stab.suq.evaluate(geom, mu).T)).max() \
            < 1e-15


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_mapped_blocks_equal_reference_forms_at_reference_stretch(rho):
    # at mu2 = mu_bar2 the pulled-back blocks are the reference-domain
    # forms, which the Navier-Stokes assembler keeps unmapped
    vel, prs = spaces(build_rect_mesh(2.0, 1.0, 4, 2), "P2", "P2")
    geom = GeometryMap()
    mapped = assemble_stokes_stabilization(
        vel, prs, StabilizationConfig("ResidualBased", 0.3, rho=rho))
    plain = assemble_ns_stabilization(
        vel, prs, StabilizationConfig("SUPGFamily", 0.3))
    mu = (0.4, geom.mu_bar2)
    for name in ("spq", "suq"):
        want = getattr(plain, name).evaluate(geom, mu).toarray()
        got = getattr(mapped, name).evaluate(geom, mu).toarray()
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    at_mu = mapped.spq.evaluate(geom, MU).toarray()
    ref = plain.spq.evaluate(geom, MU).toarray()
    assert np.abs(at_mu - geom.a(MU[1]) * ref).max() < 1e-15


def test_edge_jump_hand_matrices():
    vel, prs = spaces(build_rect_mesh(1.0, 1.0, 1, 1), "P1", "P0")
    delta = 0.05
    stab = assemble_stokes_stabilization(
        vel, prs, StabilizationConfig("EdgeJumpP1P0", delta))
    want = delta * 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(stab.spq.terms[0][1].toarray(), want, atol=1e-14)
    assert stab.suq is None

    vel2, prs2 = spaces(build_rect_mesh(2.0, 1.0, 1, 1), "P1", "P0")
    stab2 = assemble_stokes_stabilization(
        vel2, prs2, StabilizationConfig("EdgeJumpP1P0", delta))
    want2 = delta * 5.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(stab2.spq.terms[0][1].toarray(), want2, atol=1e-14)
    s = stab2.spq.terms[0][1]
    assert np.abs(s @ np.ones(2)).max() < 1e-15


def test_edge_jump_requires_p0():
    vel, prs = spaces(build_rect_mesh(1.0, 1.0, 2, 2), "P1", "P1")
    with pytest.raises(ValueError):
        assemble_stokes_stabilization(
            vel, prs, StabilizationConfig("EdgeJumpP1P0", 0.05))


def test_supg_transport_hand_values():
    delta = 0.03
    vel, prs = spaces(unit_triangle_mesh(), "P1", "P1")
    supg = SupgAssembler(vel, prs, delta)
    w = interpolate(vel, lambda x, y: (1.0, 0.0)).values
    u = interpolate(vel, lambda x, y: (x, 0.0)).values
    q = interpolate(prs, lambda x, y: x).values
    t = supg.transport(w).evaluate(GeometryMap(), MU)
    assert q @ (t @ u) == pytest.approx(delta, rel=1e-13)

    vel2, prs2 = spaces(build_rect_mesh(2.0, 1.0, 1, 1), "P1", "P1")
    supg2 = SupgAssembler(vel2, prs2, delta)
    w2 = interpolate(vel2, lambda x, y: (1.0, 0.0)).values
    u2 = interpolate(vel2, lambda x, y: (x, 0.0)).values
    q2 = interpolate(prs2, lambda x, y: x).values
    t2 = supg2.transport(w2).evaluate(GeometryMap(), MU)
    assert q2 @ (t2 @ u2) == pytest.approx(10.0 * delta, rel=1e-13)


def test_supg_transport_linearity():
    vel, prs = spaces(build_rect_mesh(2.0, 1.0, 3, 2), "P2", "P2")
    supg = SupgAssembler(vel, prs, 1.0)
    rng = np.random.default_rng(10)
    w = rng.standard_normal(vel.dof_count)

    def transport(x):
        return supg.transport(x).evaluate(GeometryMap(), MU)
    assert np.abs((transport(2.0 * w) - 2.0 * transport(w))).max() < 1e-12
    assert np.abs(transport(np.zeros_like(w))).max() == 0.0


def test_ns_stabilization_wrapper():
    vel, prs = spaces(build_rect_mesh(2.0, 1.0, 2, 2), "P2", "P2")
    with pytest.raises(ValueError):
        assemble_ns_stabilization(vel, prs,
                                  StabilizationConfig("BrezziPitkaranta", 0.1))
    stab = assemble_ns_stabilization(vel, prs,
                                     StabilizationConfig("SUPGFamily", 1.0))
    assert stab.supg is not None
    assert stab.spq is not None and stab.suq is not None


# ---------------------------------------------------------------------------
# quadratic terms at quadrature points: oracles from the assembled matrices


def _kernel(kind):
    """(kernel, Q, test dofs) of a quadratic term on an 8x4 mesh: Q(w)
    is the assembled matrix in the transported argument."""
    mesh = build_rect_mesh(2.0, 1.0, 8, 4)
    if kind.startswith("conv"):
        vel = make_space(mesh, kind[-2:], 2)
        conv = ConvectionAssembler(vel)
        return conv, conv.matrix, vel.dof_count
    vel, prs = spaces(mesh, kind[-2:], kind[-2:])
    supg = SupgAssembler(vel, prs, 0.7)
    return supg, supg.transport, prs.dof_count


def _tensor_oracle(q, z, w):
    """T[i, j, k] = (z_i, Q(w_j) w_k) per tag, one assembled Q(w_j) and
    one projection per column of w."""
    cols = [q(w[:, j]).project(z, w) for j in range(w.shape[1])]
    return [(tag, np.stack([c.terms[e][1] for c in cols], axis=1))
            for e, (tag, _) in enumerate(cols[0].terms)]


QUADRATIC_KINDS = ["conv-P1", "conv-P2", "supg-P1", "supg-P2"]


@pytest.fixture(params=["default", "one-per-block"])
def block_bytes(request, monkeypatch):
    """The kernels' chunk budget as shipped, and one so small that the
    action takes one column and the tensor one cell at a time."""
    if request.param == "one-per-block":
        monkeypatch.setattr("cavityrb.assembly._BLOCK_BYTES", 1)


@pytest.mark.parametrize("kind", QUADRATIC_KINDS)
def test_quadratic_action_matches_assembled_matrices(kind, block_bytes):
    # per tag, column j of the action is Q(a_j) b_j; weighted by the
    # theta of its own parameter it is Q(a_j; mu_j) b_j; a zero column
    # transports nothing
    kernel, q, _ = _kernel(kind)
    dofs = kernel.space.dof_count
    rng = np.random.default_rng(12)
    k = 5
    a = rng.standard_normal((dofs, k))
    b = rng.standard_normal((dofs, k))
    a[:, 2] = 0.0
    geom = GeometryMap(viscosity="inverse")
    mus = [(rng.uniform(100.0, 200.0), rng.uniform(1.5, 3.0))
           for _ in range(k)]
    got = kernel.action(a, b)
    assert [tag for tag, _ in got] == list(kernel.TAGS)
    for j in range(k):
        want = q(a[:, j])
        scale = max(np.abs(m @ b[:, j]).max() for _, m in want)
        for (tag, c), (want_tag, m) in zip(got, want):
            assert tag == want_tag
            assert c.shape == (m.shape[0], k)
            assert np.abs(c[:, j] - m @ b[:, j]).max() \
                <= 1e-13 * max(scale, 1.0)
        weighted = sum(geom.theta(tag, mus[j]) * c[:, j] for tag, c in got)
        whole = want.evaluate(geom, mus[j]) @ b[:, j]
        assert np.abs(weighted - whole).max() \
            <= 1e-13 * max(np.abs(whole).max(), 1.0)
    for _, c in got:
        assert not c[:, 2].any()


@pytest.mark.parametrize("kind", QUADRATIC_KINDS)
def test_quadratic_tensor_matches_projection_oracle(kind, block_bytes):
    kernel, q, rows = _kernel(kind)
    rng = np.random.default_rng(13)
    w = rng.standard_normal((kernel.space.dof_count, 4))
    z = rng.standard_normal((rows, 3))
    got = kernel.tensor(z, w)
    want = _tensor_oracle(q, z, w)
    assert [tag for tag, _ in got] == [tag for tag, _ in want]
    for (_, t), (_, ref) in zip(got, want):
        assert t.shape == ref.shape == (3, 4, 4)
        assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("kind", QUADRATIC_KINDS)
def test_newton_jacobian_per_tag_matches_action(kind):
    # dQ(w) is the form in its transporting argument at b = w: per tag,
    # dQ(w) z = c_tag(z, w, .), column 0 of the action on (z, w)
    kernel, _, _ = _kernel(kind)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(kernel.space.dof_count)
    z = rng.standard_normal(kernel.space.dof_count)
    _, dq = kernel.linearization(w)
    want = kernel.action(z[:, None], w[:, None])
    assert [tag for tag, _ in dq] == [tag for tag, _ in want]
    for (_, m), (_, c) in zip(dq, want):
        assert np.abs(m @ z - c[:, 0]).max() <= 1e-12 * np.abs(c).max()


def _monomials(coef):
    """A polynomial in x, y from {(i, j): coefficient of x^i y^j}."""
    c = np.zeros((3, 3))
    for (i, j), v in coef.items():
        c[i, j] = v
    return c


def _rect_integral(c):
    """Exact integral of sum c[i, j] x^i y^j over [0, 2] x [0, 1]."""
    i, j = np.indices(c.shape)
    return float((c * 2.0 ** (i + 1) / ((i + 1) * (j + 1))).sum())


def _product(*polys):
    out = np.ones((1, 1))
    for c in polys:
        out = scipy.signal.convolve2d(out, c)
    return out


@pytest.mark.parametrize("kind", ["conv", "supg"])
def test_quadratic_flux_matches_exact_integral(kind):
    # quadratic w, u, v and a quadratic pressure q are exact in P2 and the
    # kernels' rules are exact for their integrands, so per tag both
    # Newton matrices reproduce the monomial integral over the domain:
    # convection "one" int w_x d_x u . v, "a" int w_y d_y u . v, and
    # SUPG delta h^2 int ((w . grad) u) . grad q on a uniform mesh
    mesh = build_rect_mesh(2.0, 1.0, 4, 2)
    vel, prs = spaces(mesh, "P2", "P2")
    w = (_monomials({(1, 1): 1.0, (0, 0): 0.5}),
         _monomials({(0, 2): -2.0, (1, 0): 1.0}))
    u = (_monomials({(2, 0): 1.0, (0, 1): -3.0}),
         _monomials({(1, 1): 2.0, (0, 0): 1.0}))
    v = (_monomials({(0, 2): 1.0, (1, 0): 0.5}),
         _monomials({(2, 0): -1.0, (0, 1): 1.0}))
    q = _monomials({(1, 1): 1.0, (2, 0): 0.5, (0, 1): -1.0})
    deriv = np.polynomial.polynomial.polyder

    def nodal(field):
        return interpolate(vel, lambda x, y: tuple(
            np.polynomial.polynomial.polyval2d(x, y, c) for c in field)).values

    if kind == "conv":
        kernel = ConvectionAssembler(vel)
        test = nodal(v)
        want = [sum(_rect_integral(_product(w[e], deriv(u[m], axis=e), v[m]))
                    for m in range(2)) for e in range(2)]
    else:
        delta = 0.7
        h2 = mesh.element_diameters[0] ** 2
        assert np.ptp(mesh.element_diameters) == 0.0
        kernel = SupgAssembler(vel, prs, delta)
        test = interpolate(prs, lambda x, y: np.polynomial.polynomial
                           .polyval2d(x, y, q)).values
        want = [delta * h2 * sum(_rect_integral(_product(
            w[e], deriv(u[m], axis=e), deriv(q, axis=m)))
            for e in range(2) for m in range(2))]
    wv, uv = nodal(w), nodal(u)
    q_w, _ = kernel.linearization(wv)
    _, dq_u = kernel.linearization(uv)
    assert [tag for tag, _ in q_w] == list(kernel.TAGS)
    for (_, mq), (_, md), ref in zip(q_w, dq_u, want):
        assert test @ (mq @ uv) == pytest.approx(ref, rel=1e-12)
        assert test @ (md @ wv) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("pair,method", [("P2P1", "None"),
                                         ("P1P1", "SUPGFamily"),
                                         ("P2P2", "SUPGFamily")])
def test_newton_jacobian_matches_central_difference(pair, method):
    # the residual is quadratic in the state, so the central difference
    # is its derivative up to round-off at any step; the Newton matrix
    # reads Q + dQ of each kernel's linearization, both from its _flux
    system = _system("navier_stokes", pair, method,
                     1.0 if method != "None" else 0.0, nx=8, ny=4)
    rng = np.random.default_rng(14)
    mu = (137.0, 2.4)
    u = np.zeros(system.velocity_space.dof_count)
    du = np.zeros_like(u)
    u[system.free] = rng.standard_normal(system.n_free)
    du[system.free] = rng.standard_normal(system.n_free)
    p = rng.standard_normal(system.n_pressure)
    dp = rng.standard_normal(system.n_pressure)
    lam, dlam = 0.3, -0.2
    eps = 0.5
    fd = (system.residual(mu, u + eps * du, p + eps * dp, lam + eps * dlam)
          - system.residual(mu, u - eps * du, p - eps * dp,
                            lam - eps * dlam)) / (2.0 * eps)
    jac = system._saddle_matrix(mu, u + system.lifting.values)
    got = jac @ np.concatenate([du[system.free], dp, [dlam]])
    assert np.abs(got - fd).max() <= 1e-12 * np.abs(fd).max()


# ---------------------------------------------------------------------------
# right-hand sides


def _system(problem="stokes", pair="P1P1", method="None", delta=0.0,
            nx=4, ny=2, lifting_zero=False):
    cfg = ProblemConfig(problem, pair, StabilizationConfig(method, delta))
    mesh = build_rect_mesh(2.0, 1.0, nx, ny)
    lifting = zero_function(make_space(mesh, PAIRS[pair][0], 2)) \
        if lifting_zero else None
    return FlowSystem(cfg, nx, ny, lifting=lifting, mesh=mesh)


def _lifting_rhs(system, mu):
    """The lifting right-hand sides at mu, summed per row space."""
    rhs = system.lifting_rhs()
    return [sum(op.evaluate(system.geometry, mu) for (r, _), op
                in rhs.items() if r == rows) for rows in ("v", "p")]


def test_rhs_lifting_identities():
    system = _system()
    geom, lift = system.geometry, system.lifting.values
    assert set(system.lifting_rhs()) == {("v", False), ("p", False)}
    for mu in [MU, (0.3, 2.7)]:
        f, g = _lifting_rhs(system, mu)
        assert np.abs(f + system.viscous.evaluate(geom, mu) @ lift).max() \
            < 1e-13
        assert np.abs(g + system.divergence.evaluate(geom, mu) @ lift).max() \
            < 1e-13


def test_rhs_zero_lifting():
    system = _system(nx=2, ny=2, lifting_zero=True)
    for vec in _lifting_rhs(system, MU):
        assert np.abs(vec).max() == 0.0


def test_rhs_stabilized_continuity_term():
    system = _system(pair="P2P2", method="ResidualBased", delta=0.05)
    geom, lift = system.geometry, system.lifting.values
    _, g = _lifting_rhs(system, MU)
    want = -system.divergence.evaluate(geom, MU) @ lift \
        + system.stab.suq.evaluate(geom, MU) @ lift
    assert np.abs(g - want).max() < 1e-13
    # the viscous-residual lifting is a stabilization term of its own
    stab_g = system.lifting_rhs()[("p", True)].evaluate(geom, MU)
    assert np.abs(stab_g - system.stab.suq.evaluate(geom, MU) @ lift).max() \
        < 1e-13


def test_rhs_navier_stokes_adds_convective_lifting():
    # the residual at the zero homogeneous state is minus the lifting
    # right-hand side; Navier-Stokes adds c(l, l, v) to it, in the
    # momentum rows only
    st = _system(pair="P2P2")
    ns = _system(problem="navier_stokes", pair="P2P2")
    zero_u = np.zeros(st.velocity_space.dof_count)
    zero_p = np.zeros(st.n_pressure)
    mu_ns, mu_st = (150.0, 2.0), (1.0 / 150.0, 2.0)
    extra = ns.residual(mu_ns, zero_u, zero_p) \
        - st.residual(mu_st, zero_u, zero_p)
    lift = ns.lifting.values
    want = ns.convection.matrix(lift).evaluate(ns.geometry, mu_ns) @ lift
    nf = ns.n_free
    assert np.abs(extra[:nf] - want[ns.free]).max() < 1e-13
    assert np.abs(extra[nf:]).max() < 1e-14
    f, g = _lifting_rhs(st, mu_st)
    r0 = st.residual(mu_st, zero_u, zero_p)
    assert np.abs(r0 + np.concatenate([f[st.free], g, [0.0]])).max() \
        < 1e-13


def test_stab_body_force_hand_value():
    prs = make_space(build_rect_mesh(2.0, 1.0, 1, 1), "P1", 1)
    delta = 0.05
    vec = assemble_stab_body_force(prs, lambda x, y: (1.0, 0.0), delta)
    q = interpolate(prs, lambda x, y: x).values
    assert q @ vec == pytest.approx(-10.0 * delta, rel=1e-13)


# ---------------------------------------------------------------------------
# strong consistency and dumps


def test_stabilization_terms_decay_quadratically():
    from cavityrb.analysis import manufactured_pressure
    vals = []
    for nx in (8, 16):
        vel, prs = spaces(build_rect_mesh(2.0, 1.0, nx, nx // 2))
        stab = assemble_stokes_stabilization(
            vel, prs, StabilizationConfig("BrezziPitkaranta", 0.05))
        p = interpolate(prs, manufactured_pressure).values
        vals.append(p @ (stab.spq.terms[0][1] @ p))
    ratio = vals[0] / vals[1]
    assert 3.0 <= ratio <= 5.0     # O(h^2) decay of the added term


def test_dump_affine_operator_round_trip(tmp_path):
    vel, prs = spaces(build_rect_mesh(2.0, 1.0, 2, 2))
    b_op = assemble_divergence(vel, prs)
    paths = dump_affine_operator(b_op, tmp_path, "b")
    assert len(paths) == 2
    for path, (tag, m) in zip(paths, b_op.terms):
        assert tag in path
        back = scipy.io.mmread(path)
        assert np.abs((scipy.sparse.csr_matrix(back) - m)).max() < 1e-15


def test_vector_expand_interleaves():
    m = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    big = vector_expand(m).toarray()
    assert big.shape == (4, 4)
    assert big[0, 2] == 2.0 and big[1, 3] == 2.0 and big[0, 3] == 0.0
