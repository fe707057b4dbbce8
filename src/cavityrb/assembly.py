"""Affine assembly of the parametrized cavity forms.

Everything is integrated on the fixed reference rectangle; the geometry
parameter enters only through scalar coefficients (the map stretches x
by a(mu2), giving the viscous tensor nu*diag(1/a, a) and the divergence
tensor diag(1, a)).  Each form is returned as an AffineOperator: a list
of (theta-tag, matrix) terms whose weighted sum reproduces the mapped
operator at any parameter.  The quadratic terms Q(u)u (convection, SUPG
transport) are kernels at quadrature points instead, each defined by one
flux: from per-cell quadrature data they apply the term to stacked
columns, contract its reduced tensor and, for Newton only, assemble the
matrices Q(w) and dQ(w), AffineOperators too.
How the blocks enter the saddle system (sign, Galerkin or stabilization)
is not decided here but in ``hifi.SADDLE_BLOCKS`` and
``hifi.QUADRATIC_TERMS``; right-hand sides are not assembled here
either, since the lifting right-hand side is the residual at the zero
homogeneous state (``hifi.FlowSystem.lifting_rhs``).

The Stokes residual stabilization is the physical form pulled back the
same way, so it stays strongly consistent at every stretch.  Its weight
is the tensor delta*h_K^2 J J^T with J = diag(a, 1): the reference
element's h_K pushed forward through the stretch, i.e. each direction
weighted by the element's extent along it.  The pressure Laplacian then
becomes a times its reference form; it is the whole of
BrezziPitkaranta, while ResidualBased adds the viscous-residual blocks.
The Navier-Stokes (SUPGFamily) blocks and the P1/P0 jump penalty
(delta*h_sigma per interior edge) stay on the reference elements
(reference h_K, no pullback); so do the body-force terms, among them
the momentum-row term rho delta h_K^2 (f, nu lap v) of ResidualBased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse

from .fespace import FunctionSpace, bary_coords, shape_dlam, shape_values
from .linalg import CsrPattern
from .quadrature import triangle_rule

# theta_q(nu, a) of every tag
_THETA = {
    "one": lambda nu, a: 1.0,
    "a": lambda nu, a: a,
    "nu": lambda nu, a: nu,
    "nu_over_a": lambda nu, a: nu / a,
    "nu_times_a": lambda nu, a: nu * a,
    "nu_times_a_sq": lambda nu, a: nu * a * a,
    "nu_sq": lambda nu, a: nu * nu,
    "nu_sq_over_a_cu": lambda nu, a: nu * nu / (a * a * a),
    "nu_sq_over_a": lambda nu, a: nu * nu / a,
    "nu_sq_times_a": lambda nu, a: nu * nu * a,
    "nu_sq_times_a_cu": lambda nu, a: nu * nu * a * a * a,
}

THETA_TAGS = tuple(_THETA)

STAB_METHODS = ("None", "BrezziPitkaranta", "ResidualBased", "SUPGFamily",
                "EdgeJumpP1P0")

BODY_FORCE_DEGREE = 10   # the forces are smooth callables: no rule is exact


class GeometryMap:
    """Geometry/viscosity coefficients for the stretched cavity.

    The physical domain stretches the reference rectangle horizontally
    by a(mu2) = (1+mu2)/(1+mu_bar2); at mu2 = mu_bar2 the map is the
    identity.  ``viscosity`` selects how mu1 enters: "direct" (nu = mu1,
    Stokes) or "inverse" (nu = 1/mu1, mu1 acting as Reynolds number).
    """

    def __init__(self, mu_bar2: float = 1.0, viscosity: str = "direct"):
        if viscosity not in ("direct", "inverse"):
            raise ValueError(f"unknown viscosity rule {viscosity!r}")
        if mu_bar2 <= -1.0:
            raise ValueError("mu_bar2 must exceed -1")
        self.mu_bar2 = float(mu_bar2)
        self.viscosity = viscosity

    def a(self, mu2: float) -> float:
        return (1.0 + mu2) / (1.0 + self.mu_bar2)

    def nu(self, mu) -> float:
        mu1 = mu[0]
        if mu1 <= 0.0:
            raise ValueError("mu1 must be positive")
        return mu1 if self.viscosity == "direct" else 1.0 / mu1

    def theta(self, tag: str, mu) -> float:
        if tag not in _THETA:
            raise ValueError(f"unknown theta tag {tag!r}")
        return _THETA[tag](self.nu(mu), self.a(mu[1]))


class AffineOperator:
    """Sum of parameter-separable terms theta_q(mu) * M_q."""

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("affine operator needs at least one term")
        shapes = {m.shape for _, m in terms}
        if len(shapes) != 1:
            raise ValueError(f"affine terms disagree on shape: {shapes}")
        for tag, _ in terms:
            if tag not in THETA_TAGS:
                raise ValueError(f"unknown theta tag {tag!r}")
        self.terms = terms
        self.shape = terms[0][1].shape

    @property
    def q(self) -> int:
        return len(self.terms)

    def __iter__(self):
        """The (theta-tag, matrix) terms, in summation order."""
        return iter(self.terms)

    def evaluate(self, geometry: GeometryMap, mu):
        out = None
        for tag, m in self.terms:
            piece = geometry.theta(tag, mu) * m
            out = piece if out is None else out + piece
        return out

    def project(self, left: np.ndarray, right: np.ndarray) -> "AffineOperator":
        """Galerkin projection left^T M_q right of every term (dense)."""
        return AffineOperator([(tag, np.asarray(left.T @ (m @ right)))
                               for tag, m in self.terms])

    def project_vector(self, left: np.ndarray) -> "AffineOperator":
        return AffineOperator([(tag, np.asarray(left.T @ m))
                               for tag, m in self.terms])


def vector_expand(m: scipy.sparse.spmatrix) -> scipy.sparse.csr_matrix:
    """Scalar coupling -> interleaved 2-vector coupling (kron with I2)."""
    return scipy.sparse.kron(m, scipy.sparse.identity(2), format="csr")


def _quad_data(space: FunctionSpace, degree: int):
    """Reference values / physical gradients / weights for one space.

    Returns (vals (nq, nloc), grads (n_t, nq, nloc, 2), wdet (n_t, nq))
    with wdet the physical quadrature weights (reference weights sum to
    the reference area 1/2, so the affine scale is 2*area).
    """
    pts, w = triangle_rule(degree)
    lam = bary_coords(pts)
    vals = shape_values(space.family, lam)
    dlam = shape_dlam(space.family, lam)
    grads = np.einsum("qni,tid->tqnd", dlam, space.mesh.grad_bary)
    wdet = 2.0 * space.mesh.areas[:, None] * w[None, :]
    return vals, grads, wdet


def _cell_pattern(row_dofs: np.ndarray, col_dofs: np.ndarray, shape) -> CsrPattern:
    """CSR pattern for per-cell dense blocks row_dofs x col_dofs."""
    nr = row_dofs.shape[1]
    nc = col_dofs.shape[1]
    rows = np.repeat(row_dofs, nc, axis=1).ravel()
    cols = np.tile(col_dofs, (1, nr)).ravel()
    return CsrPattern(rows, cols, shape)


def _poly_degree(family: str) -> int:
    return {"P0": 0, "P1": 1, "P2": 2}[family]


# ---------------------------------------------------------------------------
# parameter-separated bilinear forms


def assemble_viscous(vel: FunctionSpace) -> AffineOperator:
    """Mapped vector Laplacian: (nu/a) * dx-block + (nu*a) * dy-block."""
    if vel.components != 2:
        raise ValueError("viscous form needs a vector velocity space")
    k = _poly_degree(vel.family)
    vals, grads, wdet = _quad_data(vel, max(2 * (k - 1), 0))
    pat = _cell_pattern(vel.cell_dofs, vel.cell_dofs,
                        (vel.n_scalar, vel.n_scalar))
    kxx = pat.assemble(np.einsum("tq,tqid,tqjd->tij", wdet,
                                 grads[..., :1], grads[..., :1]))
    kyy = pat.assemble(np.einsum("tq,tqid,tqjd->tij", wdet,
                                 grads[..., 1:], grads[..., 1:]))
    return AffineOperator([("nu_over_a", vector_expand(kxx)),
                           ("nu_times_a", vector_expand(kyy))])


def assemble_divergence(vel: FunctionSpace, prs: FunctionSpace
                        ) -> AffineOperator:
    """b(v, q) = -int q (dv_x/dx + a dv_y/dy); rows pressure, cols velocity."""
    if vel.mesh is not prs.mesh:
        raise ValueError("velocity and pressure live on different meshes")
    deg = _poly_degree(prs.family) + max(_poly_degree(vel.family) - 1, 0)
    pts, w = triangle_rule(deg)
    lam = bary_coords(pts)
    pvals = shape_values(prs.family, lam)
    dlam = shape_dlam(vel.family, lam)
    vgrads = np.einsum("qni,tid->tqnd", dlam, vel.mesh.grad_bary)
    wdet = 2.0 * vel.mesh.areas[:, None] * w[None, :]

    shape = (prs.n_scalar, vel.dof_count)
    vec_cols = vel.cell_vector_dofs()
    pat = _cell_pattern(prs.cell_dofs, vec_cols, shape)
    loc = np.zeros((vel.mesh.n_triangles, prs.n_local, vel.n_local, 2))
    terms = []
    for comp, tag in ((0, "one"), (1, "a")):
        loc[:] = 0.0
        loc[..., comp] = -np.einsum("tq,qk,tqnd->tkn", wdet, pvals,
                                    vgrads[..., comp:comp + 1])
        terms.append((tag, pat.assemble(loc)))
    return AffineOperator(terms)


def assemble_gram(space: FunctionSpace, kind: str) -> scipy.sparse.csr_matrix:
    """Parameter-independent inner product matrix.

    kind "l2": mass; "h1semi": stiffness (positive definite on the
    homogeneous-Dirichlet subspace).
    """
    k = _poly_degree(space.family)
    vals, grads, wdet = _quad_data(space, 2 * k)
    pat = _cell_pattern(space.cell_dofs, space.cell_dofs,
                        (space.n_scalar, space.n_scalar))
    if kind == "l2":
        out = pat.assemble(np.einsum("tq,qi,qj->tij", wdet, vals, vals))
    elif kind == "h1semi":
        out = pat.assemble(np.einsum("tq,tqid,tqjd->tij", wdet, grads, grads))
    else:
        raise ValueError(f"unknown gram kind {kind!r}")
    return vector_expand(out) if space.components == 2 else out


def assemble_mean_vector(prs: FunctionSpace) -> np.ndarray:
    """m_k = int psi_k, the zero-mean constraint functional."""
    vals, _, wdet = _quad_data(prs, _poly_degree(prs.family))
    out = np.zeros(prs.n_scalar)
    np.add.at(out, prs.cell_dofs.ravel(),
              np.einsum("tq,qk->tk", wdet, vals).ravel())
    return out


def _force_at_quadrature(mesh, force):
    """(rule points, weights (t, q), force values (t, q, 2)) per cell."""
    pts, w = triangle_rule(BODY_FORCE_DEGREE)
    lam = bary_coords(pts)
    verts = mesh.vertices[mesh.triangles]            # (t, 3, 2)
    phys = np.einsum("qi,tid->tqd", lam, verts)
    fxy = np.empty_like(phys)
    for t in range(phys.shape[0]):
        for q in range(phys.shape[1]):
            fxy[t, q] = force(phys[t, q, 0], phys[t, q, 1])
    wdet = 2.0 * mesh.areas[:, None] * w[None, :]
    return lam, wdet, fxy


def assemble_body_force(vel: FunctionSpace, force) -> np.ndarray:
    """(f, v) for a smooth callable force(x, y) -> (fx, fy)."""
    lam, wdet, fxy = _force_at_quadrature(vel.mesh, force)
    vals = shape_values(vel.family, lam)
    loc = np.einsum("tq,qn,tqd->tnd", wdet, vals, fxy)
    out = np.zeros(vel.dof_count)
    np.add.at(out, vel.cell_vector_dofs().ravel(), loc.ravel())
    return out


def assemble_stab_body_force(prs: FunctionSpace, force, delta: float
                             ) -> np.ndarray:
    """-delta sum_K h_K^2 (f, grad q): continuity consistency term."""
    mesh = prs.mesh
    lam, wdet, fxy = _force_at_quadrature(mesh, force)
    dlam = shape_dlam(prs.family, lam)
    grads = np.einsum("qni,tid->tqnd", dlam, mesh.grad_bary)
    h2 = mesh.element_diameters ** 2
    loc = -delta * np.einsum("t,tq,tqnd,tqd->tn", h2, wdet, grads, fxy)
    out = np.zeros(prs.n_scalar)
    np.add.at(out, prs.cell_dofs.ravel(), loc.ravel())
    return out


def assemble_momentum_stab_body_force(vel: FunctionSpace, force,
                                      delta: float, rho: float
                                      ) -> np.ndarray:
    """rho delta sum_K h_K^2 (f, lap v): the momentum-row consistency
    term of ResidualBased, without its factor nu (theta tag "nu")."""
    mesh = vel.mesh
    _, wdet, fxy = _force_at_quadrature(mesh, force)
    lap = vel.cell_second_derivatives().sum(axis=-1)      # (t, n)
    h2 = mesh.element_diameters ** 2
    loc = rho * delta * np.einsum("t,tn,tq,tqd->tnd", h2, lap, wdet, fxy)
    out = np.zeros(vel.dof_count)
    np.add.at(out, vel.cell_vector_dofs().ravel(), loc.ravel())
    return out


# ---------------------------------------------------------------------------
# quadratic terms at quadrature points

# the largest temporary a quadratic kernel forms: the action works on
# chunks of columns and the reduced tensor on blocks of cells this size
_BLOCK_BYTES = 1 << 21


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class _QuadraticForm:
    """A quadratic term of the velocity, applied at quadrature points.

    The form is c(a, b, z) = sum_K int_K weight sum_(e,m) a_e d_e b_m z_m:
    the transport of b along a, tested by a field z that ``_test`` reads
    from the test space (velocity values, pressure gradients) with the
    quadrature weights folded in.  ``_flux`` groups the (e, m) products
    by theta tag.  An instance holds per-cell quadrature data only:
    reference shape values, physical gradients and the weighted test
    map, on a rule exact for the integrand.
    Everything is derived from ``_flux``: ``action``, ``tangent`` and
    ``tensor`` evaluate the form with batched matmuls and one
    deterministic sparse scatter per row space, and ``_newton_matrix``
    assembles the matrices Q(w) and dQ(w) of a Newton step by feeding
    ``_flux`` the local basis in place of one argument.  Nothing is
    written after construction, so one instance serves any number of
    threads.
    """

    TAGS: tuple = ()

    def __init__(self, vel: FunctionSpace, vals: np.ndarray,
                 grads: np.ndarray, test: np.ndarray,
                 test_space: FunctionSpace):
        """``vals`` (q, n) and ``grads`` (t, q, n, 2) of the velocity
        shape functions; ``test`` the weighted test map of
        ``test_space``, whose local rows are scattered into the global
        ones.  It is (t, local nodes, q) when it reads the points alone,
        and the rows are then (node, component m) as for convection, or
        (t, local nodes, 2q) when it reads points and components, one row
        per node as for SUPG."""
        self.space = vel
        self._vals = _frozen(vals)
        self._grad = _frozen(grads.transpose(3, 0, 1, 2))         # (e, t, q, n)
        self._test = _frozen(test)
        dofs = self._test_dofs = test_space.cell_dofs
        self._scatter = scipy.sparse.csr_matrix(
            (np.ones(dofs.size), (dofs.ravel(), np.arange(dofs.size))),
            shape=(test_space.n_scalar, dofs.size))
        s = 2 * vals.shape[0] // test.shape[-1]     # rows per test node
        rows = (s * dofs[:, :, None] + np.arange(s)).reshape(len(dofs), -1)
        self._pattern = _cell_pattern(rows, vel.cell_vector_dofs(),
                                      (s * test_space.n_scalar, vel.dof_count))

    def _nodal(self, x: np.ndarray, cells) -> np.ndarray:
        """(t, n, 2k) nodal values of the velocity columns x (dof, k)."""
        return x.reshape(-1, 2 * x.shape[1])[self.space.cell_dofs[cells]]

    def _values(self, x: np.ndarray, cells=slice(None)) -> np.ndarray:
        """Values (t, q, m, k) of the velocity columns x."""
        v = self._vals @ self._nodal(x, cells)
        return v.reshape(*v.shape[:2], 2, -1)

    def _gradients(self, x: np.ndarray, cells=slice(None)) -> np.ndarray:
        """Gradients (e, t, q, m, k): d_e of component m of each column."""
        g = self._grad[:, cells] @ self._nodal(x, cells)
        return g.reshape(*g.shape[:3], 2, -1)

    def _test_local(self, f: np.ndarray) -> np.ndarray:
        """Per-cell rows (t, local nodes, s k) of a flux f (t, q, m, k),
        s rows per node: the test map applied to what it reads."""
        return self._test @ f.reshape(f.shape[0], self._test.shape[-1], -1)

    def _test_apply(self, f: np.ndarray) -> np.ndarray:
        """The (rows, k) vector sum_(q,m) test * f of a flux f (t, q, m, k)."""
        local = self._test_local(f)
        return (self._scatter @ local.reshape(-1, local.shape[-1])).reshape(
            -1, f.shape[-1])

    def _test_values(self, z: np.ndarray, cells) -> np.ndarray:
        """Test fields (t, q, m, i) of the columns of z: the adjoint of
        ``_test_apply``."""
        zn = z.reshape(self._scatter.shape[0], -1)[self._test_dofs[cells]]
        zt = self._test[cells].swapaxes(1, 2) @ zn
        return zt.reshape(zt.shape[0], -1, 2, z.shape[1])

    def _transport(self, x: np.ndarray) -> np.ndarray:
        """Values (e, t, q, 1, k) of the velocity columns x, laid out as
        ``_flux``'s transporting argument."""
        return np.moveaxis(self._values(x), 2, 0)[:, :, :, None]

    def action(self, a: np.ndarray, b: np.ndarray) -> list:
        """[(tag, c_tag(a_j, b_j, .))]: the form's (rows, k) vectors for
        the k velocity columns of a (transporting) and b (transported)."""
        _, t, q, _ = self._grad.shape
        step = max(1, _BLOCK_BYTES // (32 * t * q))
        chunks = []
        for start in range(0, a.shape[1], step):
            cols = slice(start, start + step)
            fluxes = self._flux(self._transport(a[:, cols]),
                                self._gradients(b[:, cols]))
            chunks.append([self._test_apply(f) for f in fluxes])
        return [(tag, np.hstack(parts))
                for tag, parts in zip(self.TAGS, zip(*chunks))]

    def tangent(self, u: np.ndarray):
        """The form's tangent at the velocity u, the quadratic part of a
        Newton Jacobian: v -> [(tag, c_tag(u, v, .) + c_tag(v, u, .))],
        (rows,) vectors.  u's point values and gradients are computed
        here, once; each application evaluates v once, forms the flux of
        each argument order and tests their sum."""
        au, gu = self._transport(u[:, None]), self._gradients(u[:, None])

        def apply(v: np.ndarray) -> list:
            v = v[:, None]
            pairs = zip(self._flux(au, self._gradients(v)),
                        self._flux(self._transport(v), gu))
            return [(tag, self._test_apply(f + h)[:, 0])
                    for tag, (f, h) in zip(self.TAGS, pairs)]
        return apply

    def tensor(self, z: np.ndarray, w: np.ndarray) -> AffineOperator:
        """T[i, j, k] = c(w_j, w_k, z_i) per tag: the reduced tensor of
        the test basis z and the velocity columns w, contracted from
        their quadrature values one block of cells and one j at a time.
        Within a block the values are laid out with the points last,
        (column, m, point), so scaling by w_j runs along whole rows."""
        _, t, q, _ = self._grad.shape
        n_z, n_w = z.shape[1], w.shape[1]
        out = np.zeros((len(self.TAGS), n_z, n_w, n_w))
        step = max(1, _BLOCK_BYTES // (32 * q * max(n_z, n_w)))
        for start in range(0, t, step):
            cells = slice(start, start + step)
            zt = np.ascontiguousarray(
                self._test_values(z, cells).transpose(3, 2, 0, 1))
            zt = zt.reshape(n_z, -1)                         # (i, m point)
            wa = np.ascontiguousarray(
                self._values(w, cells).transpose(2, 3, 0, 1))
            wa = wa.reshape(2, n_w, 1, -1)                   # (e, j, 1, point)
            gw = np.ascontiguousarray(
                self._gradients(w, cells).transpose(0, 4, 3, 1, 2))
            gw = gw.reshape(2, n_w, 2, -1)                   # (e, k, m, point)
            for j in range(n_w):
                for part, f in zip(out, self._flux(wa[:, j], gw)):
                    part[:, j] += zt @ f.reshape(n_w, -1).T
        return AffineOperator(list(zip(self.TAGS, out)))

    def _newton_matrix(self, w: np.ndarray, slot: int) -> AffineOperator:
        """The form at w as a matrix per tag in one of its arguments:
        slot 1 (the transported b, a = w) gives Q(w), slot 0 (the
        transporting a, b = w) gives dQ(w), and Q(w) + dQ(w) is the
        Newton Jacobian of c(u, u, .) at w.  The local basis phi_n e_c
        fills the slot, 2n columns in ``cell_vector_dofs`` order, and
        ``_flux`` does the rest; the m != c blocks of convection's Q(w)
        are stored zeros."""
        # a (e, t, q, 1, k) and b (e, t, q, m, k), as in ``action``; basis
        # column 2n + c is phi_n e_c, whose component c is phi_n
        _, t, q, n = self._grad.shape
        if slot:
            a = self._transport(w[:, None])
            b = np.zeros((2, t, q, 2, 2 * n))
            b[:, :, :, 0, 0::2] = b[:, :, :, 1, 1::2] = self._grad
        else:
            a = np.zeros((2, 1, q, 1, 2 * n))
            a[0, ..., 0::2] = a[1, ..., 1::2] = self._vals[:, None, :]
            b = self._gradients(w[:, None])
        return AffineOperator([
            (tag, self._pattern.assemble(self._test_local(f)))
            for tag, f in zip(self.TAGS, self._flux(a, b))])


class ConvectionAssembler(_QuadraticForm):
    """Trilinear form c(w, u, v) = int (w_x du/dx + a w_y du/dy) . v.

    Applied at the points of the degree 3k-1 rule, exact for the
    integrand: ``action`` gives C(a_j) b_j for stacked columns,
    ``tensor`` the reduced tensor and ``linearization`` the Newton
    matrices, all from ``_flux``.  One theta tag per transport
    direction.
    """

    TAGS = ("one", "a")

    def __init__(self, vel: FunctionSpace):
        if vel.components != 2:
            raise ValueError("convection needs a vector velocity space")
        k = _poly_degree(vel.family)
        vals, grads, wdet = _quad_data(vel, 3 * k - 1)
        super().__init__(vel, vals, grads, vals.T * wdet[:, None, :], vel)

    def _flux(self, a, g):
        return [a[0] * g[0], a[1] * g[1]]

    # perfbench wraps these two names to count and time Newton assembly
    def matrix(self, w: np.ndarray) -> AffineOperator:
        return self._newton_matrix(w, 1)

    def transport_jacobian(self, w: np.ndarray) -> AffineOperator:
        return self._newton_matrix(w, 0)

    def linearization(self, w: np.ndarray) -> tuple:
        """(C(w), its transport Jacobian): their sum is the Newton
        Jacobian of C(u)u at w."""
        return self.matrix(w), self.transport_jacobian(w)


class SupgAssembler(_QuadraticForm):
    """Convective part of the streamline-derivative continuity coupling.

    The nonlinear term delta sum_K h_K^2 ((w . grad) u, grad q), applied
    at the points of the degree kv + (kv-1) + (kp-1) rule, exact for the
    integrand, with delta h_K^2 folded into the weights: ``action``,
    ``tensor`` and the Newton matrices of ``linearization`` all come
    from ``_flux``.  On the reference elements the one term carries the
    tag "one" (a pullback through the stretch would split it by
    direction, as the convection's "one"/"a").
    """

    TAGS = ("one",)

    def __init__(self, vel: FunctionSpace, prs: FunctionSpace, delta: float):
        self.delta = float(delta)
        kv = _poly_degree(vel.family)
        kp = _poly_degree(prs.family)
        deg = kv + max(kv - 1, 0) + max(kp - 1, 0)
        vals, grads, wdet = _quad_data(vel, deg)
        wh2 = wdet * (self.delta * vel.mesh.element_diameters ** 2)[:, None]
        _, pgr, _ = _quad_data(prs, deg)                         # (t, q, r, m)
        n_t, q, npl, _ = pgr.shape
        test = (pgr * wh2[:, :, None, None]).transpose(0, 2, 1, 3)
        super().__init__(vel, vals, grads, test.reshape(n_t, npl, 2 * q), prs)

    def _flux(self, a, g):
        return [a[0] * g[0] + a[1] * g[1]]

    # perfbench wraps these two names to count and time Newton assembly
    def transport(self, w: np.ndarray) -> AffineOperator:
        return self._newton_matrix(w, 1)

    def jacobian(self, w: np.ndarray) -> AffineOperator:
        return self._newton_matrix(w, 0)

    def linearization(self, w: np.ndarray) -> tuple:
        """(T(w), its Jacobian): their sum is the Newton Jacobian of
        T(u)u at w."""
        return self.transport(w), self.jacobian(w)


# ---------------------------------------------------------------------------
# stabilization


@dataclass
class StabilizationConfig:
    """Which residual terms are added, with what weight, and where.

    method: one of None, BrezziPitkaranta, ResidualBased, SUPGFamily,
    EdgeJumpP1P0 (strings; "None" disables).  rho selects the momentum
    test-function variant of ResidualBased; the continuity-row terms
    (rho = 0) are the default and the only choice for the pressure-only
    BrezziPitkaranta and for SUPGFamily.
    """

    method: str = "None"
    delta: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        if self.method not in STAB_METHODS:
            raise ValueError(f"unknown stabilization method {self.method!r}")
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")
        if self.method in ("BrezziPitkaranta", "SUPGFamily") \
                and self.rho != 0.0:
            raise ValueError(f"{self.method} supports rho = 0 only")
        if self.rho not in (0.0, 1.0, -1.0):
            raise ValueError("rho must be one of 0, 1, -1")

    @property
    def active(self) -> bool:
        return self.method != "None" and self.delta > 0.0


def _pressure_laplacian(prs: FunctionSpace, delta: float) -> scipy.sparse.csr_matrix:
    k = _poly_degree(prs.family)
    _, grads, wdet = _quad_data(prs, max(2 * (k - 1), 0))
    h2 = prs.mesh.element_diameters ** 2
    pat = _cell_pattern(prs.cell_dofs, prs.cell_dofs,
                        (prs.n_scalar, prs.n_scalar))
    loc = delta * np.einsum("t,tq,tqid,tqjd->tij", h2, wdet, grads, grads)
    return pat.assemble(loc)


def _edge_jump(prs: FunctionSpace, delta: float) -> scipy.sparse.csr_matrix:
    mesh = prs.mesh
    edges = mesh.interior_edges
    tris = mesh.edge_tris[edges]                     # (n_e, 2)
    h = mesh.edge_lengths[edges]
    local = np.array([[1.0, -1.0], [-1.0, 1.0]])
    vals = delta * (h ** 2)[:, None, None] * local[None, :, :]
    pat = _cell_pattern(tris, tris, (prs.n_scalar, prs.n_scalar))
    return pat.assemble(vals.ravel())


def _viscous_residual_block(vel: FunctionSpace, prs: FunctionSpace,
                            delta: float, dirs: slice = slice(None),
                            comp: int | None = None
                            ) -> scipy.sparse.csr_matrix:
    """delta sum_K h_K^2 (-d_dd u, grad q) on the reference elements.

    Exactly zero for P1 velocity.  ``dirs`` selects the second-derivative
    directions d (all of them give the Laplacian, the reference-domain
    form); ``comp`` keeps only one velocity component m, which pairs
    with d_m q.  The pulled-back form weights each (m, d) part with its
    own theta tag.
    """
    lap = vel.cell_second_derivatives()[..., dirs].sum(axis=-1)  # (t, nv)
    kp = _poly_degree(prs.family)
    _, pgr, wdet = _quad_data(prs, max(kp - 1, 0))
    int_dpsi = np.einsum("tq,tqrm->trm", wdet, pgr)   # (t, np, 2)
    if comp is not None:
        int_dpsi[..., 1 - comp] = 0.0
    h2 = vel.mesh.element_diameters ** 2
    loc = -delta * np.einsum("t,tn,trm->trnm", h2, lap, int_dpsi)
    pat = _cell_pattern(prs.cell_dofs, vel.cell_vector_dofs(),
                        (prs.n_scalar, vel.dof_count))
    return pat.assemble(loc)


# Physical residual blocks are weighted by the tensor delta h_K^2 J J^T,
# J = diag(a, 1): the reference cell weight pushed forward through the
# stretch, so each direction is weighted by the element's extent along
# it.  Pulled back (dx = a dx_hat, d_x = d_x_hat / a), the pressure
# Laplacian is a times the reference one; the other blocks split into
# x_hat x_hat / y_hat y_hat parts per velocity component, tagged below.
_VISCOUS_RESIDUAL_TAGS = (("nu", "nu_times_a_sq"),      # (-nu lap u_x, d_x q)
                          ("nu_over_a", "nu_times_a"))  # (-nu lap u_y, d_y q)
_LAPLACIAN_PAIR_TAGS = (                 # (nu lap u_c, nu lap v_c) parts
    ("nu_sq_over_a", "nu_sq_times_a", "nu_sq_times_a_cu"),    # xx, xy+yx, yy
    ("nu_sq_over_a_cu", "nu_sq_over_a", "nu_sq_times_a"))


def _mapped_viscous_residual(vel: FunctionSpace, prs: FunctionSpace,
                             delta: float) -> AffineOperator:
    """Physical delta sum_K h_K^2 (-nu lap u, J J^T grad q), four terms."""
    terms = []
    for comp, tags in enumerate(_VISCOUS_RESIDUAL_TAGS):
        for d, tag in enumerate(tags):
            terms.append((tag, _viscous_residual_block(
                vel, prs, delta, slice(d, d + 1), comp)))
    return AffineOperator(terms)


def _momentum_residual_blocks(vel: FunctionSpace, suq: AffineOperator,
                              delta: float, rho: float):
    """rho-weighted momentum-row blocks of the residual family.

    suv = rho delta h^2 (nu lap u, J J^T nu lap v): per velocity
    component, the xx, xy+yx and yy products of the per-direction
    second derivatives, with equal tags summed;
    spv = -rho delta h^2 (grad p, J J^T nu lap v) = rho * suq^T.
    """
    d2 = vel.cell_second_derivatives()
    h2 = vel.mesh.element_diameters ** 2
    w = rho * delta * h2 * vel.mesh.areas
    cd = vel.cell_dofs
    pat = _cell_pattern(cd, cd, (vel.n_scalar, vel.n_scalar))

    def product(d, e):
        return pat.assemble(np.einsum("t,ti,tj->tij", w, d2[..., d],
                                      d2[..., e]))

    blocks = (product(0, 0), product(0, 1) + product(1, 0), product(1, 1))
    summed: dict[str, scipy.sparse.csr_matrix] = {}
    for comp, tags in enumerate(_LAPLACIAN_PAIR_TAGS):
        select = scipy.sparse.diags([1.0 - comp, float(comp)])  # e_c e_c^T
        for tag, m in zip(tags, blocks):
            piece = scipy.sparse.kron(m, select, format="csr")
            summed[tag] = summed[tag] + piece if tag in summed else piece
    suv = AffineOperator(list(summed.items()))
    spv = AffineOperator([(tag, (rho * m.T).tocsr()) for tag, m in suq.terms])
    return suv, spv


def assemble_stokes_stabilization(vel: FunctionSpace, prs: FunctionSpace,
                                  config: StabilizationConfig
                                  ) -> dict[str, AffineOperator]:
    """Residual-based, pressure-Laplacian or edge-jump blocks for the
    linear problem, keyed by their ``hifi.SADDLE_BLOCKS`` names.

    The residual blocks are the physical forms pulled back to the
    reference rectangle, so they stay strongly consistent at every
    stretch; at mu2 = mu_bar2 they reduce to the reference-domain forms.
    BrezziPitkaranta penalizes the pressure gradient alone: spq only.
    """
    if not config.active:
        raise ValueError("stabilization assembly requires an active method")
    if config.method == "EdgeJumpP1P0":
        if prs.family != "P0":
            raise ValueError("EdgeJumpP1P0 requires a P0 pressure space")
        jump = _edge_jump(prs, config.delta)
        return {"spq": AffineOperator([("one", jump)])}

    spq = AffineOperator([("a", _pressure_laplacian(prs, config.delta))])
    if config.method == "BrezziPitkaranta":
        return {"spq": spq}
    suq = _mapped_viscous_residual(vel, prs, config.delta)
    out = {"suq": suq, "spq": spq}      # in SADDLE_BLOCKS order
    if config.rho != 0.0:
        out["suv"], out["spv"] = _momentum_residual_blocks(
            vel, suq, config.delta, config.rho)
    return out


def assemble_ns_stabilization(vel: FunctionSpace, prs: FunctionSpace,
                              config: StabilizationConfig
                              ) -> dict[str, AffineOperator]:
    """Streamline-upwind blocks suq and spq, keyed by SADDLE_BLOCKS name.

    The transport term is nonlinear: ``FlowSystem`` adds it as a
    ``SupgAssembler`` kernel.  Unlike the Stokes residual blocks, these
    are the reference-domain forms (reference h_K, no pullback).
    """
    if config.method != "SUPGFamily":
        raise ValueError("Navier-Stokes stabilization uses SUPGFamily")
    return {"suq": AffineOperator([("nu", _viscous_residual_block(
                vel, prs, config.delta))]),
            "spq": AffineOperator([("one", _pressure_laplacian(
                prs, config.delta))])}


# ---------------------------------------------------------------------------
# dumps


def dump_affine_operator(op: AffineOperator, directory, name: str) -> list[str]:
    """Write each term as MatrixMarket coordinate/array text."""
    import os

    written = []
    for i, (tag, m) in enumerate(op.terms):
        path = os.path.join(str(directory), f"{name}_q{i}_{tag}.mtx")
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(m) if
                         scipy.sparse.issparse(m) else np.atleast_2d(m),
                         precision=17)
        written.append(path)
    return written
