"""High-fidelity solvers for the parametrized lid-driven cavity.

The saddle-point system is solved in homogeneous-Dirichlet unknowns
(lid data enters through a lifting field), with a single scalar
Lagrange multiplier enforcing the zero-mean pressure gauge.  Its linear
blocks are listed once, in ``SADDLE_BLOCKS``: row space, column space,
sign and whether the block is a Galerkin or a stabilization term; its
two quadratic terms, convection and SUPG transport, are listed the same
way in ``QUADRATIC_TERMS``.  Every full-order quantity is read from
these tables: the residual is one loop of mat-vecs over the linear
blocks plus one quadrature-point evaluation of each quadratic term (and
the body forces), the lifting right-hand side is the linear part of that
loop at the zero homogeneous state, and the Stokes matrix and the Newton
Jacobian are bordered matrices built from them.  The reduced model
projects the same tables (``rb``).

Navier-Stokes is solved by an inexact Newton iteration on the total
velocity field; the Jacobian differentiates the convective term and the
streamline-derivative stabilization.  The first step factors it; later
steps run GMRES preconditioned by the last factor, with the Jacobian
applied matrix-free through the quadratic kernels' ``action``, to an
Eisenstat-Walker forcing tolerance, and factor afresh only when GMRES
misses it.  A factored Jacobian is the only place that assembles the
matrices of the quadratic terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .assembly import (
    AffineOperator,
    ConvectionAssembler,
    GeometryMap,
    StabilizationConfig,
    StabilizationOperators,
    assemble_body_force,
    assemble_divergence,
    assemble_gram,
    assemble_mean_vector,
    assemble_momentum_stab_body_force,
    assemble_ns_stabilization,
    assemble_stab_body_force,
    assemble_stokes_stabilization,
    assemble_viscous,
)
from .fespace import FeFunction, FunctionSpace, interpolate_lifting, make_space
from .linalg import SparseLU
from .mesh import Mesh, build_rect_mesh
from .util import NonConvergenceError

PAIRS = {"P1P1": ("P1", "P1"), "P2P2": ("P2", "P2"),
         "P1P0": ("P1", "P0"), "P2P1": ("P2", "P1")}

PROBLEMS = ("stokes", "navier_stokes")

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
# Newton steps after the first run GMRES preconditioned by the last
# factored Jacobian: one restart cycle of KRYLOV_RESTART iterations, to
# the relative tolerance min(KRYLOV_FORCING, ||r_k|| / ref)
KRYLOV_RESTART = 15
KRYLOV_FORCING = 0.1


class SaddleBlock(NamedTuple):
    """One block of the saddle system.

    ``name`` is the operator (a key of ``FlowSystem.operators`` and the
    ``ReducedModel`` field of its projection); ``rows`` and ``cols`` are
    its spaces, "v" velocity and "p" pressure.  A ``transposed`` block
    is the named operator's transpose.  ``stab`` marks a stabilization
    term: online options iii/iv drop it, in the matrix and in the lifting
    right-hand side alike.  A quadratic block has ``cols`` "w": it is
    sign * Q(u) u in the total velocity u, applied and linearized by the
    kernel ``FlowSystem.quadratic[name]``.
    """

    name: str
    rows: str
    cols: str
    sign: float
    stab: bool
    transposed: bool = False


# [[A - Suv, B^T - Spv], [B - Suq, -Spq]]: the one place that knows the
# signs and the Galerkin/stabilization split of the linear blocks
SADDLE_BLOCKS = (
    SaddleBlock("visc", "v", "v", 1.0, False),
    SaddleBlock("b", "p", "v", 1.0, False),
    SaddleBlock("b", "v", "p", 1.0, False, transposed=True),
    SaddleBlock("suq", "p", "v", -1.0, True),
    SaddleBlock("spq", "p", "p", -1.0, True),
    SaddleBlock("suv", "v", "v", -1.0, True),
    SaddleBlock("spv", "v", "p", -1.0, True),
)


# the convection c(u, u, v) and minus the SUPG transport
# delta h_K^2 ((u . grad) u, grad q)
QUADRATIC_TERMS = (SaddleBlock("conv", "v", "w", 1.0, False),
                   SaddleBlock("tn", "p", "w", -1.0, True))


@dataclass
class ProblemConfig:
    """Problem family, element pair, stabilization and parameter box."""

    problem: str = "stokes"
    fe_pair: str = "P1P1"
    stabilization: StabilizationConfig = field(
        default_factory=StabilizationConfig)
    # None means the per-problem box: viscosity [0.25,0.75] x [1,3] for
    # Stokes, Reynolds [100,200] x [1.5,3] for Navier-Stokes.
    mu1_range: tuple[float, float] | None = None
    mu2_range: tuple[float, float] | None = None
    mu_bar2: float = 1.0

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.fe_pair not in PAIRS:
            raise ValueError(f"unknown element pair {self.fe_pair!r}")
        ns = self.problem == "navier_stokes"
        if self.mu1_range is None:
            self.mu1_range = (100.0, 200.0) if ns else (0.25, 0.75)
        if self.mu2_range is None:
            self.mu2_range = (1.5, 3.0) if ns else (1.0, 3.0)
        if self.mu1_range[0] >= self.mu1_range[1] or self.mu1_range[0] <= 0:
            raise ValueError("mu1 range must be positive and increasing")
        if self.mu2_range[0] >= self.mu2_range[1]:
            raise ValueError("mu2 range must be increasing")
        m = self.stabilization.method
        if self.fe_pair == "P2P1" and m != "None":
            raise ValueError("P2P1 is inf-sup stable; stabilization must be None")
        if self.fe_pair == "P1P0" and m not in ("None", "EdgeJumpP1P0"):
            raise ValueError("P1P0 supports EdgeJumpP1P0 or None")
        if m == "EdgeJumpP1P0" and self.fe_pair != "P1P0":
            raise ValueError("EdgeJumpP1P0 requires the P1P0 pair")
        if self.problem == "stokes" and m == "SUPGFamily":
            raise ValueError("SUPGFamily is the Navier-Stokes family")
        if self.problem == "navier_stokes" and m in ("BrezziPitkaranta",
                                                     "ResidualBased",
                                                     "EdgeJumpP1P0"):
            raise ValueError("Navier-Stokes stabilization uses SUPGFamily")

    @property
    def viscosity_mode(self) -> str:
        return "direct" if self.problem == "stokes" else "inverse"

    def geometry(self) -> GeometryMap:
        return GeometryMap(self.mu_bar2, self.viscosity_mode)


@dataclass
class FeSolution:
    """Velocity (homogeneous part), pressure, and the lifting field.

    ``diagnostics["rcond"]`` is the estimated reciprocal condition
    number of the saddle matrix (Stokes) or the smallest over the Newton
    Jacobians factored (None when Newton took no step).  Newton also
    counts its ``factorizations`` and ``krylov_iterations``.
    """

    velocity: FeFunction
    pressure: FeFunction
    lifting: FeFunction
    mu: tuple
    diagnostics: dict

    @property
    def total_velocity(self) -> FeFunction:
        return FeFunction(self.velocity.space,
                          self.velocity.values + self.lifting.values)


class FlowSystem:
    """Spaces, affine operators and solvers for one problem setup.

    Everything parameter-independent (affine matrix terms, Gram
    matrices, body forces, the quadratic terms' quadrature data) is
    assembled once; per-parameter work is limited to weighted sums,
    boundary restriction and the linear solves.  ``operators`` holds
    the affine operator of every ``SADDLE_BLOCKS`` name the
    configuration has, ``quadratic`` the kernel of every
    ``QUADRATIC_TERMS`` name: its ``action`` and ``tensor`` work at
    quadrature points, and its ``linearization`` assembles the two
    matrices of a Newton Jacobian, looked up on the kernel's class at
    every call.
    """

    def __init__(self, config: ProblemConfig, nx: int, ny: int,
                 lifting: FeFunction | None = None, body_force=None,
                 mesh: Mesh | None = None):
        self.config = config
        self.mesh_nx = nx
        self.mesh_ny = ny
        self.mesh = mesh if mesh is not None else build_rect_mesh(
            2.0, 1.0, nx, ny)
        vf, pf = PAIRS[config.fe_pair]
        self.velocity_space = make_space(self.mesh, vf, 2)
        self.pressure_space = make_space(self.mesh, pf, 1)
        self.geometry = config.geometry()
        self.lifting = (lifting if lifting is not None
                        else interpolate_lifting(self.velocity_space))

        self.viscous = assemble_viscous(self.velocity_space)
        self.divergence = assemble_divergence(self.velocity_space,
                                              self.pressure_space)
        self.stab: StabilizationOperators | None = None
        if config.stabilization.active:
            if config.problem == "navier_stokes":
                self.stab = assemble_ns_stabilization(
                    self.velocity_space, self.pressure_space,
                    config.stabilization)
            else:
                self.stab = assemble_stokes_stabilization(
                    self.velocity_space, self.pressure_space,
                    config.stabilization)
        self.convection = (ConvectionAssembler(self.velocity_space)
                           if config.problem == "navier_stokes" else None)
        # the kernel of each QUADRATIC_TERMS name the configuration has
        self.quadratic = {}
        if self.convection is not None:
            self.quadratic["conv"] = self.convection
        if self.stab is not None and self.stab.supg is not None:
            self.quadratic["tn"] = self.stab.supg
        self.operators = {"visc": self.viscous, "b": self.divergence}
        for blk in SADDLE_BLOCKS:
            op = getattr(self.stab, blk.name, None)
            if op is not None:
                self.operators[blk.name] = op

        # (row space, stabilization flag, theta tag, vector) per body force
        self.body_terms = []
        if body_force is not None:
            sc, vel = config.stabilization, self.velocity_space
            self.body_terms.append(
                ("v", False, "one", assemble_body_force(vel, body_force)))
            if self.stab is not None and sc.method != "EdgeJumpP1P0":
                cont = assemble_stab_body_force(
                    self.pressure_space, body_force, sc.delta)
                self.body_terms.append(("p", True, "one", cont))
            if getattr(self.stab, "suv", None) is not None:
                mom = assemble_momentum_stab_body_force(
                    vel, body_force, sc.delta, sc.rho)
                self.body_terms.append(("v", True, "nu", mom))

        self.gram_velocity = assemble_gram(self.velocity_space, "h1semi")
        self.gram_pressure = assemble_gram(self.pressure_space, "l2")
        self.mean_vector = assemble_mean_vector(self.pressure_space)
        self.free = self.velocity_space.free_dofs()
        self.n_free = self.free.size
        self.n_pressure = self.pressure_space.dof_count

    # -- the saddle table ---------------------------------------------

    def _linear_terms(self, state: dict):
        """The linear part of the residual at ``state``, term by term.

        ``state`` maps "v" to a total velocity and "p" to a pressure; a
        space left out is zero.  Yields (row space, stabilization flag,
        theta tag, sign, vector): M_q x for every term of every
        SADDLE_BLOCKS entry, then the body forces (sign -1, no column).
        """
        for name, rows, cols, sign, stab, transposed in SADDLE_BLOCKS:
            op = self.operators.get(name)
            if op is None or cols not in state:
                continue
            x = state[cols]
            for tag, m in op:
                yield rows, stab, tag, sign, (m.T if transposed else m) @ x
        for rows, stab, tag, vec in self.body_terms:
            yield rows, stab, tag, -1.0, vec

    def _linear_residual(self, mus, state: dict) -> dict:
        """sum sign theta_q(mu) M_q x over ``_linear_terms``, by row space
        (every dof); the k state columns take the k parameters ``mus``,
        one per column."""
        g = self.geometry
        out = {"v": np.zeros((self.velocity_space.dof_count, len(mus))),
               "p": np.zeros((self.n_pressure, len(mus)))}
        for rows, _, tag, sign, vec in self._linear_terms(state):
            w = np.array([sign * g.theta(tag, m) for m in mus])
            out[rows] += w * vec.reshape(len(vec), -1)  # body force: 1 column
        return out

    def lifting_rhs(self) -> dict:
        """The lifting right-hand sides as affine vectors.

        Minus the linear residual at the zero homogeneous state (total
        velocity the lifting, zero pressure), body forces included: one
        AffineOperator over every velocity or every pressure dof per
        (row space, stabilization flag) that has a term.
        """
        groups: dict[tuple, list] = {}
        for rows, stab, tag, sign, vec in self._linear_terms(
                {"v": self.lifting.values}):
            groups.setdefault((rows, stab), []).append((tag, -sign * vec))
        return {key: AffineOperator(terms) for key, terms in groups.items()}

    def _saddle_matrix(self, mu, u_total: np.ndarray | None = None,
                       linear=None):
        """The bordered SADDLE_BLOCKS matrix at mu on the free velocity
        dofs, with the mean constraint; given a total velocity, the
        Newton Jacobian there: that matrix (``linear`` when given) plus
        the bordered Q + dQ of every QUADRATIC_TERMS entry, one sparse
        add on the same shape."""
        k = self._linear_saddle_matrix(mu) if linear is None else linear
        if u_total is None:
            return k
        g = self.geometry
        quad: dict[str, scipy.sparse.spmatrix] = {}
        for name, rows, _, sign, _, _ in QUADRATIC_TERMS:
            if name in self.quadratic:
                q, dq = self.quadratic[name].linearization(u_total)
                m = sign * (q.evaluate(g, mu) + dq.evaluate(g, mu))
                quad[rows] = quad[rows] + m if rows in quad else m
        n_v = self.velocity_space.dof_count
        v = quad.get("v", scipy.sparse.csr_matrix((n_v, n_v)))[self.free]
        p = quad.get("p", scipy.sparse.csr_matrix((self.n_pressure, n_v)))
        bordered = scipy.sparse.vstack([v, p], format="csr")[:, self.free]
        bordered.resize(k.shape)
        return k + bordered

    def _linear_saddle_matrix(self, mu):
        """The bordered SADDLE_BLOCKS matrix at mu (CSC): the Stokes
        matrix, and the linear part of every Newton Jacobian."""
        g = self.geometry
        values: dict[str, scipy.sparse.spmatrix] = {}
        blocks: dict[tuple, scipy.sparse.spmatrix] = {}

        def add(key, m, sign=1.0):
            m = m if sign > 0 else -m
            blocks[key] = blocks[key] + m if key in blocks else m

        for name, rows, cols, sign, _, transposed in SADDLE_BLOCKS:
            op = self.operators.get(name)
            if op is None:
                continue
            if name not in values:
                values[name] = op.evaluate(g, mu)
            m = values[name].T.tocsr() if transposed else values[name]
            add((rows, cols), m, sign)

        def cut(rows, cols):
            m = blocks.get((rows, cols))
            if m is not None and rows == "v":
                m = m[self.free]
            if m is not None and cols == "v":
                m = m[:, self.free]
            return m

        m_col = scipy.sparse.csr_matrix(self.mean_vector.reshape(-1, 1))
        return scipy.sparse.bmat(
            [[cut("v", "v"), cut("v", "p"), None],
             [cut("p", "v"), cut("p", "p"), m_col],
             [None, m_col.T, None]], format="csc")

    def jacobian_action(self, mu, u_total: np.ndarray, x: np.ndarray,
                        linear) -> np.ndarray:
        """J x for the Newton Jacobian J at the total velocity u_total,
        with no quadratic matrix assembled: ``linear``, the linear saddle
        matrix at mu, times x, plus sign theta(mu) [c(u, v) + c(v, u)] of
        every QUADRATIC_TERMS entry for the velocity part v of x, from
        one two-column ``action`` call per kernel."""
        out = linear @ x
        nf, g = self.n_free, self.geometry
        v = np.zeros(self.velocity_space.dof_count)
        v[self.free] = x[:nf]
        a = np.column_stack([u_total, v])
        b = np.column_stack([v, u_total])
        for name, rows, _, sign, _, _ in QUADRATIC_TERMS:
            if name in self.quadratic:
                for tag, c in self.quadratic[name].action(a, b):
                    q = sign * g.theta(tag, mu) * (c[:, 0] + c[:, 1])
                    if rows == "v":
                        out[:nf] += q[self.free]
                    else:
                        out[nf:nf + self.n_pressure] += q
        return out

    def _split(self, x: np.ndarray):
        nf, npr = self.n_free, self.n_pressure
        u_full = np.zeros(self.velocity_space.dof_count)
        u_full[self.free] = x[:nf]
        return u_full, x[nf:nf + npr], float(x[nf + npr])

    def _pack_solution(self, mu, u_full, p, diagnostics) -> FeSolution:
        return FeSolution(
            velocity=FeFunction(self.velocity_space, u_full),
            pressure=FeFunction(self.pressure_space, p),
            lifting=self.lifting, mu=tuple(mu), diagnostics=diagnostics)

    # -- residuals ----------------------------------------------------

    def residual(self, mu, u_homog: np.ndarray, p: np.ndarray,
                 lam: float = 0.0) -> np.ndarray:
        """Nonlinear algebraic residual at a homogeneous-velocity state.

        The SADDLE_BLOCKS mat-vecs on the total state [u + l | p], plus
        the QUADRATIC_TERMS and body forces; stacks the free momentum
        rows, the (stabilized) continuity rows and the mean constraint.
        This is the quantity Newton drives to zero and the one the greedy
        error indicator measures.  States stacked as k columns take k
        parameters and give k residual columns; each quadratic term is
        applied at quadrature points to all of them in one ``action``
        call, weighted per column, with no matrix assembled.
        """
        g = self.geometry
        batched = np.ndim(u_homog) == 2
        mus = mu if batched else [mu]
        u_t = np.reshape(u_homog, (len(u_homog), -1)) \
            + self.lifting.values[:, None]
        p = np.reshape(p, (len(p), -1))
        r = self._linear_residual(mus, {"v": u_t, "p": p})
        for name, rows, _, sign, _, _ in QUADRATIC_TERMS:
            if name in self.quadratic:
                for tag, c in self.quadratic[name].action(u_t, u_t):
                    r[rows] += np.array([sign * g.theta(tag, m)
                                         for m in mus]) * c
        r["p"] += lam * self.mean_vector[:, None]
        out = np.concatenate([r["v"][self.free], r["p"],
                              (self.mean_vector @ p)[None]])
        return out if batched else out[:, 0]

    def residual_reference(self, mu) -> float:
        """Residual norm of the zero homogeneous state (RHS scale)."""
        zero_u = np.zeros(self.velocity_space.dof_count)
        zero_p = np.zeros(self.n_pressure)
        return float(np.linalg.norm(self.residual(mu, zero_u, zero_p)))

    # -- solvers ------------------------------------------------------

    def solve_stokes(self, mu) -> FeSolution:
        """Linear saddle solve (the Stokes operator under config's nu rule).

        The right-hand side is minus the linear residual of the zero
        homogeneous state.
        """
        k = self._saddle_matrix(mu)
        r0 = self._linear_residual([mu], {"v": self.lifting.values[:, None]})
        rhs = np.concatenate([-r0["v"][self.free, 0], -r0["p"][:, 0], [0.0]])
        lu = SparseLU(k, context=f"stokes solve at mu={tuple(mu)}")
        x = lu.solve(rhs)
        u_full, p, lam = self._split(x)
        res = float(np.linalg.norm(k @ x - rhs))
        scale = float(np.linalg.norm(rhs))
        diag = {"type": "stokes", "iterations": 1, "lambda": lam,
                "residual": res / scale if scale > 0 else res,
                "n_dof": k.shape[0], "rcond": lu.rcond}
        return self._pack_solution(mu, u_full, p, diag)

    def solve_navier_stokes(self, mu, initial_guess: FeSolution | None = None,
                            tol: float = NEWTON_TOL,
                            max_iter: int = NEWTON_MAX_ITER) -> FeSolution:
        """Inexact Newton on the stabilized nonlinear system.

        The linear saddle matrix at mu is evaluated once per solve.  The
        first step factors the Jacobian and solves directly.  Every later
        step solves J_k d = -r_k by GMRES, with J_k applied matrix-free
        (``jacobian_action``) and the last factor as left preconditioner,
        to the relative tolerance min(KRYLOV_FORCING, ||r_k|| / ref): the
        forcing term shrinks with the residual, which keeps the quadratic
        tail.  A step whose GMRES misses it within one restart cycle
        factors J_k and keeps that factor from then on.  ``diagnostics``
        counts the ``factorizations`` and the ``krylov_iterations``.
        """
        if self.config.problem != "navier_stokes":
            raise ValueError("configured problem is not Navier-Stokes")
        if initial_guess is None:
            initial_guess = self.solve_stokes(mu)
        u_full = initial_guess.velocity.values.copy()
        p = initial_guess.pressure.values.copy()
        lam = 0.0
        ref = self.residual_reference(mu)
        k_lin = self._saddle_matrix(mu)
        history = []
        rconds = []
        krylov = []
        lu = None
        iterations = 0
        while True:
            r = self.residual(mu, u_full, p, lam)
            rn = float(np.linalg.norm(r))
            history.append(rn)
            if rn <= tol * ref:
                break
            if iterations >= max_iter:
                raise NonConvergenceError(
                    f"Newton stalled after {iterations} iterations at "
                    f"mu={tuple(mu)} (residual {rn:.3e}, target "
                    f"{tol * ref:.3e})", history)
            u_t = u_full + self.lifting.values
            delta = None
            if lu is not None:
                forcing = min(KRYLOV_FORCING, rn / ref) if ref > 0 \
                    else KRYLOV_FORCING
                delta = self._krylov_step(mu, u_t, k_lin, lu, -r, forcing,
                                          krylov.append)
            if delta is None:
                lu = None   # no factor stays alive while the next one is built
                lu = SparseLU(self._saddle_matrix(mu, u_t, k_lin),
                              context=f"newton step {iterations} at "
                                      f"mu={tuple(mu)}")
                rconds.append(lu.rcond)
                delta = lu.solve(-r)
            du, dp, dl = self._split(delta)
            u_full += du
            p += dp
            lam += dl
            iterations += 1
        diag = {"type": "newton", "iterations": iterations,
                "residuals": history, "lambda": lam,
                "residual": history[-1] / ref if ref > 0 else history[-1],
                "rcond": min(rconds, default=None),
                "factorizations": len(rconds),
                "krylov_iterations": len(krylov)}
        return self._pack_solution(mu, u_full, p, diag)

    def _krylov_step(self, mu, u_total, linear, lu: SparseLU, rhs, rtol,
                     callback):
        """One restart cycle of GMRES for J d = rhs, J the Newton
        Jacobian at u_total applied matrix-free, left-preconditioned by
        ``lu``; ``callback`` sees each iteration.  None when the cycle
        misses the relative tolerance rtol."""
        jac = scipy.sparse.linalg.LinearOperator(
            linear.shape, dtype=float,
            matvec=lambda x: self.jacobian_action(mu, u_total, x, linear))
        precond = scipy.sparse.linalg.LinearOperator(
            linear.shape, dtype=float, matvec=lu.solve)
        delta, info = scipy.sparse.linalg.gmres(
            jac, rhs, rtol=rtol, atol=0.0, restart=KRYLOV_RESTART,
            maxiter=1, M=precond, callback=callback, callback_type="pr_norm")
        return delta if info == 0 else None

    def solve_navier_stokes_continued(self, mu, steps: int = 4) -> FeSolution:
        """Newton with geometric Reynolds continuation as a fallback."""
        try:
            return self.solve_navier_stokes(mu)
        except NonConvergenceError:
            guess = None
            mu1, mu2 = mu[0], mu[1]
            for k in range(1, steps + 1):
                mu1_k = mu1 ** (k / steps)
                guess = self.solve_navier_stokes((mu1_k, mu2),
                                                 initial_guess=guess)
            return guess

    def solve(self, mu, **kwargs) -> FeSolution:
        if self.config.problem == "navier_stokes":
            if kwargs:
                return self.solve_navier_stokes(mu, **kwargs)
            return self.solve_navier_stokes_continued(mu)
        return self.solve_stokes(mu)
