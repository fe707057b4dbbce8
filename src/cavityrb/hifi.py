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
the body forces), and the lifting right-hand side is the linear part of
that loop at the zero homogeneous state.  One builder,
``FlowSystem._saddle_matrix``, borders the blocks into the Stokes matrix
or, given a velocity, the Newton Jacobian; the Stokes right-hand side
is minus the residual at the zero homogeneous state, so a Stokes solve
is for Stokes systems only.  The reduced model projects the same tables
(``rb``).

A system keeps one sparse LU factor, built at its first solve and
never replaced: the Stokes matrix at the box center, or for
Navier-Stokes the Newton Jacobian near the center's solution
(``FlowSystem.center_factor``).  Every full-order solve runs GMRES
preconditioned by it and is judged by its true residual; a solve (or a
Newton step) that misses factors its own matrix, uses that factor once
and frees it (``FlowSystem._solve_linear``).  Truths therefore differ
from direct solves at round-off, about 1e-12 relative, and do not
depend on which solves the system ran before.  A one-off solve pays for
the center factor (for Navier-Stokes, a few factored Newton steps at
the center) on top of its own GMRES; the factor pays off over the many
solves of a greedy or a sweep.

Navier-Stokes is solved by an inexact Newton iteration on the total
velocity field, cold from the zero homogeneous state; the Jacobian
differentiates the convective term and the streamline-derivative
stabilization.  Each step applies the Jacobian matrix-free through the
quadratic kernels' ``tangent`` at the step's state
(``FlowSystem.jacobian_action``) and stops GMRES at a safeguarded
Eisenstat-Walker forcing term: the relative residual ||r_k|| / ref
while the residual is large, which keeps the quadratic convergence,
and on the last step only the reduction the Newton tolerance needs
(Kelley 1995, section 6.3).  Newton stops on its true residual, so a
truth ends between about 1e-12 and 1e-10 of ref.  A factored Jacobian
(the center factor's, or a missed step's) is the only place that
assembles the matrices of the quadratic terms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .assembly import (
    AffineOperator,
    ConvectionAssembler,
    GeometryMap,
    StabilizationConfig,
    SupgAssembler,
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
from .fespace import FeFunction, interpolate_lifting, make_space
from .linalg import SparseLU, release_free_heap
from .mesh import Mesh, build_rect_mesh
from .util import NonConvergenceError, SingularSystemError

PAIRS = {"P1P1": ("P1", "P1"), "P2P2": ("P2", "P2"),
         "P1P0": ("P1", "P0"), "P2P1": ("P2", "P1")}

# how each problem's mu1 enters the viscosity (``GeometryMap``): Stokes
# nu = mu1, Navier-Stokes nu = 1/mu1 with mu1 the Reynolds number
VISCOSITY_MODES = {"stokes": "direct", "navier_stokes": "inverse"}
PROBLEMS = tuple(VISCOSITY_MODES)

# the stabilization methods each (problem, pair) accepts besides "None":
# P2P1 is inf-sup stable and P1P0 has its own edge jump
PAIR_METHODS = {
    ("stokes", "P1P1"): ("BrezziPitkaranta", "ResidualBased"),
    ("stokes", "P2P2"): ("BrezziPitkaranta", "ResidualBased"),
    ("stokes", "P1P0"): ("EdgeJumpP1P0",),
    ("navier_stokes", "P1P1"): ("SUPGFamily",),
    ("navier_stokes", "P2P2"): ("SUPGFamily",),
}

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
# Every full-order linear solve runs GMRES preconditioned by the center
# factor, in at most KRYLOV_CYCLES restart cycles of KRYLOV_RESTART
# iterations.  A Stokes solve asks for the relative residual STOKES_RTOL
# and accepts up to STOKES_ACCEPT; a Newton step to tolerance tol asks
# for and accepts the forcing term
# min(KRYLOV_FORCING, max(||r_k|| / ref, 0.5 tol ref / ||r_k||)).
KRYLOV_RESTART = 30
KRYLOV_CYCLES = 2
STOKES_RTOL = 1e-12
STOKES_ACCEPT = 1e-11
KRYLOV_FORCING = 0.1
# The Navier-Stokes center factor is the Jacobian at the first Newton
# iterate at the box center whose residual is within CENTER_TOL of the
# zero state's: a preconditioner needs no converged state, and each tail
# step would cost a factorization.  On the 32x16 P2P2 SUPG system the
# sweep's Krylov iterations with it match those with the converged
# Jacobian's factor within 1%.
CENTER_TOL = 1e-2


class SaddleBlock(NamedTuple):
    """One block of the saddle system.

    ``name`` is the operator (a key of ``FlowSystem.operators`` and of
    the stabilization assemblers' dicts, the ``ReducedModel`` field of
    its projection); ``rows`` and ``cols`` are its spaces, "v" velocity
    and "p" pressure.  A ``transposed`` block is the named operator's
    transpose.  ``stab`` marks a stabilization term: online options
    iii/iv drop it, in the matrix and in the lifting right-hand side
    alike.  A quadratic block has ``cols`` "w": it is sign * Q(u) u in
    the total velocity u, applied and linearized by the kernel
    ``FlowSystem.quadratic[name]``.
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
        # the stretch a(mu2) = (1 + mu2) / (1 + mu_bar2) must stay positive
        if self.mu2_range[0] >= self.mu2_range[1] or self.mu2_range[0] <= -1:
            raise ValueError("mu2 range must exceed -1 and be increasing")
        self.geometry()     # refuses mu_bar2 <= -1
        accepted = ("None",) + PAIR_METHODS.get(
            (self.problem, self.fe_pair), ())
        if self.stabilization.method not in accepted:
            raise ValueError(f"{self.problem} {self.fe_pair} accepts "
                             f"stabilization {' or '.join(accepted)}")

    @property
    def viscosity_mode(self) -> str:
        return VISCOSITY_MODES[self.problem]

    def geometry(self) -> GeometryMap:
        return GeometryMap(self.mu_bar2, self.viscosity_mode)

    def center(self) -> tuple[float, float]:
        """The center of the parameter box."""
        return (0.5 * (self.mu1_range[0] + self.mu1_range[1]),
                0.5 * (self.mu2_range[0] + self.mu2_range[1]))


@dataclass
class FeSolution:
    """Velocity (homogeneous part), pressure, and the lifting field.

    Every solve's ``diagnostics`` count its own ``factorizations`` (made
    when GMRES missed; the center factor and its Newton run are not
    counted) and its ``krylov_iterations``.  A Newton solve also lists
    ``residuals``, ||r_k|| at every iterate, and ``forcing``, the GMRES
    tolerance of every step (``solve_navier_stokes``); neither goes into
    an output file.  ``diagnostics["rcond"]`` is the estimated
    reciprocal condition number of the factor named by
    ``diagnostics["rcond_factor"]``: "own", the smallest over the solve's
    own factors, when it made any; else "center", the center factor
    that preconditioned it; None for both when Newton took no step.
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
    boundary restriction and the linear solves.  The two dicts are the
    one record of the configuration's terms: ``operators`` holds the
    affine operator of every ``SADDLE_BLOCKS`` name it has, in table
    order, ``quadratic`` the kernel of every ``QUADRATIC_TERMS`` name:
    its ``action`` and ``tensor`` work at quadrature points, and its
    ``linearization`` assembles the two matrices of a Newton Jacobian,
    looked up on the kernel's class at every call.
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

        vel, prs = self.velocity_space, self.pressure_space
        sc, ns = config.stabilization, config.problem == "navier_stokes"
        self.operators = {"visc": assemble_viscous(vel),
                          "b": assemble_divergence(vel, prs)}
        self.quadratic = {"conv": ConvectionAssembler(vel)} if ns else {}
        if sc.active:
            assemble = (assemble_ns_stabilization if ns
                        else assemble_stokes_stabilization)
            self.operators.update(assemble(vel, prs, sc))
            if sc.method == "SUPGFamily":
                self.quadratic["tn"] = SupgAssembler(vel, prs, sc.delta)

        # (row space, stabilization flag, theta tag, vector) per body force
        self.body_terms = []
        if body_force is not None:
            self.body_terms.append(
                ("v", False, "one", assemble_body_force(vel, body_force)))
            if sc.active and sc.method != "EdgeJumpP1P0":
                cont = assemble_stab_body_force(prs, body_force, sc.delta)
                self.body_terms.append(("p", True, "one", cont))
            if "suv" in self.operators:
                mom = assemble_momentum_stab_body_force(
                    vel, body_force, sc.delta, sc.rho)
                self.body_terms.append(("v", True, "nu", mom))

        self.gram_velocity = assemble_gram(self.velocity_space, "h1semi")
        self.gram_pressure = assemble_gram(self.pressure_space, "l2")
        self.mean_vector = assemble_mean_vector(self.pressure_space)
        self.free = self.velocity_space.free_dofs()
        self.n_free = self.free.size
        self.n_pressure = self.pressure_space.dof_count
        self._center: SparseLU | None = None    # see ``center_factor``
        self._center_error: Exception | None = None
        self._center_lock = threading.Lock()

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

    def _saddle_matrix(self, mu, u_total: np.ndarray | None = None):
        """The bordered saddle matrix at mu (CSC) on the free velocity
        dofs, with the mean constraint: the SADDLE_BLOCKS matrix (the
        Stokes matrix, and the linear part of every Newton Jacobian) or,
        given a total velocity, the Newton Jacobian there, with Q + dQ of
        every QUADRATIC_TERMS entry added to its row block's velocity
        columns before the one cut and ``bmat``."""
        g = self.geometry
        values: dict[str, scipy.sparse.spmatrix] = {}
        blocks: dict[tuple, scipy.sparse.spmatrix] = {}

        def add(key, m, sign):
            m = m if sign > 0 else -m
            blocks[key] = blocks[key] + m if key in blocks else m

        for name, rows, cols, sign, _, transposed in SADDLE_BLOCKS:
            op = self.operators.get(name)
            if op is None:
                continue
            if name not in values:
                values[name] = op.evaluate(g, mu)
            add((rows, cols), values[name].T.tocsr() if transposed
                else values[name], sign)
        if u_total is not None:
            for name, rows, _, sign, _, _ in QUADRATIC_TERMS:
                if name in self.quadratic:
                    q, dq = self.quadratic[name].linearization(u_total)
                    add((rows, "v"), q.evaluate(g, mu) + dq.evaluate(g, mu),
                        sign)

        def cut(rows, cols):
            m = blocks.get((rows, cols))
            if m is not None and rows == "v":
                m = m[self.free]
            if m is not None and cols == "v":
                m = m[:, self.free]
            return m

        m_col = scipy.sparse.csr_matrix(self.mean_vector.reshape(-1, 1))
        k = scipy.sparse.bmat(
            [[cut("v", "v"), cut("v", "p"), None],
             [cut("p", "v"), cut("p", "p"), m_col],
             [None, m_col.T, None]], format="csc")
        if u_total is not None:
            k.eliminate_zeros()    # factor J's nonzeros, not stored zeros
        return k

    def jacobian_action(self, mu, u_total: np.ndarray, linear
                        ) -> scipy.sparse.linalg.LinearOperator:
        """The Newton Jacobian J at the total velocity u_total as an
        operator, with no quadratic matrix assembled: J x is ``linear``,
        the linear saddle matrix at mu, times x, plus sign theta(mu)
        [c(u, v) + c(v, u)] of every QUADRATIC_TERMS entry for the
        velocity part v of x.  The kernels' ``tangent`` at u_total is
        taken here, so a Newton step builds the operator once and its
        Krylov iterations evaluate only v."""
        nf, npr, g = self.n_free, self.n_pressure, self.geometry
        terms = [(rows, sign, self.quadratic[name].tangent(u_total))
                 for name, rows, _, sign, _, _ in QUADRATIC_TERMS
                 if name in self.quadratic]

        def matvec(x):
            out = linear @ x
            v = np.zeros(self.velocity_space.dof_count)
            v[self.free] = x[:nf]
            for rows, sign, tangent in terms:
                for tag, c in tangent(v):
                    q = sign * g.theta(tag, mu) * c
                    if rows == "v":
                        out[:nf] += q[self.free]
                    else:
                        out[nf:nf + npr] += q
            return out
        return scipy.sparse.linalg.LinearOperator(linear.shape, dtype=float,
                                                  matvec=matvec)

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
        r = {"v": np.zeros((self.velocity_space.dof_count, len(mus))),
             "p": np.zeros((self.n_pressure, len(mus)))}
        for rows, _, tag, sign, vec in self._linear_terms({"v": u_t, "p": p}):
            w = np.array([sign * g.theta(tag, m) for m in mus])
            r[rows] += w * vec.reshape(len(vec), -1)  # body force: 1 column
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

    def center_factor(self) -> SparseLU:
        """The system's one kept factor, built at the first call.

        Stokes factors the saddle matrix at the box center; Navier-Stokes
        the Newton Jacobian at the first iterate of a Newton run at the
        center, from the zero homogeneous state, whose residual is within
        CENTER_TOL of the zero state's; every step of that run factors
        its own Jacobian and frees it.  The factor is a function of the
        configuration alone, so no solve depends on the solves before it;
        nothing replaces or frees it while the system lives.  It is built
        under a lock: concurrent first solves wait for one factor, and
        ``SparseLU.solve`` on it is then safe from any thread.  A failed
        build (a singular factor, a stalled run) is not retried: every
        call raises its error again.
        """
        with self._center_lock:
            if self._center_error is not None:
                raise self._center_error
            if self._center is None:
                mu, u_t = self.config.center(), None
                try:
                    if self.config.problem == "navier_stokes":
                        u_t = self._newton(
                            mu, np.zeros(self.velocity_space.dof_count),
                            np.zeros(self.n_pressure), None, CENTER_TOL
                        ).total_velocity.values
                    self._center = SparseLU(
                        self._saddle_matrix(mu, u_t),
                        context=f"center factor at mu={tuple(mu)}")
                except (SingularSystemError, NonConvergenceError) as exc:
                    self._center_error = exc
                    raise
        return self._center

    @staticmethod
    def _solve_linear(op, rhs, rtol, accept, matrix,
                      precond: SparseLU | None, krylov: list, rconds: list,
                      context: str):
        """x with ||op x - rhs|| <= accept ||rhs||, op a matrix or an
        operator: GMRES preconditioned by ``precond``, to the relative
        tolerance rtol, judged by its true residual whatever GMRES
        reports (its flag reads the same residual against rtol).  On a
        miss, or with no ``precond``, it factors ``matrix()`` for this
        solve alone, then frees the factor and returns its pages
        (``release_free_heap``).  ``krylov`` gets an entry per GMRES
        iteration, ``rconds`` the rcond of each factor.
        """
        if precond is not None:
            x, info = scipy.sparse.linalg.gmres(
                op, rhs, rtol=rtol, atol=0.0, restart=KRYLOV_RESTART,
                maxiter=KRYLOV_CYCLES, callback=krylov.append,
                callback_type="pr_norm",
                M=scipy.sparse.linalg.LinearOperator(
                    op.shape, dtype=float, matvec=precond.solve))
            if info == 0 or (np.linalg.norm(op @ x - rhs)
                             <= accept * np.linalg.norm(rhs)):
                return x
        lu = SparseLU(matrix(), context=context)
        rconds.append(lu.rcond)
        x = lu.solve(rhs)
        del lu
        release_free_heap()
        return x

    @staticmethod
    def _factor_diagnostics(center, krylov: list, rconds: list) -> dict:
        """The solve's counts, and which factor ``rcond`` describes."""
        rcond, source = (
            (min(rconds), "own") if rconds else
            (center.rcond, "center") if center is not None else (None, None))
        return {"rcond": rcond, "rcond_factor": source,
                "factorizations": len(rconds),
                "krylov_iterations": len(krylov)}

    def solve_stokes(self, mu) -> FeSolution:
        """Linear saddle solve (the Stokes operator under config's nu rule).

        The right-hand side is minus the residual of the zero homogeneous
        state.  GMRES preconditioned by the center factor asks for
        STOKES_RTOL and accepts a true relative residual up to
        STOKES_ACCEPT; a miss factors K(mu) for this solve alone
        (``_solve_linear``).  A Navier-Stokes system is refused: its
        zero-state residual holds the quadratic terms.
        """
        if self.config.problem != "stokes":
            raise ValueError("configured problem is not Stokes")
        k = self._saddle_matrix(mu)
        rhs = -self.residual(mu, np.zeros(self.velocity_space.dof_count),
                             np.zeros(self.n_pressure))
        center = self.center_factor()
        krylov, rconds = [], []
        x = self._solve_linear(k, rhs, STOKES_RTOL, STOKES_ACCEPT, lambda: k,
                               center, krylov, rconds,
                               f"stokes solve at mu={tuple(mu)}")
        u_full, p, lam = self._split(x)
        res = float(np.linalg.norm(k @ x - rhs))
        scale = float(np.linalg.norm(rhs))
        diag = {"type": "stokes", "iterations": 1, "lambda": lam,
                "residual": res / scale if scale > 0 else res,
                "n_dof": k.shape[0],
                **self._factor_diagnostics(center, krylov, rconds)}
        return self._pack_solution(mu, u_full, p, diag)

    def solve_navier_stokes(self, mu, initial_guess: FeSolution | None = None
                            ) -> FeSolution:
        """Inexact Newton on the stabilized nonlinear system, from
        ``initial_guess`` or, cold, from the zero homogeneous state.

        Every step solves J_k d = -r_k by GMRES preconditioned by the
        center factor, with J_k applied matrix-free
        (``jacobian_action``), to the safeguarded Eisenstat-Walker forcing
        min(KRYLOV_FORCING, max(||r_k|| / ref, 0.5 NEWTON_TOL ref /
        ||r_k||)).  While the residual is above sqrt(0.5 NEWTON_TOL) ref
        the forcing is the relative residual, which keeps the quadratic
        convergence; below it the step is solved only as far as
        NEWTON_TOL needs.  Newton stops on its true residual.  A step
        whose true residual misses the forcing factors J_k for that step
        alone (``_solve_linear``).
        """
        if self.config.problem != "navier_stokes":
            raise ValueError("configured problem is not Navier-Stokes")
        if initial_guess is None:
            u_full = np.zeros(self.velocity_space.dof_count)
            p = np.zeros(self.n_pressure)
        else:
            u_full = initial_guess.velocity.values.copy()
            p = initial_guess.pressure.values.copy()
        return self._newton(mu, u_full, p, self.center_factor)

    def _newton(self, mu, u_full: np.ndarray, p: np.ndarray,
                center: Callable[[], SparseLU] | None,
                tol: float = NEWTON_TOL) -> FeSolution:
        """Newton from (u_full, p), updated in place, until the residual
        is within ``tol`` of the zero state's.  Its steps are
        preconditioned by ``center()``, asked for at the first step; with
        no ``center``, as in the center factor's own run, every step
        factors its Jacobian.  The forcing term's safeguard reads ``tol``.
        The linear saddle matrix at mu is evaluated once per solve, the
        Jacobian operator once per step; a factored step assembles its
        whole Jacobian (``_saddle_matrix``)."""
        lam = 0.0
        ref = self.residual_reference(mu)
        k_lin = self._saddle_matrix(mu)
        history = []
        rconds = []
        krylov = []
        forcings = []
        kept = None
        iterations = 0
        while True:
            r = self.residual(mu, u_full, p, lam)
            rn = float(np.linalg.norm(r))
            history.append(rn)
            if rn <= tol * ref:
                break
            if iterations >= NEWTON_MAX_ITER:
                raise NonConvergenceError(
                    f"Newton stalled after {iterations} iterations at "
                    f"mu={tuple(mu)} (residual {rn:.3e}, target "
                    f"{tol * ref:.3e})", history)
            if kept is None and center is not None:
                kept = center()
            u_t = u_full + self.lifting.values
            forcing = (min(KRYLOV_FORCING,
                           max(rn / ref, 0.5 * tol * ref / rn))
                       if ref > 0 else KRYLOV_FORCING)
            forcings.append(forcing)
            delta = self._solve_linear(
                self.jacobian_action(mu, u_t, k_lin), -r, forcing, forcing,
                lambda: self._saddle_matrix(mu, u_t), kept, krylov,
                rconds, f"newton step {iterations} at mu={tuple(mu)}")
            du, dp, dl = self._split(delta)
            u_full += du
            p += dp
            lam += dl
            iterations += 1
        diag = {"type": "newton", "iterations": iterations,
                "residuals": history, "forcing": forcings, "lambda": lam,
                "residual": history[-1] / ref if ref > 0 else history[-1],
                **self._factor_diagnostics(kept, krylov, rconds)}
        return self._pack_solution(mu, u_full, p, diag)

    def solve(self, mu, initial_guess: FeSolution | None = None
              ) -> FeSolution:
        """The configured problem's solve; ``initial_guess`` starts a
        Navier-Stokes Newton run (Stokes has no use for it)."""
        if self.config.problem == "navier_stokes":
            return self.solve_navier_stokes(mu, initial_guess)
        return self.solve_stokes(mu)
