"""High-fidelity solvers for the parametrized lid-driven cavity.

The saddle-point system is solved in homogeneous-Dirichlet unknowns
(lid data enters through a lifting field), with a single scalar
Lagrange multiplier enforcing the zero-mean pressure gauge.  The
stabilized blocks enter with minus signs:

    [[A - Suv, B^T - Spv, 0 ],
     [B - Suq, -Spq,      m ],
     [0,       m^T,       0 ]].

Navier-Stokes is solved by a full Newton iteration on the total
velocity field; the Jacobian differentiates the convective term and the
streamline-derivative stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .assembly import (
    ConvectionAssembler,
    GeometryMap,
    StabilizationConfig,
    StabilizationOperators,
    assemble_body_force,
    assemble_divergence,
    assemble_gram,
    assemble_mean_vector,
    assemble_ns_stabilization,
    assemble_rhs,
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

    def in_box(self, mu) -> bool:
        return (self.mu1_range[0] <= mu[0] <= self.mu1_range[1]
                and self.mu2_range[0] <= mu[1] <= self.mu2_range[1])


@dataclass
class FeSolution:
    """Velocity (homogeneous part), pressure, and the lifting field.

    ``diagnostics["rcond"]`` is the estimated reciprocal condition
    number of the saddle matrix (Stokes) or the smallest over the Newton
    Jacobians factored (None when Newton took no step).
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

    Everything parameter-independent (element tables, affine matrix
    terms, Gram matrices, lifting right-hand sides) is assembled once;
    per-parameter work is limited to weighted sums, boundary
    restriction and the linear solves.
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
        self.body_force = body_force

        self.viscous = assemble_viscous(self.velocity_space, self.geometry)
        self.divergence = assemble_divergence(self.velocity_space,
                                              self.pressure_space,
                                              self.geometry)
        self.stab: StabilizationOperators | None = None
        if config.stabilization.active:
            if config.problem == "navier_stokes":
                self.stab = assemble_ns_stabilization(
                    self.velocity_space, self.pressure_space, self.geometry,
                    config.stabilization)
            else:
                self.stab = assemble_stokes_stabilization(
                    self.velocity_space, self.pressure_space, self.geometry,
                    config.stabilization)
        self.convection = (ConvectionAssembler(self.velocity_space)
                           if config.problem == "navier_stokes" else None)

        # linear lifting terms only: the Navier-Stokes solvers carry
        # c(l, l, .) themselves, and the continuity right-hand side has no
        # convective term
        self.fbar_linear, self.gbar = assemble_rhs(
            self.velocity_space, self.pressure_space, self.geometry,
            self.lifting, viscous=self.viscous, divergence=self.divergence,
            stab=self.stab, body_force=body_force)

        self.body_vec = (assemble_body_force(self.velocity_space, body_force)
                         if body_force is not None else None)
        self.stab_body_vec = None
        if (body_force is not None and self.stab is not None
                and config.stabilization.method != "EdgeJumpP1P0"):
            self.stab_body_vec = assemble_stab_body_force(
                self.pressure_space, body_force, config.stabilization.delta)

        self.gram_velocity = assemble_gram(self.velocity_space, "h1semi")
        self.gram_pressure = assemble_gram(self.pressure_space, "l2")
        self.mean_vector = assemble_mean_vector(self.pressure_space)
        self.free = self.velocity_space.free_dofs()
        self.n_free = self.free.size
        self.n_pressure = self.pressure_space.dof_count

    # -- block systems ------------------------------------------------

    def _stab_blocks(self, mu) -> dict:
        out = {}
        if self.stab is None:
            return out
        g = self.geometry
        if self.stab.suq is not None:
            out["suq"] = self.stab.suq.evaluate(g, mu)
        out["spq"] = self.stab.spq.evaluate(g, mu)
        if self.stab.suv is not None:
            out["suv"] = self.stab.suv.evaluate(g, mu)
            out["spv"] = self.stab.spv.evaluate(g, mu)
        return out

    def _saddle_matrix(self, mu, a_extra=None, b_extra=None):
        """Assemble the bordered block matrix at mu.

        a_extra / b_extra are sparse corrections added to the momentum
        block and the continuity-row velocity block (Newton terms).
        """
        g = self.geometry
        a_mu = self.viscous.evaluate(g, mu)
        b_mu = self.divergence.evaluate(g, mu)
        sb = self._stab_blocks(mu)
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
        fr = self.free
        a_ff = a_mu[fr][:, fr]
        bt_f = bt[fr]
        btilde_f = btilde[:, fr]
        s_blk = -sb["spq"] if "spq" in sb else None
        m_col = scipy.sparse.csr_matrix(
            self.mean_vector.reshape(-1, 1))
        m_row = scipy.sparse.csr_matrix(self.mean_vector.reshape(1, -1))
        return scipy.sparse.bmat(
            [[a_ff, bt_f, None],
             [btilde_f, s_blk, m_col],
             [None, m_row, None]], format="csc")

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

        Stacks the free momentum rows, the (stabilized) continuity rows
        and the mean constraint; this is the quantity Newton drives to
        zero and the one the greedy error indicator measures.
        """
        g = self.geometry
        u_t = u_homog + self.lifting.values
        a_mu = self.viscous.evaluate(g, mu)
        b_mu = self.divergence.evaluate(g, mu)
        sb = self._stab_blocks(mu)

        r_mom = a_mu @ u_t + b_mu.T @ p
        if self.convection is not None:
            r_mom += self.convection.matrix(u_t).evaluate(g, mu) @ u_t
        if "suv" in sb:
            r_mom -= sb["suv"] @ u_t
            r_mom -= sb["spv"] @ p
        if self.body_vec is not None:
            r_mom -= self.body_vec

        r_cont = b_mu @ u_t + lam * self.mean_vector
        if "suq" in sb:
            r_cont -= sb["suq"] @ u_t
        if "spq" in sb:
            r_cont -= sb["spq"] @ p
        if self.stab is not None and self.stab.supg is not None:
            r_cont -= self.stab.supg.transport(u_t) @ u_t
        if self.stab_body_vec is not None:
            r_cont -= self.stab_body_vec

        r_mean = self.mean_vector @ p
        return np.concatenate([r_mom[self.free], r_cont, [r_mean]])

    def residual_reference(self, mu) -> float:
        """Residual norm of the zero homogeneous state (RHS scale)."""
        zero_u = np.zeros(self.velocity_space.dof_count)
        zero_p = np.zeros(self.n_pressure)
        return float(np.linalg.norm(self.residual(mu, zero_u, zero_p)))

    # -- solvers ------------------------------------------------------

    def solve_stokes(self, mu) -> FeSolution:
        """Linear saddle solve (the Stokes operator under config's nu rule)."""
        g = self.geometry
        k = self._saddle_matrix(mu)
        fvec = self.fbar_linear.evaluate(g, mu)
        gvec = self.gbar.evaluate(g, mu)
        rhs = np.concatenate([fvec[self.free], gvec, [0.0]])
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
        """Full Newton on the stabilized nonlinear system."""
        if self.config.problem != "navier_stokes":
            raise ValueError("configured problem is not Navier-Stokes")
        g = self.geometry
        if initial_guess is None:
            initial_guess = self.solve_stokes(mu)
        u_full = initial_guess.velocity.values.copy()
        p = initial_guess.pressure.values.copy()
        lam = 0.0
        ref = self.residual_reference(mu)
        history = []
        rconds = []
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
            a_extra = self.convection.matrix(u_t).evaluate(g, mu) \
                + self.convection.transport_jacobian(u_t).evaluate(g, mu)
            b_extra = None
            if self.stab is not None and self.stab.supg is not None:
                b_extra = self.stab.supg.transport(u_t) \
                    + self.stab.supg.jacobian(u_t)
            k = self._saddle_matrix(mu, a_extra=a_extra, b_extra=b_extra)
            lu = SparseLU(
                k, context=f"newton step {iterations} at mu={tuple(mu)}")
            rconds.append(lu.rcond)
            delta = lu.solve(-r)
            del lu   # no factor stays alive while the next one is built
            du, dp, dl = self._split(delta)
            u_full += du
            p += dp
            lam += dl
            iterations += 1
        diag = {"type": "newton", "iterations": iterations,
                "residuals": history, "lambda": lam,
                "residual": history[-1] / ref if ref > 0 else history[-1],
                "rcond": min(rconds, default=None)}
        return self._pack_solution(mu, u_full, p, diag)

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
