"""Test-only oracles: point evaluation and nodal interpolation of FE
functions, the manufactured velocity, and the direct solvers the
preconditioned full-order solves are checked against.

None of this is used by the package; it lives here so that the tests
keep an independent path to the quantities they check.
"""

import numpy as np
import scipy.sparse.linalg

from cavityrb.fespace import FeFunction, FunctionSpace, shape_dlam, shape_values
from cavityrb.hifi import NEWTON_MAX_ITER, NEWTON_TOL
from cavityrb.linalg import SparseLU
from cavityrb.mesh import Mesh

_PI = np.pi


class PointNotFoundError(ValueError):
    """Evaluation point lies outside every mesh triangle."""


def interpolate(space: FunctionSpace, fn) -> FeFunction:
    """Nodal interpolation of a callable.

    ``fn`` maps (x, y) to a scalar for scalar spaces or to a pair for
    vector spaces.  P0 interpolates at cell centroids.
    """
    coords = space.dof_coords
    if space.components == 1:
        vals = np.array([fn(x, y) for x, y in coords], dtype=float)
        return FeFunction(space, vals)
    vals = np.empty(space.dof_count)
    for s, (x, y) in enumerate(coords):
        vx, vy = fn(x, y)
        vals[2 * s] = vx
        vals[2 * s + 1] = vy
    return FeFunction(space, vals)


def _locate(mesh: Mesh, point: np.ndarray) -> tuple[int, np.ndarray]:
    """Find a triangle containing the point; returns (index, barycentric)."""
    v = mesh.vertices[mesh.triangles]
    d = point[None, None, :] - v[:, 0:1, :]
    g = mesh.grad_bary
    lam12 = np.einsum("tid,td->ti", g[:, 1:3, :], d[:, 0, :])
    lam = np.concatenate([1.0 - lam12.sum(axis=1, keepdims=True), lam12], axis=1)
    ok = np.flatnonzero((lam >= -1e-12).all(axis=1))
    if ok.size == 0:
        raise PointNotFoundError(f"point {tuple(point)} is outside the mesh")
    k = int(ok[0])
    return k, lam[k]


def fe_eval(f: FeFunction, point) -> np.ndarray | float:
    """Evaluate an FE function at a physical point inside the domain."""
    point = np.asarray(point, dtype=float)
    k, lam = _locate(f.space.mesh, point)
    vals = shape_values(f.space.family, lam[None, :])[0]
    dofs = f.space.cell_dofs[k]
    if f.space.components == 1:
        return float(f.values[dofs] @ vals)
    return np.array([f.values[2 * dofs] @ vals, f.values[2 * dofs + 1] @ vals])


def eval_gradient(f: FeFunction, point) -> np.ndarray:
    """Evaluate the physical gradient at a point.

    Scalar spaces return shape (2,), vector spaces (2, 2) with rows the
    component gradients.
    """
    point = np.asarray(point, dtype=float)
    k, lam = _locate(f.space.mesh, point)
    dlam = shape_dlam(f.space.family, lam[None, :])[0]      # (nloc, 3)
    grads = dlam @ f.space.mesh.grad_bary[k]                # (nloc, 2)
    dofs = f.space.cell_dofs[k]
    if f.space.components == 1:
        return f.values[dofs] @ grads
    return np.stack([f.values[2 * dofs] @ grads, f.values[2 * dofs + 1] @ grads])


def manufactured_velocity(x, y):
    """The divergence-free velocity, zero on the boundary, whose gradient
    is ``analysis.manufactured_velocity_gradient``."""
    return (_PI * np.sin(_PI * x) ** 2 * np.sin(2 * _PI * y),
            -_PI * np.sin(2 * _PI * x) * np.sin(_PI * y) ** 2)


def direct_stokes(system, mu):
    """(u_full, p) of the Stokes saddle system at mu from one direct
    ``SparseLU`` solve of its matrix."""
    rhs = -system.residual(mu, np.zeros(system.velocity_space.dof_count),
                           np.zeros(system.n_pressure))
    u, p, _ = system._split(SparseLU(system._saddle_matrix(mu)).solve(rhs))
    return u, p


def direct_newton(system, mu, guess=None):
    """Newton that factors the assembled Jacobian at every step, from
    ``guess`` (an FeSolution) or the zero homogeneous state, to the
    solver's tolerance; (u_full, p)."""
    if guess is None:
        u = np.zeros(system.velocity_space.dof_count)
        p = np.zeros(system.n_pressure)
    else:
        u = guess.velocity.values.copy()
        p = guess.pressure.values.copy()
    lam = 0.0
    ref = system.residual_reference(mu)
    nf = system.n_free
    for _ in range(NEWTON_MAX_ITER + 1):
        r = system.residual(mu, u, p, lam)
        if np.linalg.norm(r) <= NEWTON_TOL * ref:
            return u, p
        jac = system._saddle_matrix(mu, u + system.lifting.values)
        d = scipy.sparse.linalg.spsolve(jac, -r)
        u[system.free] += d[:nf]
        p += d[nf:-1]
        lam += d[-1]
    raise AssertionError(f"direct Newton did not converge at {mu}")
