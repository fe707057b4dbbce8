"""Reduced-basis offline and online machinery.

Offline: greedy snapshot selection driven by the relative algebraic
residual of the stabilized FE system, supremizer enrichment of the
velocity space, Gram-Schmidt orthonormalization, and projection of all
affine operators; a greedy step measures every training point with one
column-stacked FE residual.

Online: one reduced solve under four formulations,
    (i)   enriched velocity space, stabilization terms kept,
    (ii)  plain velocity space, stabilization terms kept,
    (iii) enriched velocity space, stabilization dropped online,
    (iv)  plain velocity space, stabilization dropped online.
Only the enriched model is built.  It projects the full-order saddle
table (``hifi.SADDLE_BLOCKS``) block by block, and the lifting
right-hand side, the full-order residual at the zero homogeneous state,
into one vector per row space and Galerkin/stabilization flag.  Each
quadratic term of Navier-Stokes (``hifi.QUADRATIC_TERMS``: convection
and SUPG transport) is projected once, as one affine tensor on the total
velocity basis [l | Z_v]; its lifting, linear and quadratic parts are
slices of it.  These are stacked into one affine saddle operator with
the unknowns ordered [u | p | s], so an option is a leading size of that
system plus a choice of keeping its stabilization terms; options iii/iv
drop every one of them, right-hand sides included.  Stokes is one dense
solve; Navier-Stokes Newton starts at the stored reduced coordinates of
the greedy snapshot nearest to the queried parameter, and from zero
only if that start fails.  Truncating to the first greedy snapshots is
a change of basis in reduced coordinates.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import AffineOperator, GeometryMap
from .hifi import (QUADRATIC_TERMS, SADDLE_BLOCKS, VISCOSITY_MODES,
                   FeSolution, FlowSystem)
from .fespace import FeFunction
from .linalg import (SparseLU, dense_lu_solve, modified_gram_schmidt,
                     smallest_gsv)
from .util import NonConvergenceError, SingularSystemError, fmt17

OPTIONS = ("i", "ii", "iii", "iv")

RB_NEWTON_TOL = 1e-10
RB_NEWTON_MAX_ITER = 50


def _report_drops(block: str, n_in: int, kept: list) -> None:
    if len(kept) != n_in:
        print(f"warning: {block} basis kept {len(kept)} of {n_in} "
              "vectors (near-dependent snapshots dropped)",
              file=sys.stderr)


def option_uses_supremizers(option: str) -> bool:
    return option in ("i", "iii")


def option_keeps_stabilization(option: str) -> bool:
    return option in ("i", "ii")


class SupremizerOperator:
    """Velocity field realizing the inf-sup supremum for a pressure.

    solve(q, mu) returns t with (t, v)_{X_u} = b(v, q; mu) for every
    homogeneous-Dirichlet velocity v; X_u is the fixed H1-seminorm Gram
    matrix restricted to the free DOFs.
    """

    def __init__(self, system: FlowSystem):
        self.system = system
        self.free = system.free
        xu = system.gram_velocity[self.free][:, self.free]
        self._lu = SparseLU(xu.tocsc(), context="velocity Gram factorization")

    def solve(self, q: np.ndarray, mu) -> np.ndarray:
        b_mu = self.system.operators["b"].evaluate(self.system.geometry, mu)
        rhs = (b_mu.T @ q)[self.free]
        out = np.zeros(self.system.velocity_space.dof_count)
        out[self.free] = self._lu.solve(rhs)
        return out


@dataclass
class GreedyTrace:
    """Selected parameters and the indicator value that chose them."""

    rows: list          # (n, mu1, mu2, max_indicator)
    train_size: int
    seed: int


# The reduced lifting right-hand side of each (row space, stabilization
# flag) of ``FlowSystem.lifting_rhs``; each enters F with sign +1.
_LIFTING_RHS = {("v", False): "fvisc", ("v", True): "fstab",
                ("p", False): "gplain", ("p", True): "gstab"}

# Bases of every reduced array, one entry per axis: "v" the reduced
# velocity (velocity then supremizer columns), "w" the total velocity
# [l | v] (the lifting, then the "v" columns), "p" the reduced pressure,
# "n" the greedy snapshots, None a full-order or fixed axis.  The table
# drives truncation, the saddle operator and the .rbm format.
_AXES = {
    "z_v": (None, "v"), "z_p": (None, "p"),
    **{blk.name: (blk.rows, blk.cols) for blk in SADDLE_BLOCKS
       if not blk.transposed},
    **{name: (rows,) for (rows, _), name in _LIFTING_RHS.items()},
    **{term.name: (term.rows, term.cols, term.cols)
       for term in QUADRATIC_TERMS},
    "xu": ("v", "v"), "xp": ("p", "p"),
    "mus": ("n", None), "indicators": ("n",), "sizes": ("n", None),
    "u_snaps": (None, "n"), "p_snaps": (None, "n"),
    "sup_coords": ("v", "n"),
    "u_coords": ("v", "n"), "p_coords": ("p", "n"),
}


def _stack(parts: list, shape: tuple):
    """(tag, stab, index, block) parts -> ([(tag, stab)], terms), one
    term per (tag, stab) pair in order of first appearance, each
    flattened into a row of ``terms``.  Tensors are symmetrized in their
    two input axes."""
    if not parts:
        return None
    keys: list[tuple] = []
    terms: list[np.ndarray] = []
    for tag, stab, index, block in parts:
        if (tag, stab) not in keys:
            keys.append((tag, stab))
            terms.append(np.zeros(shape))
        terms[keys.index((tag, stab))][index] += block
    if len(shape) == 3:
        terms = [0.5 * (t + t.transpose(0, 2, 1)) for t in terms]
    return keys, np.stack(terms).reshape(len(keys), -1)


class SaddleOperator:
    """The reduced system r(x) = K(mu) x + N(mu)(x, x) - F(mu).

    Unknowns are ordered [u | p | s], so the plain-space options solve
    the leading n_u + n_p block.  K is placed from ``SADDLE_BLOCKS``, F
    from ``_LIFTING_RHS``, signs and Galerkin/stabilization flags
    included, and a ``QUADRATIC_TERMS`` tensor T on [l | Z_v] is expanded
    around the lifting: -sign T[:, 0, 0] enters F, sign (T[:, 0, 1:] +
    T[:, 1:, 0]) K and sign T[:, 1:, 1:] N.  K, F and N are each a stack
    of terms, one per (theta tag, stabilization flag) pair, evaluated by
    one contraction with the theta weights; an option that drops the
    stabilization weighs its terms with zero, in K, F and N alike.  N is
    symmetrized in its two input axes so that N(x, x) = (N x) x and the
    Jacobian is K + 2 N x; it is None for Stokes.
    """

    def __init__(self, model: ReducedModel):
        n_u, n_p = model.n_u, model.n_p
        size = model.z_v.shape[1] + n_p
        at = {"v": np.r_[0:n_u, n_u + n_p:size],
              "p": np.arange(n_u, n_u + n_p)}
        parts: dict[int, list] = {1: [], 2: [], 3: []}

        def add(axes, stab, tag, block):
            parts[len(axes)].append(
                (tag, stab, np.ix_(*(at[k] for k in axes)), block))

        for name, rows, cols, sign, stab, transposed in SADDLE_BLOCKS:
            for tag, m in getattr(model, name) or ():
                add((rows, cols), stab, tag, sign * (m.T if transposed else m))
        for (rows, stab), name in _LIFTING_RHS.items():
            for tag, m in getattr(model, name) or ():
                add((rows,), stab, tag, m)
        for name, rows, _, sign, stab, _ in QUADRATIC_TERMS:
            for tag, t in getattr(model, name) or ():
                add((rows,), stab, tag, -sign * t[:, 0, 0])
                add((rows, "v"), stab, tag,
                    sign * (t[:, 0, 1:] + t[:, 1:, 0]))
                add((rows, "v", "v"), stab, tag, sign * t[:, 1:, 1:])
        self.size = size
        self.f, self.k, self.n = (_stack(parts[r], (size,) * r)
                                  for r in (1, 2, 3))
        self.tags = tuple(dict.fromkeys(
            tag for part in (self.k, self.f, self.n) if part is not None
            for tag, _ in part[0]))

    def evaluate(self, geometry: GeometryMap, mu, size: int,
                 stabilized: bool):
        """(K, F, N) at mu on the leading ``size`` unknowns; N None for
        Stokes.  ``stabilized`` False drops the stabilization terms."""
        theta = {tag: geometry.theta(tag, mu) for tag in self.tags}

        def weigh(part, rank):
            keys, terms = part
            w = np.array([theta[tag] if stabilized or not stab else 0.0
                          for tag, stab in keys])
            return (w @ terms).reshape((self.size,) * rank)[
                (slice(size),) * rank]
        return (weigh(self.k, 2), weigh(self.f, 1),
                None if self.n is None else weigh(self.n, 3))


@dataclass
class ReducedModel:
    """Bases, projected operators, and the snapshots they came from.

    ``z_v`` holds the velocity basis (its first ``n_u`` columns) and
    then the supremizer basis; ``_AXES`` names the bases of every array,
    and the parameter-dependent blocks are AffineOperators: one per
    ``SADDLE_BLOCKS`` operator, one lifting right-hand side per row
    space and stabilization flag (``_LIFTING_RHS``) and one tensor
    T[i, j, k] = (test i, Q(w_j) w_k), w = [l | z_v], per
    ``QUADRATIC_TERMS`` entry (Navier-Stokes).  ``sizes`` holds
    (n_u, n_p) after each greedy step and ``sup_coords`` the raw
    supremizers in the coordinates of ``z_v``, which is all a truncation
    needs.  ``u_coords`` and ``p_coords`` hold the snapshots in the
    coordinates of ``z_v`` and ``z_p``, where reduced Newton starts
    (Navier-Stokes; None for Stokes).  The named blocks are the stored
    form; ``saddle`` is derived from them at construction.  ``option``
    selects what the online solve and the inf-sup diagnostics read:
    ``n_vel`` leading velocity columns and the stabilization terms or
    not.
    """

    problem: str
    fe_pair: str
    method: str
    delta: float
    rho: float
    option: str
    mu_bar2: float
    mu1_range: tuple
    mu2_range: tuple
    seed: int
    nx: int
    ny: int
    n_u: int
    z_v: np.ndarray
    z_p: np.ndarray
    visc: AffineOperator
    b: AffineOperator
    suq: AffineOperator | None
    spq: AffineOperator | None
    suv: AffineOperator | None
    spv: AffineOperator | None
    fvisc: AffineOperator
    fstab: AffineOperator | None
    gplain: AffineOperator
    gstab: AffineOperator | None
    conv: AffineOperator | None
    tn: AffineOperator | None
    xu: np.ndarray
    xp: np.ndarray
    mus: np.ndarray
    indicators: np.ndarray
    sizes: np.ndarray
    u_snaps: np.ndarray
    p_snaps: np.ndarray
    sup_coords: np.ndarray
    u_coords: np.ndarray | None
    p_coords: np.ndarray | None
    saddle: SaddleOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # blocks given as (tag, array) term lists become operators
        for name in _AXES:
            value = getattr(self, name)
            if isinstance(value, list):
                setattr(self, name, AffineOperator(value))
        self.saddle = SaddleOperator(self)

    @property
    def z_u(self) -> np.ndarray:
        return self.z_v[:, :self.n_u]

    @property
    def z_s(self) -> np.ndarray:
        return self.z_v[:, self.n_u:self.n_vel]

    @property
    def n_s(self) -> int:
        return self.n_vel - self.n_u

    @property
    def n_p(self) -> int:
        return self.z_p.shape[1]

    @property
    def n_vel(self) -> int:
        """Reduced velocity size: the supremizers count for i/iii only."""
        if option_uses_supremizers(self.option):
            return self.z_v.shape[1]
        return self.n_u

    @property
    def stab_online(self) -> bool:
        return option_keeps_stabilization(self.option) and self.spq is not None

    def geometry(self) -> GeometryMap:
        return GeometryMap(self.mu_bar2, VISCOSITY_MODES[self.problem])

    def z_velocity(self) -> np.ndarray:
        return self.z_v[:, :self.n_vel]


def _map_axes(model: ReducedModel, cuts: dict, *changes) -> dict:
    """The arrays that change when axes are cut or change basis.

    ``cuts`` maps a basis kind to the number of leading entries kept;
    each change (kind, W) contracts every axis of that kind with W, a
    change of basis as in W^T A W.
    """
    kinds = set(cuts) | {kind for kind, _ in changes}
    index: dict[tuple, tuple] = {}   # per axes signature, built once

    def apply(a, axes):
        if axes not in index:
            index[axes] = tuple(slice(cuts.get(k)) for k in axes)
        a = a[index[axes]]
        for kind, w in changes:
            for i, k in enumerate(axes):
                if k == kind:
                    a = np.moveaxis(np.tensordot(a, w, axes=(i, 0)), -1, i)
        return a

    out = {}
    for name, axes in _AXES.items():
        value = getattr(model, name)
        if value is None or kinds.isdisjoint(axes):
            continue
        if isinstance(value, AffineOperator):
            out[name] = AffineOperator([(tag, apply(m, axes))
                                        for tag, m in value.terms])
        else:
            out[name] = apply(value, axes)
    return out


# ---------------------------------------------------------------------------
# offline construction


def training_grid(mu1_range, mu2_range, size: int, seed: int) -> list[tuple]:
    """Jittered tensor grid over the parameter box (seeded, ordered)."""
    g1 = max(int(round(np.sqrt(size))), 1)
    while size % g1 != 0:
        g1 -= 1
    g2 = size // g1
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-0.4, 0.4, size=(g1, g2, 2))
    out = []
    for i in range(g1):
        for j in range(g2):
            c1 = (i + 0.5 + jitter[i, j, 0]) / g1
            c2 = (j + 0.5 + jitter[i, j, 1]) / g2
            out.append((mu1_range[0] + c1 * (mu1_range[1] - mu1_range[0]),
                        mu2_range[0] + c2 * (mu2_range[1] - mu2_range[0])))
    return out


def held_out_parameters(mu1_range, mu2_range, size: int, seed: int,
                        exclude=()) -> list[tuple]:
    """Seeded uniform sample of the box, skipping excluded points."""
    rng = np.random.default_rng(seed)
    taken = {tuple(e) for e in exclude}
    out: list[tuple] = []
    while len(out) < size:
        mu = (rng.uniform(*mu1_range), rng.uniform(*mu2_range))
        if mu not in taken:
            out.append(mu)
            taken.add(mu)
    return out


def build_reduced_model(system: FlowSystem, mus: np.ndarray,
                        u_snaps: np.ndarray, p_snaps: np.ndarray,
                        sup_raw: np.ndarray, indicators: np.ndarray,
                        seed: int) -> ReducedModel:
    """Orthonormalize the snapshot sets and project every operator.

    Produces the enriched master model (option "i"); derive the other
    options with ``with_option`` and smaller bases with
    ``truncate_model``.  Snapshot columns are used in greedy order, so
    the velocity and pressure bases of a prefix of the snapshots are
    prefixes of these.
    """
    cfg = system.config
    xu_full = system.gram_velocity
    xp_full = system.gram_pressure
    n = u_snaps.shape[1]

    # Near-dependent snapshots are expected on slowly varying solution
    # manifolds: orthonormalization drops them and the bases simply end
    # up shorter than the snapshot count.
    z_u, kept_u = modified_gram_schmidt([u_snaps[:, i] for i in range(n)],
                                        xu_full)
    _report_drops("velocity", n, kept_u)
    z_s, kept = modified_gram_schmidt([sup_raw[:, i] for i in range(n)],
                                      xu_full, against=z_u)
    _report_drops("supremizer", n, kept)
    z_p, kept_p = modified_gram_schmidt([p_snaps[:, i] for i in range(n)],
                                        xp_full)
    _report_drops("pressure", n, kept_p)
    zv = np.concatenate([z_u, z_s], axis=1)
    steps = np.arange(n)

    basis = {"v": zv, "p": z_p}
    arrays = dict.fromkeys(_AXES)
    for blk in SADDLE_BLOCKS:
        if not blk.transposed and blk.name in system.operators:
            arrays[blk.name] = system.operators[blk.name].project(
                basis[blk.rows], basis[blk.cols])
    for (rows, stab), rhs in system.lifting_rhs().items():
        arrays[_LIFTING_RHS[rows, stab]] = rhs.project_vector(basis[rows])

    # T[i, j, k] = (test i, Q(w_j) w_k) on w = [l | Z_v], at quadrature
    # points
    w = np.column_stack([system.lifting.values, zv])
    for name, rows, _, _, _, _ in QUADRATIC_TERMS:
        if name in system.quadratic:
            arrays[name] = system.quadratic[name].tensor(basis[rows], w)
    if system.quadratic:     # the reduced Newton starts (solve_reduced)
        arrays.update(u_coords=np.asarray(zv.T @ (xu_full @ u_snaps)),
                      p_coords=np.asarray(z_p.T @ (xp_full @ p_snaps)))

    arrays.update(
        z_v=zv, z_p=z_p,
        xu=np.asarray(zv.T @ (xu_full @ zv)),
        xp=np.asarray(z_p.T @ (xp_full @ z_p)),
        mus=np.asarray(mus, dtype=float).reshape(n, 2),
        indicators=np.asarray(indicators, dtype=float),
        sizes=np.column_stack([np.searchsorted(kept_u, steps, "right"),
                               np.searchsorted(kept_p, steps, "right")]),
        u_snaps=u_snaps.copy(), p_snaps=p_snaps.copy(),
        sup_coords=np.asarray(zv.T @ (xu_full @ sup_raw)))
    return ReducedModel(
        problem=cfg.problem, fe_pair=cfg.fe_pair,
        method=cfg.stabilization.method, delta=cfg.stabilization.delta,
        rho=cfg.stabilization.rho, option="i", mu_bar2=cfg.mu_bar2,
        mu1_range=tuple(cfg.mu1_range), mu2_range=tuple(cfg.mu2_range),
        seed=seed, nx=system.mesh_nx, ny=system.mesh_ny, n_u=z_u.shape[1],
        **arrays)


def with_option(model: ReducedModel, option: str) -> ReducedModel:
    """The model under another online option, sharing every array.

    Nothing is sliced here: the option alone tells the solves how many
    leading unknowns to take and whether to keep the stabilization.
    """
    if option not in OPTIONS:
        raise ValueError(f"unknown option {option!r}; expected one of "
                         f"{OPTIONS}")
    if option_uses_supremizers(option) and model.z_v.shape[1] == model.n_u:
        raise ValueError(
            f"option {option} needs supremizers but the model stores none")
    # a shallow copy, cheaper than dataclasses.replace: every online
    # query derives its view
    view = copy.copy(model)
    view.option = option
    return view


def truncate_model(model: ReducedModel, n: int) -> ReducedModel:
    """The model of the first n greedy snapshots, in reduced coordinates.

    The velocity and pressure bases of a snapshot prefix are prefixes
    of the master's.  The first n supremizers are orthonormalized again
    on their coordinates in the master velocity basis, where the Gram
    matrix is the identity, and every velocity axis changes to the
    resulting basis, the total-velocity axes with it behind the
    lifting (blkdiag(1, W)); no full-order operator is touched.
    """
    total = len(model.mus)
    if not 1 <= n <= total:
        raise ValueError(f"cannot truncate to N={n}")
    if n == total:   # the model itself, not a round-off copy of it
        return model
    n_u, n_p = (int(k) for k in model.sizes[n - 1])
    eye = np.eye(model.z_v.shape[1])
    w_s, kept = modified_gram_schmidt(list(model.sup_coords[:, :n].T), eye,
                                      against=eye[:, :n_u])
    _report_drops("supremizer", n, kept)
    w = np.concatenate([eye[:, :n_u], w_s], axis=1)
    return dataclasses.replace(model, n_u=n_u, **_map_axes(
        model, {"p": n_p, "n": n}, ("v", w),
        ("w", scipy.linalg.block_diag(1.0, w))))


# ---------------------------------------------------------------------------
# online solves


def _anchor(model: ReducedModel, mu, size: int) -> np.ndarray:
    """The greedy snapshot nearest to mu, in the parameter box scaled to
    the unit square, as the leading ``size`` reduced unknowns."""
    box = np.array([model.mu1_range, model.mu2_range])
    dist = (((model.mus - np.asarray(mu)) / (box[:, 1] - box[:, 0])) ** 2
            ).sum(axis=1)
    j = int(np.argmin(dist))
    n_u = model.n_u
    return np.concatenate([model.u_coords[:n_u, j], model.p_coords[:, j],
                           model.u_coords[n_u:, j]])[:size]


def _newton(k, f, n, x: np.ndarray, rconds: list, context: str):
    """Newton on r(x) = K x + N(x, x) - F from x; (x, residual history).

    It stops after at least one step, once ||r|| <= RB_NEWTON_TOL ||F||
    (||r(0)||), and raises NonConvergenceError after RB_NEWTON_MAX_ITER
    steps.  Each step appends its rcond to ``rconds``.
    """
    ref = float(np.linalg.norm(f))
    nx = n @ x
    rhs = f - (k + nx) @ x
    history = [float(np.linalg.norm(rhs))]
    while True:
        dx, rcond = dense_lu_solve(k + 2.0 * nx, rhs, context)
        x = x + dx
        rconds.append(rcond)
        nx = n @ x
        rhs = f - (k + nx) @ x
        history.append(float(np.linalg.norm(rhs)))
        if history[-1] <= RB_NEWTON_TOL * ref:
            return x, history
        if len(history) > RB_NEWTON_MAX_ITER:
            raise NonConvergenceError(
                f"reduced Newton stalled under {context} (residual "
                f"{history[-1]:.3e})", history)


def solve_reduced(model: ReducedModel, mu):
    """The online solve of every problem and option; (U_N, P_N, info).

    Stokes takes the one step x = K^-1 F.  Navier-Stokes runs Newton on
    r(x) = K x + N(x, x) - F from the stored coordinates of the greedy
    snapshot nearest to mu (``_anchor``), to ||r|| <= RB_NEWTON_TOL
    ||F||; if that run stalls or meets a singular Jacobian, it starts
    once more from x = 0, whose first step is the Stokes solve.  Every
    step goes through ``dense_lu_solve``, so a system with rcond at or
    below ``linalg.RCOND_TOL`` raises SingularSystemError.  ``info``
    holds the number of factored steps over both starts, refused ones
    included, the smallest rcond among those taken and, for
    Navier-Stokes, the residual history of the start that converged.
    """
    size = model.n_vel + model.n_p
    k, f, n = model.saddle.evaluate(model.geometry(), mu, size,
                                    model.stab_online)
    context = f"option {model.option} at mu={tuple(mu)}"
    if n is None:
        x, rcond = dense_lu_solve(k, f, context)
        info = {"iterations": 1, "rcond": rcond}
    else:
        rconds: list[float] = []
        try:
            x, history = _newton(k, f, n, _anchor(model, mu, size), rconds,
                                 context)
            refused = 0
        except (SingularSystemError, NonConvergenceError) as err:
            refused = int(isinstance(err, SingularSystemError))
            x, history = _newton(k, f, n, np.zeros(size), rconds, context)
        info = {"iterations": len(rconds) + refused, "rcond": min(rconds),
                "residuals": history}
    n_u, n_p = model.n_u, model.n_p
    return (np.concatenate([x[:n_u], x[n_u + n_p:]]), x[n_u:n_u + n_p],
            info)


def reconstruct(model: ReducedModel, system: FlowSystem, u: np.ndarray,
                p: np.ndarray, mu, diagnostics=None) -> FeSolution:
    """Lift reduced coefficients back to FE fields."""
    u_full = model.z_velocity() @ u
    p_full = model.z_p @ p
    return FeSolution(
        velocity=FeFunction(system.velocity_space, u_full),
        pressure=FeFunction(system.pressure_space, p_full),
        lifting=system.lifting, mu=tuple(mu),
        diagnostics=diagnostics or {})


def fe_indicator(system: FlowSystem, model: ReducedModel, mu) -> float:
    """Relative FE residual of the reconstructed reduced solution."""
    try:
        u, p, _ = solve_reduced(model, mu)
    except (SingularSystemError, NonConvergenceError):
        return float("inf")
    u_full = model.z_velocity() @ u
    p_full = model.z_p @ p
    r = system.residual(mu, u_full, p_full, 0.0)
    return float(np.linalg.norm(r)) / system.residual_reference(mu)


def _snapshot(system: FlowSystem, model: ReducedModel | None, mu) -> FeSolution:
    """The greedy's FE snapshot at mu.

    The first snapshot, at the box center, builds the system's center
    factor, which preconditions it and every later solve.  Later
    Navier-Stokes snapshots start Newton from the current model's
    reconstructed solution at mu, which lies close to the truth at the
    point the indicator picked; where the reduced or the warm Newton
    solve fails, the cold solve from the zero homogeneous state takes
    over.  Stokes needs no guess.
    """
    if model is None or system.config.problem != "navier_stokes":
        return system.solve(mu)
    try:
        u, p, _ = solve_reduced(model, mu)
        return system.solve(
            mu, initial_guess=reconstruct(model, system, u, p, mu))
    except (SingularSystemError, NonConvergenceError):
        return system.solve(mu)


def _indicators(system: FlowSystem, views: list, train: list,
                ref: np.ndarray) -> np.ndarray:
    """``fe_indicator`` of the worst view at every training point, from
    one column-stacked residual of every reconstructed reduced solution;
    ``ref`` holds the reference norms.  A failed reduced solve reads inf."""
    values = np.full((len(views), len(train)), np.inf)
    us, ps, at = [], [], []
    for i, view in enumerate(views):
        for k, mu in enumerate(train):
            try:
                u, p, _ = solve_reduced(view, mu)
            except (SingularSystemError, NonConvergenceError):
                continue
            us.append(view.z_velocity() @ u)
            ps.append(view.z_p @ p)
            at.append((i, k))
    if at:
        rows, cols = np.array(at).T
        r = system.residual([train[k] for k in cols], np.column_stack(us),
                            np.column_stack(ps))
        values[rows, cols] = np.linalg.norm(r, axis=0) / ref[cols]
    return values.max(axis=0)


def greedy_offline(system: FlowSystem, n_max: int, train_size: int,
                   seed: int):
    """Greedy snapshot selection; returns (master model, trace).

    The first parameter is the box center; afterwards each iteration
    solves the reduced problem over the training set and refines where
    the FE residual indicator is worst.  One model serves every online
    option, so with stabilization the indicator is the worse of options
    i and ii (the two that keep it online); without, option i alone.
    A step takes one column-stacked residual (``_indicators``).  The FE
    snapshot solve always uses the configured (stabilized) formulation;
    for Navier-Stokes it is warm-started (``_snapshot``).  A step that
    drops every supremizer ends the greedy with the model before it.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    # free earlier stages' reference cycles now: a run allocates few
    # containers, so the cyclic collector may skip many offline builds
    gc.collect()
    cfg = system.config
    train = training_grid(cfg.mu1_range, cfg.mu2_range, train_size, seed)
    nu_dof = system.velocity_space.dof_count
    np_dof = system.pressure_space.dof_count
    ref = np.linalg.norm(system.residual(
        train, np.zeros((nu_dof, len(train))),
        np.zeros((np_dof, len(train)))), axis=0)
    u_snaps = np.zeros((nu_dof, 0))
    p_snaps = np.zeros((np_dof, 0))
    sup_raw = np.zeros((nu_dof, 0))
    mus: list[tuple] = []
    indicators: list[float] = []
    rows = []
    sup_op = None
    next_mu = cfg.center()
    next_ind = 1.0
    model = None
    certified = ("i", "ii") if cfg.stabilization.active else ("i",)
    for n in range(1, n_max + 1):
        snap = _snapshot(system, model, next_mu)
        if sup_op is None:
            # after the center factor the first snapshot built: the
            # Gram factor allocated second leaves a lower heap peak
            sup_op = SupremizerOperator(system)
        u = snap.velocity.values
        p = snap.pressure.values
        u_snaps = np.column_stack([u_snaps, u])
        p_snaps = np.column_stack([p_snaps, p])
        sup_raw = np.column_stack([sup_raw, sup_op.solve(p, next_mu)])
        mus.append(tuple(next_mu))
        indicators.append(next_ind)
        built = build_reduced_model(system, np.array(mus), u_snaps, p_snaps,
                                    sup_raw, np.array(indicators), seed)
        if model is not None and built.z_v.shape[1] == built.n_u:
            print(f"warning: greedy stopped at n={n - 1}: every supremizer "
                  f"of {n} snapshots lies in the velocity basis",
                  file=sys.stderr)
            break
        model = built
        rows.append((n, next_mu[0], next_mu[1], next_ind))
        if n == n_max:
            break
        inds = _indicators(system, [with_option(model, opt)
                                    for opt in certified], train, ref)
        k = int(np.argmax(inds))
        if tuple(train[k]) in set(mus):
            # A re-pick while the indicator still exceeds the
            # offline-online consistency level means the indicator is
            # broken; a re-pick below it just means the solution
            # manifold is exhausted, so stop with what we have.
            if float(inds[k]) > 1e-8:
                raise RuntimeError(
                    f"greedy re-selected mu={train[k]}: "
                    "indicator inconsistency")
            print(f"warning: greedy stopped at n={n}: residual "
                  f"indicator saturated at {float(inds[k]):.3e}",
                  file=sys.stderr)
            break
        next_mu = train[k]
        next_ind = float(inds[k])
    return model, GreedyTrace(rows=rows, train_size=train_size, seed=seed)


# ---------------------------------------------------------------------------
# inf-sup diagnostics


def plain_infsup(model: ReducedModel, mu) -> float:
    """Classic reduced inf-sup constant of the option's divergence block."""
    n = model.n_vel
    b_mu = model.b.evaluate(model.geometry(), mu)[:, :n]
    return smallest_gsv(b_mu, model.xu[:n, :n], model.xp)


def modified_infsup(model: ReducedModel, mu) -> float:
    """Stabilization-augmented reduced inf-sup constant.

    min over the reduced pressure space of
    sqrt(q^T B Xu^-1 B^T q) + sqrt(q^T S q), with q normalized in X_p;
    evaluated on the eigenbasis of the combined quadratic form.
    Options iii/iv (and unstabilized models) drop the S term, making
    this the plain inf-sup constant.
    """
    geom = model.geometry()
    n = model.n_vel
    b_mu = model.b.evaluate(geom, mu)[:, :n]
    cho = scipy.linalg.cho_factor(model.xu[:n, :n])
    m1 = b_mu @ scipy.linalg.cho_solve(cho, b_mu.T)
    m1 = 0.5 * (m1 + m1.T)
    if model.stab_online:
        s_mu = model.spq.evaluate(geom, mu)
    else:
        s_mu = np.zeros_like(m1)
    w, vecs = scipy.linalg.eigh(m1 + s_mu, model.xp)
    best = np.inf
    for col in range(vecs.shape[1]):
        q = vecs[:, col]
        val = np.sqrt(max(q @ m1 @ q, 0.0)) + np.sqrt(max(q @ s_mu @ q, 0.0))
        nrm = np.sqrt(q @ model.xp @ q)
        best = min(best, val / nrm)
    return float(best)


# ---------------------------------------------------------------------------
# serialization


_RBM_FORMAT = "cavityrb-rbm-8"

# header fields: every ReducedModel field that is not an array
_HEADER = tuple(f for f in dataclasses.fields(ReducedModel)
                if f.name not in _AXES and f.init)
# arrays every model has; the others are None for some configurations
_REQUIRED = tuple(f.name for f in dataclasses.fields(ReducedModel)
                  if f.name in _AXES and "None" not in f.type)
# arrays every Navier-Stokes model has: the reduced Newton starts
_REQUIRED_WITH_CONV = ("u_coords", "p_coords")
_PARSE = {"str": str, "float": float, "int": int,
          "tuple": lambda text: tuple(float(x) for x in text.split())}
_ALIGN = 64     # the blob starts on a multiple of this many bytes


def save_model(model: ReducedModel, path, config_echo: dict | None = None):
    """Self-describing serialization: an ASCII header, then one blob.

    The header holds the config echo, the format, the scalar fields and
    a table of arrays (name, shape, byte offset into the blob); newlines
    pad it to a multiple of 64 bytes.  The blob holds every stored array
    in ``_AXES`` order as little-endian float64.  The option of
    ``model`` is kept; the loaded model can again take any option.
    """
    arrays: list[tuple[str, np.ndarray]] = []
    for name in _AXES:
        value = getattr(model, name)
        if isinstance(value, AffineOperator):
            # index before tag keeps the summation order on reload
            arrays += [(f"{name}.{k}.{tag}", m)
                       for k, (tag, m) in enumerate(value.terms)]
        elif value is not None:
            arrays.append((name, value))
    blobs = [np.asarray(m, dtype="<f8").tobytes() for _, m in arrays]

    lines = [f"# reduced model ({_RBM_FORMAT})"]
    lines += [f"# {k} = {v}" for k, v in (config_echo or {}).items()]
    lines.append(f"format = {_RBM_FORMAT}")
    for f in _HEADER:
        value = getattr(model, f.name)
        value = (" ".join(map(fmt17, value)) if f.type == "tuple"
                 else fmt17(value) if f.type == "float" else value)
        lines.append(f"{f.name} = {value}")
    lines.append(f"arrays = {len(arrays)}")
    offsets = np.cumsum([0] + [len(blob) for blob in blobs])
    lines += [" ".join([key, *map(str, np.shape(m)), str(at)])
              for (key, m), at in zip(arrays, offsets)]
    head = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.writelines([head, b"\n" * (-len(head) % _ALIGN), *blobs])


def load_model(path):
    """Inverse of save_model; returns (ReducedModel, embedded config dict)."""
    header: dict[str, str] = {}
    echo: dict[str, str] = {}
    with open(path, "rb") as fh:
        def line() -> str:
            text = fh.readline()
            if not text.endswith(b"\n"):
                raise ValueError("model file ends inside its header")
            return text.decode("ascii").strip()

        while "arrays" not in header:
            text = line()
            key, eq, value = text.lstrip("#").partition("=")
            into = echo if text.startswith("#") else header
            if eq:
                into[key.strip()] = value.strip()
            elif text and into is header:
                raise ValueError(f"malformed model header line: {text!r}")
        if header.get("format") != _RBM_FORMAT:
            # earlier files hold stabilization terms projected from other
            # operators (rbm-1: reference-domain blocks), the full-order
            # supremizers (rbm-2), Suv l inside the Galerkin fvisc (rbm-3),
            # the quadratic terms as seven arrays on Z_v alone (rbm-4),
            # this format's arrays as 17-digit text lines (rbm-5), an
            # unread copy of the full-order lifting (rbm-6), or, for
            # Navier-Stokes, no snapshot coordinates to start Newton
            # from (rbm-7)
            raise ValueError(f"unsupported model format "
                             f"{header.get('format')!r}; expected {_RBM_FORMAT}")
        table = [line().split() for _ in range(int(header["arrays"]))]
        if fh.read(-fh.tell() % _ALIGN).strip(b"\n"):
            raise ValueError("model header is not padded with newlines")
        blob = fh.read()

    # the table must tile the blob: each array starts where the one
    # before it ends, the first at 0, and the last ends the file
    arrays: dict[str, np.ndarray] = {}
    end = 0
    for name, *shape, offset in table:
        axes = _AXES.get(name.partition(".")[0])
        if axes is None:
            raise ValueError(f"unknown model array {name!r}")
        shape = tuple(int(d) for d in shape)
        if len(shape) != len(axes) or min(shape) < 0 or int(offset) != end:
            raise ValueError(f"malformed model array entry {name!r}")
        count = int(np.prod(shape))
        if end + 8 * count > len(blob):
            raise ValueError(f"model file ends inside array {name!r}")
        arrays[name] = np.frombuffer(blob, "<f8", count, end) \
            .reshape(shape).astype(float)
        end += 8 * count
    if end != len(blob):
        raise ValueError(f"model file has {len(blob) - end} bytes after "
                         f"its last array")
    present = {key.partition(".")[0] for key in arrays}
    required = _REQUIRED + (_REQUIRED_WITH_CONV if "conv" in present else ())
    missing = [f.name for f in _HEADER if f.name not in header] \
        + [name for name in required if name not in present]
    if missing:
        raise ValueError(f"model file lacks {', '.join(missing)}")

    dims = {"v": arrays["z_v"].shape[1], "w": arrays["z_v"].shape[1] + 1,
            "p": arrays["z_p"].shape[1], "n": arrays["mus"].shape[0]}
    values: dict = {name: None for name in _AXES}
    terms: dict[str, list] = {}
    for key, data in arrays.items():
        name, _, term = key.partition(".")
        if any(k is not None and d != dims[k]
               for k, d in zip(_AXES[name], data.shape)):
            raise ValueError(f"model array {key!r} has shape {data.shape}")
        if term:
            idx, tag = term.split(".", 1)
            terms.setdefault(name, []).append((int(idx), tag, data))
        else:
            values[name] = data
    for name, found in terms.items():
        found.sort(key=lambda t: t[0])
        values[name] = AffineOperator([(tag, m) for _, tag, m in found])
    scalars = {f.name: _PARSE[f.type](header[f.name]) for f in _HEADER}
    n_u, sizes = scalars["n_u"], values["sizes"]
    if not (1 <= n_u <= dims["v"] and len(sizes)
            and tuple(sizes[-1]) == (n_u, dims["p"])):
        raise ValueError(f"model n_u = {n_u} does not fit its bases and "
                         f"greedy sizes")
    model = ReducedModel(**scalars, **values)
    # refuses an option the stored bases cannot serve
    return with_option(model, model.option), echo
