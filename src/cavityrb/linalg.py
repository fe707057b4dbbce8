"""Sparse and dense linear algebra helpers.

Wraps a handful of SciPy routines behind the interfaces the solvers
need: deterministic CSR assembly into a reusable sparsity pattern,
sparse and dense LU solves that report singularity instead of silently
returning garbage, Gram-orthonormalization, and a generalized
smallest-singular-value solve.

Sparse LU uses SuperLU with its default COLAMD column order and
threshold partial pivoting: a diagonal entry stays the pivot while it is
at least DIAG_PIVOT_THRESH times the largest entry of its column, so the
fill-reducing order survives.  SciPy's default (1.0, full partial
pivoting) swaps rows on the saddle systems and roughly triples the L+U
fill of P2P2.  One threshold serves every element pair and the
Navier-Stokes Jacobians: 0.01 keeps every relative residual at 1e-13 or
below on all of them, so there is nothing to tune per pair.  A threshold
of 0 is wrong: the zero diagonal of the pressure-mean constraint row
would be taken as a pivot.

Singularity is judged from a 1-norm estimate of the reciprocal condition
number, rcond = 1 / (||A||_1 est||A^-1||_1) (Hager 1984, Higham 1988),
not from the spread of U's diagonal, which depends on the pivoting.  The
well-posed systems of this package have rcond of order 1e-5 on the
32x16 mesh (P2P2 ResidualBased, delta = 0.05); a system at or below
RCOND_TOL leaves no correct digit to a solve and is refused.  The
estimate is made once per factor, when it is built.  A full-order solve
of ``hifi`` therefore reports the rcond of the system's center factor,
which preconditioned it, or of the factors it made of its own matrix
when GMRES missed; a singularity the center factor shares (one that
does not depend on mu) is refused at the first solve.

Dense (reduced) systems go through LAPACK getrf, gecon and getrs in
``dense_lu_solve``: gecon computes the same 1-norm estimate on the dense
factor, and the same floor refuses them.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .util import SingularSystemError

DIAG_PIVOT_THRESH = 0.01
# Backward-stable LU produces small residuals even on numerically
# singular systems, so singularity is detected from the condition.
RCOND_TOL = 1e-15


class CsrPattern:
    """Reusable CSR skeleton for repeated assembly on a fixed structure.

    The (rows, cols) structure of an FE matrix depends only on the mesh,
    so the sort/merge is done once; subsequent assemblies with fresh
    entry values reduce into the cached pattern deterministically
    (ordered segment sums, no atomics).
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        self.shape = tuple(shape)
        self.order = np.lexsort((cols, rows))
        r = rows[self.order]
        c = cols[self.order]
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        self.starts = np.flatnonzero(first)
        self.indices = c[self.starts].astype(np.int32)
        counts = np.bincount(r[self.starts], minlength=self.shape[0])
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)

    def assemble(self, data: np.ndarray) -> scipy.sparse.csr_matrix:
        merged = np.add.reduceat(np.asarray(data, dtype=float).ravel()[self.order],
                                 self.starts)
        return scipy.sparse.csr_matrix((merged, self.indices, self.indptr),
                                       shape=self.shape)


try:    # glibc's malloc_trim; absent from other C libraries
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def release_free_heap() -> None:
    """Hand the heap's free pages back to the operating system.

    A sparse factor's L and U are tens of megabytes of malloc'd blocks.
    glibc keeps the blocks of a dropped factor in its heap, where a
    factor that lives on (a system's center factor) pins them, so
    ``hifi`` calls this once it has dropped a transient factor.  glibc's
    ``malloc_trim``; a no-op with any other C library.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


class SparseLU:
    """LU factorization of a sparse square matrix with a conditioning check.

    Raises SingularSystemError when the factorization fails outright or
    when the estimated reciprocal 1-norm condition number ``rcond``
    falls to RCOND_TOL or below; ``rcond`` is kept for diagnostics.
    """

    def __init__(self, matrix: scipy.sparse.spmatrix, context: str = ""):
        a = matrix.tocsc()
        try:
            self._lu = scipy.sparse.linalg.splu(
                a, diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularSystemError(str(exc), context) from exc
        self.rcond = _rcond(a, self._lu)
        _refuse_singular(self.rcond, context)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


def _refuse_singular(rcond: float, context: str) -> None:
    if not rcond > RCOND_TOL:   # also refuses NaN
        raise SingularSystemError(
            f"system is numerically singular: estimated rcond "
            f"{rcond:.3e} (floor {RCOND_TOL:.0e})", context)


def dense_lu_solve(matrix: np.ndarray, rhs: np.ndarray,
                   context: str = "") -> tuple[np.ndarray, float]:
    """Solve a dense square system; returns (x, rcond).

    LAPACK getrf + getrs (the factor and solve of ``numpy.linalg.solve``)
    with gecon's 1-norm rcond estimate in between; an exactly zero pivot
    reads rcond 0.  Refused like SparseLU at rcond <= RCOND_TOL.
    """
    lu, piv, info = scipy.linalg.lapack.dgetrf(matrix)
    rcond = 0.0 if info > 0 else float(scipy.linalg.lapack.dgecon(
        lu, np.abs(matrix).sum(axis=0).max())[0])
    _refuse_singular(rcond, context)
    return scipy.linalg.lapack.dgetrs(lu, piv, rhs)[0], rcond


def _rcond(a: scipy.sparse.csc_matrix, lu) -> float:
    """1 / (||A||_1 est||A^-1||_1), estimated through the factor's solves.

    Hager's estimator with one probe column (``onenormest``, t=1; larger
    t draws random columns from NumPy's global generator), plus Higham's
    alternating-sign test vector as in LAPACK's xLACN2: the estimator
    starts from the all-ones vector, which cannot excite a near-null
    vector that is odd under a symmetry of the matrix (two identical
    rows, for one).
    """
    def solve_t(x):
        return lu.solve(x, trans="T")

    n = a.shape[0]
    inverse = scipy.sparse.linalg.LinearOperator(
        a.shape, matvec=lu.solve, rmatvec=solve_t, matmat=lu.solve,
        rmatmat=solve_t, dtype=float)
    alt = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        est = max(scipy.sparse.linalg.onenormest(inverse, t=1),
                  np.abs(lu.solve(alt)).sum() * 2.0 / (3.0 * n))
        return float(1.0 / (scipy.sparse.linalg.norm(a, 1) * est))


def modified_gram_schmidt(vectors, gram, drop_tol: float = 1e-10,
                          against: np.ndarray | None = None):
    """Gram-orthonormalize a sequence of vectors.

    Modified Gram-Schmidt with one classical re-orthogonalization pass.
    A vector whose orthogonal remainder shrinks below ``drop_tol`` times
    the first input vector's norm is dropped as linearly dependent;
    drops are reported through the returned index list, never raised.
    ``against`` supplies already-G-orthonormal columns projected out
    first (and kept out of the returned basis).  The image G u of each
    ``against`` and basis column is formed once: an inner product
    (u, v)_G is the dense dot (G u) . v.

    Returns (basis, kept) where basis is (n, k) with G-orthonormal
    columns and kept lists the indices of the surviving inputs.
    """
    columns = [] if against is None else list(against.T)
    images = [gram @ u for u in columns]
    n_fixed = len(columns)
    kept: list[int] = []
    ref = 0.0
    for idx, v in enumerate(vectors):
        v = np.asarray(v, dtype=float).copy()
        nrm = float(np.sqrt(max(v @ (gram @ v), 0.0)))
        if idx == 0:
            ref = nrm
        if nrm == 0.0:
            continue
        for _ in range(2):
            for u, gu in zip(columns, images):
                v -= (gu @ v) * u
        gv = gram @ v
        nrm = float(np.sqrt(max(v @ gv, 0.0)))
        if nrm <= drop_tol * ref:
            continue
        columns.append(v / nrm)
        images.append(gv / nrm)
        kept.append(idx)
    basis = columns[n_fixed:]
    n = len(vectors[0]) if len(vectors) else 0
    out = np.column_stack(basis) if basis else np.zeros((n, 0))
    return out, kept


def smallest_gsv(b: np.ndarray, gram_u: np.ndarray, gram_p: np.ndarray) -> float:
    """Smallest generalized singular value of a dense divergence block.

    Computes sqrt(lambda_min) of  (B Xu^{-1} B^T) q = lambda Xp q,
    i.e. the inf-sup constant of B measured in the Xu / Xp inner
    products.
    """
    b = np.asarray(b, dtype=float)
    cho = scipy.linalg.cho_factor(np.asarray(gram_u, dtype=float))
    m = b @ scipy.linalg.cho_solve(cho, b.T)
    m = 0.5 * (m + m.T)
    w = scipy.linalg.eigh(m, np.asarray(gram_p, dtype=float), eigvals_only=True)
    return float(np.sqrt(max(w[0], 0.0)))

