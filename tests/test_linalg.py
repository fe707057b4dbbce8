"""Linear algebra oracles: LU, Gram-Schmidt, generalized singular values."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse

from cavityrb.assembly import StabilizationConfig, assemble_gram
from cavityrb.fespace import make_space
from cavityrb.hifi import FlowSystem, ProblemConfig
from cavityrb.linalg import (RCOND_TOL, CsrPattern, SparseLU, dense_lu_solve,
                             modified_gram_schmidt)
from cavityrb.mesh import build_rect_mesh
from cavityrb.util import SingularSystemError


def test_lu_identity():
    ident = scipy.sparse.identity(5, format="csc")
    rhs = np.arange(5.0)
    assert np.allclose(SparseLU(ident).solve(rhs), rhs, atol=1e-15)


def test_lu_hand_example():
    m = scipy.sparse.csc_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = SparseLU(m).solve(np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_lu_singular_reports_context():
    m = scipy.sparse.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystemError) as err:
        SparseLU(m, context="unit test")
    assert "unit test" in str(err.value)


def _saddle(eps: float) -> scipy.sparse.csc_matrix:
    """[[A, B^T], [B, -eps I]] whose B^T has the kernel (1, -1).

    A is the 1-D Laplacian; B repeats one row, so only the -eps block
    holds the pressure difference: the condition number grows as 1/eps.
    """
    n = 12
    a = scipy.sparse.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                           [-1, 0, 1])
    b = scipy.sparse.csr_matrix(np.vstack([np.eye(n)[3], np.eye(n)[3]]))
    return scipy.sparse.bmat([[a, b.T], [b, -eps * scipy.sparse.identity(2)]],
                             format="csc")


def _exact_rcond(m) -> float:
    dense = m.toarray()
    return 1.0 / (np.linalg.norm(dense, 1)
                  * np.linalg.norm(np.linalg.inv(dense), 1))


def test_lu_near_singular_saddle_raises_with_rcond():
    m = _saddle(1e-16)
    assert _exact_rcond(m) < 1e-15
    with pytest.raises(SingularSystemError, match=r"rcond \d\.\d+e-1[67]") \
            as err:
        SparseLU(m, context="near-singular saddle")
    assert "near-singular saddle" in str(err.value)


def test_lu_rcond_estimate_brackets_the_exact_value():
    # the 1-norm estimate of ||A^-1|| is a lower bound, so rcond is an
    # upper bound; without the alternating-sign vector the saddles read
    # 0.016 at every eps
    rng = np.random.default_rng(4)
    mats = [_saddle(eps) for eps in (1e-2, 1e-6, 1e-10, 1e-14)]
    mats += [scipy.sparse.csc_matrix(rng.standard_normal((30, 30))
                                     + np.diag(rng.uniform(0.0, 3.0, 30)))
             for _ in range(5)]
    for m in mats:
        exact = _exact_rcond(m)
        lu = SparseLU(m)
        assert exact * (1 - 1e-12) <= lu.rcond <= 10.0 * exact


def test_lu_rcond_leaves_the_global_rng_alone():
    # a multi-column estimate would draw its random columns from numpy's
    # global generator and make runs depend on earlier calls
    state = np.random.get_state()
    SparseLU(_saddle(1e-6))
    after = np.random.get_state()
    assert all(np.array_equal(x, y) for x, y in zip(state, after))


def test_dense_lu_solve_matches_numpy_and_brackets_rcond():
    rng = np.random.default_rng(6)
    for n in (1, 7, 60):
        a = rng.standard_normal((n, n)) + np.diag(rng.uniform(0.0, 3.0, n))
        rhs = rng.standard_normal(n)
        x, rcond = dense_lu_solve(a, rhs)
        want = np.linalg.solve(a, rhs)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        exact = 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1))
        assert exact * (1 - 1e-12) <= rcond <= 10.0 * exact


@pytest.mark.parametrize("case", ["exact", "near"])
def test_dense_lu_solve_refuses_singular_with_rcond(case):
    m = np.ones((3, 3)) if case == "exact" else _saddle(1e-16).toarray()
    with pytest.raises(SingularSystemError,
                       match=r"rcond \d\.\d{3}e[-+]\d+ \(floor 1e-15\)") as err:
        dense_lu_solve(m, np.ones(len(m)), context="dense unit test")
    assert "dense unit test" in str(err.value)
    assert RCOND_TOL == 1e-15


def test_lu_random_residuals():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(20, 200))
        dense = rng.standard_normal((n, n))
        if trial % 2 == 0:
            dense = dense @ dense.T + n * np.eye(n)   # SPD branch
        dense[np.abs(dense) < 0.8] = 0.0
        dense += np.diag(rng.uniform(1.0, 2.0, size=n))
        m = scipy.sparse.csc_matrix(dense)
        rhs = rng.standard_normal(n)
        x = SparseLU(m).solve(rhs)
        scale = np.linalg.norm(dense, "fro") * np.linalg.norm(x) \
            + np.linalg.norm(rhs)
        assert np.linalg.norm(m @ x - rhs) <= 1e-10 * scale


def test_lu_concurrent_solves_are_bit_identical():
    # the center factor of a FlowSystem is shared by every truth thread:
    # concurrent solves on one factor give the one-thread bits
    cfg = ProblemConfig("stokes", "P2P2",
                        StabilizationConfig("ResidualBased", 0.05))
    lu = SparseLU(FlowSystem(cfg, 16, 8)._saddle_matrix((0.5, 2.0)))
    rng = np.random.default_rng(11)
    rhs = [rng.standard_normal(lu._lu.shape[0]) for _ in range(64)]
    serial = [lu.solve(b) for b in rhs]
    for _ in range(3):
        with ThreadPoolExecutor(max_workers=4) as pool:
            racing = list(pool.map(lu.solve, rhs))
        assert all(np.array_equal(a, b) for a, b in zip(serial, racing))


def euclid():
    return scipy.sparse.identity(2, format="csr")


def test_mgs_single_vector_normalized():
    basis, kept = modified_gram_schmidt([np.array([3.0, 4.0])], euclid())
    assert kept == [0]
    assert np.allclose(basis[:, 0], [0.6, 0.8], atol=1e-15)


def test_mgs_duplicate_dropped_not_fatal():
    v = np.array([1.0, 2.0])
    basis, kept = modified_gram_schmidt([v, v.copy()], euclid())
    assert kept == [0]
    assert basis.shape == (2, 1)


def test_mgs_hand_example():
    vecs = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    basis, kept = modified_gram_schmidt(vecs, euclid())
    assert kept == [0, 1]
    assert np.allclose(basis, np.eye(2), atol=1e-14)


def test_mgs_dependent_combination_dropped():
    v1 = np.array([1.0, 0.0, 0.5])
    v2 = np.array([0.0, 1.0, -0.25])
    basis, kept = modified_gram_schmidt(
        [v1, v2, v1 + v2], scipy.sparse.identity(3, format="csr"))
    assert kept == [0, 1]
    assert basis.shape == (3, 2)


def test_mgs_orthonormal_in_given_gram():
    rng = np.random.default_rng(9)
    n = 40
    a = rng.standard_normal((n, n))
    gram = scipy.sparse.csr_matrix(a @ a.T + n * np.eye(n))
    vecs = [rng.standard_normal(n) for _ in range(8)]
    basis, kept = modified_gram_schmidt(vecs, gram)
    assert kept == list(range(8))
    g = basis.T @ (gram @ basis)
    assert np.abs(g - np.eye(8)).max() < 1e-10


def test_mgs_idempotent():
    rng = np.random.default_rng(13)
    gram = euclid()
    basis, _ = modified_gram_schmidt(
        [rng.standard_normal(2) for _ in range(2)], gram)
    again, kept = modified_gram_schmidt(
        [basis[:, 0], basis[:, 1]], gram)
    assert kept == [0, 1]
    assert np.abs(again - basis).max() < 1e-12


def test_mgs_against_block_projected_out():
    rng = np.random.default_rng(17)
    gram = scipy.sparse.identity(6, format="csr")
    fixed, _ = modified_gram_schmidt(
        [rng.standard_normal(6) for _ in range(2)], gram)
    basis, kept = modified_gram_schmidt(
        [rng.standard_normal(6) for _ in range(3)], gram, against=fixed)
    assert kept == [0, 1, 2]
    assert np.abs(fixed.T @ basis).max() < 1e-12
    # a vector inside the fixed span is dropped, the basis stays clean
    basis2, kept2 = modified_gram_schmidt(
        [fixed[:, 0] + 2.0 * fixed[:, 1], rng.standard_normal(6)],
        gram, against=fixed)
    assert kept2 == [1]
    assert basis2.shape == (6, 1)


def test_mgs_drop_relative_to_first_vector():
    # the second vector is tiny but independent: the drop threshold
    # scales with the first vector's norm, so it must be discarded
    big = np.array([1.0, 0.0])
    tiny = np.array([0.0, 1e-12])
    _, kept = modified_gram_schmidt([big, tiny], euclid())
    assert kept == [0]


def _mgs_matvec_oracle(vectors, gram, drop_tol=1e-10, against=None):
    """Modified Gram-Schmidt as it was before the Gram images: one
    sparse product with G per inner product, (u, v)_G = u . (G v)."""
    def inner(x, y):
        return float(x @ (gram @ y))

    def norm(x):
        return float(np.sqrt(max(inner(x, x), 0.0)))

    fixed = [] if against is None else [against[:, j]
                                        for j in range(against.shape[1])]
    basis, kept, ref = [], [], 0.0
    for idx, v in enumerate(vectors):
        v = np.asarray(v, dtype=float).copy()
        if idx == 0:
            ref = norm(v)
        if norm(v) == 0.0:
            continue
        for _ in range(2):
            for u in fixed:
                v -= inner(u, v) * u
            for u in basis:
                v -= inner(u, v) * u
        nrm = norm(v)
        if nrm <= drop_tol * ref:
            continue
        basis.append(v / nrm)
        kept.append(idx)
    return (np.column_stack(basis) if basis
            else np.zeros((len(vectors[0]), 0))), kept


@pytest.mark.parametrize("family", ["P1", "P2"])
def test_mgs_gram_images_match_matvec_oracle(family):
    # H1-seminorm Gram of a velocity space, homogeneous-Dirichlet
    # vectors; a repeat, a combination and a zero vector are dropped
    space = make_space(build_rect_mesh(2.0, 1.0, 8, 4), family, 2)
    gram = assemble_gram(space, "h1semi")
    free = space.free_dofs()
    rng = np.random.default_rng(21)

    def free_vector():
        v = np.zeros(space.dof_count)
        v[free] = rng.standard_normal(free.size)
        return v

    vecs = [free_vector() for _ in range(6)]
    vecs[2:2] = [vecs[0].copy(), vecs[0] - 2.0 * vecs[1],
                 np.zeros(space.dof_count)]
    basis, kept = modified_gram_schmidt(vecs, gram)
    want, want_kept = _mgs_matvec_oracle(vecs, gram)
    assert kept == want_kept == [0, 1, 5, 6, 7, 8]
    assert np.abs(basis - want).max() <= 1e-12 * np.abs(want).max()
    # against the basis: a vector in its span is dropped
    more = [free_vector(), basis[:, 0] + basis[:, 3], free_vector(),
            free_vector()]
    got, got_kept = modified_gram_schmidt(more, gram, against=basis)
    want, want_kept = _mgs_matvec_oracle(more, gram, against=basis)
    assert got_kept == want_kept == [0, 2, 3]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(basis.T @ (gram @ got)).max() <= 1e-10


def test_csr_pattern_sums_duplicates():
    rows = np.array([0, 0, 1, 1, 0])
    cols = np.array([0, 1, 0, 1, 0])
    vals = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    pat = CsrPattern(rows, cols, (2, 2))
    got = pat.assemble(vals).toarray()
    want = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(2, 2)).toarray()
    assert np.array_equal(got, want)
    # reassembly with fresh values reuses the pattern
    got2 = pat.assemble(2.0 * vals).toarray()
    assert np.array_equal(got2, 2.0 * want)


def test_csr_pattern_matches_scipy_random():
    rng = np.random.default_rng(21)
    rows = rng.integers(0, 30, size=500)
    cols = rng.integers(0, 25, size=500)
    vals = rng.standard_normal(500)
    got = CsrPattern(rows, cols, (30, 25)).assemble(vals)
    want = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(30, 25))
    assert np.abs((got - want.tocsr())).max() < 1e-14
