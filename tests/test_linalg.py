"""Tests for bipartite linear algebra: Schmidt decomposition, partial
transpose, reshuffling, eigendecomposition and the HS inner product."""

import numpy as np
import pytest

from conekit import (
    BipartiteVector,
    MatrixOp,
    SchmidtDecomposition,
    hermitian_eig,
    hs_inner,
    max_entangled,
    numerical_rank,
    partial_transpose,
    reshuffle,
    schmidt_decompose,
    schmidt_rank,
    swap_matrix,
    unreshuffle,
)
from conekit.errors import BadParam, DimMismatch, MissingDims, NotHermitian, ZeroVector
from conekit.linalg import _gaussian_products

from _inputs import rand_herm


def _rand_vec(rng, da, db):
    amp = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    return BipartiteVector(da, db, amp)


# ---------------------------------------------------------------------------
# Schmidt decomposition


def test_schmidt_reconstruction_1000_random():
    """sum_l c_l u_l (x) w_l rebuilds the input to 1e-9 on 1000 vectors."""
    rng = np.random.default_rng(11)
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (4, 4)]
    for i in range(1000):
        da, db = shapes[i % len(shapes)]
        v = _rand_vec(rng, da, db)
        dec = schmidt_decompose(v)
        recon = np.zeros(da * db, dtype=complex)
        for c, u, w in zip(dec.coefficients, dec.left_vectors, dec.right_vectors):
            recon += c * np.kron(u, w)
        assert np.abs(recon - v.amp).max() <= 1e-9


def test_schmidt_frames_orthonormal():
    rng = np.random.default_rng(3)
    v = _rand_vec(rng, 3, 4)
    dec = schmidt_decompose(v)
    u = dec.left_vectors
    w = dec.right_vectors
    assert np.allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-12)
    assert np.allclose(w @ w.conj().T, np.eye(len(w)), atol=1e-12)
    assert np.all(np.diff(dec.coefficients) <= 1e-15)
    assert np.all(dec.coefficients >= 0)


def test_schmidt_rank_product_vector():
    """A product vector has rank 1."""
    rng = np.random.default_rng(5)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = BipartiteVector(3, 3, np.kron(a, b))
    assert schmidt_rank(v) == 1


def test_schmidt_rank_max_entangled():
    for d in (2, 3, 4):
        assert schmidt_rank(max_entangled(d)) == d


def test_schmidt_rank_two_term():
    v = BipartiteVector(3, 3, np.kron([1, 0, 0], [1, 0, 0])
                        + 0.5 * np.kron([0, 1, 0], [0, 1, 0]))
    assert schmidt_rank(v) == 2


def test_schmidt_rank_scale_invariant():
    """Rank thresholding is relative, so scaling never changes the rank, and
    only the zero vector itself is too small to have one."""
    rng = np.random.default_rng(7)
    v = _rand_vec(rng, 3, 3)
    bell = np.array([1.0, 0.0, 0.0, 1.0])
    for s in (1e6, 1e-13, 1e-15, 1e-100):
        assert schmidt_rank(BipartiteVector(3, 3, s * v.amp)) == schmidt_rank(v)
        assert schmidt_rank(BipartiteVector(2, 2, s * bell)) == 2


def test_schmidt_zero_vector_raises():
    with pytest.raises(ZeroVector):
        schmidt_decompose(BipartiteVector(2, 2, np.zeros(4)))
    for bad in (np.nan, np.inf):
        with pytest.raises(BadParam):
            schmidt_decompose(BipartiteVector(2, 2, [1.0, 0.0, 0.0, bad]))


def test_bipartite_vector_dim_mismatch():
    with pytest.raises(DimMismatch):
        BipartiteVector(2, 3, np.zeros(5))


def test_bipartite_vector_matrix_devectorizes():
    """matrix() reshapes the amplitude row-major to d_a x d_b."""
    amp = np.arange(6, dtype=complex)
    v = BipartiteVector(2, 3, amp)
    assert np.array_equal(v.matrix(), amp.reshape(2, 3))


# ---------------------------------------------------------------------------
# Partial transpose


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(2)
    for da, db in [(2, 2), (2, 3), (3, 4)]:
        x = MatrixOp(rand_herm(rng, da * db), dims=(da, db))
        back = partial_transpose(partial_transpose(x))
        assert np.array_equal(back.mat, x.mat)


def test_partial_transpose_preserves_trace():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = MatrixOp(rand_herm(rng, 6), dims=(2, 3))
        assert abs(np.trace(partial_transpose(x).mat) - np.trace(x.mat)) <= 1e-12


def test_partial_transpose_index_formula():
    """out[ij,kl] = x[il,kj] for subsystem B."""
    rng = np.random.default_rng(9)
    da, db = 2, 3
    x = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    out = partial_transpose(MatrixOp(x, dims=(da, db))).mat
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    assert out[i * db + j, k * db + l] == x[i * db + l, k * db + j]


def test_partial_transpose_both_factors_is_full_transpose():
    rng = np.random.default_rng(10)
    x = MatrixOp(rand_herm(rng, 6), dims=(2, 3))
    both = partial_transpose(partial_transpose(x, subsystem="A"), subsystem="B")
    assert np.allclose(both.mat, x.mat.T, atol=0)


def test_partial_transpose_requires_dims():
    with pytest.raises(MissingDims):
        partial_transpose(MatrixOp(np.eye(4)))
    with pytest.raises(MissingDims):
        partial_transpose(np.eye(4))


# ---------------------------------------------------------------------------
# Reshuffling


def test_reshuffle_round_trip_exact_1000():
    rng = np.random.default_rng(13)
    for i in range(1000):
        d = (2, 3, 4)[i % 3]
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        assert np.array_equal(unreshuffle(reshuffle(g, d), d), g)


def test_reshuffle_index_permutation():
    """choi[ij,kl] = super[jl,ik]."""
    d = 2
    s = np.arange(16, dtype=complex).reshape(4, 4)
    c = reshuffle(s, d)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    assert c[i * d + j, k * d + l] == s[j * d + l, i * d + k]


def test_reshuffle_not_involutive():
    rng = np.random.default_rng(14)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    assert not np.allclose(reshuffle(reshuffle(g, 3), 3), g)


# ---------------------------------------------------------------------------
# Eigendecomposition and inner product


def test_hermitian_eig_ascending_and_consistent():
    rng = np.random.default_rng(15)
    a = rand_herm(rng, 5)
    w, v = hermitian_eig(MatrixOp(a))
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(a @ v, v @ np.diag(w), atol=1e-10)


def test_hermitian_eig_rejects_non_hermitian():
    """The gate is relative to max|X|, so it rejects at every scale."""
    for s in 10.0 ** np.arange(-12, 13, 2):
        with pytest.raises(NotHermitian):
            hermitian_eig(MatrixOp(s * np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_hermitian_eig_of_a_stack_is_each_members_own_call():
    """A stack is decided in one call, and each member's (w, v) is bit for
    bit the one its own call returns."""
    rng = np.random.default_rng(17)
    stack = np.stack([rand_herm(rng, 6) * s for s in (1e-200, 1.0, 3.0, 1e200)])
    w, v = hermitian_eig(stack)
    for i, m in enumerate(stack):
        wi, vi = hermitian_eig(m)
        assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)


def test_stacked_gate_names_the_member_that_fails():
    """Only the second member is not Hermitian: the stacked gate raises
    NotHermitian with that member's deviation and index."""
    good = np.diag([1.0, 2.0, 3.0]).astype(complex)
    bad = good.copy()
    bad[0, 2] = 0.25
    with pytest.raises(NotHermitian, match=r"= 2\.500e-01 exceeds tolerance \(stack member 1\)"):
        hermitian_eig(np.stack([good, bad, good]))


def test_stacked_gate_judges_each_member_on_its_own_margin():
    """Members at 1e-300 and 1e300, each with max|X - X^dag| = 1e-11 max|X|,
    pass; a member 1e-9 off at unit scale fails beside a Hermitian one at
    1e300, whose margin would have let it through."""
    skew = np.array([[1.0, 1e-11], [0.0, 0.5]], dtype=complex)
    w, _ = hermitian_eig(np.stack([1e-300 * skew, 1e300 * skew]))
    assert np.isfinite(w).all()
    off = np.array([[1.0, 1e-9], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian, match="stack member 0"):
        hermitian_eig(np.stack([off, 1e300 * np.eye(2)]))


def test_stacked_eigensolve_refuses_a_member_with_a_non_finite_spectrum():
    """-1.7e308 * ones(4, 4) has the eigenvalue -6.8e308: as the second
    member of a stack it raises BadParam naming its eigenvalue range."""
    with pytest.raises(BadParam, match="spectrum is not finite .*from -inf"):
        hermitian_eig(np.stack([np.eye(4), -1.7e308 * np.ones((4, 4))]))


def test_hs_inner_symmetric_real():
    rng = np.random.default_rng(16)
    a = rand_herm(rng, 4)
    b = rand_herm(rng, 4)
    assert abs(hs_inner(a, b) - hs_inner(b, a)) <= 1e-12
    assert hs_inner(a, a) >= 0


def test_hs_inner_is_trace_of_product():
    rng = np.random.default_rng(17)
    a = rand_herm(rng, 3)
    b = rand_herm(rng, 3)
    assert abs(hs_inner(a, b) - np.trace(a @ b).real) <= 1e-12


def test_hs_inner_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hs_inner(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_hs_inner_rejects_shape_mismatch():
    with pytest.raises(DimMismatch):
        hs_inner(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# Builders


def test_max_entangled_conventions():
    for d in (2, 3):
        raw = max_entangled(d)
        assert abs(raw.norm ** 2 - d) <= 1e-12
        assert np.allclose(raw.matrix(), np.eye(d), atol=0)
        unit = max_entangled(d, normalized=True)
        assert abs(unit.norm - 1.0) <= 1e-12


def test_swap_matrix_swaps_product_vectors():
    rng = np.random.default_rng(18)
    d = 3
    s = swap_matrix(d)
    u = rng.normal(size=d) + 1j * rng.normal(size=d)
    w = rng.normal(size=d) + 1j * rng.normal(size=d)
    assert np.allclose(s @ np.kron(u, w), np.kron(w, u), atol=1e-12)
    assert np.array_equal(s @ s, np.eye(d * d))


def test_numerical_rank():
    rng = np.random.default_rng(19)
    u = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    v = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    m = u @ v
    assert numerical_rank(m) == 2
    assert numerical_rank(1e-7 * m) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_matrix_op_immutable():
    x = MatrixOp(np.eye(2))
    with pytest.raises(ValueError):
        x.mat[0, 0] = 5.0


def test_matrix_op_takes_its_spectrum_once(monkeypatch):
    """eig is hermitian_eig of the matrix, taken on the first read and kept:
    later reads return the same read-only arrays without a second call, and
    a matrix that fails the Hermiticity gate raises on reading it."""
    import conekit.linalg as linalg_mod
    calls = []

    def counting_eig(x):
        calls.append(x)
        return hermitian_eig(x)

    monkeypatch.setattr(linalg_mod, "hermitian_eig", counting_eig)
    a = rand_herm(np.random.default_rng(18), 4)
    x = MatrixOp(a)
    w, v = x.eig
    assert x.eig[0] is w and x.eig[1] is v and len(calls) == 1
    want_w, want_v = hermitian_eig(a)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    for arr in (w, v):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(NotHermitian):
        MatrixOp(np.array([[0.0, 1.0], [0.0, 0.0]])).eig


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf),
              complex(0.0, -np.inf)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_matrix_op_rejects_non_finite(bad):
    """NaN or inf in the real or the imaginary part is refused at
    construction, before any eigensolve can turn it into a verdict."""
    for entry in ((1, 1), (0, 1)):
        m = np.eye(4, dtype=complex)
        m[entry] = bad
        with pytest.raises(BadParam):
            MatrixOp(m, dims=(2, 2))


def test_matrix_op_dims_product_checked():
    with pytest.raises(DimMismatch):
        MatrixOp(np.eye(4), dims=(2, 3))


def test_matrix_op_require_dims():
    with pytest.raises(MissingDims):
        MatrixOp(np.eye(4)).require_dims()
    assert MatrixOp(np.eye(6), dims=(2, 3)).require_dims() == (2, 3)


# ---------------------------------------------------------------------------
# The one draw of rank <= k products


@pytest.mark.parametrize("da,db,k,n,seed", [(2, 2, 1, 1, 0), (3, 4, 2, 3, 7),
                                            (4, 3, 3, 2, 11), (2, 4, 2, 5, 123)])
def test_gaussian_products_stream_order(da, db, k, n, seed):
    """Product by product, the draw reads G1's real part, its imaginary
    part, then G2's real and imaginary parts, and returns G1 @ G2."""
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(n):
        g1 = rng.normal(size=(da, k)) + 1j * rng.normal(size=(da, k))
        g2 = rng.normal(size=(k, db)) + 1j * rng.normal(size=(k, db))
        want.append(g1 @ g2)
    got = _gaussian_products(np.random.default_rng(seed), n, da, k, db)
    assert got.shape == (n, da, db)
    assert np.array_equal(got, np.array(want))
