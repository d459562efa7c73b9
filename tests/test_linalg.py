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


def _rand_vec(rng, da, db):
    amp = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    return BipartiteVector(da, db, amp)


def _rand_herm(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


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
        x = MatrixOp(_rand_herm(rng, da * db), dims=(da, db))
        back = partial_transpose(partial_transpose(x))
        assert np.array_equal(back.mat, x.mat)


def test_partial_transpose_preserves_trace():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = MatrixOp(_rand_herm(rng, 6), dims=(2, 3))
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
    x = MatrixOp(_rand_herm(rng, 6), dims=(2, 3))
    both = partial_transpose(partial_transpose(x, subsystem="A"), subsystem="B")
    assert np.allclose(both.mat, x.mat.T, atol=0)


def test_partial_transpose_requires_dims():
    with pytest.raises(MissingDims):
        partial_transpose(MatrixOp(np.eye(4)))


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
    a = _rand_herm(rng, 5)
    w, v = hermitian_eig(MatrixOp(a))
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(a @ v, v @ np.diag(w), atol=1e-10)


def test_hermitian_eig_rejects_non_hermitian():
    """The gate is relative to max|X|, so it rejects at every scale."""
    for s in 10.0 ** np.arange(-12, 13, 2):
        with pytest.raises(NotHermitian):
            hermitian_eig(MatrixOp(s * np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_hs_inner_symmetric_real():
    rng = np.random.default_rng(16)
    a = _rand_herm(rng, 4)
    b = _rand_herm(rng, 4)
    assert abs(hs_inner(a, b) - hs_inner(b, a)) <= 1e-12
    assert hs_inner(a, a) >= 0


def test_hs_inner_is_trace_of_product():
    rng = np.random.default_rng(17)
    a = _rand_herm(rng, 3)
    b = _rand_herm(rng, 3)
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
