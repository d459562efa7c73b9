"""Tests for map representations: superoperator/Choi/Kraus conversions, the
adjoint, co-maps, the builder families and certified composition."""

import numpy as np
import pytest

from conekit import (
    KrausSet,
    MapRep,
    MatrixOp,
    ad,
    adjoint,
    apply,
    apply_on_right_factor,
    block_action,
    choi,
    co,
    compose,
    compose_certified,
    depolarizing,
    from_kraus,
    hs_inner,
    identity_map,
    kraus_decompose,
    map_from_choi,
    max_entangled,
    max_entangled_projector,
    numerical_rank,
    partial_transpose,
    random_cp_map,
    random_hp_map,
    random_k_positive_map,
    reduction_detectors,
    reduction_family,
    schmidt_rank,
    transpose_map,
)
from conekit.linalg import BipartiteVector, hermitian_eig
from conekit.errors import (
    BadParam,
    BadRank,
    BlockNotPSD,
    DimMismatch,
    EmptyList,
    NotCompletelyPositive,
    NotHermiticityPreserving,
    RankTooHigh,
)


def _rand_mat(rng, d, rank=None):
    if rank is None:
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    v = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
    return u @ v


def _rand_herm(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


# ---------------------------------------------------------------------------
# MapRep validation and application


def test_maprep_rejects_bad_shape():
    with pytest.raises(DimMismatch):
        MapRep(2, np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(0.0, np.inf), complex(0.0, -np.inf)])
def test_maps_and_kraus_sets_reject_non_finite(bad):
    s = np.eye(4, dtype=complex)
    s[0, 3] = bad
    with pytest.raises(BadParam):
        MapRep(2, s)
    a = np.eye(2, dtype=complex)
    a[1, 0] = bad
    with pytest.raises(BadParam):
        KrausSet((np.eye(2), a))
    with pytest.raises(BadParam):
        map_from_choi(s)


def test_maprep_rejects_non_hermiticity_preserving():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for scale in 10.0 ** np.arange(-12, 13, 2):
        with pytest.raises(NotHermiticityPreserving):
            MapRep(2, s * scale)


def test_apply_identity_and_transpose():
    rng = np.random.default_rng(1)
    x = _rand_herm(rng, 3)
    assert np.allclose(apply(identity_map(3), x).mat, x, atol=1e-14)
    assert np.allclose(apply(transpose_map(3), x).mat, x.T, atol=1e-14)


def test_apply_reduction_closed_form():
    """reduction_family(d, c) sends x to Tr(x) 1 - c x."""
    rng = np.random.default_rng(2)
    x = _rand_herm(rng, 3)
    for c in (0.3, 1.0):
        out = apply(reduction_family(3, c), x).mat
        assert np.allclose(out, np.trace(x) * np.eye(3) - c * x, atol=1e-12)


def test_apply_on_right_factor_product_input():
    """(1 (x) phi)(a (x) b) = a (x) phi(b)."""
    rng = np.random.default_rng(3)
    phi = random_hp_map(3, 7)
    a = _rand_herm(rng, 3)
    b = _rand_herm(rng, 3)
    out = apply_on_right_factor(phi, MatrixOp(np.kron(a, b), dims=(3, 3))).mat
    assert np.allclose(out, np.kron(a, apply(phi, b).mat), atol=1e-11)


def test_ad_is_two_sided_conjugation():
    rng = np.random.default_rng(4)
    a = _rand_mat(rng, 3)
    x = _rand_herm(rng, 3)
    assert np.allclose(apply(ad(a), x).mat, a.conj().T @ x @ a, atol=1e-11)


# ---------------------------------------------------------------------------
# Choi matrix


def test_choi_identity_is_max_entangled_projector():
    for d in (2, 3):
        psi = max_entangled(d).amp
        target = np.outer(psi, psi.conj())
        assert np.abs(choi(identity_map(d)).mat - target).max() <= 1e-14
        assert np.abs(max_entangled_projector(d).mat - target).max() <= 1e-14


def test_choi_transpose_is_swap():
    from conekit import swap_matrix
    for d in (2, 3):
        assert np.abs(choi(transpose_map(d)).mat - swap_matrix(d)).max() <= 1e-14


def test_choi_reduction_closed_form():
    d, c = 3, 0.4
    psi = max_entangled(d).amp
    target = np.eye(d * d) - c * np.outer(psi, psi.conj())
    assert np.abs(choi(reduction_family(d, c)).mat - target).max() <= 1e-13


def test_choi_dims_attached():
    assert choi(identity_map(3)).dims == (3, 3)


def test_map_from_choi_round_trip():
    for seed in range(50):
        d = 2 + seed % 3
        phi = random_hp_map(d, seed)
        back = map_from_choi(choi(phi))
        assert np.abs(back.super_mat - phi.super_mat).max() <= 1e-13


def test_map_from_choi_rejects_non_hermitian():
    from conekit.errors import NotHermitian
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        map_from_choi(MatrixOp(c, dims=(2, 2)))


def test_choi_of_co_is_partial_transpose_of_choi():
    for seed in range(100):
        d = 2 + seed % 3
        phi = random_hp_map(d, seed)
        lhs = choi(co(phi)).mat
        rhs = partial_transpose(choi(phi)).mat
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_choi_of_ad_is_rank_one_with_matching_schmidt_rank():
    """choi(ad(a)) = |v><v| where the Schmidt rank of v equals rank(a)."""
    rng = np.random.default_rng(21)
    for d in (2, 3, 4):
        for r in range(1, d + 1):
            a = _rand_mat(rng, d, rank=r)
            w, v = hermitian_eig(choi(ad(a)))
            assert w[-1] > 0
            assert abs(w[-2]) <= 1e-10 * w[-1]
            vec = BipartiteVector(d, d, v[:, -1])
            assert schmidt_rank(vec) == r


# ---------------------------------------------------------------------------
# Composition and adjoint


def test_compose_applies_right_factor_first():
    rng = np.random.default_rng(5)
    f = random_hp_map(3, 11)
    g = random_hp_map(3, 12)
    x = _rand_herm(rng, 3)
    lhs = apply(compose(f, g), x).mat
    rhs = apply(f, apply(g, x).mat).mat
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_compose_of_conjugations():
    """ad(a) after ad(b) conjugates by b a."""
    rng = np.random.default_rng(6)
    a = _rand_mat(rng, 3)
    b = _rand_mat(rng, 3)
    lhs = compose(ad(a), ad(b)).super_mat
    rhs = ad(b @ a).super_mat
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_adjoint_is_hs_adjoint_500_triples():
    rng = np.random.default_rng(7)
    for i in range(500):
        d = 2 + i % 3
        phi = random_hp_map(d, i)
        x = _rand_herm(rng, d)
        y = _rand_herm(rng, d)
        lhs = hs_inner(apply(phi, x).mat, y)
        rhs = hs_inner(x, apply(adjoint(phi), y).mat)
        assert abs(lhs - rhs) <= 1e-10


def test_adjoint_involution():
    phi = random_hp_map(3, 42)
    assert np.abs(adjoint(adjoint(phi)).super_mat - phi.super_mat).max() <= 1e-14


def test_theta_pairing_identity():
    """hs(choi(adj(psi)), choi(phi)) equals the doubled overlap of the
    composite's Choi matrix with the maximally entangled projector."""
    for seed in range(50):
        d = 3
        phi = random_hp_map(d, seed)
        psi = random_hp_map(d, seed + 1000)
        lhs = hs_inner(choi(adjoint(psi)).mat, choi(phi).mat)
        p = max_entangled_projector(d).mat
        rhs = np.trace(p @ choi(compose(psi, phi)).mat).real
        assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# Kraus forms


def test_from_kraus_matches_conjugation_sum():
    rng = np.random.default_rng(8)
    ops = [_rand_mat(rng, 3) for _ in range(4)]
    phi = from_kraus(ops)
    x = _rand_herm(rng, 3)
    direct = sum(op.conj().T @ x @ op for op in ops)
    assert np.allclose(apply(phi, x).mat, direct, atol=1e-10)


def test_kraus_round_trip_on_cp_map():
    for seed in range(20):
        phi = random_cp_map(3, 2, 4, seed)
        ks = kraus_decompose(phi)
        back = ks.to_map()
        assert np.abs(back.super_mat - phi.super_mat).max() <= 1e-11
        assert len(ks.operators) <= 9


def test_kraus_decompose_rejects_non_cp():
    """The CP floor is relative to max|C|: the transpose map is refuted at
    every scale, not decomposed into a set that misses half of it."""
    for s in 10.0 ** np.arange(-12, 13, 2):
        with pytest.raises(NotCompletelyPositive):
            kraus_decompose(MapRep(2, transpose_map(2).super_mat * s))


def test_from_kraus_input_validation():
    with pytest.raises(EmptyList):
        from_kraus([])
    with pytest.raises(DimMismatch):
        from_kraus([np.eye(2), np.eye(3)])


def test_random_cp_map_rejects_rank_outside_range():
    with pytest.raises(BadRank):
        random_cp_map(3, 4, 2, 0)
    with pytest.raises(BadParam):
        random_cp_map(3, 2, 0, 0)


# ---------------------------------------------------------------------------
# Families


def test_depolarizing_is_cp_and_unital():
    rng = np.random.default_rng(9)
    x = _rand_herm(rng, 3)
    for p in (0.0, 0.5, 1.0):
        phi = depolarizing(3, p)
        w, _ = hermitian_eig(choi(phi))
        assert w[0] >= -1e-12
        out = apply(phi, x).mat
        target = (1 - p) * x + p * np.trace(x) * np.eye(3) / 3
        assert np.allclose(out, target, atol=1e-12)


def test_depolarizing_rejects_bad_param():
    with pytest.raises(BadParam):
        depolarizing(3, 1.5)


def test_random_cp_map_has_psd_choi():
    for seed in range(10):
        phi = random_cp_map(3, 2, 4, seed)
        w, _ = hermitian_eig(choi(phi))
        assert w[0] >= -1e-12


def test_random_k_positive_map_blends_known_families():
    phi = random_k_positive_map(3, 2, 5)
    assert phi.d == 3
    # its Choi pairs nonnegatively against every Schmidt-rank-2 CP map
    for seed in range(10):
        other = random_cp_map(3, 2, 3, seed)
        val = hs_inner(choi(phi).mat, choi(other).mat)
        assert val >= -1e-9


def test_reduction_detectors_bank():
    """One detector per level, each with a negative Choi eigenvalue: a CP
    detector sends every PSD input to a PSD matrix and so can never fire."""
    bank = reduction_detectors(3)
    assert [det.k_level for det in bank] == [1, 2]
    for det in bank:
        assert np.linalg.eigvalsh(choi(det.map).mat)[0] < -1e-9


# ---------------------------------------------------------------------------
# Certified composition


def test_block_action_shape_and_psd_for_cp():
    rng = np.random.default_rng(10)
    phi = random_cp_map(3, 3, 4, 0)
    q, _ = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    blk = block_action(phi, [q[:, 0], q[:, 1]])
    assert blk.mat.shape == (6, 6)
    assert blk.dims == (2, 3)
    w, _ = hermitian_eig(blk)
    assert w[0] >= -1e-10


def test_compose_certified_identity_recovers_conjugation():
    rng = np.random.default_rng(11)
    a = _rand_mat(rng, 3, rank=2)
    ks = compose_certified(a, identity_map(3), 2)
    recon = ks.to_map()
    target = ad(a)
    assert np.abs(recon.super_mat - target.super_mat).max() <= 1e-9


def test_compose_certified_reduction_rank_and_reconstruction():
    rng = np.random.default_rng(12)
    psi = reduction_family(3, 0.5)
    for _ in range(10):
        a = _rand_mat(rng, 3, rank=2)
        a = a / np.linalg.norm(a)
        ks = compose_certified(a, psi, 2)
        assert ks.rank_bound == 2
        for op in ks.operators:
            assert numerical_rank(op) <= 2
        target = compose(psi, ad(a))
        assert np.abs(ks.to_map().super_mat - target.super_mat).max() <= 1e-9


def test_compose_certified_other_order():
    rng = np.random.default_rng(13)
    psi = reduction_family(3, 0.5)
    a = _rand_mat(rng, 3, rank=2)
    ks = compose_certified(a, psi, 2, order="ad_after_map")
    target = compose(ad(a), psi)
    assert np.abs(ks.to_map().super_mat - target.super_mat).max() <= 1e-9
    for op in ks.operators:
        assert numerical_rank(op) <= 2


def test_compose_certified_rejects_rank_above_k():
    rng = np.random.default_rng(14)
    a = _rand_mat(rng, 3)  # full rank almost surely
    with pytest.raises(RankTooHigh):
        compose_certified(a, identity_map(3), 2)


def test_compose_certified_rejects_insufficient_positivity():
    """The transpose map is not 2-positive, so its block matrix on a rank-2
    frame fails PSD and no factorization exists. Nor is reduction(3, 0.9)
    (c > 1/2); its block floor is relative to the block, so it is refuted
    at every scale."""
    rng = np.random.default_rng(15)
    a = _rand_mat(rng, 3, rank=2)
    with pytest.raises(BlockNotPSD):
        compose_certified(a, transpose_map(3), 2)
    red = reduction_family(3, 0.9).super_mat
    for s in 10.0 ** np.arange(-12, 13, 2):
        with pytest.raises(BlockNotPSD):
            compose_certified(a, MapRep(3, red * s), 2)


def test_compose_certified_bad_order_flag():
    rng = np.random.default_rng(16)
    a = _rand_mat(rng, 3, rank=1)
    with pytest.raises(BadParam):
        compose_certified(a, identity_map(3), 1, order="sideways")
