"""Tests for map representations: superoperator/Choi/Kraus conversions, the
adjoint, co-maps, the builder families and certified composition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conekit import (
    KrausSet,
    MapRep,
    MatrixOp,
    Verdict,
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
    is_cp,
    kraus_decompose,
    map_from_choi,
    max_entangled,
    max_entangled_projector,
    numerical_rank,
    partial_transpose,
    random_cp_map,
    random_hp_map,
    random_k_positive_map,
    random_schmidt_bounded_state,
    reduction_detectors,
    reduction_family,
    schmidt_number_bounds,
    schmidt_rank,
    transpose_map,
)
import conekit.maps as maps_mod
from conekit.fuzz import fuzz_composition
from conekit.serialize import dumps, kraus_from_json, kraus_to_json
from conekit.linalg import (
    HERM_TOL,
    PSD_TOL,
    BipartiteVector,
    _gaussian_products,
    check_hermitian,
    hermitian_eig,
    reshuffle,
)
from conekit.errors import (
    BadK,
    BadParam,
    BlockNotPSD,
    DimMismatch,
    EmptyList,
    NotCompletelyPositive,
    NotHermitian,
    NotHermiticityPreserving,
    RankTooHigh,
)

from _inputs import rand_herm


def _rand_mat(rng, d, rank=None):
    if rank is None:
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    v = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
    return u @ v


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_maprep_gate_agrees_with_choi_gate(d):
    """MapRep reads the Choi matrix's Hermiticity on the superoperator; it
    raises exactly when check_hermitian(reshuffle(S, d)) does, with the same
    message, on HP maps perturbed to either side of HERM_TOL * max|S| at
    every scale."""
    rng = np.random.default_rng(30 + d)
    raised = set()
    for scale in 10.0 ** np.arange(-12, 13, 3):
        s_hp = random_hp_map(d, d).super_mat * scale
        e = _rand_mat(rng, d * d)
        e_choi = reshuffle(e, d)
        e = e / np.abs(e_choi - e_choi.conj().T).max()
        for factor in (0.0, 0.5, 0.999, 1.001, 2.0):
            s = s_hp + factor * HERM_TOL * np.abs(s_hp).max() * e
            try:
                check_hermitian(reshuffle(s, d))
                expected = None
            except NotHermitian as exc:
                expected = f"Choi matrix: {exc}"
            if expected is None:
                MapRep(d, s)
            else:
                with pytest.raises(NotHermiticityPreserving) as got:
                    MapRep(d, s)
                assert str(got.value) == expected
            raised.add((factor, expected is not None))
    assert raised == {(0.0, False), (0.5, False), (0.999, False),
                      (1.001, True), (2.0, True)}


def test_maprep_runs_no_reshuffle(monkeypatch):
    """The Hermiticity gate reads the superoperator in place."""
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return reshuffle(*args, **kwargs)

    monkeypatch.setattr(maps_mod, "reshuffle", counting)
    MapRep(3, random_hp_map(3, 1).super_mat)
    from_kraus([np.eye(3), np.diag([1.0, 2.0, 3.0])])
    assert calls[0] == 0


def test_apply_identity_and_transpose():
    rng = np.random.default_rng(1)
    x = rand_herm(rng, 3)
    assert np.allclose(apply(identity_map(3), x).mat, x, atol=1e-14)
    assert np.allclose(apply(transpose_map(3), x).mat, x.T, atol=1e-14)


def test_apply_reduction_closed_form():
    """reduction_family(d, c) sends x to Tr(x) 1 - c x."""
    rng = np.random.default_rng(2)
    x = rand_herm(rng, 3)
    for c in (0.3, 1.0):
        out = apply(reduction_family(3, c), x).mat
        assert np.allclose(out, np.trace(x) * np.eye(3) - c * x, atol=1e-12)


def test_apply_on_right_factor_product_input():
    """(1 (x) phi)(a (x) b) = a (x) phi(b)."""
    rng = np.random.default_rng(3)
    phi = random_hp_map(3, 7)
    a = rand_herm(rng, 3)
    b = rand_herm(rng, 3)
    out = apply_on_right_factor(phi, MatrixOp(np.kron(a, b), dims=(3, 3))).mat
    assert np.allclose(out, np.kron(a, apply(phi, b).mat), atol=1e-11)


def test_ad_is_two_sided_conjugation():
    rng = np.random.default_rng(4)
    a = _rand_mat(rng, 3)
    x = rand_herm(rng, 3)
    assert np.allclose(apply(ad(a), x).mat, a.conj().T @ x @ a, atol=1e-11)


# The two map contractions that maps._right_action replaced, kept here as
# references: the 4-index form of apply_on_right_factor and the 3-operand
# form of block_action.
def _right_factor_einsum(phi, x, m):
    d = phi.d
    s4 = phi.super_mat.reshape(d, d, d, d)
    out = np.einsum("jltu,itku->ijkl", s4, x.reshape(m, d, m, d))
    return out.reshape(m * d, m * d)


def _block_einsum(phi, g):
    d, k = phi.d, len(g)
    s4 = phi.super_mat.reshape(d, d, d, d)
    return np.einsum("abce,ic,je->iajb", s4, g, g.conj()).reshape(k * d, k * d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_one_map_action_matches_the_former_contractions(d):
    """apply is the matvec S vec(x) bit for bit; apply_on_right_factor and
    block_action agree with their former einsum forms within 1e-14 of the
    largest entry, at every m = 1..4."""
    rng = np.random.default_rng(70 + d)
    for seed in range(3):
        phi = random_hp_map(d, seed)
        x = _rand_mat(rng, d)
        want = (phi.super_mat @ x.reshape(-1)).reshape(d, d)
        assert np.array_equal(apply(phi, x).mat, want)
        for m in range(1, 5):
            big = _rand_mat(rng, m * d)
            want = _right_factor_einsum(phi, big, m)
            got = apply_on_right_factor(phi, MatrixOp(big, dims=(m, d)))
            assert got.dims == (m, d)
            assert np.abs(got.mat - want).max() <= 1e-14 * np.abs(want).max()
            g = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
            want = _block_einsum(phi, g)
            got = block_action(phi, list(g))
            assert got.dims == (m, d)
            assert np.abs(got.mat - want).max() <= 1e-14 * np.abs(want).max()


def test_one_map_action_gives_the_choi_matrix_on_psi_plus():
    """choi(phi) is (1_d (x) phi)(|psi+><psi+|), formed by reindexing S."""
    for d in (1, 2, 3, 4):
        phi = random_hp_map(d, d)
        got = apply_on_right_factor(phi, max_entangled_projector(d)).mat
        assert np.abs(got - choi(phi).mat).max() <= 1e-14 * np.abs(got).max()


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
    x = rand_herm(rng, 3)
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
        x = rand_herm(rng, d)
        y = rand_herm(rng, d)
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


def _kron_super(ops):
    """Reference superoperator of x -> sum_i a_i^dag x a_i: the sum of
    kron(a_i^dag, a_i^T)."""
    return sum(np.kron(a.conj().T, a.T) for a in ops)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 5])
def test_kraus_superoperator_matches_kron_sum(r, d):
    rng = np.random.default_rng(10 * r + d)
    ops = [_rand_mat(rng, d) for _ in range(r)]
    target = _kron_super(ops)
    margin = 1e-14 * np.abs(target).max()
    assert np.abs(from_kraus(ops).super_mat - target).max() <= margin
    a_target = _kron_super(ops[:1])
    assert np.abs(ad(ops[0]).super_mat - a_target).max() <= 1e-14 * np.abs(a_target).max()


@pytest.fixture
def kron_calls(monkeypatch):
    """Counts calls of np.kron."""
    calls = [0]
    kron = np.kron

    def counting(*args, **kwargs):
        calls[0] += 1
        return kron(*args, **kwargs)

    monkeypatch.setattr(np, "kron", counting)
    return calls


def test_kraus_paths_run_no_kron(kron_calls):
    """Kraus superoperators are one Gram product; no Kronecker product is
    formed by from_kraus, ad, kraus_decompose or compose_certified (either
    order)."""
    rng = np.random.default_rng(31)
    a = _rand_mat(rng, 3, rank=2)
    from_kraus([a, np.eye(3)])
    ad(a)
    kraus_decompose(random_cp_map(3, 2, 4, 0))
    compose_certified(a, reduction_family(3, 0.5), 2)
    compose_certified(a, reduction_family(3, 0.5), 2, order="ad_after_map")
    assert kron_calls[0] == 0


def test_from_kraus_matches_conjugation_sum():
    rng = np.random.default_rng(8)
    ops = [_rand_mat(rng, 3) for _ in range(4)]
    phi = from_kraus(ops)
    x = rand_herm(rng, 3)
    direct = sum(op.conj().T @ x @ op for op in ops)
    assert np.allclose(apply(phi, x).mat, direct, atol=1e-10)


def _kraus_decompose_loop(phi):
    """Reference: kraus_decompose's operators built one eigenpair at a time."""
    c = choi(phi).mat
    w, v = np.linalg.eigh(0.5 * (c + c.conj().T))
    floor = PSD_TOL * max(float(w[-1]), 1e-300)
    return [np.conj((np.sqrt(lam) * vec).reshape(phi.d, phi.d))
            for lam, vec in zip(w, v.T) if lam > floor]


def test_kraus_round_trip_on_cp_map():
    for seed in range(20):
        phi = random_cp_map(3, 2, 4, seed)
        ks = kraus_decompose(phi)
        back = ks.to_map()
        assert np.abs(back.super_mat - phi.super_mat).max() <= 1e-11
        assert len(ks.operators) <= 9
        ref = _kraus_decompose_loop(phi)
        assert len(ks.operators) == len(ref)
        assert all(np.array_equal(op, r) for op, r in zip(ks.operators, ref))


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
    with pytest.raises(BadK):
        random_cp_map(3, 4, 2, 0)
    with pytest.raises(BadParam):
        random_cp_map(3, 2, 0, 0)


# ---------------------------------------------------------------------------
# The Kraus stack


def _kraus_ops(r, d, seed, exponent):
    """r random d x d operators of random ranks 0..d (rank 0 is the zero
    matrix), scaled by 10**exponent."""
    rng = np.random.default_rng(seed)
    return [_rand_mat(rng, d, rank=int(rng.integers(0, d + 1))) * 10.0 ** exponent
            for _ in range(r)]


def _as_container(ops, kind):
    if kind == "stack":
        return np.stack(ops)
    if kind == "matrixop":
        return [MatrixOp(a) for a in ops]
    return tuple(ops) if kind == "tuple" else list(ops)


_kraus_sets = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
                        st.floats(-150.0, 150.0),
                        st.sampled_from(["list", "tuple", "stack", "matrixop"]))
# the same examples on every run, so a tier-1 result does not vary
_stack_settings = settings(max_examples=60, deadline=None, derandomize=True)


@_stack_settings
@given(_kraus_sets)
def test_kraus_stack_superoperator_matches_kron_sum(case):
    r, d, seed, exponent, kind = case
    ops = _kraus_ops(r, d, seed, exponent)
    target = _kron_super(ops)
    got = KrausSet(_as_container(ops, kind)).to_map().super_mat
    assert np.abs(got - target).max() <= 1e-14 * np.abs(target).max()


@_stack_settings
@given(_kraus_sets)
def test_kraus_stack_rank_is_largest_operator_rank(case):
    r, d, seed, exponent, kind = case
    ops = _kraus_ops(r, d, seed, exponent)
    assert KrausSet(_as_container(ops, kind)).rank == max(numerical_rank(a) for a in ops)


@_stack_settings
@given(_kraus_sets)
def test_kraus_stack_json_round_trip_is_lossless(case):
    r, d, seed, exponent, kind = case
    ks = KrausSet(_as_container(_kraus_ops(r, d, seed, exponent), kind))
    back = kraus_from_json(json.loads(dumps(kraus_to_json(ks))))
    assert np.array_equal(back.operators, ks.operators)


@_stack_settings
@given(_kraus_sets)
def test_kraus_stack_is_one_read_only_array(case):
    """operators is one (r, d, d) complex array, independent of the input
    and read-only; it still iterates, indexes and has a len."""
    r, d, seed, exponent, kind = case
    ops = _kraus_ops(r, d, seed, exponent)
    given_ops = _as_container(ops, kind)
    ks = KrausSet(given_ops)
    assert ks.operators.shape == (r, d, d) and ks.operators.dtype == np.complex128
    assert ks.d == d and len(ks.operators) == r
    assert all(np.array_equal(a, b) for a, b in zip(ks.operators, ops))
    assert np.array_equal(ks.operators[-1], ops[-1])
    assert not ks.operators.flags.writeable
    with pytest.raises(ValueError):
        ks.operators[0, 0, 0] = 1.0
    if kind == "stack":
        given_ops[0, 0, 0] += 1.0
        assert np.array_equal(ks.operators[0], ops[0])


@pytest.mark.parametrize("ops, error", [
    pytest.param([], EmptyList, id="empty-list"),
    pytest.param(np.zeros((0, 2, 2)), EmptyList, id="empty-stack"),
    pytest.param([np.eye(2), np.eye(3)], DimMismatch, id="ragged"),
    pytest.param([np.ones((2, 3))], DimMismatch, id="non-square"),
    pytest.param(np.ones((2, 2, 3)), DimMismatch, id="non-square-stack"),
    pytest.param([np.ones(3)], DimMismatch, id="vector"),
    pytest.param(np.eye(3), DimMismatch, id="single-matrix-not-a-stack"),
    pytest.param([np.ones((1, 2, 2))], DimMismatch, id="three-dim-item"),
    pytest.param([np.full((2, 2), np.nan)], BadParam, id="nan"),
    pytest.param(np.full((1, 2, 2), np.inf), BadParam, id="inf-stack"),
])
def test_kraus_set_validation(ops, error):
    """One validation path behind KrausSet, from_kraus and ad, with the
    error types of the former per-operator checks."""
    with pytest.raises(error):
        KrausSet(ops)
    with pytest.raises(error):
        from_kraus(ops)
    if isinstance(ops, list) and len(ops) == 1:
        with pytest.raises(error):
            ad(ops[0])


def _random_cp_map_loop(d, k, n_ops, seed):
    """Reference: random_cp_map as the former per-operator loop of draws."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        g1 = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        g2 = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        a = g1 @ g2
        ops.append(a / np.linalg.norm(a))
    return from_kraus(ops)


def _random_k_positive_map_loop(d, k, seed):
    """Reference: random_k_positive_map as the former mix of two MapReps."""
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.0, 1.0))
    cp_seed = int(rng.integers(0, 2**63 - 1))
    cp_part = _random_cp_map_loop(d, d, 2, cp_seed)
    red = reduction_family(d, 1.0 / k)
    return MapRep(d, lam * cp_part.super_mat + (1.0 - lam) * red.super_mat)


@pytest.mark.parametrize("d,k,n_ops,seed", [(2, 1, 1, 0), (3, 2, 3, 5), (4, 3, 2, 17)])
def test_random_kraus_is_the_one_draw_normalized(d, k, n_ops, seed):
    """The Kraus stack of random_cp_map is the draw of _gaussian_products
    from one generator seeded seed, each operator at unit norm."""
    ops = _gaussian_products(np.random.default_rng(seed), n_ops, d, k, d)
    want = ops / np.array([np.linalg.norm(a) for a in ops])[:, None, None]
    assert np.array_equal(maps_mod._random_kraus(d, k, n_ops, seed), want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_maps_are_bit_identical_to_the_loop(d):
    """One batched draw keeps the RNG stream: every seed gives the map of
    the former loop, bit for bit."""
    for seed in range(20):
        for k in range(1, d + 1):
            for n_ops in (1, 2, 3):
                assert np.array_equal(random_cp_map(d, k, n_ops, seed).super_mat,
                                      _random_cp_map_loop(d, k, n_ops, seed).super_mat)
            assert np.array_equal(random_k_positive_map(d, k, seed).super_mat,
                                  _random_k_positive_map_loop(d, k, seed).super_mat)


@pytest.fixture
def maprep_count(monkeypatch):
    """Counts MapRep constructions."""
    calls = [0]
    post_init = MapRep.__post_init__

    def counting(self):
        calls[0] += 1
        post_init(self)

    monkeypatch.setattr(MapRep, "__post_init__", counting)
    return calls


def test_random_maps_build_one_maprep(maprep_count):
    random_k_positive_map(4, 2, 1)
    assert maprep_count[0] == 1
    random_cp_map(4, 2, 3, 1)
    assert maprep_count[0] == 2


def test_kraus_set_freezes_once(monkeypatch):
    """The stack is copied and finite-checked once per KrausSet, whatever
    built it."""
    calls = [0]
    freeze = maps_mod._freeze

    def counting(a):
        calls[0] += 1
        return freeze(a)

    rng = np.random.default_rng(50)
    ops = [_rand_mat(rng, 3, rank=2) for _ in range(4)]
    phi = random_cp_map(3, 2, 4, 0)
    psi = reduction_family(3, 0.5)
    monkeypatch.setattr(maps_mod, "_freeze", counting)
    for build in (lambda: KrausSet(ops), lambda: KrausSet(np.stack(ops)),
                  lambda: KrausSet([MatrixOp(a) for a in ops]),
                  lambda: kraus_decompose(phi), lambda: compose_certified(ops[0], psi, 2)):
        calls[0] = 0
        build()
        assert calls[0] == 1


@pytest.fixture
def svd_calls(monkeypatch):
    """Records the shape of every np.linalg.svd argument."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


def test_rank_reads_run_one_batched_svd(svd_calls):
    """schmidt_number_bounds of a Kraus set and fuzz_composition read the
    operator ranks from one batched SVD, not one SVD per operator."""
    rng = np.random.default_rng(51)
    ops = [_rand_mat(rng, 3, rank=1) for _ in range(5)]
    assert schmidt_number_bounds(KrausSet(ops)) == (1, 1)
    assert svd_calls == [(5, 3, 3)]
    svd_calls.clear()
    assert fuzz_composition(3, d=3, k=2, seed=4)["failed"] == 0
    # per instance: the SVD of a in compose_certified and one batched rank read
    assert len(svd_calls) == 6
    assert sum(len(shape) == 3 for shape in svd_calls) == 3


# ---------------------------------------------------------------------------
# Families


def test_depolarizing_is_cp_and_unital():
    rng = np.random.default_rng(9)
    x = rand_herm(rng, 3)
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
    """One witness per level, each proven by the reduction closed form and
    each with a negative Choi eigenvalue: a CP detector sends every PSD
    input to a PSD matrix and so can never fire."""
    bank = reduction_detectors(3)
    assert [det.k_level for det in bank] == [1, 2]
    for det in bank:
        assert det.proof == "reduction" and det.operator.dims == (3, 3)
        assert np.linalg.eigvalsh(det.operator.mat)[0] < -1e-9


def test_reduction_detectors_is_a_fresh_list():
    """Each call builds its own list, levels (1, 2) at d = 3: clearing one
    leaves the next call whole."""
    dets = reduction_detectors(3)
    assert tuple(det.k_level for det in dets) == (1, 2)
    assert dets is not reduction_detectors(3)
    dets.clear()
    assert len(reduction_detectors(3)) == 2
    assert reduction_detectors(1) == []


def test_reduction_images_are_the_detector_maps_images():
    """The closed form tr_B(X) (x) 1 - X/k is (1 (x) R_{1/k})(X) as
    apply_on_right_factor forms it from reduction_family(db, 1/k), within
    8 eps max|X|, on seeded Hermitian X at dims (1..5, 2..5)."""
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for da in range(1, 6):
        for db in range(2, 6):
            n = da * db
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            x = MatrixOp(g + g.conj().T, dims=(da, db))
            levels = range(1, db)
            images = maps_mod._reduction_images(x.mat, da, db, levels)
            assert images.shape == (db - 1, n, n)
            for k, image in zip(levels, images):
                ref = apply_on_right_factor(reduction_family(db, 1.0 / k), x).mat
                assert np.abs(image - ref).max() <= 8 * eps * np.abs(x.mat).max()


@pytest.mark.parametrize("build", [
    lambda: random_hp_map(-1, 0),
    lambda: depolarizing(0, 0.5),
    lambda: identity_map(0),
    lambda: transpose_map(0),
    lambda: MapRep(0, np.zeros((0, 0))),
    lambda: reduction_family(0, 0.5),
    lambda: MapRep(2.0, np.eye(4)),
    lambda: MapRep(True, np.eye(1)),
], ids=["random_hp_map-1", "depolarizing0", "identity_map0", "transpose_map0",
        "MapRep0", "reduction_family0", "MapRep-float", "MapRep-bool"])
def test_dimension_below_one_or_not_an_integer_is_refused(build):
    """One dimension rule for maps: an integer >= 1, else BadParam, before
    any arithmetic (random_hp_map(-1, 0) was a map on M_1, depolarizing(0, p)
    a ZeroDivisionError, and a 0 x 0 superoperator numpy's zero-size
    reduction error)."""
    with pytest.raises(BadParam, match="dimension must be an integer >= 1"):
        build()


@pytest.mark.parametrize("d", [2.5, 0, -1, True])
@pytest.mark.parametrize("build", [
    lambda d: random_cp_map(d, 1, 1, 0),
    lambda d: random_k_positive_map(d, 1, 0),
    lambda d: random_schmidt_bounded_state(d, 1, 1, 0),
    lambda d: reduction_detectors(d),
], ids=["random_cp_map", "random_k_positive_map", "random_schmidt_bounded_state",
        "reduction_detectors"])
def test_generators_apply_the_dimension_rule(build, d):
    """The generators check the dimension first, as the maps do: a float
    dimension was numpy's TypeError, and random_cp_map(0, 1, 1, 0) and
    random_k_positive_map(0, 1, 0) were refused as a bad rank or level."""
    with pytest.raises(BadParam, match="dimension must be an integer >= 1"):
        build(d)


_RANK_ONE = np.diag([1.0, 0.0, 0.0])


@pytest.mark.parametrize("build,error", [
    (lambda: random_cp_map(3, True, 1, 0), BadK),
    (lambda: random_cp_map(3, 1.5, 1, 0), BadK),
    (lambda: random_cp_map(3, 1, 2.5, 0), BadParam),
    (lambda: random_cp_map(3, 1, True, 0), BadParam),
    (lambda: random_cp_map(3, 1, 1, -1), BadParam),
    (lambda: random_cp_map(3, 1, 1, 0.5), BadParam),
    (lambda: random_hp_map(3, -1), BadParam),
    (lambda: random_hp_map(3, 1.5), BadParam),
    (lambda: random_k_positive_map(3, 1.5, 0), BadK),
    (lambda: random_k_positive_map(3, True, 0), BadK),
    (lambda: random_k_positive_map(3, 2, -1), BadParam),
    (lambda: random_schmidt_bounded_state(3, 1.5, 2, 0), BadK),
    (lambda: random_schmidt_bounded_state(3, 1, 2.5, 0), BadParam),
    (lambda: random_schmidt_bounded_state(3, 1, 2, -1), BadParam),
    (lambda: compose_certified(_RANK_ONE, identity_map(3), 1.5), BadK),
    (lambda: compose_certified(_RANK_ONE, identity_map(3), True), BadK),
], ids=["cp-k-bool", "cp-k-float", "cp-n_ops-float", "cp-n_ops-bool", "cp-seed-negative",
        "cp-seed-float", "hp-seed-negative", "hp-seed-float", "kpos-k-float", "kpos-k-bool",
        "kpos-seed-negative", "state-k-float", "state-n_terms-float", "state-seed-negative",
        "compose-k-float", "compose-k-bool"])
def test_generators_apply_the_integer_rule(build, error):
    """Every level, count and seed of the generators is an integer (not a
    bool) at or above its floor, or the function's own error is raised
    before numpy sees it: these were numpy's TypeError or ValueError, or
    ran silently at a level that is not an integer (random_k_positive_map
    mixed at c = 1/1.5, compose_certified certified a level 1.5)."""
    with pytest.raises(error):
        build()


def test_generators_accept_numpy_integers():
    """numpy integers pass the rule and build the map of the equal int."""
    i = np.int64
    assert np.array_equal(random_cp_map(i(3), i(2), i(2), i(5)).super_mat,
                          random_cp_map(3, 2, 2, 5).super_mat)
    assert np.array_equal(random_k_positive_map(3, i(2), i(4)).super_mat,
                          random_k_positive_map(3, 2, 4).super_mat)
    assert np.array_equal(random_schmidt_bounded_state(3, i(2), i(2), i(1)).mat,
                          random_schmidt_bounded_state(3, 2, 2, 1).mat)


def test_numpy_integer_dimension_is_accepted():
    assert MapRep(np.int64(2), np.eye(4)).d == 2


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


def _block_action_loop(phi, vs):
    """Reference block matrix: phi applied to each dyad |v_i><v_j|."""
    d, k = phi.d, len(vs)
    out = np.zeros((k * d, k * d), dtype=complex)
    for i in range(k):
        for j in range(k):
            dyad = np.outer(vs[i], vs[j].conj())
            out[i * d:(i + 1) * d, j * d:(j + 1) * d] = apply(phi, dyad).mat
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_action_matches_dyad_loop(k):
    rng = np.random.default_rng(40 + k)
    for phi in (random_cp_map(3, 2, 3, k), transpose_map(3)):
        vs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(k)]
        target = _block_action_loop(phi, vs)
        got = block_action(phi, vs)
        assert got.dims == (k, 3)
        assert np.abs(got.mat - target).max() <= 1e-14 * np.abs(target).max()


def test_block_action_input_validation():
    with pytest.raises(EmptyList):
        block_action(identity_map(3), [])
    with pytest.raises(DimMismatch):
        block_action(identity_map(3), [np.ones(3), np.ones(2)])


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


def test_zero_map_and_zero_operator_give_one_zero_kraus_operator():
    """A Choi or block spectrum with nothing above the noise floor, and an
    operator of rank 0, each factor into one zero operator, which
    reconstructs the zero map."""
    zero = MapRep(3, np.zeros((9, 9)))
    a = np.diag([1.0, 0.0, 0.0])
    for ks in (kraus_decompose(zero), compose_certified(a, zero, 1),
               compose_certified(np.zeros((3, 3)), identity_map(3), 1)):
        assert ks.operators.shape == (1, 3, 3)
        assert not ks.operators.any()
        assert not ks.to_map().super_mat.any()


def test_compose_certified_bad_order_flag():
    rng = np.random.default_rng(16)
    a = _rand_mat(rng, 3, rank=1)
    with pytest.raises(BadParam):
        compose_certified(a, identity_map(3), 1, order="sideways")


# ---------------------------------------------------------------------------
# One Hermitian-part rule (M/2 + M^dag/2) in the map layer


def _kraus_decompose_former(phi):
    """Reference: kraus_decompose with its former 0.5 * (C + C^dag)."""
    c = choi(phi).mat
    w, v = np.linalg.eigh(0.5 * (c + c.conj().T))
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -maps_mod._margin(c, 1e-9):
        raise NotCompletelyPositive("below the CP floor")
    keep = w > 1e-9 * max(lam_max, 1e-300)
    if not keep.any():
        return np.zeros((1, phi.d, phi.d), dtype=np.complex128)
    return (v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, phi.d, phi.d).conj()


def _compose_certified_former(a, phi, k):
    """Reference: compose_certified's map_after_ad route with its former
    0.5 * (B + B^dag) on the block matrix B."""
    d = phi.d
    u, s, vh = np.linalg.svd(a)
    r = maps_mod._rank(s, 1e-8)
    assert 1 <= r <= k
    lefts = u[:, :r] * s[:r]
    block = block_action(phi, vh[:r].conj()).mat
    w, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -maps_mod._margin(block, PSD_TOL):
        raise BlockNotPSD("block not PSD")
    keep = w > 1e-14 * max(lam_max, 1e-300)
    if not keep.any():
        return np.zeros((1, d, d), dtype=np.complex128)
    ops = lefts @ (vecs[:, keep] * np.sqrt(w[keep])).T.reshape(-1, r, d).conj()
    target = phi.super_mat @ maps_mod._kraus_super(a[None])
    err = float(np.abs(maps_mod._kraus_super(ops) - target).max())
    if err > maps_mod._margin(target, PSD_TOL):
        raise BlockNotPSD("reconstruction residual")
    return ops


def _random_hp_map_former(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    return map_from_choi(0.5 * (g + g.conj().T))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_part_rule_is_bit_identical_to_the_former_sites(d):
    """kraus_decompose, compose_certified (both orders) and random_hp_map
    give the operators and maps of the former 0.5 * (X + X^dag), bit for
    bit, on every seed and level."""
    for seed in range(60):
        assert np.array_equal(random_hp_map(d, seed).super_mat,
                              _random_hp_map_former(d, seed).super_mat)
        for k in range(1, d + 1):
            phi = random_cp_map(d, k, 3, seed)
            assert np.array_equal(kraus_decompose(phi).operators,
                                  _kraus_decompose_former(phi))
            a = maps_mod._random_kraus(d, k, 1, seed)[0]
            psi = random_k_positive_map(d, k, seed)
            assert np.array_equal(compose_certified(a, psi, k).operators,
                                  _compose_certified_former(a, psi, k))
            other = compose_certified(a, psi, k, order="ad_after_map").operators
            inner = _compose_certified_former(a.conj().T, adjoint(psi), k)
            assert np.array_equal(other, inner.conj().swapaxes(1, 2))


def test_kraus_decompose_near_the_top_of_the_float_range():
    """ad(sqrt(9e307) e_11) has Choi entry 9e307, where 0.5 * (C + C^dag)
    overflows to inf (and gave one zero operator); is_cp proves the map CP,
    and kraus_decompose returns its one operator, |a|^2 = 9e307."""
    a = np.zeros((2, 2))
    a[0, 0] = np.sqrt(9e307)
    phi = from_kraus([a])
    assert is_cp(phi).verdict is Verdict.MEMBERSHIP
    ops = kraus_decompose(phi).operators
    assert ops.shape == (1, 2, 2)
    assert abs(float(np.abs(ops[0, 0, 0]) ** 2) - 9e307) <= 1e-12 * 9e307
    assert np.abs(ops[0]).max() == np.abs(ops[0, 0, 0])


def test_compose_certified_near_the_top_of_the_float_range():
    """reduction(3, 1/2) is 2-positive at every scale; at 1.7e308 the block
    matrix's 0.5 * (B + B^dag) overflows (and the reconstruction check then
    refuted 2-positivity). The certified rank-2 factorization comes back."""
    phi = MapRep(3, reduction_family(3, 0.5).super_mat * 1.7e308)
    ks = compose_certified(np.diag([1.0, 1.0, 0.0]), phi, 2)
    assert ks.rank <= 2
    assert np.isfinite(ks.operators).all()
