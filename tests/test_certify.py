"""Tests for cone membership certificates: block positivity, CP/co-CP,
Schmidt-number bounds, duality pairing, classification and the
decomposability heuristic."""

import numpy as np
import pytest

from conekit import (
    Certificate,
    KrausSet,
    MatrixOp,
    SeesawOpts,
    Verdict,
    ad,
    apply_on_right_factor,
    choi,
    classify,
    co,
    compose,
    decomposable_certify,
    dual_pairing,
    from_kraus,
    hermitian_eig,
    identity_map,
    is_ccp,
    is_cp,
    is_k_positive_certify,
    isotropic_state,
    k_block_positive_certify,
    kraus_decompose,
    map_from_choi,
    max_entangled_projector,
    partial_transpose,
    random_cp_map,
    random_k_positive_map,
    reduction_family,
    schmidt_decompose,
    schmidt_number_bounds,
    schmidt_rank,
    seesaw_minimize,
    swap_matrix,
    transpose_map,
)
from conekit.errors import BadK, BadParam, ConekitError, NotHermitian, NotPSD

from _decompose_oracle import decomposable_certify as decomposable_oracle


def _rank_ops(rng, d, k, n):
    ops = []
    for _ in range(n):
        g1 = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        g2 = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        a = g1 @ g2
        ops.append(a / np.linalg.norm(a))
    return ops


# ---------------------------------------------------------------------------
# k-block positivity


def test_reduction_violation_above_threshold():
    """1 - c k goes negative past c = 1/k and the see-saw finds it."""
    c = choi(reduction_family(3, 0.52))
    cert = k_block_positive_certify(c, 2)
    assert cert.verdict is Verdict.VIOLATION
    assert abs(cert.value - (1 - 2 * 0.52)) <= 2e-3
    assert cert.witness is not None
    assert schmidt_rank(cert.witness) <= 2
    # the stored witness re-verifies against the operator
    psi = cert.witness.amp
    assert abs(psi.conj() @ c.mat @ psi - cert.value) <= 1e-10


def test_reduction_inconclusive_below_threshold():
    c = choi(reduction_family(3, 0.48))
    cert = k_block_positive_certify(c, 2)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert abs(cert.value - (1 - 2 * 0.48)) <= 2e-3
    assert cert.witness is None


def test_psd_choi_short_circuits_any_k():
    cert = k_block_positive_certify(choi(reduction_family(3, 1 / 3)), 1)
    assert cert.verdict is Verdict.MEMBERSHIP
    assert cert.detail == "choi-psd"
    assert cert.restarts_used == 0


def test_top_level_is_eigen_decision():
    cert = k_block_positive_certify(choi(reduction_family(3, 0.35)), 3)
    assert cert.verdict is Verdict.VIOLATION
    assert cert.detail == "min-eigenvector"
    assert abs(cert.value - (1 - 3 * 0.35)) <= 1e-10


def test_swap_is_block_positive_but_not_2_block_positive():
    c = MatrixOp(swap_matrix(2).astype(complex), dims=(2, 2))
    c1 = k_block_positive_certify(c, 1)
    assert c1.verdict is Verdict.INCONCLUSIVE
    assert c1.value >= -1e-9
    c2 = k_block_positive_certify(c, 2)
    assert c2.verdict is Verdict.VIOLATION
    assert abs(c2.value - (-1.0)) <= 1e-9


def test_bad_k_rejected():
    c = choi(identity_map(3))
    with pytest.raises(BadK):
        k_block_positive_certify(c, 0)
    with pytest.raises(BadK):
        k_block_positive_certify(c, 4)


def test_violation_witness_stays_rank_bounded():
    rng = np.random.default_rng(30)
    hits = 0
    for seed in range(10):
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = 0.5 * (g + g.conj().T)
        cert = k_block_positive_certify(MatrixOp(h, dims=(3, 3)), 2,
                                        SeesawOpts(restarts=6, seed=seed))
        if cert.verdict is Verdict.VIOLATION:
            hits += 1
            assert schmidt_rank(cert.witness) <= 2
            psi = cert.witness.amp
            assert abs(psi.conj() @ h @ psi - cert.value) <= 1e-10
    assert hits > 0


def test_min_eigenvector_verdict_matches_its_value():
    """An overflowing eigensolve returns a bottom eigenvector whose re-verified
    value is positive; that is no violation."""
    c = MatrixOp(choi(reduction_family(2, 0.7)).mat * 1e308, dims=(2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        cert = k_block_positive_certify(c, 2)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.witness is None
    with np.errstate(over="ignore", invalid="ignore"):
        phi = map_from_choi(c)
        for cert, prefix in ((is_cp(phi), ""), (is_ccp(phi), "pt-")):
            assert cert.verdict is Verdict.INCONCLUSIVE
            assert cert.detail == prefix + "min-eigenvector-unverified"


# ---------------------------------------------------------------------------
# CP and co-CP


def test_transpose_not_cp_with_witness():
    cert = is_cp(transpose_map(2))
    assert cert.verdict is Verdict.VIOLATION
    assert abs(cert.value - (-1.0)) <= 1e-12
    psi = cert.witness.amp
    s = swap_matrix(2)
    assert abs(psi.conj() @ s @ psi - (-1.0)) <= 1e-12


def test_transpose_is_ccp():
    cert = is_ccp(transpose_map(3))
    assert cert.verdict is Verdict.MEMBERSHIP
    assert cert.detail == "pt-choi-psd"
    assert cert.value >= -1e-12


def test_identity_cp_but_not_ccp():
    cert = is_cp(identity_map(3))
    assert cert.verdict is Verdict.MEMBERSHIP
    assert cert.detail == "choi-psd"
    cert = is_ccp(identity_map(3))
    assert cert.verdict is Verdict.VIOLATION
    assert cert.detail == "pt-min-eigenvector"
    assert abs(cert.value - (-1.0)) <= 1e-12


def test_reduction_cp_exactly_at_one_over_d():
    assert is_cp(reduction_family(3, 1 / 3)).verdict is Verdict.MEMBERSHIP
    assert is_cp(reduction_family(3, 0.34)).verdict is Verdict.VIOLATION


def test_k_positivity_violation_is_projected_positivity_failure():
    """A k-positivity violation is a positivity failure of
    x -> (1 (x) phi)((q (x) 1) x (q (x) 1)) for a rank-k projection q built
    from the witness's Schmidt frame: with chi = sum_l u_l (x) conj(u_l) and
    beta the witness, <beta|(1 (x) phi)((q (x) 1)|chi><chi|(q (x) 1))|beta>
    equals the witness value."""
    d, k = 3, 2
    phi = reduction_family(d, 0.7)
    cert = is_k_positive_certify(phi, k)
    assert cert.verdict is Verdict.VIOLATION
    assert cert.detail == "seesaw"
    assert abs(cert.value - (1 - 2 * 0.7)) <= 2e-3
    sd = schmidt_decompose(cert.witness)
    u = sd.left_vectors
    q = sum(np.outer(u[l], u[l].conj()) for l in range(k))
    assert abs(np.trace(q).real - k) <= 1e-9
    assert np.abs(q @ q - q).max() <= 1e-9
    assert np.abs(q - q.conj().T).max() <= 1e-9
    chi = sum(np.kron(u[l], u[l].conj()) for l in range(sd.rank))
    beta = sum(sd.coefficients[l] * np.kron(u[l], sd.right_vectors[l])
               for l in range(sd.rank))
    q_ext = np.kron(q, np.eye(d))
    sandwiched = q_ext @ np.outer(chi, chi.conj()) @ q_ext
    mapped = apply_on_right_factor(phi, MatrixOp(sandwiched, dims=(d, d))).mat
    value = float((beta.conj() @ mapped @ beta).real)
    assert abs(value - cert.value) <= 1e-8 * max(1.0, abs(cert.value))
    assert value < -1e-9


# ---------------------------------------------------------------------------
# Duality pairing


def test_pairing_identity_identity():
    for d in (2, 3):
        assert abs(dual_pairing(identity_map(d), identity_map(d)) - d * d) <= 1e-12


def test_pairing_transpose_identity():
    assert abs(dual_pairing(transpose_map(2), identity_map(2)) - 2.0) <= 1e-12


def test_pairing_rank_k_cp_against_k_positive():
    rng = np.random.default_rng(31)
    for k in (1, 2):
        for seed in range(20):
            phi = from_kraus(_rank_ops(rng, 3, k, 3))
            psi = random_k_positive_map(3, k, seed)
            assert dual_pairing(phi, psi) >= -1e-9


def test_pairing_symmetric():
    a = reduction_family(3, 0.5)
    b = random_cp_map(3, 2, 3, 0)
    assert abs(dual_pairing(a, b) - dual_pairing(b, a)) <= 1e-10


# ---------------------------------------------------------------------------
# Schmidt-number bounds


def test_bounds_max_entangled():
    assert schmidt_number_bounds(max_entangled_projector(3)) == (3, 3)


def test_bounds_rank_one_choi():
    rng = np.random.default_rng(32)
    a = _rank_ops(rng, 3, 2, 1)[0]
    assert schmidt_number_bounds(choi(ad(a))) == (2, 2)


def test_bounds_with_construction():
    rng = np.random.default_rng(33)
    ops = _rank_ops(rng, 3, 1, 5)
    phi = from_kraus(ops)
    bounds = schmidt_number_bounds(choi(phi), construction=KrausSet(tuple(ops)))
    assert bounds == (1, 1)


def test_bounds_eigen_kraus_can_be_looser_than_construction():
    """Re-extracted Kraus operators mix the generators, so the generic upper
    bound can exceed the one carried by the original construction."""
    rng = np.random.default_rng(34)
    ops = _rank_ops(rng, 3, 1, 5)
    phi = from_kraus(ops)
    generic = schmidt_number_bounds(choi(phi))
    assert generic[0] == 1
    assert generic[1] >= 1


def test_bounds_require_psd():
    with pytest.raises(NotPSD):
        schmidt_number_bounds(MatrixOp(swap_matrix(2).astype(complex), dims=(2, 2)))


def test_bounds_contradiction_rejected():
    """A construction claiming rank 1 for the maximally entangled projector
    contradicts the fired detectors."""
    fake = KrausSet((np.eye(3, dtype=complex)[:, :1] @ np.ones((1, 3)),))
    with pytest.raises(ConekitError):
        schmidt_number_bounds(max_entangled_projector(3), construction=fake)


def test_bounds_separable_state():
    rng = np.random.default_rng(35)
    rho = np.zeros((9, 9), dtype=complex)
    for _ in range(4):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = np.kron(a, b)
        rho += np.outer(v, v.conj())
    bounds = schmidt_number_bounds(MatrixOp(rho, dims=(3, 3)))
    assert bounds[0] == 1


# ---------------------------------------------------------------------------
# Classification


def test_classify_transpose_qubit():
    rep = classify(transpose_map(2), include_dec=False)
    assert rep.d == 2
    assert rep.p[1].verdict is Verdict.INCONCLUSIVE
    assert rep.p[1].value >= -1e-9
    assert rep.p[2].verdict is Verdict.VIOLATION
    assert not rep.cp
    assert rep.co_p[1].verdict is Verdict.MEMBERSHIP
    assert rep.co_p[2].verdict is Verdict.MEMBERSHIP
    assert rep.schmidt_number is None
    assert rep.km_positive[(1, 1)] == "inconclusive"
    assert rep.km_positive[(2, 1)] == "violated"
    assert rep.km_superpositive[(2, 2)] == "violated"


def test_classify_identity_qubit():
    rep = classify(identity_map(2), include_dec=False)
    assert rep.cp
    assert rep.p[1].verdict is Verdict.MEMBERSHIP
    assert rep.p[2].verdict is Verdict.MEMBERSHIP
    assert rep.co_p[2].verdict is Verdict.VIOLATION
    assert rep.schmidt_number == (2, 2)
    # S_1 refuted by the fired detector; the co side kills every S_{k,m}
    assert rep.km_superpositive[(1, 1)] == "violated"
    assert rep.km_superpositive[(2, 2)] == "violated"
    assert rep.km_positive[(1, 1)] == "inconclusive"
    assert rep.km_positive[(1, 2)] == "violated"


def test_classify_reduction_above_cp_threshold():
    rep = classify(reduction_family(3, 0.5))
    assert not rep.cp
    assert rep.p[1].verdict is Verdict.INCONCLUSIVE
    assert abs(rep.p[1].value - 0.5) <= 2e-3
    assert rep.p[3].verdict is Verdict.VIOLATION
    assert abs(rep.p[3].value - (-0.5)) <= 1e-10
    for k in (1, 2, 3):
        assert rep.co_p[k].verdict is Verdict.MEMBERSHIP
    assert rep.km_positive[(3, 1)] == "violated"
    assert rep.decomposable.verdict is Verdict.MEMBERSHIP


def test_classify_reduction_at_cp_boundary():
    rep = classify(reduction_family(3, 1 / 3), include_dec=False)
    assert rep.cp
    for k in (1, 2, 3):
        assert rep.p[k].verdict is Verdict.MEMBERSHIP
        assert rep.p[k].detail == "choi-psd"
    assert rep.schmidt_number == (1, 3)
    assert rep.km_superpositive[(1, 1)] == "inconclusive"
    assert rep.km_superpositive[(3, 3)] == "proven"


def test_classify_chain_monotonicity():
    """A violation at level k is inherited upward: no membership claim ever
    appears above a refuted level."""
    rep = classify(reduction_family(3, 1.2), include_dec=False)
    first_viol = None
    for k in (1, 2, 3):
        if rep.p[k].verdict is Verdict.VIOLATION and first_viol is None:
            first_viol = k
        if first_viol is not None and k > first_viol:
            assert rep.p[k].verdict is Verdict.VIOLATION
    assert first_viol == 1
    # the inherited witnesses never weaken
    assert rep.p[2].value <= rep.p[1].value + 1e-12
    assert rep.p[3].value <= rep.p[2].value + 1e-12


def test_classify_builds_one_choi_matrix(monkeypatch):
    """Both chains, the Schmidt bounds and the decomposability search read one
    Choi matrix; the co-chain uses its partial transpose."""
    import conekit.certify as certify_mod
    calls = []

    def counting_choi(phi):
        calls.append(phi)
        return choi(phi)

    monkeypatch.setattr(certify_mod, "choi", counting_choi)
    rep = classify(reduction_family(3, 0.6), opts=SeesawOpts(restarts=2))
    assert len(calls) == 1
    assert rep.co_p[3].verdict is Verdict.MEMBERSHIP


def _barely_psd_choi():
    """C = 1_9 with C[0, 0] = -1e-8: PSD within eps_neg = 1e-6, not within
    PSD_TOL = 1e-9."""
    c = np.eye(9, dtype=complex)
    c[0, 0] = -1e-8
    return MatrixOp(c, dims=(3, 3))


def test_classify_bounds_follow_the_chain_verdict():
    """The Schmidt bounds stand on the chain's own proof that C is PSD: a C
    proven PSD within eps_neg is not re-judged against PSD_TOL. The
    standalone schmidt_number_bounds keeps its own PSD gate."""
    c = _barely_psd_choi()
    rep = classify(map_from_choi(c), SeesawOpts(eps_neg=1e-6, restarts=1))
    assert rep.p[3].detail == "choi-psd"
    assert rep.cp
    assert rep.schmidt_number == (1, 3)
    with pytest.raises(NotPSD):
        schmidt_number_bounds(c)


def test_classify_decomposes_a_psd_choi_once(monkeypatch):
    """The Schmidt bounds reuse the chains' eigendecompositions: C and PT(C)
    are each decomposed once; the other calls are the detectors' moved
    matrices."""
    import conekit.certify as certify_mod
    eigs = []

    def counting_eig(x, *args):
        eigs.append(x)
        return hermitian_eig(x, *args)

    monkeypatch.setattr(certify_mod, "hermitian_eig", counting_eig)
    rep = classify(identity_map(3), opts=SeesawOpts(restarts=1), include_dec=False)
    assert rep.schmidt_number == (3, 3)
    c = choi(identity_map(3)).mat
    assert sum(np.array_equal(getattr(x, "mat", x), c) for x in eigs) == 1
    co_c = partial_transpose(choi(identity_map(3))).mat
    assert sum(np.array_equal(getattr(x, "mat", x), co_c) for x in eigs) == 1


def test_classify_km_pairs_subset():
    rep = classify(transpose_map(2), km_pairs=[(1, 2)], include_dec=False)
    assert set(rep.km_positive) == {(1, 2)}
    assert rep.km_positive[(1, 2)] == "inconclusive"


# ---------------------------------------------------------------------------
# Decomposability


def test_swap_splits_into_psd_plus_ppt():
    """C = A + PT(B) with both parts PSD."""
    cert = decomposable_certify(MatrixOp(swap_matrix(2).astype(complex), dims=(2, 2)))
    assert cert.verdict is Verdict.MEMBERSHIP
    assert cert.extras["residual"] < 1e-9
    a = cert.extras["A"]
    b = cert.extras["B"]
    assert np.linalg.eigvalsh(a)[0] >= -1e-9
    assert np.linalg.eigvalsh(b)[0] >= -1e-9
    pt_b = partial_transpose(MatrixOp(b, dims=(2, 2))).mat
    assert np.abs(a + pt_b - swap_matrix(2)).max() <= 1e-8


def test_psd_choi_trivially_decomposable():
    c = choi(reduction_family(2, 0.5))
    cert = decomposable_certify(c)
    assert cert.verdict is Verdict.MEMBERSHIP
    assert cert.extras["residual"] < 1e-9


def test_decomposable_never_refutes():
    rng = np.random.default_rng(36)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    h = 0.5 * (g + g.conj().T)
    cert = decomposable_certify(MatrixOp(h, dims=(3, 3)),
                                max_sweeps=5)
    assert cert.verdict in (Verdict.MEMBERSHIP, Verdict.INCONCLUSIVE)


def _hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def _unit_trace_psd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = g @ g.conj().T
    return a / np.trace(a).real


def _block_positive(rng, dims, margin, seed):
    """Random Hermitian form shifted so that its product-state minimum (as
    the see-saw finds it) sits at `margin`."""
    h = _hermitian(rng, dims[0] * dims[1])
    h = h / np.abs(h).max()
    q, _, _ = seesaw_minimize(h, dims, 1, restarts=10, seed=seed)
    return MatrixOp(h + (margin - q) * np.eye(h.shape[0]), dims=dims)


def _generalized_choi(a, b, c):
    """Choi matrix of the Cho-Kye-Lee map Phi[a,b,c] on M_3:
    Phi(X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
    b x11 + c x22 + a x33) - X."""
    weights = np.array([[a, c, b], [b, a, c], [c, b, a]])
    out = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        out[3 * i:3 * i + 3, 3 * i:3 * i + 3] = np.diag(weights[i])
        for j in range(3):
            out[3 * i + i, 3 * j + j] -= 1.0
    return out


def _decompose_parity_inputs():
    rng = np.random.default_rng(37)
    yield MatrixOp(swap_matrix(2).astype(complex), dims=(2, 2))
    yield choi(random_cp_map(3, 2, 3, 5))
    for i in range(3):
        yield _block_positive(rng, (2, 2), 0.05, i)
    for _ in range(3):
        b = MatrixOp(_unit_trace_psd(rng, 9), dims=(3, 3))
        yield MatrixOp(0.5 * _unit_trace_psd(rng, 9) + partial_transpose(b).mat, dims=(3, 3))


def _assert_split_holds(cert, c):
    """Re-check a MembershipProven split with numpy alone: A and B PSD to
    -1e-10 * scale and C = A + PT(B) to 1e-9 * scale max-abs, the split
    test's own margin eps_neg * max|C| (scale = max(1, max|C|))."""
    da, db = c.dims
    a, b = cert.extras["A"], cert.extras["B"]
    scale = max(1.0, float(np.abs(c.mat).max()))
    assert np.linalg.eigvalsh(a)[0] >= -1e-10 * scale
    assert np.linalg.eigvalsh(b)[0] >= -1e-10 * scale
    pt_b = b.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    assert np.abs(c.mat - a - pt_b).max() < 1e-9 * scale


def test_decomposable_matches_oracle_verdicts():
    """Douglas-Rachford reaches the verdict and detail of the Dykstra loop
    (tests/_decompose_oracle.py) on every input the loop decides, in no more
    sweeps, and every split it reports re-checks. The loop never refutes: on
    Phi[2,0,1] it stops undecided at its cap, where the new search returns
    a PPT witness."""
    inputs = list(_decompose_parity_inputs())
    inputs += [MatrixOp(_generalized_choi(2.0, b, c), dims=(3, 3))
               for b, c in ((0.0, 1.0), (0.6, 0.6), (1.0, 1.0))]
    for c in inputs:
        new = decomposable_certify(c)
        old = decomposable_oracle(c)
        assert new.extras["sweeps"] <= old.extras["sweeps"]
        if old.verdict is Verdict.INCONCLUSIVE:
            assert new.verdict is Verdict.VIOLATION
            assert new.detail == "ppt-witness"
            continue
        assert new.verdict is old.verdict is Verdict.MEMBERSHIP
        assert new.detail == old.detail
        assert set(new.extras) == set(old.extras) == {"A", "B", "residual", "sweeps"}
        _assert_split_holds(new, c)


def test_choi_map_refuted_by_ppt_witness():
    """Phi[2,0,1] is positive but not decomposable; the search returns a PPT
    state that pairs negatively with its Choi matrix."""
    c = _generalized_choi(2.0, 0.0, 1.0)
    cert = decomposable_certify(MatrixOp(c, dims=(3, 3)))
    assert cert.verdict is Verdict.VIOLATION
    assert cert.detail == "ppt-witness"
    assert set(cert.extras) == {"A", "B", "residual", "sweeps", "W"}
    assert cert.extras["sweeps"] < 2000
    rho = cert.extras["W"]
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= 0.0
    pt_rho = rho.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    assert np.linalg.eigvalsh(pt_rho)[0] >= 0.0
    value = float(np.trace(rho @ c).real)
    assert value < 0.0
    assert abs(value - cert.value) <= 1e-12


def test_decomposable_never_refutes_by_stormer_woronowicz():
    """On M_2 (x) M_2 and M_2 (x) M_3 every block-positive matrix is
    decomposable (Stormer, Woronowicz), so the search must find the split,
    also with the product-state minimum only 1e-6 above zero."""
    for margin in (0.01, 1e-6):
        rng = np.random.default_rng(38)
        for dims in ((2, 2), (2, 3)):
            for i in range(6):
                c = _block_positive(rng, dims, margin, i)
                cert = decomposable_certify(c, max_sweeps=300)
                assert cert.verdict is Verdict.MEMBERSHIP, (margin, dims, i, cert.value)
                _assert_split_holds(cert, c)


def test_decomposable_sweep_counts():
    """Deterministic sweep counts on seeded inputs: A/2 + PT(B) at d = 3
    splits in <= 20 sweeps, Phi[2,b,b] with b in [0.6, 1] in <= 10, and a
    random 9x9 Hermitian matrix is refuted at the first witness test."""
    rng = np.random.default_rng(39)
    for _ in range(100):
        b = MatrixOp(_unit_trace_psd(rng, 9), dims=(3, 3))
        c = MatrixOp(0.5 * _unit_trace_psd(rng, 9) + partial_transpose(b).mat, dims=(3, 3))
        cert = decomposable_certify(c)
        assert cert.verdict is Verdict.MEMBERSHIP
        assert cert.extras["sweeps"] <= 20
    for b in np.linspace(0.6, 1.0, 5):
        cert = decomposable_certify(MatrixOp(_generalized_choi(2.0, b, b), dims=(3, 3)))
        assert cert.verdict is Verdict.MEMBERSHIP
        assert cert.extras["sweeps"] <= 10
    for _ in range(50):
        cert = decomposable_certify(MatrixOp(_hermitian(rng, 9), dims=(3, 3)))
        assert cert.verdict is Verdict.VIOLATION
        assert cert.extras["sweeps"] == 10


def test_decomposable_rejects_non_hermitian():
    c = np.eye(4, dtype=complex)
    c[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        decomposable_certify(MatrixOp(c, dims=(2, 2)))


@pytest.mark.parametrize("entry", [(1, 1), (0, 1)])
def test_decomposable_rejects_nan(entry):
    c = np.eye(4, dtype=complex)
    c[entry] = np.nan
    with pytest.raises(BadParam):
        decomposable_certify(MatrixOp(c, dims=(2, 2)))


# ---------------------------------------------------------------------------
# Certificates as values


def test_certificate_fields():
    cert = k_block_positive_certify(choi(reduction_family(3, 0.7)), 2)
    assert isinstance(cert, Certificate)
    assert cert.verdict is Verdict.VIOLATION
    assert cert.restarts_used >= 1
    assert str(cert.verdict.value) == "ViolationFound"


def test_verdict_string_values():
    assert Verdict.VIOLATION.value == "ViolationFound"
    assert Verdict.MEMBERSHIP.value == "MembershipProven"
    assert Verdict.INCONCLUSIVE.value == "Inconclusive"


def test_margins_scale_with_c():
    """Every sign decision is relative to max|C|, so scaling C by 1e-12 ..
    1e12 changes no verdict: the Choi map Phi[2,0,1] stays refuted by a PPT
    witness and not CP, with the same chains as at unit scale; a decomposable
    A/2 + PT(B) still splits; reduction(2, 0.7) at k = 1 stays undecided at
    0.3 * scale; the isotropic state at F = 0.9 keeps Schmidt bounds (3, 3).
    With absolute margins Phi[2,0,1] * 1e-9 split, the map of
    Phi[2,0,1] * 1e-10 came out CP, the reduction map's non-PSD Choi
    matrix * 1e-9 came out PSD, and the isotropic state * 1e-9 lost its
    lower bound (1, 3)."""
    gen = _generalized_choi(2.0, 0.0, 1.0)
    red = choi(reduction_family(2, 0.7)).mat
    rng = np.random.default_rng(41)
    b = MatrixOp(_unit_trace_psd(rng, 9), dims=(3, 3))
    split = 0.5 * _unit_trace_psd(rng, 9) + partial_transpose(b).mat
    iso = isotropic_state(3, 0.9).mat

    def chains(rep):
        return [(c.verdict, c.detail) for ch in (rep.p, rep.co_p) for c in ch.values()]

    ref = chains(classify(map_from_choi(MatrixOp(gen, dims=(3, 3))), include_dec=False))
    for s in 10.0 ** np.arange(-12, 13, 2):
        cert = decomposable_certify(MatrixOp(gen * s, dims=(3, 3)))
        assert (cert.verdict, cert.detail) == (Verdict.VIOLATION, "ppt-witness")
        phi = map_from_choi(MatrixOp(gen * s, dims=(3, 3)))
        rep = classify(phi, include_dec=False)
        assert not rep.cp
        assert chains(rep) == ref
        assert is_cp(phi).verdict is Verdict.VIOLATION
        cert = k_block_positive_certify(MatrixOp(red * s, dims=(2, 2)), 1)
        assert (cert.verdict, cert.detail) == (Verdict.INCONCLUSIVE, "seesaw-best")
        assert abs(cert.value / s - 0.3) <= 1e-12
        cert = decomposable_certify(MatrixOp(split * s, dims=(3, 3)))
        assert cert.verdict is Verdict.MEMBERSHIP
        assert cert.extras["residual"] < 1e-9 * np.abs(split * s).max()
        assert schmidt_number_bounds(MatrixOp(iso * s, dims=(3, 3))) == (3, 3)


def test_classify_decomposes_each_chain_once(monkeypatch):
    """One eigendecomposition per chain serves every level, and only the
    level k = min(dims) builds the bottom-eigenvector certificate when C is
    not PSD: the levels below go straight to the see-saw."""
    import conekit.certify as certify_mod
    eigs, certs = [], []

    def counting_eig(x, *args):
        eigs.append(x)
        return hermitian_eig(x, *args)

    def counting_cert(*args, **kwargs):
        certs.append(args[0])
        return eigen_cert(*args, **kwargs)

    eigen_cert = certify_mod._eigen_cert
    monkeypatch.setattr(certify_mod, "hermitian_eig", counting_eig)
    monkeypatch.setattr(certify_mod, "_eigen_cert", counting_cert)
    # neither Choi matrix nor its partial transpose is PSD: no Schmidt bounds
    rep = classify(reduction_family(3, 1.02), opts=SeesawOpts(restarts=2), include_dec=False)
    assert len(eigs) == 2 and len(certs) == 2
    assert not rep.cp and rep.co_p[3].verdict is Verdict.VIOLATION
    eigs.clear()
    assert k_block_positive_certify(choi(reduction_family(3, 0.7)), 2).detail == "seesaw"
    assert len(eigs) == 1
