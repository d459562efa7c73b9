"""Tests for cone membership certificates: block positivity, CP/co-CP,
Schmidt-number bounds, duality pairing, classification and the
decomposability heuristic."""

import re
import warnings
from types import SimpleNamespace

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
    depolarizing,
    dual_pairing,
    from_kraus,
    hermitian_eig,
    hs_inner,
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
    random_hp_map,
    random_k_positive_map,
    reduction_detectors,
    reduction_family,
    schmidt_decompose,
    schmidt_number_bounds,
    schmidt_rank,
    seesaw_minimize,
    swap_matrix,
    transpose_map,
    werner_state,
)
from conekit.errors import (
    BadK,
    BadParam,
    ConekitError,
    DimMismatch,
    MissingDims,
    NotHermitian,
    NotPSD,
)

from conekit.linalg import PSD_TOL, RANK_TOL, BipartiteVector, _margin, _rank
import conekit.certify as certify_mod
import conekit.linalg as linalg_mod
import conekit.maps as maps_mod
from conekit.maps import MapRep
from conekit.serialize import certificate_to_json, report_to_json

from _decompose_oracle import decomposable_certify as decomposable_oracle
from _inputs import cho_kye_lee_choi, rank_ops
from _report_oracle import check_chain_certificate, check_report


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


@pytest.mark.parametrize("k", [1.5, True, np.float64(2.0), "2"])
def test_level_that_is_not_an_integer_is_rejected(k):
    """A level is an integer (numpy ones pass, bool does not), checked before
    any eigensolve; 1.5 was numpy's TypeError inside the see-saw."""
    c = choi(reduction_family(3, 0.7))
    with pytest.raises(BadK):
        k_block_positive_certify(c, k)
    assert k_block_positive_certify(c, np.int64(2), SeesawOpts(restarts=2)).verdict is (
        k_block_positive_certify(c, 2, SeesawOpts(restarts=2)).verdict)


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


def test_min_eigenvector_verdict_matches_its_value(monkeypatch):
    """The bottom eigenvector is a violation only when its re-verified value
    is below -tol. At 1e308 the Hermitian part M/2 + M^dag/2 no longer
    overflows, so the reduction map's Choi matrix is refuted with its true
    bottom eigenvalue (1 - 1.4) * 1e308. An eigensolve whose vector does not
    violate (here the top eigenvector under the bottom eigenvalue, as an
    overflowing one returned) gives no violation."""
    c = MatrixOp(choi(reduction_family(2, 0.7)).mat * 1e308, dims=(2, 2))
    cert = k_block_positive_certify(c, 2)
    assert (cert.verdict, cert.detail) == (Verdict.VIOLATION, "min-eigenvector")
    assert abs(cert.value + 0.4e308) <= 1e-12 * 1e308
    assert abs(float(np.vdot(cert.witness.amp, c.mat @ cert.witness.amp).real)
               - cert.value) <= 1e-12 * 1e308
    phi = map_from_choi(c)
    assert is_cp(phi).verdict is Verdict.VIOLATION

    def reversed_vectors(x):
        w, v = hermitian_eig(x)
        return w, v[:, ::-1]

    # a MatrixOp keeps the spectrum it took first, so C is built again
    monkeypatch.setattr(linalg_mod, "hermitian_eig", reversed_vectors)
    c = MatrixOp(c.mat, dims=(2, 2))
    cert = k_block_positive_certify(c, 2)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.witness is None
    for cert in (is_cp(phi), is_ccp(co(phi))):
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.detail == "min-eigenvector-unverified"


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
    assert cert.detail == "choi-psd"
    assert cert.value >= -1e-12


def test_identity_cp_but_not_ccp():
    cert = is_cp(identity_map(3))
    assert cert.verdict is Verdict.MEMBERSHIP
    assert cert.detail == "choi-psd"
    cert = is_ccp(identity_map(3))
    assert cert.verdict is Verdict.VIOLATION
    assert cert.detail == "min-eigenvector"
    assert abs(cert.value - (-1.0)) <= 1e-12


def _top_level_parity_maps():
    d = 3
    for at, c in (("1/d", 1 / d), ("1", 1.0)):
        for shift in ("-1e-6", "", "+1e-6"):
            yield f"reduction-{at}{shift}", reduction_family(d, c + float(shift or 0))
    yield "transpose", transpose_map(d)
    yield "identity", identity_map(d)
    yield "depolarizing", depolarizing(d, 0.5)
    for seed in (3, 4):
        yield f"hp-{seed}", random_hp_map(d, seed)


@pytest.mark.parametrize("name, phi", list(_top_level_parity_maps()),
                         ids=[name for name, _ in _top_level_parity_maps()])
def test_is_cp_and_is_ccp_are_the_top_chain_levels(name, phi):
    """is_cp and is_ccp are classify's decision at the top level d of the
    positivity and co-positivity chains: the same verdict, detail, value and
    witness, bit for bit."""
    rep = classify(phi, opts=SeesawOpts(restarts=2), include_dec=False)
    for cert, level in ((is_cp(phi), rep.p[phi.d]), (is_ccp(phi), rep.co_p[phi.d])):
        assert (cert.verdict, cert.detail, cert.value) == (level.verdict, level.detail,
                                                           level.value)
        if cert.witness is None:
            assert level.witness is None
        else:
            assert np.array_equal(cert.witness.amp, level.witness.amp)


def test_reduction_cp_exactly_at_one_over_d():
    assert is_cp(reduction_family(3, 1 / 3)).verdict is Verdict.MEMBERSHIP
    assert is_cp(reduction_family(3, 0.34)).verdict is Verdict.VIOLATION


def test_k_positivity_violation_is_projected_positivity_failure():
    """A k-positivity violation is a positivity failure of
    x -> (1 (x) phi)((q (x) 1) x (q (x) 1)) for a rank-k projection q built
    from the witness's Schmidt frame: with chi = sum_l u_l (x) conj(u_l) and
    beta the witness, <beta|(1 (x) phi)((q (x) 1)|chi><chi|(q (x) 1))|beta>
    equals the witness value. Here the witness is the bottom eigenvector's
    rank-2 truncation, the exact minimizer, at exactly 1 - 2 * 0.7."""
    d, k = 3, 2
    phi = reduction_family(d, 0.7)
    cert = is_k_positive_certify(phi, k)
    assert cert.verdict is Verdict.VIOLATION
    assert cert.detail == "min-eigenvector-truncated"
    assert abs(cert.value - (1 - 2 * 0.7)) <= 1e-12
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


@pytest.mark.parametrize("d", [3, 4])
def test_truncated_bottom_eigenvector_is_the_reduction_minimizer(d):
    """The Choi matrix of reduction(d, c) is 1 - c d |Omega><Omega|, whose
    bottom eigenvector Omega has a rank-k truncation of value exactly 1 - ck,
    the minimum over Schmidt rank <= k: it refutes every level k < d with
    ck > 1, no search, and its witness re-checks with numpy alone."""
    for c in (0.4, 0.7, 1.2):
        choi_c = choi(reduction_family(d, c))
        scale = float(np.abs(choi_c.mat).max())
        for k in [k for k in range(1, d) if c * k > 1]:
            cert = k_block_positive_certify(choi_c, k)
            assert (cert.verdict, cert.detail, cert.restarts_used) == (
                Verdict.VIOLATION, "min-eigenvector-truncated", 0)
            assert abs(cert.value - (1 - c * k)) <= 1e-12 * scale
            check_chain_certificate(certificate_to_json(cert), choi_c.mat, (d, d), k,
                                    SeesawOpts().eps_neg)


def test_a_level_the_truncation_refutes_runs_no_search(monkeypatch):
    """The see-saw runs only where the truncated bottom eigenvector does not
    violate: not at all for reduction(3, 0.7) at k = 2, once for
    reduction(2, 0.7) at k = 1, where the truncation reads +0.3 and the
    search stays Inconclusive at the true minimum 0.3."""
    searched = []

    def counting_search(c, dims, k, **kwargs):
        searched.append(k)
        return seesaw_minimize(c, dims, k, **kwargs)

    monkeypatch.setattr(certify_mod, "seesaw_minimize", counting_search)
    cert = k_block_positive_certify(choi(reduction_family(3, 0.7)), 2)
    assert (cert.verdict, cert.detail) == (Verdict.VIOLATION, "min-eigenvector-truncated")
    assert searched == []
    c = choi(reduction_family(2, 0.7))
    u, s, vh = np.linalg.svd(np.linalg.eigh(c.mat)[1][:, 0].reshape(2, 2))
    psi_1 = np.kron(u[:, 0], vh[0])
    assert abs(float((psi_1.conj() @ c.mat @ psi_1).real) - 0.3) <= 1e-12
    cert = k_block_positive_certify(c, 1)
    assert (cert.verdict, cert.detail) == (Verdict.INCONCLUSIVE, "seesaw-best")
    assert abs(cert.value - 0.3) <= 1e-12
    assert searched == [1]


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
            phi = from_kraus(rank_ops(rng, 3, k, 3))
            psi = random_k_positive_map(3, k, seed)
            assert dual_pairing(phi, psi) >= -1e-9


def test_pairing_symmetric():
    a = reduction_family(3, 0.5)
    b = random_cp_map(3, 2, 3, 0)
    assert abs(dual_pairing(a, b) - dual_pairing(b, a)) <= 1e-10


def _pairing_maps(i: int):
    """Pair i of 20 seeded maps at d = 2..5, drawn from random_hp_map,
    random_cp_map and random_k_positive_map in turn."""
    d = 2 + i % 4
    draws = (lambda s: random_hp_map(d, s),
             lambda s: random_cp_map(d, 1 + s % d, 3, s),
             lambda s: random_k_positive_map(d, 1 + s % d, s))
    return draws[i % 3](2 * i), draws[(i + 1) % 3](2 * i + 1)


def test_pairing_is_hs_inner_of_the_choi_matrices_bit_for_bit():
    """dual_pairing is hs_inner's formula on the two Choi matrices: the same
    float, compared with == and no tolerance."""
    for i in range(20):
        phi, psi = _pairing_maps(i)
        assert dual_pairing(phi, psi) == hs_inner(choi(phi), choi(psi))


def test_pairing_applies_no_second_hermiticity_gate(monkeypatch):
    """Both maps passed MapRep's gate, so dual_pairing gates neither Choi
    matrix again; maps on different M_d still raise DimMismatch."""
    phi, psi = _pairing_maps(4)
    calls = [0]
    gate = linalg_mod._check_hermitian_pair

    def counting(*args, **kwargs):
        calls[0] += 1
        return gate(*args, **kwargs)

    monkeypatch.setattr(linalg_mod, "_check_hermitian_pair", counting)
    dual_pairing(phi, psi)
    assert calls[0] == 0
    hs_inner(choi(phi), choi(psi))
    assert calls[0] == 2
    with pytest.raises(DimMismatch):
        dual_pairing(identity_map(2), identity_map(3))


# ---------------------------------------------------------------------------
# Schmidt-number bounds


def test_bounds_max_entangled():
    assert schmidt_number_bounds(max_entangled_projector(3)) == (3, 3)


def test_bounds_rank_one_choi():
    rng = np.random.default_rng(32)
    a = rank_ops(rng, 3, 2, 1)[0]
    assert schmidt_number_bounds(choi(ad(a))) == (2, 2)


def test_bounds_with_construction():
    """A Kraus set of rank-one operators is read as its map's Choi matrix,
    which it factors, so its rank bounds the Schmidt number from above."""
    rng = np.random.default_rng(33)
    ops = rank_ops(rng, 3, 1, 5)
    assert schmidt_number_bounds(KrausSet(tuple(ops))) == (1, 1)
    assert schmidt_number_bounds(from_kraus(ops)) == (1, 3)


def test_bounds_eigen_kraus_can_be_looser_than_construction():
    """Re-extracted Kraus operators mix the generators, so the generic upper
    bound can exceed the one carried by the original construction."""
    rng = np.random.default_rng(34)
    ops = rank_ops(rng, 3, 1, 5)
    phi = from_kraus(ops)
    generic = schmidt_number_bounds(choi(phi))
    assert generic[0] == 1
    assert generic[1] >= 1


def test_bounds_require_psd():
    """The transpose map's Choi matrix (the swap, eigenvalue -1) is not PSD:
    its level 2 is violated and it has no Schmidt number, also once its
    spectrum has been taken for the level."""
    c = choi(transpose_map(2))
    assert k_block_positive_certify(c, 2).verdict is Verdict.VIOLATION
    with pytest.raises(NotPSD):
        schmidt_number_bounds(c)
    with pytest.raises(NotPSD):
        schmidt_number_bounds(MatrixOp(swap_matrix(2).astype(complex), dims=(2, 2)))


def test_bounds_contradiction_names_both_ends(monkeypatch):
    """lower > upper means a producer is wrong: with the Schmidt rank of the
    range vector of |Omega><Omega| (d = 2) patched from 2 to 1, the level-1
    detector's lower bound 2 exceeds it, and the message names both ends
    and where each came from."""
    monkeypatch.setattr(certify_mod, "schmidt_decompose", lambda vec: SimpleNamespace(rank=1))
    with pytest.raises(ConekitError, match=re.escape(
            "lower 2 from the level-1 reduction detector > upper 1 from the Schmidt "
            "rank of C's range vector")):
        schmidt_number_bounds(max_entangled_projector(2))


def _horodecki_state(a):
    """P. Horodecki's 3 x 3 state at 0 < a < 1: PSD and PPT, yet entangled
    (bound entangled), so no reduction detector fires on it."""
    rho = a * np.eye(9, dtype=complex)
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            rho[i, j] = a
    rho[6, 6] = rho[8, 8] = (1 + a) / 2
    rho[6, 8] = rho[8, 6] = np.sqrt(1 - a * a) / 2
    return MatrixOp(rho / (8 * a + 1), dims=(3, 3))


def test_bounds_refuse_a_construction_of_another_operator():
    """The bound-entangled Horodecki state is PPT and fires no reduction
    detector, so its bounds are (1, 3): nothing but a Kraus set of its own
    could claim Schmidt number 1 for it, and a Kraus set is always read as
    the operator it factors."""
    rho = _horodecki_state(0.5)
    assert np.linalg.eigvalsh(partial_transpose(rho).mat)[0] > -_margin(rho.mat, PSD_TOL)
    assert schmidt_number_bounds(rho) == (1, 3)


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


def _loop_lower_bound(c):
    """The Schmidt lower bound one detector at a time: 1 (x) R applied by
    apply_on_right_factor, R the map whose Choi matrix is the witness, each
    image judged by hermitian_eig against PSD_TOL * max|image|."""
    lower = 1
    for det in reduction_detectors(c.dims[1]):
        moved = apply_on_right_factor(map_from_choi(det.operator), c)
        w, _ = hermitian_eig(moved)
        if float(w[0]) < -_margin(moved.mat, PSD_TOL):
            lower = max(lower, det.k_level + 1)
    return lower


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_detector_bank_matches_the_loop(d):
    """The detectors' images formed as one closed-form stack
    tr_B(C) (x) 1 - C/k give the lower bound of the loop over the detector
    maps, on seeded PSD matrices of rank 1, 2 and d at scales
    1e-12..1e12, and on isotropic states at F = k/d +- 1e-3, where level k
    fires just above its threshold and not just below it."""
    rng = np.random.default_rng(100 + d)
    n = d * d
    for rank in (1, 2, d):
        for _ in range(3):
            g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            for s in 10.0 ** np.arange(-12, 13, 6):
                c = MatrixOp(s * (g @ g.conj().T), dims=(d, d))
                assert schmidt_number_bounds(c)[0] == _loop_lower_bound(c)
    for k in range(1, d):
        for step, lower in ((1e-3, k + 1), (-1e-3, k)):
            rho = isotropic_state(d, k / d + step)
            assert schmidt_number_bounds(rho)[0] == _loop_lower_bound(rho) == lower


@pytest.mark.parametrize("dims", [(2, 3), (2, 4), (2, 5), (3, 5)])
def test_rectangular_bounds_apply_only_the_levels_that_can_fire(dims, monkeypatch):
    """No state has Schmidt number above min(dims), so a detector at a level
    k >= min(dims) cannot fire: at dA < dB schmidt_number_bounds applies the
    levels 1..dA-1 only, as one stacked hermitian_eig call after C's own
    (its MatrixOp.eig; so min(dims) matrices in two calls), and its lower
    bound equals the loop's over all dB - 1 detectors, on seeded PSD
    matrices of rank 1, 2 and dA dB at scales 1e-12..1e12."""
    calls, matrices = [0], [0]

    def counting_eig(x, *args):
        stack = getattr(x, "mat", x)
        calls[0] += 1
        matrices[0] += stack.shape[0] if stack.ndim == 3 else 1
        return hermitian_eig(x, *args)

    rng = np.random.default_rng(sum(dims))
    n = dims[0] * dims[1]
    for rank in (1, 2, n):
        for _ in range(3):
            g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            for s in 10.0 ** np.arange(-12, 13, 12):
                c = MatrixOp(s * (g @ g.conj().T), dims=dims)
                for mod in (maps_mod, linalg_mod):
                    monkeypatch.setattr(mod, "hermitian_eig", counting_eig)
                calls[0] = matrices[0] = 0
                lower = schmidt_number_bounds(c)[0]
                assert matrices[0] == min(dims) and calls[0] == 2
                monkeypatch.undo()
                assert lower == _loop_lower_bound(c)


def _per_image_bounds(c):
    """schmidt_number_bounds as it decided one detector image per call: the
    closed-form image tr_B(C) (x) 1 - C/k of each level k < min(dims),
    judged by its own hermitian_eig against its own margin."""
    da, db = c.dims
    n = da * db
    w, v = hermitian_eig(c)
    tr_b = np.trace(c.mat.reshape(da, db, da, db), axis1=1, axis2=3)
    lower = 1
    for k in range(1, min(da, db)):
        image = (tr_b[:, None, :, None] * np.eye(db)[:, None, :]).reshape(n, n) - (1.0 / k) * c.mat
        w_det, _ = hermitian_eig(image)
        if float(w_det[0]) < -_margin(image, PSD_TOL):
            lower = k + 1
    if _rank(np.abs(w), RANK_TOL) == 1:
        upper = schmidt_decompose(BipartiteVector(da, db, v[:, -1])).rank
    else:
        upper = min(da, db)
    return lower, upper


def _seeded_psd(dims, seed):
    """PSD matrices with the given dims: ranks 1, 2 and full, at scales
    1e-12..1e12."""
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1]
    for rank in (1, 2, n):
        g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        for s in 10.0 ** np.arange(-12, 13, 6):
            yield MatrixOp(s * (g @ g.conj().T), dims=dims)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (2, 4)])
def test_stacked_bounds_equal_the_per_image_loop(dims):
    """One stacked call over the detector images gives the bounds of one
    call per image, on seeded PSD matrices and, at dA = dB, on isotropic
    states 1e-3 either side of each level's flip F = k/d."""
    cases = list(_seeded_psd(dims, 7 * dims[0] + dims[1]))
    if dims[0] == dims[1]:
        d = dims[0]
        cases += [isotropic_state(d, k / d + step) for k in range(1, d) for step in (-1e-3, 1e-3)]
    for c in cases:
        assert schmidt_number_bounds(c) == _per_image_bounds(c)
    if dims == (3, 3):
        # level 1's image has the eigenvalue -2.7e-10, beyond its own margin
        # 2.5e-10 and within level 2's 2.9e-10: each image has its own
        rho = isotropic_state(3, 1 / 3 + 2.7e-10)
        assert schmidt_number_bounds(rho) == _per_image_bounds(rho) == (2, 3)


@pytest.mark.parametrize("dims", [(3, 3), (4, 4), (2, 4)])
def test_detector_images_take_one_eigh_call(dims, monkeypatch):
    """Once C's spectrum has been read (MatrixOp.eig), schmidt_number_bounds
    makes exactly one numpy eigh call: the stack of its min(dims) - 1
    detector images."""
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        shapes.append(m.shape)
        return eigh(m, *args, **kwargs)

    n = dims[0] * dims[1]
    for c in _seeded_psd(dims, 3):
        c.eig
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        shapes.clear()
        schmidt_number_bounds(c)
        monkeypatch.undo()
        assert shapes == [(min(dims) - 1, n, n)]


def test_detector_image_beyond_the_float_range_is_refused():
    """An image of 1.7e308 * 1_9 holds tr_B = 3 * 1.7e308, not a double: the
    bounds raise BadParam, as they did when each image was a MatrixOp, and
    the overflow raises no numpy warning (pytest turns one into an error)."""
    with pytest.raises(BadParam, match="NaN or infinite"):
        schmidt_number_bounds(MatrixOp(1.7e308 * np.eye(9), dims=(3, 3)))


def test_detector_bank_is_built_once_per_dimension(monkeypatch):
    """schmidt_number_bounds builds no MapRep, on its first call at a
    dimension as on every later one: the detectors' images are formed in
    closed form, not from their maps."""
    built = []
    post_init = MapRep.__post_init__

    def counting(self):
        built.append(self.d)
        post_init(self)

    monkeypatch.setattr(MapRep, "__post_init__", counting)
    reduction_detectors(4)
    assert built == [4, 4, 4]
    built.clear()
    for d in (4, 5):
        rho = isotropic_state(d, 0.95)
        assert schmidt_number_bounds(rho) == (d, d)
        assert built == []
        assert schmidt_number_bounds(rho) == (d, d)
        assert built == []


def test_certifiers_need_bipartite_dims():
    """A matrix without declared dims is refused, even when its size is a
    perfect square: the split of C^n into C^dA (x) C^dB is not guessed."""
    with pytest.raises(MissingDims):
        k_block_positive_certify(MatrixOp(np.diag([1.0, -1.0, -1.0, 1.0])), 1)
    with pytest.raises(MissingDims):
        schmidt_number_bounds(MatrixOp(np.eye(4)))


def _shifted_spectrum(d, f, scale):
    """scale * (C0 - f * 1e-9 * max|C0| * 1) for a seeded rank-deficient PSD
    C0 on C^d (x) C^d: its bottom eigenvalue sits f times the PSD margin
    1e-9 * max|C| below zero, outside the margin for f > 1, inside for f < 1
    (adding f * 1e-9 * max|C0| to the diagonal moves max|C| by a relative
    1e-9 at most, far below the 1e-3 gap of the pinned cases)."""
    rng = np.random.default_rng(100 + d)
    g = rng.normal(size=(d * d, d * d - 1)) + 1j * rng.normal(size=(d * d, d * d - 1))
    c0 = g @ g.conj().T
    c = c0 - f * 1e-9 * np.abs(c0).max() * np.eye(d * d)
    return MatrixOp(scale * c, dims=(d, d))


def _bounds_families():
    """What schmidt_number_bounds and classify are both given: the atlas's
    isotropic (d = 3) and Werner grids, seeded rank-k Kraus sets, reduction
    maps just inside and just outside CP, and the shifted spectra."""
    rng = np.random.default_rng(36)
    return {
        "isotropic": [isotropic_state(3, f) for f in np.linspace(0.0, 1.0, 10)],
        "werner": [werner_state(p) for p in np.linspace(0.0, 1.0, 9)],
        "kraus": [KrausSet(rank_ops(rng, d, k, 3)) for d in (2, 3, 4) for k in range(1, d + 1)],
        "reduction": [reduction_family(d, 1.0 / d + t) for d in (2, 3, 4) for t in (-0.02, 0.02)],
        "shifted": [_shifted_spectrum(d, f, scale) for d in (2, 3, 4)
                    for f in (1 - 1e-3, 1 - 1e-6, 1.0, 1 + 1e-6, 1 + 1e-3)
                    for scale in (1e-200, 1.0, 1e200)],
    }


def _bounds_or_none(x):
    try:
        return schmidt_number_bounds(x)
    except NotPSD:
        return None


@pytest.mark.parametrize("family", ["isotropic", "werner", "kraus", "reduction", "shifted"])
def test_bounds_agree_with_classify(family):
    """schmidt_number_bounds takes what classify takes and stands on the same
    top-level CP decision: equal bounds, and NotPSD exactly where classify
    reports none."""
    inputs = _bounds_families()[family]
    got = [_bounds_or_none(x) for x in inputs]
    want = [classify(x, SeesawOpts(restarts=1), include_dec=False).schmidt_number
            for x in inputs]
    assert got == want
    if family == "reduction":
        # R_c is CP exactly for c <= 1/d
        assert [b is None for b in got] == [False, True] * 3
    if family == "shifted":
        # f = 1 -+ 1e-3 is inside / outside the margin at every d and scale
        outcomes = np.array([b is None for b in got]).reshape(3, 5, 3)
        assert not outcomes[:, 0].any() and outcomes[:, 4].all()


# ---------------------------------------------------------------------------
# Classification


def test_classify_transpose_qubit():
    rep = classify(transpose_map(2), include_dec=False)
    assert rep.dims == (2, 2)
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
    proven PSD within eps_neg is not re-judged against PSD_TOL.
    schmidt_number_bounds makes the same top-level decision at the default
    eps_neg, 1e-9, so it finds C not PSD."""
    c = _barely_psd_choi()
    rep = classify(c, SeesawOpts(eps_neg=1e-6, restarts=1))
    assert rep.p[3].detail == "choi-psd"
    assert rep.cp
    assert rep.schmidt_number == (1, 3)
    with pytest.raises(NotPSD):
        schmidt_number_bounds(c)


def test_classify_construction_bounds_the_p_chain_only():
    """A Kraus set given to classify tightens the Schmidt upper bound of its
    map's Choi matrix only (its partial transpose has no Kraus form)."""
    ks = KrausSet([np.outer(a, b) for a, b in np.random.default_rng(4).normal(size=(3, 2, 3))])
    plain = classify(ks.to_map(), SeesawOpts(restarts=1), include_dec=False)
    rep = classify(ks, SeesawOpts(restarts=1), include_dec=False)
    assert plain.schmidt_number == (1, 3) and rep.schmidt_number == (1, 1)
    assert [(c.verdict, c.value) for c in rep.co_p.values()] == [
        (c.verdict, c.value) for c in plain.co_p.values()]
    # proven at co-level 3 only: the co-chain's bounds stay (1, 3)
    assert rep.km_superpositive[(1, 3)] == "proven"
    assert rep.km_superpositive[(1, 2)] == "inconclusive"
    assert plain.km_superpositive[(1, 3)] == "inconclusive"


def test_classify_decomposes_a_psd_choi_once(monkeypatch):
    """The Schmidt bounds reuse the chains' eigendecompositions: C and PT(C)
    are each decomposed once; the other calls are the detectors' moved
    matrices."""
    eigs = []

    def counting_eig(x, *args):
        eigs.append(x)
        return hermitian_eig(x, *args)

    for mod in (maps_mod, linalg_mod):
        monkeypatch.setattr(mod, "hermitian_eig", counting_eig)
    rep = classify(identity_map(3), opts=SeesawOpts(restarts=1), include_dec=False)
    assert rep.schmidt_number == (3, 3)
    c = choi(identity_map(3)).mat
    assert sum(np.array_equal(getattr(x, "mat", x), c) for x in eigs) == 1
    co_c = partial_transpose(choi(identity_map(3))).mat
    assert sum(np.array_equal(getattr(x, "mat", x), co_c) for x in eigs) == 1


def test_classify_bounds_come_from_the_public_function(monkeypatch):
    """Each chain that proves its matrix PSD calls _schmidt_bounds, the body
    of schmidt_number_bounds past the same top-level proof, once, on the
    MatrixOp whose spectrum its levels have already read, so C is not
    decomposed again."""
    bounds_calls, eigs = [], []
    bounds = certify_mod._schmidt_bounds

    def counting_bounds(c, kraus):
        bounds_calls.append("eig" in vars(c))
        return bounds(c, kraus)

    def counting_eig(x, *args):
        eigs.append(x)
        return hermitian_eig(x, *args)

    monkeypatch.setattr(certify_mod, "_schmidt_bounds", counting_bounds)
    for mod in (maps_mod, linalg_mod):
        monkeypatch.setattr(mod, "hermitian_eig", counting_eig)
    # the identity map: C is PSD, PT(C) (the swap) is not
    rep = classify(identity_map(3), opts=SeesawOpts(restarts=1), include_dec=False)
    assert rep.schmidt_number == (3, 3) and bounds_calls == [True]
    c = choi(identity_map(3)).mat
    assert sum(np.array_equal(getattr(x, "mat", x), c) for x in eigs) == 1
    # completely depolarizing: both chains prove PSD, one call each
    bounds_calls.clear()
    rep = classify(depolarizing(3, 1.0), opts=SeesawOpts(restarts=1), include_dec=False)
    assert rep.cp and bounds_calls == [True, True]
    # no chain proves PSD: no call
    bounds_calls.clear()
    classify(reduction_family(3, 1.02), opts=SeesawOpts(restarts=1), include_dec=False)
    assert bounds_calls == []


def test_classify_inherits_a_stronger_violation_upward():
    """C = 1 - 2 |phi><phi| - 1.8 |e0 e1><e0 e1| with the bottom eigenvector
    phi = sqrt(.45) e0 e0 + sqrt(.35) e1 e1 + sqrt(.2) e2 e2: its rank-1
    truncation e0 e0 reads +0.1, so level 1 searches and finds the product
    vector e0 e1 at -0.8, while level 2's own certificate is phi's rank-2
    truncation at 1 - 2 * 0.8 = -0.6, weaker by more than the tie margin.
    The chain keeps the stronger level-1 witness at level 2."""
    e = np.eye(3)
    phi = (np.sqrt(0.45) * np.kron(e[0], e[0]) + np.sqrt(0.35) * np.kron(e[1], e[1])
           + np.sqrt(0.2) * np.kron(e[2], e[2]))
    v01 = np.kron(e[0], e[1])
    c = MatrixOp(np.eye(9) - 2 * np.outer(phi, phi) - 1.8 * np.outer(v01, v01), dims=(3, 3))
    opts = SeesawOpts(restarts=1, seed=18)
    own = k_block_positive_certify(c, 2, opts)
    assert (own.verdict, own.detail) == (Verdict.VIOLATION, "min-eigenvector-truncated")
    assert abs(own.value + 0.6) <= 1e-12
    rep = classify(c, opts, include_dec=False)
    assert (rep.p[1].verdict, rep.p[1].detail) == (Verdict.VIOLATION, "seesaw")
    assert abs(rep.p[1].value + 0.8) <= 1e-8
    assert schmidt_rank(rep.p[1].witness) == 1
    assert rep.p[1].value < own.value - _margin(c.mat, opts.eps_neg)
    assert (rep.p[2].verdict, rep.p[2].detail) == (Verdict.VIOLATION, "seesaw+inherited")
    assert rep.p[2].value == rep.p[1].value
    assert rep.p[2].witness is rep.p[1].witness
    assert rep.p[2].restarts_used == own.restarts_used == 0


def _random_hermitian(n, seed):
    g = np.random.default_rng(seed).normal(size=(2, n, n))
    return (g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T) / 2


@pytest.mark.parametrize("dims,seed,psd", [((2, 3), 5, False), ((3, 2), 6, False),
                                           ((2, 3), 8, True)])
def test_classify_a_rectangular_operator(dims, seed, psd):
    """A Hermitian operator on C^dA (x) C^dB is classified as it is: both
    chains and the (k, m) flags run over 1..min(dims), and every certificate
    re-checks with numpy alone at (dA, dB). A PSD one gets Schmidt bounds
    within 1..min(dims)."""
    c = _random_hermitian(dims[0] * dims[1], seed)
    if psd:
        c = c @ c
    opts = SeesawOpts(restarts=4)
    rep = classify(MatrixOp(c, dims=dims), opts)
    assert rep.dims == dims and rep.cp is psd
    if psd:
        assert rep.p[2].detail == "choi-psd" and rep.schmidt_number == (1, 2)
    check_report(report_to_json(rep), c, dims, opts.eps_neg)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_classify_splits_a_rectangular_decomposable_operator(dims):
    """C = A + PT(B) with A, B PSD at (dA, dB): the split is found and holds
    under the (dA, dB) partial transpose."""
    n = dims[0] * dims[1]
    rng = np.random.default_rng(9)
    g = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    a, b = g @ g.conj().swapaxes(1, 2)
    c = a + partial_transpose(MatrixOp(b, dims=dims)).mat
    rep = classify(MatrixOp(c, dims=dims), SeesawOpts(restarts=2))
    assert rep.decomposable.verdict is Verdict.MEMBERSHIP
    check_report(report_to_json(rep), c, dims)


def test_classify_honors_declared_dims():
    """A 9 x 9 operator declared on C^1 (x) C^9 has one level, whatever its
    size: no 3 x 3 split is guessed."""
    c = _random_hermitian(9, 7)
    rep = classify(MatrixOp(c, dims=(1, 9)), SeesawOpts(restarts=2))
    assert rep.dims == (1, 9) and list(rep.p) == list(rep.co_p) == [1]
    assert set(rep.km_positive) == set(rep.km_superpositive) == {(1, 1)}
    check_report(report_to_json(rep), c, (1, 9))


@pytest.mark.parametrize("certifier", [
    lambda c: classify(c, include_dec=False),
    lambda c: k_block_positive_certify(c, 1),
    decomposable_certify,
    schmidt_number_bounds,
])
def test_certifiers_refuse_a_raw_matrix(certifier):
    """A raw array declares no dims: it raised AttributeError on
    `require_dims`, not the documented MissingDims."""
    with pytest.raises(MissingDims, match="ndarray"):
        certifier(np.eye(4))


def test_classify_needs_dims():
    with pytest.raises(MissingDims):
        classify(MatrixOp(np.eye(4)), include_dec=False)


def test_classify_km_pairs_subset():
    """Both two-index flag dicts hold exactly the d^2 pairs (k, m)."""
    rep = classify(transpose_map(2), include_dec=False)
    pairs = {(k, m) for k in (1, 2) for m in (1, 2)}
    assert set(rep.km_positive) == set(rep.km_superpositive) == pairs
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


def test_decomposable_refutes_a_random_hermitian_within_five_sweeps():
    """A random 9x9 Hermitian matrix is not decomposable, and the gap vector
    is tested on every sweep, so a PPT witness that re-checks (and so
    proves it) comes within 5 sweeps."""
    rng = np.random.default_rng(36)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    h = 0.5 * (g + g.conj().T)
    cert = decomposable_certify(MatrixOp(h, dims=(3, 3)), max_sweeps=5)
    assert cert.verdict is Verdict.VIOLATION
    assert cert.extras["sweeps"] <= 5
    _assert_witness_holds(cert, h)


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
    inputs += [MatrixOp(cho_kye_lee_choi(2.0, b, c), dims=(3, 3))
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


def _assert_witness_holds(cert, c):
    """Re-check a ppt-witness refutation of the 9x9 matrix c with numpy
    alone: rho = extras["W"] is a unit-trace Hermitian PPT state and
    Tr(rho C) < 0 is the reported value."""
    assert cert.verdict is Verdict.VIOLATION
    assert cert.detail == "ppt-witness"
    assert set(cert.extras) == {"A", "B", "residual", "sweeps", "W"}
    rho = cert.extras["W"]
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= 0.0
    pt_rho = rho.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    assert np.linalg.eigvalsh(pt_rho)[0] >= 0.0
    value = float(np.trace(rho @ c).real)
    assert value < 0.0
    assert abs(value - cert.value) <= 1e-12


def test_choi_map_refuted_by_ppt_witness():
    """Phi[2,0,1] is positive but not decomposable; the search returns a PPT
    state that pairs negatively with its Choi matrix."""
    c = cho_kye_lee_choi(2.0, 0.0, 1.0)
    cert = decomposable_certify(MatrixOp(c, dims=(3, 3)))
    assert cert.extras["sweeps"] < 2000
    _assert_witness_holds(cert, c)


def _unscreened_witness_value(gap, c, dims):
    """Tr(rho C) of the PPT-witness construction without its screen, with
    numpy alone: g = herm(gap)/||.||_F shifted by max(0, -lmin g,
    -lmin PT g) + 1e-9 and scaled to unit trace."""
    da, db = dims
    n = c.shape[0]
    g = 0.5 * (gap + gap.conj().T)
    g = g / np.linalg.norm(g)
    pt_g = g.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(n, n)
    shift = max(0.0, -np.linalg.eigvalsh(g)[0], -np.linalg.eigvalsh(pt_g)[0]) + 1e-9
    w = g + shift * np.eye(n)
    return float(np.trace(w @ c).real / np.trace(w).real)


def _screen_cases():
    """(gap, C, dims): seeded random pairs at d = 2..4, C Hermitian (its
    trace of either sign) or shifted PSD, the gap a general complex matrix,
    half of them shifted toward the PSD cone; then the DR gap vectors of
    Phi[2,0,1], recorded from the search itself."""
    rng = np.random.default_rng(43)
    for i in range(600):
        d = 2 + i % 3
        c = _hermitian(rng, d * d)
        if i % 3 == 1:
            c = c + (rng.uniform(0.0, 1.0) - np.linalg.eigvalsh(c)[0]) * np.eye(d * d)
        gap = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        if i % 2:
            gap = gap + rng.uniform(0.0, 3.0) * np.eye(d * d)
        yield gap, 0.75 * c / np.abs(c).max(), (d, d)
    seen = []
    witness = certify_mod._ppt_witness

    def recording(gap, target, da, db, margin):
        seen.append((gap.copy(), target.copy(), (da, db)))
        return witness(gap, target, da, db, margin)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify_mod, "_ppt_witness", recording)
        decomposable_certify(MatrixOp(cho_kye_lee_choi(2.0, 0.0, 1.0), dims=(3, 3)))
    assert seen
    yield from seen


def test_ppt_witness_screen_is_sound(monkeypatch):
    """The screen in front of the witness construction rejects a gap vector
    (returns None before any eigvalsh) only when the construction itself
    would give Tr(rho C) >= 0, so no witness is lost: checked against the
    construction run without the screen. Rejected gaps run no eigvalsh at
    all, and both outcomes occur often."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(m, *args, **kwargs):
        calls.append(m.shape)
        return eigvalsh(m, *args, **kwargs)

    rejected = witnesses = 0
    for gap, c, dims in _screen_cases():
        calls.clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        found = certify_mod._ppt_witness(gap, c, *dims, 1e-9)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        value = _unscreened_witness_value(gap, c, dims)
        if not calls:
            rejected += 1
            assert found is None
            assert value >= 0.0
        if found is not None:
            witnesses += 1
            assert abs(found[1] - value) <= 1e-12
    assert rejected >= 100 and witnesses >= 100


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
    random 9x9 Hermitian matrix is refuted at the first witness test, which
    comes at sweep 1."""
    rng = np.random.default_rng(39)
    for _ in range(100):
        b = MatrixOp(_unit_trace_psd(rng, 9), dims=(3, 3))
        c = MatrixOp(0.5 * _unit_trace_psd(rng, 9) + partial_transpose(b).mat, dims=(3, 3))
        cert = decomposable_certify(c)
        assert cert.verdict is Verdict.MEMBERSHIP
        assert cert.extras["sweeps"] <= 20
    for b in np.linspace(0.6, 1.0, 5):
        cert = decomposable_certify(MatrixOp(cho_kye_lee_choi(2.0, b, b), dims=(3, 3)))
        assert cert.verdict is Verdict.MEMBERSHIP
        assert cert.extras["sweeps"] <= 10
    for _ in range(50):
        cert = decomposable_certify(MatrixOp(_hermitian(rng, 9), dims=(3, 3)))
        assert cert.verdict is Verdict.VIOLATION
        assert cert.extras["sweeps"] == 1


def test_decomposable_decides_a_rank_two_mixture_near_the_boundary():
    """C = 0.7 A + 0.3 PT(B) with A and B of rank 2 sits on the boundary of
    the decomposable cone, where plain Douglas-Rachford steps stop
    Inconclusive at the 2000-sweep cap; relaxed steps reach a split below
    the margin (at sweep 1338), and it re-checks."""
    rng = np.random.default_rng(9)

    def rank_two():
        g = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        m = g @ g.conj().T
        return m / np.trace(m).real

    pairs = [(rank_two(), rank_two()) for _ in range(3)]
    a, b = pairs[2]
    pt_b = b.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    c = MatrixOp(0.7 * a + 0.3 * pt_b, dims=(3, 3))
    cert = decomposable_certify(c)
    assert (cert.verdict, cert.detail) == (Verdict.MEMBERSHIP, "psd+pt-psd-split")
    assert cert.extras["sweeps"] < 2000
    _assert_split_holds(cert, c)


def test_decomposable_makes_two_eigh_calls_per_sweep(monkeypatch):
    """Each sweep makes two `eigh` calls (a = clip(z), then one stacked call
    for the reflected step and the residual's B) and none runs after the
    loop: the split returned is the best sweep's own (A, B), and its residual
    recomputed as max|target - A - PT(B)| equals extras["residual"] bit for
    bit. Checked on a split, a refutation and a PSD input."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        calls.append(m.shape)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(42)
    b = MatrixOp(_unit_trace_psd(rng, 9), dims=(3, 3))
    split = MatrixOp(0.5 * _unit_trace_psd(rng, 9) + partial_transpose(b).mat, dims=(3, 3))
    refuted = MatrixOp(cho_kye_lee_choi(2.0, 0.0, 1.0), dims=(3, 3))
    psd = MatrixOp(_unit_trace_psd(rng, 9), dims=(3, 3))
    for c, verdict in ((split, Verdict.MEMBERSHIP), (refuted, Verdict.VIOLATION),
                       (psd, Verdict.MEMBERSHIP)):
        calls.clear()
        cert = decomposable_certify(c)
        ex = cert.extras
        assert cert.verdict is verdict
        assert len(calls) == 2 * ex["sweeps"]
        target = 0.5 * c.mat + 0.5 * c.mat.conj().T
        pt_b = ex["B"].reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        assert float(np.abs(target - ex["A"] - pt_b).max()) == ex["residual"]
    assert decomposable_certify(psd).extras["sweeps"] == 1


@pytest.mark.parametrize("max_sweeps", [0, -1])
def test_decomposable_search_that_never_runs_is_rejected(max_sweeps):
    """A search with no sweep has no split to report: BadParam before any
    work, so even a matrix without bipartite dims gets it."""
    with pytest.raises(BadParam):
        decomposable_certify(MatrixOp(np.eye(4), dims=(2, 2)), max_sweeps=max_sweeps)
    with pytest.raises(BadParam):
        decomposable_certify(MatrixOp(np.eye(4)), max_sweeps=max_sweeps)


def test_decomposable_at_the_top_of_the_float_range():
    """The Hermitian part C/2 + C^dag/2 does not overflow: the reduction
    map's Choi matrix at 1e308 splits as it does at unit scale."""
    c = choi(reduction_family(2, 0.7)).mat
    ref = decomposable_certify(MatrixOp(c, dims=(2, 2)))
    big = MatrixOp(c * 1e308, dims=(2, 2))
    cert = decomposable_certify(big)
    assert (cert.verdict, cert.extras["sweeps"]) == (ref.verdict, ref.extras["sweeps"])
    assert cert.verdict is Verdict.MEMBERSHIP
    _assert_split_holds(cert, big)


def test_decomposable_scales_near_the_top_of_the_float_range():
    """The search runs on C / 2^e, so C * 2^j for j from 960 up to the top
    of the float range gives the split, residual and value of C * 2^960
    times 2^(j-960) exactly, the ppt-witness state unchanged."""
    base = 2.0 ** 960
    for c in (choi(reduction_family(2, 0.7)).mat, cho_kye_lee_choi(2.0, 0.0, 1.0)):
        dims = (int(round(np.sqrt(c.shape[0]))),) * 2
        ref = decomposable_certify(MatrixOp(c * base, dims=dims))
        for j in (961, 1000, 1023):
            s = 2.0 ** (j - 960)
            cert = decomposable_certify(MatrixOp(c * base * s, dims=dims))
            assert (cert.verdict, cert.detail) == (ref.verdict, ref.detail)
            assert cert.extras["sweeps"] == ref.extras["sweeps"]
            assert cert.value == ref.value * s
            assert cert.extras["residual"] == ref.extras["residual"] * s
            assert np.array_equal(cert.extras["A"], ref.extras["A"] * s)
            assert np.array_equal(cert.extras["B"], ref.extras["B"] * s)
            if "W" in ref.extras:
                assert np.array_equal(cert.extras["W"], ref.extras["W"])


def test_decomposable_is_one_search_at_every_power_of_two_scale():
    """C * 2^j for j from -1000 to 1000 makes the sweeps of C itself: the
    verdict, detail and sweep count are those of unit scale, and A, B, the
    residual and the value are the unit-scale ones times 2^j bit for bit, on
    a decomposable C and on one refuted by a PPT witness (the same state at
    every scale)."""
    for c, verdict in ((choi(reduction_family(2, 0.7)).mat, Verdict.MEMBERSHIP),
                       (cho_kye_lee_choi(2.0, 0.0, 1.0), Verdict.VIOLATION)):
        dims = (int(round(np.sqrt(c.shape[0]))),) * 2
        ref = decomposable_certify(MatrixOp(c, dims=dims))
        assert ref.verdict is verdict
        for j in (-1000, -600, -200, 0, 200, 600, 1000):
            s = 2.0 ** j
            cert = decomposable_certify(MatrixOp(c * s, dims=dims))
            assert (cert.verdict, cert.detail) == (ref.verdict, ref.detail), j
            assert cert.extras["sweeps"] == ref.extras["sweeps"], j
            assert cert.value == ref.value * s, j
            assert cert.extras["residual"] == ref.extras["residual"] * s, j
            assert np.array_equal(cert.extras["A"], ref.extras["A"] * s), j
            assert np.array_equal(cert.extras["B"], ref.extras["B"] * s), j
            if "W" in ref.extras:
                assert np.array_equal(cert.extras["W"], ref.extras["W"]), j


def test_decomposable_finds_the_witness_of_a_tiny_c():
    """At max|C| ~ 1e-200 the squared entries of the gap vector underflow;
    searched as given, its norm came out 0 and no PPT witness was ever
    formed (Inconclusive after 2000 sweeps). On C / 2^e the witness is
    found at the sweep where unit scale finds it."""
    c = choi(random_hp_map(3, 1)).mat
    ref = decomposable_certify(MatrixOp(c, dims=(3, 3)))
    cert = decomposable_certify(MatrixOp(1e-200 * c, dims=(3, 3)))
    assert (cert.verdict, cert.detail) == (Verdict.VIOLATION, "ppt-witness")
    assert (ref.verdict, ref.detail) == (Verdict.VIOLATION, "ppt-witness")
    assert cert.extras["sweeps"] == ref.extras["sweeps"]
    assert cert.value < 0.0


def test_decomposable_refuses_a_value_beyond_the_float_range():
    """A finite C whose PPT-witness value (-6.4e308) is not a double: the
    search runs on C / 2^1024 without a warning, and the value scaled back
    is refused with BadParam, the rule of hermitian_eig."""
    c = MatrixOp(-1.7e308 * np.ones((4, 4)), dims=(2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParam, match="not a double"):
            decomposable_certify(c)
        cert = decomposable_certify(MatrixOp(-1e306 * np.ones((4, 4)), dims=(2, 2)))
    assert (cert.verdict, cert.detail) == (Verdict.VIOLATION, "ppt-witness")
    assert -4e306 <= cert.value < 0.0


def test_spectrum_beyond_the_float_range_is_refused():
    """A finite C whose bottom eigenvalue (-6.8e308) is not a double is
    refused with BadParam at the eigensolve; past it, the eigen-decision
    would re-verify an overflowing witness and report value NaN."""
    c = MatrixOp(-1.7e308 * np.ones((4, 4)), dims=(2, 2))
    with pytest.raises(BadParam, match="spectrum is not finite"):
        k_block_positive_certify(c, 2)
    with pytest.raises(BadParam, match="spectrum is not finite"):
        hermitian_eig(c)


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
    """restarts_used counts the see-saw's restarts: 0 when the truncated
    bottom eigenvector decides the level with no search, >= 1 on a level
    that searched (reduction(2, 0.7) at k = 1, where it reads +0.3)."""
    cert = k_block_positive_certify(choi(reduction_family(3, 0.7)), 2)
    assert isinstance(cert, Certificate)
    assert cert.verdict is Verdict.VIOLATION
    assert cert.restarts_used == 0
    assert str(cert.verdict.value) == "ViolationFound"
    searched = k_block_positive_certify(choi(reduction_family(2, 0.7)), 1)
    assert searched.detail == "seesaw-best"
    assert searched.restarts_used >= 1


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
    gen = cho_kye_lee_choi(2.0, 0.0, 1.0)
    red = choi(reduction_family(2, 0.7)).mat
    rng = np.random.default_rng(41)
    b = MatrixOp(_unit_trace_psd(rng, 9), dims=(3, 3))
    split = 0.5 * _unit_trace_psd(rng, 9) + partial_transpose(b).mat
    iso = isotropic_state(3, 0.9).mat

    def chains(rep):
        return [(c.verdict, c.detail) for ch in (rep.p, rep.co_p) for c in ch.values()]

    ref = chains(classify(MatrixOp(gen, dims=(3, 3)), include_dec=False))
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
    """One eigendecomposition per chain serves every level. When C is not
    PSD the level k = min(dims) takes the bottom eigenvector as its witness,
    and a level below it first tries that vector's rank-k truncation: the
    see-saw runs only at a level the truncation does not refute."""
    eigs, searched = [], []

    def counting_eig(x, *args):
        eigs.append(x)
        return hermitian_eig(x, *args)

    def counting_search(c, dims, k, **kwargs):
        searched.append(k)
        return seesaw_minimize(c, dims, k, **kwargs)

    for mod in (maps_mod, linalg_mod):
        monkeypatch.setattr(mod, "hermitian_eig", counting_eig)
    monkeypatch.setattr(certify_mod, "seesaw_minimize", counting_search)
    # neither Choi matrix nor its partial transpose is PSD: no Schmidt bounds
    rep = classify(reduction_family(3, 1.02), opts=SeesawOpts(restarts=2), include_dec=False)
    assert len(eigs) == 2 and searched == []
    assert rep.p[3].detail == rep.co_p[3].detail == "min-eigenvector"
    assert {rep.p[1].detail, rep.p[2].detail, rep.co_p[1].detail, rep.co_p[2].detail} == {
        "min-eigenvector-truncated"}
    assert not rep.cp and rep.co_p[3].verdict is Verdict.VIOLATION
    # reduction(3, 0.7): the truncation reads 1 - 0.7 = +0.3 at level 1, so
    # that level searches; PT(C) is PSD, so the co-chain needs no search (its
    # Schmidt bounds decompose the detectors' moved matrices besides)
    eigs.clear()
    c = choi(reduction_family(3, 0.7))
    rep = classify(c, opts=SeesawOpts(restarts=2), include_dec=False)
    assert searched == [1]
    assert [sum(np.array_equal(getattr(x, "mat", x), m.mat) for x in eigs)
            for m in (c, partial_transpose(c))] == [1, 1]
    assert rep.p[1].detail == "seesaw-best" and rep.p[2].detail == "min-eigenvector-truncated"
    eigs.clear()
    assert k_block_positive_certify(choi(reduction_family(3, 0.7)), 2).detail == (
        "min-eigenvector-truncated")
    assert len(eigs) == 1
