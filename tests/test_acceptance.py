"""Acceptance suite: ten numbered end-to-end criteria, each pinned to its
stated tolerance. One pass/fail line per criterion is printed in the terminal
summary (see conftest.record_criterion)."""

import contextlib
import time

import numpy as np

from conekit import (
    MatrixOp,
    SeesawOpts,
    Verdict,
    ad,
    choi,
    co,
    compose,
    decomposable_certify,
    detect_schmidt_number,
    from_kraus,
    hermitian_eig,
    identity_map,
    is_cp,
    k_block_positive_certify,
    map_from_choi,
    max_entangled,
    max_entangled_projector,
    partial_transpose,
    random_hp_map,
    random_k_positive_map,
    random_schmidt_bounded_state,
    reduction_detectors,
    reduction_family,
    schmidt_rank,
    swap_matrix,
    threshold_scan,
    transpose_map,
    werner_state,
)
from conekit._seesaw import seesaw_minimize
from conekit.fuzz import fuzz_composition, fuzz_duality
from conekit.linalg import BipartiteVector

from _inputs import rank_ops
from conftest import record_criterion


@contextlib.contextmanager
def _criterion(number, description):
    ok = False
    try:
        yield
        ok = True
    finally:
        record_criterion(number, description, ok)


def test_criterion_01_reduction_family_thresholds():
    """Violation just past c = 1/k, value 1 - ck just below, for every
    d in {2,3,4} and k = 1..d, inside a 60 s budget."""
    with _criterion(1, "reduction-family thresholds at c = 1/k (d = 2..4)"):
        t0 = time.perf_counter()
        for d in (2, 3, 4):
            for k in range(1, d + 1):
                above = choi(reduction_family(d, 1.0 / k + 0.02))
                cert = k_block_positive_certify(above, k)
                assert cert.verdict is Verdict.VIOLATION, (d, k)
                assert cert.restarts_used <= 20
                assert abs(cert.value - (1 - (1.0 / k + 0.02) * k)) <= 2e-3

                below = choi(reduction_family(d, 1.0 / k - 0.02))
                cert = k_block_positive_certify(below, k)
                assert cert.verdict is not Verdict.VIOLATION, (d, k)
                assert abs(cert.value - (1 - (1.0 / k - 0.02) * k)) <= 2e-3
        assert time.perf_counter() - t0 < 60.0


def test_criterion_02_choi_bijection_and_fixed_points():
    """map_from_choi inverts choi to 1e-13 on 1000 maps; the identity and
    transpose Choi matrices match their closed forms to 1e-14."""
    with _criterion(2, "Choi/reshuffling bijection and closed forms"):
        for i in range(1000):
            d = 2 + i % 3
            phi = random_hp_map(d, i)
            back = map_from_choi(choi(phi))
            assert np.abs(back.super_mat - phi.super_mat).max() <= 1e-13
        for d in (2, 3, 4):
            psi = max_entangled(d).amp
            assert np.abs(choi(identity_map(d)).mat - np.outer(psi, psi.conj())).max() <= 1e-14
            assert np.abs(choi(transpose_map(d)).mat - swap_matrix(d)).max() <= 1e-14


def test_criterion_03_conjugation_choi_rank_structure():
    """choi(ad(a)) is rank one and its range vector has Schmidt rank equal to
    rank(a); 100 seeded cases per (d, r)."""
    with _criterion(3, "rank-1 Choi of conjugations with matching Schmidt rank"):
        for d in (2, 3, 4):
            for r in range(1, d + 1):
                rng = np.random.default_rng(1000 * d + r)
                for _ in range(100):
                    g1 = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
                    g2 = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
                    a = g1 @ g2
                    w, v = hermitian_eig(choi(ad(a)))
                    assert w[-1] > 0
                    assert abs(w[-2]) <= 1e-10 * w[-1]
                    vec = BipartiteVector(d, d, v[:, -1])
                    assert schmidt_rank(vec) == r


def test_criterion_04_co_map_partial_transpose():
    """choi(co(phi)) equals the partial transpose of choi(phi) on 500 maps."""
    with _criterion(4, "co-map Choi = partial transpose of Choi (500 maps)"):
        for i in range(500):
            d = 2 + i % 3
            phi = random_hp_map(d, 7000 + i)
            gap = np.abs(choi(co(phi)).mat - partial_transpose(choi(phi)).mat).max()
            assert gap <= 1e-12


def test_criterion_05_duality_fuzz_500():
    """Pairing of rank-k CP against k-positive maps stays >= -1e-9 for both
    k = 1 and k = 2 at d = 3, 500 instances."""
    with _criterion(5, "duality fuzz 500/500 at d = 3, k = 1, 2"):
        out = fuzz_duality(500, d=3, ks=(1, 2), seed=20260814)
        assert out["failed"] == 0, out["failures"][:3]
        assert out["passed"] == 500


def test_criterion_06_composition_fuzz_100():
    """Certified composition at d = 3, k = 2: factor ranks <= 2,
    reconstruction <= 1e-9, level-2 detector quiet on the composite."""
    with _criterion(6, "constructive composition fuzz 100/100 at d = 3, k = 2"):
        out = fuzz_composition(100, d=3, k=2, seed=31)
        assert out["failed"] == 0, out["failures"][:3]
        assert out["passed"] == 100


def test_criterion_07_characterization_battery():
    """Products of k-superpositive with k-positive maps are CP in both
    orders, and the composite's Choi overlap with the maximally entangled
    projector stays nonnegative. 100 seeded pairs."""
    with _criterion(7, "S_k x P_k products are CP with nonnegative pairing"):
        d = 3
        p_plus = max_entangled_projector(d).mat
        for k in (1, 2):
            rng = np.random.default_rng(500 + k)
            for seed in range(50):
                phi = from_kraus(rank_ops(rng, d, k, 3))
                psi = random_k_positive_map(d, k, 9000 + 100 * k + seed)
                both = compose(psi, phi), compose(phi, psi)
                for prod in both:
                    assert is_cp(prod).verdict is Verdict.MEMBERSHIP
                pairing = np.trace(p_plus @ choi(both[0]).mat).real
                assert pairing >= -1e-9


def test_criterion_08_detection_thresholds():
    """Isotropic scans flip at F = k/d within one 0.01 grid step; the Werner
    partial-transpose boundary sits at p = 1/3 within 1e-9."""
    with _criterion(8, "isotropic flips at k/d; Werner boundary at 1/3"):
        for d, k in [(2, 1), (3, 1), (3, 2)]:
            target = k / d
            grid = np.arange(target - 0.05, target + 0.05, 0.01)
            rows = threshold_scan("isotropic", d, k, grid)
            flips = [i for i in range(1, len(rows))
                     if rows[i].fired != rows[i - 1].fired]
            assert len(flips) == 1, (d, k)
            assert abs(rows[flips[0]].param - target) <= 0.011

        lo = np.linalg.eigvalsh(partial_transpose(werner_state(1 / 3 - 1e-9)).mat)[0]
        hi = np.linalg.eigvalsh(partial_transpose(werner_state(1 / 3 + 1e-9)).mat)[0]
        assert lo > 0 > hi
        assert abs(lo - (3e-9 / 4)) <= 1e-12
        assert abs(hi + (3e-9 / 4)) <= 1e-12


def test_criterion_09_detector_soundness_200():
    """No detector of level >= k ever fires on a state of Schmidt number
    <= k; 100 seeded states each for k = 1 and k = 2 at d = 3."""
    with _criterion(9, "zero firings on 200 Schmidt-rank-bounded states"):
        bank = reduction_detectors(3)
        for k in (1, 2):
            sound = [det for det in bank if det.k_level >= k]
            assert sound
            for seed in range(100):
                rho = random_schmidt_bounded_state(3, k, 4, 4000 * k + seed)
                for det in sound:
                    res = detect_schmidt_number(rho, det)
                    assert not res.fired, (k, seed, det.k_level, res.min_eigenvalue)


def test_criterion_10_decomposability_heuristic_100():
    """100 random block-positive operators at d = 2 all split as
    A + PT(B) with A, B PSD and residual < 1e-8, inside a 30 s budget."""
    with _criterion(10, "100 random qubit positive-map candidates decompose"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        opts = SeesawOpts(restarts=10)
        for i in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = 0.5 * (g + g.conj().T)
            h = h / np.abs(h).max()
            # shift so the product-state minimum sits at a safe margin
            q, _, _ = seesaw_minimize(h, (2, 2), 1, restarts=10, seed=i)
            c = MatrixOp(h + (0.05 - q) * np.eye(4), dims=(2, 2))
            cert = decomposable_certify(c, opts=opts)
            assert cert.verdict is Verdict.MEMBERSHIP, (i, cert.value)
            assert cert.extras["residual"] < 1e-8
        assert time.perf_counter() - t0 < 30.0
