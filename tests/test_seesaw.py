"""Tests for the rank-constrained see-saw minimizer: parity with the scalar
loop kept in tests/_seesaw_oracle.py where the quasi-Newton phase never
runs, and values never worse than the loop's where it does."""

import numpy as np
import pytest
from _seesaw_oracle import _seesaw_kernel as loop_kernel

from conekit import (
    BadParam,
    MapRep,
    choi,
    from_kraus,
    max_entangled,
    partial_transpose,
    random_cp_map,
    random_k_positive_map,
    reduction_family,
)
from conekit import _seesaw
from conekit._seesaw import random_starts, seesaw_minimize


def _rand_herm(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def test_reduction_family_closed_form_minimum():
    """min over Schmidt-rank-<=k unit vectors of <psi|(1 - c P)|psi> is
    1 - c k for the unnormalized maximally entangled projector P."""
    for d in (2, 3, 4):
        for k in range(1, d):
            for c in (1.0 / k - 0.02, 1.0 / k + 0.02):
                cmat = choi(reduction_family(d, c)).mat
                q, m, _ = seesaw_minimize(cmat, (d, d), k, restarts=8)
                assert abs(q - (1 - c * k)) <= 2e-3
                assert np.linalg.matrix_rank(m, tol=1e-8) <= k


def test_witness_reproduces_value():
    cmat = choi(reduction_family(3, 0.7)).mat
    q, m, _ = seesaw_minimize(cmat, (3, 3), 2)
    psi = m.reshape(-1)
    assert abs(psi.conj() @ cmat @ psi - q) <= 1e-10
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10


def test_product_minimum_of_kron_diagonal():
    """For C = A (x) B diagonal, the rank-1 minimum is the smallest product
    of eigenvalue pairs."""
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([-1.0, 3.0, 0.5]).astype(complex)
    c = np.kron(a, b)
    q, _, _ = seesaw_minimize(c, (2, 3), 1, restarts=10)
    assert abs(q - (-2.0)) <= 1e-9


def test_rectangular_dims_supported():
    rng = np.random.default_rng(1)
    c = _rand_herm(rng, 6)
    q2, _, _ = seesaw_minimize(c, (2, 3), 2, restarts=10)
    w = np.linalg.eigvalsh(c)
    # k = min(dims) removes the rank constraint entirely
    assert q2 >= w[0] - 1e-9
    assert q2 <= w[0] + 1e-6


def test_value_never_below_global_minimum():
    rng = np.random.default_rng(2)
    for i in range(20):
        c = _rand_herm(rng, 9)
        q, _, _ = seesaw_minimize(c, (3, 3), 1, restarts=5, seed=i)
        assert q >= np.linalg.eigvalsh(c)[0] - 1e-9


def test_deterministic_in_seed():
    rng = np.random.default_rng(3)
    c = _rand_herm(rng, 9)
    out1 = seesaw_minimize(c, (3, 3), 2, restarts=6, seed=9)
    out2 = seesaw_minimize(c, (3, 3), 2, restarts=6, seed=9)
    assert out1[0] == out2[0]
    assert np.array_equal(out1[1], out2[1])


def test_random_starts_per_restart_seeding():
    s = random_starts(3, 3, 2, 4, seed=5)
    s_shift = random_starts(3, 3, 2, 3, seed=6)
    # restart r of seed s equals restart r-1 of seed s+1
    assert np.array_equal(s[1:], s_shift)


def _oracle(c, dims, k, restarts, seed, max_iters=500):
    starts = random_starts(dims[0], dims[1], k, restarts, seed)
    return loop_kernel(np.ascontiguousarray(c), dims[0], dims[1], k, starts,
                       max_iters, 1e-10 * np.abs(c).max())


@pytest.fixture
def phase_evaluations(monkeypatch):
    """Counts evaluations of the quasi-Newton phase's reduced objective."""
    calls = [0]
    reduced = _seesaw._reduced

    def counting(*args):
        calls[0] += 1
        return reduced(*args)

    monkeypatch.setattr(_seesaw, "_reduced", counting)
    return calls


def _assert_witness(c, dims, k, q, m):
    """The witness is a unit vector of Schmidt rank <= k that attains q."""
    psi = m.reshape(-1)
    assert abs((psi.conj() @ c @ psi).real - q) <= 1e-12 * np.abs(c).max()
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    assert np.linalg.matrix_rank(m, tol=1e-8) <= k


def _kron_form(rng, dims):
    """(Ua (x) Ub)(A (x) B)(Ua (x) Ub)^dag with simple random spectra: its
    minimum is a nondegenerate eigenvalue with a product eigenvector, which
    the first sweep finds."""
    a, b = (np.diag(rng.uniform(-2.0, 2.0, size=d)).astype(complex) for d in dims)
    u = np.kron(*(np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                  for d in dims))
    return u @ np.kron(a, b) @ u.conj().T


def _off_phase_inputs():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        for k in range(1, d):
            for c in (1.0 / k - 0.02, 1.0 / k + 0.02):
                red = choi(reduction_family(d, c))
                yield pytest.param(red.mat, (d, d), k, False, id=f"reduction({d},{c:.2f})-k{k}")
                yield pytest.param(partial_transpose(red).mat, (d, d), k, False,
                                   id=f"co-reduction({d},{c:.2f})-k{k}")
            yield pytest.param(choi(random_cp_map(d, d, 2, 10 * d + k)).mat, (d, d), k, False,
                               id=f"cp({d})-k{k}")
    for dims in ((2, 3), (3, 3), (3, 4)):
        for k in range(1, min(dims) + 1):
            yield pytest.param(_kron_form(rng, dims), dims, k, True, id=f"kron{dims}-k{k}")


@pytest.mark.parametrize("c,dims,k,unique", list(_off_phase_inputs()))
def test_kernel_matches_loop_oracle_off_phase(phase_evaluations, c, dims, k, unique):
    """Where no restart enters the quasi-Newton phase the kernel is the plain
    see-saw: value and sweep count equal to the one-restart-at-a-time loop's
    on reduction and CP maps, and the witness too where the minimiser is
    unique (the rotated Kronecker forms), up to a global phase."""
    q, m, sweeps = seesaw_minimize(c, dims, k, restarts=6, seed=3)
    q_ref, m_ref, sweeps_ref = _oracle(c, dims, k, 6, 3)
    assert phase_evaluations[0] == 0
    assert abs(q - q_ref) <= 1e-12 * np.abs(c).max()
    assert sweeps == sweeps_ref
    _assert_witness(c, dims, k, q, m)
    if unique:  # the same unit vector, up to the eigensolver's global phase
        phase = np.vdot(m_ref, m)
        assert np.abs(m - phase / abs(phase) * m_ref).max() <= 1e-10


_PARITY_CASES = (
    [((3, 3), k, restarts) for k in (1, 2) for restarts in (1, 6)]
    + [((4, 4), k, restarts) for k in (1, 2, 3) for restarts in (1, 6)]
    + [((2, 3), k, restarts) for k in (1, 2) for restarts in (1, 6)]
)


@pytest.mark.parametrize("dims,k,restarts", _PARITY_CASES)
def test_batched_kernel_matches_loop_oracle(dims, k, restarts):
    """On seeded random Hermitian forms, where many restarts pass through the
    quasi-Newton phase and so leave the loop's trajectory, the best value is
    never above the plain see-saw loop's by more than 1e-9 * max|C|, and the
    witness attains it with Schmidt rank <= k."""
    rng = np.random.default_rng(100 * dims[0] + 10 * dims[1] + k)
    for trial in range(2):
        c = _rand_herm(rng, dims[0] * dims[1])
        q, m, _ = seesaw_minimize(c, dims, k, restarts=restarts, seed=trial)
        q_ref, _, _ = _oracle(c, dims, k, restarts, trial)
        assert q <= q_ref + 1e-9 * np.abs(c).max()
        _assert_witness(c, dims, k, q, m)


def test_batched_kernel_matches_loop_oracle_at_iteration_cap(phase_evaluations):
    """A restart stops after max_iters iterations, sweeps and quasi-Newton
    evaluations together: with the cap, the total is the sum over restarts
    of min(own count, max_iters), where some restarts of one call hit the
    cap while others finish, and the capped value is still attained."""
    rng = np.random.default_rng(7)
    mixed = 0
    for trial in range(3):
        c = _rand_herm(rng, 9)
        uncapped = [seesaw_minimize(c, (3, 3), 1, restarts=1, seed=trial + r)[2]
                    for r in range(6)]
        for max_iters in (5, 20):
            phase_evaluations[0] = 0
            q, m, iters = seesaw_minimize(c, (3, 3), 1, restarts=6, seed=trial,
                                          max_iters=max_iters)
            assert iters == sum(min(n, max_iters) for n in uncapped)
            _assert_witness(c, (3, 3), 1, q, m)
            mixed += min(uncapped) < max_iters < max(uncapped) and phase_evaluations[0] > 0
    assert mixed


def _kpos_family(seed=1):
    """The benchmark's k-positive classify maps: reduction(3, 1/2), whose
    level-2 minimum is 0, mixed with a normalized two-Kraus CP map at weight
    0.02..0.1 (the draws of perfbench/inputs.py at this seed)."""
    rng = np.random.default_rng([seed, 0])
    maps = []
    for _ in range(8):
        lam = float(rng.uniform(0.02, 0.1))
        ops = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
        cp = from_kraus([a / np.linalg.norm(a) for a in ops])
        maps.append(MapRep(3, lam * cp.super_mat + (1.0 - lam) * reduction_family(3, 0.5).super_mat))
    return maps


def test_kpos_family_converges_to_the_loop_minimum(phase_evaluations):
    """On the maps near the k-positivity boundary the plain see-saw creeps:
    run to 20 000 sweeps, the loop needs hundreds to thousands per search.
    With the quasi-Newton phase every level-1 and level-2 value at one
    restart is within 1e-9 of (or below) the loop's, using at most a quarter
    of the 8000 sweeps the plain kernel's 500-sweep cap allows."""
    total = 0
    for phi in _kpos_family():
        c = choi(phi).mat
        for k in (1, 2):
            q, m, iters = seesaw_minimize(c, (3, 3), k, restarts=1)
            q_ref, _, _ = _oracle(c, (3, 3), k, 1, 42, max_iters=20000)
            assert q <= q_ref + 1e-9
            _assert_witness(c, (3, 3), k, q, m)
            total += iters
    assert total <= 8000 // 4
    assert phase_evaluations[0] > 0


def test_zero_minimum_of_a_k_positive_map():
    """random_k_positive_map(4, 2, 1) mixes a CP map with reduction(4, 1/2),
    so its level-2 minimum is 0; the plain see-saw ended at 2.7e-9 after
    9221 sweeps over 20 restarts."""
    c = choi(random_k_positive_map(4, 2, 1)).mat
    q, m, iters = seesaw_minimize(c, (4, 4), 2)
    assert abs(q) <= 1e-12
    assert iters <= 2305
    _assert_witness(c, (4, 4), 2, q, m)


def test_stop_rule_scales_with_c():
    """The search runs on C / 2^e with max|C / 2^e| in [1/2, 1) and stops at
    eps_conv * max|C|: scaling C up or down leaves the iteration count and
    the value relative to the scale unchanged, bit for bit at powers of two,
    also where the quasi-Newton phase runs (without the normalization its
    squared gradient underflows below 1e-154); C = 0 stops at the second
    sweep of each restart."""
    c = choi(reduction_family(2, 0.7)).mat
    q1, _, sweeps1 = seesaw_minimize(c, (2, 2), 1, restarts=20)
    for s in (1e-300, 1e-100, 1e-12, 1e12, 1e100, 1e300):
        q, _, sweeps = seesaw_minimize(c * s, (2, 2), 1, restarts=20)
        assert sweeps == sweeps1
        assert abs(q / s - q1) <= 1e-12 * abs(q1)
    c = choi(random_k_positive_map(4, 2, 1)).mat
    q1, m1, iters1 = seesaw_minimize(c, (4, 4), 2, restarts=4)
    for e in (-1000, -500, 500, 1000):
        q, m, iters = seesaw_minimize(c * 2.0 ** e, (4, 4), 2, restarts=4)
        assert (q * 2.0 ** -e, iters) == (q1, iters1)
        assert np.array_equal(m, m1)
    q0, m0, sweeps0 = seesaw_minimize(np.zeros((9, 9)), (3, 3), 2, restarts=3)
    assert (q0, sweeps0) == (0.0, 6)
    assert abs(np.linalg.norm(m0) - 1.0) <= 1e-12


def test_search_that_never_runs_is_rejected():
    c = choi(reduction_family(3, 0.7)).mat
    with pytest.raises(BadParam):
        seesaw_minimize(c, (3, 3), 2, restarts=0)
    with pytest.raises(BadParam):
        seesaw_minimize(c, (3, 3), 2, max_iters=0)


def test_stop_threshold_must_be_finite_and_nonnegative():
    """The rule of SeesawOpts: a negative eps_conv stops every restart on its
    first sweep, a NaN one lets none converge, an infinite one stops all on
    the second."""
    for eps in (-1.0, np.nan, np.inf):
        with pytest.raises(BadParam):
            seesaw_minimize(np.eye(4), (2, 2), 1, restarts=1, eps_conv=eps)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts calls of np.linalg.svd."""
    calls = [0]
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_repeated_configuration_runs_no_svd(svd_calls, phase_evaluations):
    """Frames come from the factors the kernel holds (QR, also on entering
    and restarting a quasi-Newton chart); the only svd is the one of the
    memoized starts, so a second call with the same dims, k, restarts and
    seed runs none, and returns the same result."""
    _seesaw._starts.cache_clear()
    c = choi(random_k_positive_map(4, 2, 1)).mat
    first = seesaw_minimize(c, (4, 4), 2, restarts=4, seed=5)
    assert svd_calls[0] == 1
    assert phase_evaluations[0] > 0
    second = seesaw_minimize(c, (4, 4), 2, restarts=4, seed=5)
    assert svd_calls[0] == 1
    assert first[0] == second[0] and first[2] == second[2]
    assert np.array_equal(first[1], second[1])


def test_memoized_starts_are_read_only_random_starts():
    """The memo holds random_starts at unit norm and a k-frame of each, both
    read-only; random_starts still returns a fresh writable array."""
    starts, frames = _seesaw._starts(3, 4, 2, 5, 7)
    assert not starts.flags.writeable and not frames.flags.writeable
    with pytest.raises(ValueError):
        starts[0, 0, 0] = 0.0
    raw = random_starts(3, 4, 2, 5, 7)
    assert raw.flags.writeable
    norms = np.linalg.norm(raw, axis=(1, 2))[:, None, None]
    assert np.abs(starts - raw / norms).max() <= 1e-15
    eye = np.eye(2)
    assert np.abs(frames @ frames.conj().swapaxes(1, 2) - eye).max() <= 1e-14
    # each start lies in the row space of its frame
    assert np.abs(starts - starts @ frames.conj().swapaxes(1, 2) @ frames).max() <= 1e-14
    raw[:] = 0.0
    again = _seesaw._starts(3, 4, 2, 5, 7)
    assert again[0] is starts and again[1] is frames
    assert np.abs(starts - random_starts(3, 4, 2, 5, 7) / norms).max() <= 1e-15


def test_kernel_from_rank_deficient_starts(monkeypatch, phase_evaluations):
    """At k = 2 from rank-1 starts the first right frame is padded to k rows
    and the left frame comes from qr of a rank-2 factor: on a rotated
    Kronecker form the kernel matches the loop oracle's value and sweep
    count, and every frame it fixes has orthonormal rows (right) or columns
    (left)."""
    rng = np.random.default_rng(21)
    dims, k = (3, 4), 2
    c = _kron_form(rng, dims)
    a = rng.normal(size=(3, dims[0], 1)) + 1j * rng.normal(size=(3, dims[0], 1))
    b = rng.normal(size=(3, 1, dims[1])) + 1j * rng.normal(size=(3, 1, dims[1]))
    starts = a @ b
    starts /= np.linalg.norm(starts, axis=(1, 2))[:, None, None]
    frames = np.linalg.svd(starts)[2][:, :k, :]
    eye = np.eye(k)
    seen = []

    def checked(helper, frame_of):
        def run(c4, f, d, kk):
            g = frame_of(f)
            assert np.abs(g @ g.conj().swapaxes(1, 2) - eye).max() <= 1e-12
            seen.append(helper.__name__)
            return helper(c4, f, d, kk)
        return run

    monkeypatch.setattr(_seesaw, "_bottom_left", checked(_seesaw._bottom_left, lambda v: v))
    monkeypatch.setattr(_seesaw, "_bottom_right",
                        checked(_seesaw._bottom_right, lambda u: u.conj().swapaxes(1, 2)))
    eps = 1e-10 * np.abs(c).max()
    q, m, sweeps = _seesaw._seesaw_kernel(c, *dims, k, starts, frames, 500, eps)
    q_ref, _, sweeps_ref = loop_kernel(c, *dims, k, starts, 500, eps)
    assert phase_evaluations[0] == 0
    assert {"_bottom_left", "_bottom_right"} <= set(seen)
    assert abs(q - q_ref) <= 1e-12 * np.abs(c).max()
    assert sweeps == sweeps_ref
    _assert_witness(c, dims, k, q, m)


def test_entangled_projector_rank_gap():
    """On P itself the rank-k minimum is 0 while the global minimum stays 0;
    on -P the rank-k minimum is -k/d against the global -1 at rank d."""
    d = 3
    p = max_entangled(d).amp
    c = -np.outer(p, p.conj()) / d
    for k in (1, 2, 3):
        q, _, _ = seesaw_minimize(c, (d, d), k, restarts=8)
        assert abs(q - (-k / d)) <= 1e-8
