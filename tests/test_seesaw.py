"""Tests for the rank-constrained see-saw minimizer: parity with the scalar
loop kept in tests/_seesaw_oracle.py where the quasi-Newton phase never
runs, and values never worse than the loop's where it does."""

import math

import numpy as np
import pytest
from _seesaw_oracle import _seesaw_kernel as loop_kernel

from conekit import (
    BadK,
    BadParam,
    DimMismatch,
    MapRep,
    SeesawOpts,
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
from conekit.linalg import _gaussian_products

from _inputs import rand_herm


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
    c = rand_herm(rng, 6)
    q2, _, _ = seesaw_minimize(c, (2, 3), 2, restarts=10)
    w = np.linalg.eigvalsh(c)
    # k = min(dims) removes the rank constraint entirely
    assert q2 >= w[0] - 1e-9
    assert q2 <= w[0] + 1e-6


def test_value_never_below_global_minimum():
    rng = np.random.default_rng(2)
    for i in range(20):
        c = rand_herm(rng, 9)
        q, _, _ = seesaw_minimize(c, (3, 3), 1, restarts=5, seed=i)
        assert q >= np.linalg.eigvalsh(c)[0] - 1e-9


def test_deterministic_in_seed():
    rng = np.random.default_rng(3)
    c = rand_herm(rng, 9)
    out1 = seesaw_minimize(c, (3, 3), 2, restarts=6, seed=9)
    out2 = seesaw_minimize(c, (3, 3), 2, restarts=6, seed=9)
    assert out1[0] == out2[0]
    assert np.array_equal(out1[1], out2[1])


def test_random_starts_per_restart_seeding():
    s = random_starts(3, 3, 2, 4, seed=5)
    s_shift = random_starts(3, 3, 2, 3, seed=6)
    # restart r of seed s equals restart r-1 of seed s+1
    assert np.array_equal(s[1:], s_shift)


@pytest.mark.parametrize("da,db,k,restarts,seed", [(3, 3, 2, 4, 5), (2, 4, 1, 3, 0),
                                                   (4, 3, 3, 2, 40)])
def test_random_starts_are_the_one_draw(da, db, k, restarts, seed):
    """Restart r is the product _gaussian_products draws from its own
    generator, seeded seed + r."""
    starts = random_starts(da, db, k, restarts, seed)
    for r in range(restarts):
        one = _gaussian_products(np.random.default_rng(seed + r), 1, da, k, db)
        assert np.array_equal(starts[r], one[0])


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
        c = rand_herm(rng, dims[0] * dims[1])
        q, m, _ = seesaw_minimize(c, dims, k, restarts=restarts, seed=trial)
        q_ref, _, _ = _oracle(c, dims, k, restarts, trial)
        assert q <= q_ref + 1e-9 * np.abs(c).max()
        _assert_witness(c, dims, k, q, m)


def _capped_kernel(c, dims, k, restarts, seed, max_iters):
    """seesaw_minimize with the kernel's iteration cap max_iters in place of
    _seesaw._MAX_ITERS: the same scaled C, start frames and stop threshold."""
    top = float(np.abs(c).max())
    scaled, unscale = _seesaw._pow2_scaled(np.asarray(c, dtype=complex), top)
    frames = _seesaw._start_frames(dims[0], dims[1], k, restarts, seed)
    q, m, iters = _seesaw._seesaw_kernel(scaled, dims[0], dims[1], k, frames, max_iters,
                                         _seesaw._margin(scaled, _seesaw._EPS_CONV))
    return unscale(float(q)), m, iters


def test_batched_kernel_matches_loop_oracle_at_iteration_cap(phase_evaluations):
    """A restart stops after max_iters iterations, sweeps and quasi-Newton
    evaluations together: with the cap, the total is the sum over restarts
    of min(own count, max_iters), where some restarts of one call hit the
    cap while others finish, and the capped value is still attained."""
    rng = np.random.default_rng(7)
    mixed = 0
    for trial in range(3):
        c = rand_herm(rng, 9)
        uncapped = [seesaw_minimize(c, (3, 3), 1, restarts=1, seed=trial + r)[2]
                    for r in range(6)]
        for max_iters in (5, 20):
            phase_evaluations[0] = 0
            q, m, iters = _capped_kernel(c, (3, 3), 1, 6, trial, max_iters)
            assert iters == sum(min(n, max_iters) for n in uncapped)
            _assert_witness(c, (3, 3), 1, q, m)
            mixed += min(uncapped) < max_iters < max(uncapped) and phase_evaluations[0] > 0
    assert mixed


@pytest.mark.parametrize("dims,k,kpos", [((3, 3), 1, False), ((3, 3), 2, False), ((4, 4), 2, False),
                                         ((3, 4), 2, False), ((4, 4), 2, True)])
def test_batched_restarts_equal_single_restarts(phase_evaluations, dims, k, kpos):
    """Restarts advance together but independently: uncapped, the best of
    restarts=6 at seed s is the best of six restarts=1 calls at seeds
    s..s+5 (to the rounding of the batched gemm) and the iteration total is
    their sum, also where the restarts pass through the quasi-Newton phase
    together, some accepting a step while others backtrack."""
    if kpos:
        forms = [choi(random_k_positive_map(4, 2, 1)).mat]
    else:
        rng = np.random.default_rng(10 * dims[0] + dims[1] + 100 * k)
        forms = [rand_herm(rng, dims[0] * dims[1]) for _ in range(4)]
    batched_phase = 0
    for seed, c in enumerate(forms):
        singles = [seesaw_minimize(c, dims, k, restarts=1, seed=seed + r) for r in range(6)]
        phase_evaluations[0] = 0
        q, m, iters = seesaw_minimize(c, dims, k, restarts=6, seed=seed)
        batched_phase += phase_evaluations[0]
        assert abs(q - min(out[0] for out in singles)) <= 1e-12 * np.abs(c).max()
        assert iters == sum(out[2] for out in singles)
        _assert_witness(c, dims, k, q, m)
    assert batched_phase > 0


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts calls of np.tensordot and np.linalg.eigh."""
    calls = {"tensordot": 0, "eigh": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, run)

    counting(np, "tensordot")
    counting(np.linalg, "eigh")
    return calls


@pytest.fixture
def kernel_steps(monkeypatch):
    """The steps of a one-restart search, one letter each: S a full sweep, H
    a sweep that stopped after its left half-step, E a quasi-Newton
    evaluation. Logs the kernel's one half-step helper (both half-steps of a
    sweep) and its evaluation helper; an evaluation's own half-step is
    logged before it."""
    log = []

    def logging(name, letter):
        fn = getattr(_seesaw, name)

        def run(*args):
            out = fn(*args)
            log.append(letter)
            return out

        monkeypatch.setattr(_seesaw, name, run)

    logging("_bottom", "L")
    logging("_reduced", "F")

    def steps():
        out = "".join(log).replace("LF", "E").replace("LL", "S")
        log.clear()
        return out[:-1] + "H" if out.endswith("L") else out

    return steps


def _eigh_inputs():
    rng = np.random.default_rng(12)
    inputs = [(choi(phi).mat, (3, 3), k) for phi in _kpos_family()[:6] for k in (1, 2)]
    inputs += [(rand_herm(rng, 12), (3, 4), k) for k in (1, 2, 3)]
    inputs += [(rand_herm(rng, 16), (4, 4), k) for k in (1, 2, 3)]
    inputs += [(choi(random_k_positive_map(4, 2, 1)).mat, (4, 4), 2),
               (np.zeros((9, 9)), (3, 3), 2)]
    return inputs


def test_kernel_eigh_count_per_iteration(linalg_calls, phase_evaluations, kernel_steps):
    """At one restart an iteration costs two eigh calls and no tensordot (a
    sweep's two half-steps, or a quasi-Newton evaluation's chart
    normalization and effective matrix), except a sweep that stops after its
    left half-step, which costs one. Holds on seeded random forms and on
    k-positive maps whose searches enter the phase; searches end both ways."""
    endings = set()
    for c, dims, k in _eigh_inputs():
        linalg_calls["eigh"] = 0
        _, _, iters = seesaw_minimize(c, dims, k, restarts=1, seed=3)
        steps = kernel_steps()
        assert len(steps) == iters
        assert linalg_calls["eigh"] == 2 * iters - steps.endswith("H")
        endings.add(steps[-1])
    assert linalg_calls["tensordot"] == 0
    assert phase_evaluations[0] > 0
    assert endings == {"S", "H"}


def test_no_half_step_stop_right_after_the_phase(kernel_steps):
    """The first sweep after a quasi-Newton phase starts at the phase's own
    minimum over its frame, so its left half-step gains nothing; it always
    takes its right half-step, which can leave a saddle of the reduced
    objective. Only a later sweep may stop after its left half-step."""
    left_phase = 0
    for c, dims, k in _eigh_inputs():
        for seed in (3, 4):
            seesaw_minimize(c, dims, k, restarts=1, seed=seed)
            steps = kernel_steps()
            assert "EH" not in steps
            assert set(steps[:-1]) <= {"S", "E"}
            left_phase += "ES" in steps
    assert left_phase


@pytest.fixture
def eigh_matrices(monkeypatch):
    """Counts the matrices passed to np.linalg.eigh, each of a stack too."""
    count = [0]
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        count[0] += a.shape[0] if a.ndim == 3 else 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return count


@pytest.mark.parametrize("c,dims,k,unique", list(_off_phase_inputs()))
def test_off_phase_restarts_stop_on_a_half_step(eigh_matrices, phase_evaluations,
                                                c, dims, k, unique):
    """Where no restart enters the quasi-Newton phase, every restart stops
    after the left half-step of the sweep at which the loop's full-sweep
    test stops it: the iteration count is still the loop's sweep count, and
    the stacked eigh calls solve 2 effective matrices per sweep, less one
    per restart."""
    _, _, sweeps = seesaw_minimize(c, dims, k, restarts=6, seed=3)
    matrices = eigh_matrices[0]
    assert phase_evaluations[0] == 0
    assert sweeps == _oracle(c, dims, k, 6, 3)[2]
    assert matrices == 2 * sweeps - 6


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
    _EPS_CONV * max|C|: scaling C up or down leaves the iteration count and
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


def test_top_of_the_float_range():
    """max|C| >= 2^1023 has no power-of-two scale 2^1024; the search still
    runs on C / 2^1024 and returns a minimum that is a double, and just below
    2^1023 the value is the unit-scale value times the scale, bit for bit."""
    c = np.diag([1e308, -1e308, 1.0, 1.0]).astype(complex)
    q, m, _ = seesaw_minimize(c, (2, 2), 1)
    assert q == -1e308
    assert abs(abs(m[0, 1]) - 1.0) <= 1e-12
    c = choi(random_k_positive_map(4, 2, 1)).mat
    top = float(np.abs(c).max())
    e = 1023 - math.frexp(top)[1]
    q1, m1, iters1 = seesaw_minimize(c, (4, 4), 2, restarts=4)
    q, m, iters = seesaw_minimize(c * 2.0 ** e, (4, 4), 2, restarts=4)
    assert np.abs(c * 2.0 ** e).max() < 2.0 ** 1023
    assert (q, iters) == (q1 * 2.0 ** e, iters1)
    assert np.array_equal(m, m1)
    q, m, iters = seesaw_minimize(c * 2.0 ** e * 2.0, (4, 4), 2, restarts=4)
    assert np.abs(c * 2.0 ** e * 2.0).max() >= 2.0 ** 1023
    assert (q, iters) == (q1 * 2.0 ** e * 2.0, iters1)
    assert np.array_equal(m, m1)


def test_search_that_never_runs_is_rejected():
    """Both at the raw entry point and in SeesawOpts, before any input is
    seen."""
    c = choi(reduction_family(3, 0.7)).mat
    with pytest.raises(BadParam):
        seesaw_minimize(c, (3, 3), 2, restarts=0)
    for bad in ({"restarts": 0}, {"restarts": -3}):
        with pytest.raises(BadParam):
            SeesawOpts(**bad)


@pytest.mark.parametrize("seed", [-1, np.int64(-7)])
def test_negative_seed_is_rejected(seed):
    """numpy's generators take no negative seed: SeesawOpts and
    seesaw_minimize refuse one with BadParam before a search runs, and
    seed 0 is accepted."""
    with pytest.raises(BadParam, match="seed >= 0"):
        SeesawOpts(seed=seed)
    with pytest.raises(BadParam, match="seed >= 0"):
        seesaw_minimize(np.diag([1.0, -1.0, 1.0, 1.0]), (2, 2), 1, seed=seed, restarts=1)
    assert SeesawOpts(seed=0).seed == 0
    assert seesaw_minimize(np.diag([1.0, -1.0, 1.0, 1.0]), (2, 2), 1, seed=0,
                           restarts=1)[0] < 0.0


@pytest.mark.parametrize("bad", [{"restarts": 2.5}, {"restarts": True}, {"seed": 1.5}])
def test_search_options_have_one_type_rule(bad):
    """SeesawOpts and seesaw_minimize share one check: the restart count and
    the seed are integers (not bool, not a float), or BadParam is raised
    before numpy sees them."""
    with pytest.raises(BadParam):
        SeesawOpts(**bad)
    with pytest.raises(BadParam):
        seesaw_minimize(np.eye(4), (2, 2), 1, **bad)


@pytest.mark.parametrize("c,dims,k,error", [
    (np.eye(9), (3, 3), 0, BadK),
    (np.eye(9), (3, 3), 4, BadK),
    (np.eye(9), (3, 3), -1, BadK),
    (np.eye(9), (3, 3), 1.5, BadK),
    (np.eye(9), (3, 3), True, BadK),
    (np.eye(10), (2, 5), 3, BadK),
    (np.eye(9), (3, 4), 1, DimMismatch),
    (np.eye(9), (3.0, 3.0), 1, DimMismatch),
    (np.eye(9)[:, :8], (3, 3), 1, DimMismatch),
    (np.eye(9), (9, 1), 2, BadK),
], ids=["k0", "k-above-min", "k-negative", "k-float", "k-bool", "k-above-rectangular",
        "dims-size", "dims-float", "c-not-square", "k-above-one"])
def test_level_and_dims_are_checked_at_the_entry_point(c, dims, k, error):
    """k must be an integer in 1..min(dims) and dA dB the size of the square
    C, or BadK / DimMismatch is raised before a search runs: k = 0 was a
    numpy warning and an svd that did not converge, k = 4 at dims (3, 3)
    numpy's "negative dimensions"."""
    with pytest.raises(error):
        seesaw_minimize(c, dims, k, restarts=1)


def test_search_options_accept_numpy_integers():
    """numpy integers pass the check and run the search of the equal int;
    eps_neg goes through the margin check, which refuses a bool."""
    with pytest.raises(BadParam):
        SeesawOpts(eps_neg=True)
    c = choi(reduction_family(3, 0.7)).mat
    opts = SeesawOpts(restarts=np.int64(2), seed=np.int64(3))
    assert opts.restarts == 2
    out = seesaw_minimize(c, (3, 3), 1, restarts=np.int64(2), seed=np.int64(3))
    ref = seesaw_minimize(c, (3, 3), 1, restarts=2, seed=3)
    assert out[0] == ref[0] and out[2] == ref[2]
    assert np.array_equal(out[1], ref[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
def test_non_finite_c_is_rejected(bad):
    """A NaN or infinite entry makes every value inf; such a search would run
    each restart to the cap and report (inf, zero matrix) as a result."""
    c = np.eye(4, dtype=complex)
    c[0, 0] = bad
    with pytest.raises(BadParam):
        seesaw_minimize(c, (2, 2), 1, restarts=2)


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
    """Frames come from the factors the kernel holds and from the starts'
    first rows (QR, also on entering and restarting a quasi-Newton chart),
    so neither a call that fills the memo nor a second call with the same
    dims, k, restarts and seed runs an svd, and both return the same result."""
    _seesaw._start_frames.cache_clear()
    c = choi(random_k_positive_map(4, 2, 1)).mat
    first = seesaw_minimize(c, (4, 4), 2, restarts=4, seed=5)
    assert svd_calls[0] == 0
    assert phase_evaluations[0] > 0
    second = seesaw_minimize(c, (4, 4), 2, restarts=4, seed=5)
    assert svd_calls[0] == 0
    assert first[0] == second[0] and first[2] == second[2]
    assert np.array_equal(first[1], second[1])


def test_memoized_starts_are_read_only_random_starts():
    """The memo holds a read-only k-frame of each of random_starts, with
    orthonormal rows spanning the start's row space; random_starts still
    returns a fresh writable array."""
    frames = _seesaw._start_frames(3, 4, 2, 5, 7)
    assert not frames.flags.writeable
    with pytest.raises(ValueError):
        frames[0, 0, 0] = 0.0
    raw = random_starts(3, 4, 2, 5, 7)
    assert raw.flags.writeable
    norms = np.sqrt(np.sum(np.abs(raw.reshape(5, -1)) ** 2, axis=1))[:, None, None]
    starts = raw / norms
    eye = np.eye(2)
    assert np.abs(frames @ frames.conj().swapaxes(1, 2) - eye).max() <= 1e-14
    # each start lies in the row space of its frame
    assert np.abs(starts - starts @ frames.conj().swapaxes(1, 2) @ frames).max() <= 1e-14
    raw[:] = 0.0
    assert _seesaw._start_frames(3, 4, 2, 5, 7) is frames


def test_kernel_from_rank_deficient_starts(monkeypatch, phase_evaluations):
    """At k = 2 from rank-1 starts the first right frame is padded to k rows
    and the left frame comes from qr of a rank-2 factor: on a rotated
    Kronecker form the kernel matches the loop oracle's value and sweep
    count, and every frame it fixes, left (as rows U^T) or right, has
    orthonormal rows."""
    rng = np.random.default_rng(21)
    dims, k = (3, 4), 2
    c = _kron_form(rng, dims)
    a = rng.normal(size=(3, dims[0], 1)) + 1j * rng.normal(size=(3, dims[0], 1))
    b = rng.normal(size=(3, 1, dims[1])) + 1j * rng.normal(size=(3, 1, dims[1]))
    starts = a @ b
    starts /= np.linalg.norm(starts, axis=(1, 2))[:, None, None]
    frames = np.linalg.svd(starts)[2][:, :k, :]
    eye = np.eye(k)
    seen = set()
    bottom = _seesaw._bottom

    def checked(cx, f, n, kk):
        assert np.abs(f @ f.conj().swapaxes(1, 2) - eye).max() <= 1e-12
        seen.add(n)
        return bottom(cx, f, n, kk)

    monkeypatch.setattr(_seesaw, "_bottom", checked)
    eps = 1e-10 * np.abs(c).max()
    q, m, sweeps = _seesaw._seesaw_kernel(c, *dims, k, frames, 500, eps)
    q_ref, _, sweeps_ref = loop_kernel(c, *dims, k, starts, 500, eps)
    assert phase_evaluations[0] == 0
    assert seen == set(dims)  # left half-steps solve for dA, right ones for dB
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
