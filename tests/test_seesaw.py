"""Tests for the rank-constrained see-saw minimizer, including parity between
the batched kernel and the scalar loop kept in tests/_seesaw_oracle.py."""

import numpy as np
import pytest
from _seesaw_oracle import _seesaw_kernel as loop_kernel

from conekit import BadParam, choi, max_entangled, reduction_family
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
                       max_iters, 1e-10 * max(1.0, np.abs(c).max()))


_PARITY_CASES = (
    [((3, 3), k, restarts) for k in (1, 2) for restarts in (1, 6)]
    + [((4, 4), k, restarts) for k in (1, 2, 3) for restarts in (1, 6)]
    + [((2, 3), k, restarts) for k in (1, 2) for restarts in (1, 6)]
)


@pytest.mark.parametrize("dims,k,restarts", _PARITY_CASES)
def test_batched_kernel_matches_loop_oracle(dims, k, restarts):
    """Same value, witness and sweep count as the one-restart-at-a-time loop
    on seeded random Hermitian forms (non-degenerate minimisers)."""
    rng = np.random.default_rng(100 * dims[0] + 10 * dims[1] + k)
    for trial in range(2):
        c = _rand_herm(rng, dims[0] * dims[1])
        q, m, sweeps = seesaw_minimize(c, dims, k, restarts=restarts, seed=trial)
        q_ref, m_ref, sweeps_ref = _oracle(c, dims, k, restarts, trial)
        assert abs(q - q_ref) <= 1e-12
        assert sweeps == sweeps_ref
        assert np.abs(m - m_ref).max() <= 1e-10


def test_batched_kernel_matches_loop_oracle_at_iteration_cap():
    """With a small max_iters some restarts stop at the cap while others of
    the same call converge earlier and leave the active set; values,
    witnesses and sweep counts still match the loop."""
    rng = np.random.default_rng(7)
    mixed = 0
    for trial in range(3):
        c = _rand_herm(rng, 9)
        uncapped = [_oracle(c, (3, 3), 1, 1, trial + r)[2] for r in range(6)]
        for max_iters in (5, 20):
            q, m, sweeps = seesaw_minimize(c, (3, 3), 1, restarts=6, seed=trial,
                                           max_iters=max_iters)
            q_ref, m_ref, sweeps_ref = _oracle(c, (3, 3), 1, 6, trial,
                                               max_iters=max_iters)
            assert abs(q - q_ref) <= 1e-12
            assert sweeps == sweeps_ref == sum(min(n, max_iters) for n in uncapped)
            assert np.abs(m - m_ref).max() <= 1e-10
            mixed += min(uncapped) < max_iters < max(uncapped)
    assert mixed


def test_stop_rule_scales_with_c():
    """The stop threshold is eps_conv * max(1, max|C|): scaling C up leaves
    the sweep count and the value relative to the scale unchanged."""
    c = choi(reduction_family(2, 0.7)).mat
    q1, _, sweeps1 = seesaw_minimize(c, (2, 2), 1, restarts=20)
    for s in (1e10, 1e100, 1e300):
        q, _, sweeps = seesaw_minimize(c * s, (2, 2), 1, restarts=20)
        assert sweeps == sweeps1
        assert abs(q / s - q1) <= 1e-12 * abs(q1)


def test_search_that_never_runs_is_rejected():
    c = choi(reduction_family(3, 0.7)).mat
    with pytest.raises(BadParam):
        seesaw_minimize(c, (3, 3), 2, restarts=0)
    with pytest.raises(BadParam):
        seesaw_minimize(c, (3, 3), 2, max_iters=0)


def test_entangled_projector_rank_gap():
    """On P itself the rank-k minimum is 0 while the global minimum stays 0;
    on -P the rank-k minimum is -k/d against the global -1 at rank d."""
    d = 3
    p = max_entangled(d).amp
    c = -np.outer(p, p.conj()) / d
    for k in (1, 2, 3):
        q, _, _ = seesaw_minimize(c, (d, d), k, restarts=8)
        assert abs(q - (-k / d)) <= 1e-8
