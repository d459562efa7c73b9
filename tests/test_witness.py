"""Tests for state construction, witness expectations, Schmidt-number
detection and threshold scans."""

import numpy as np
import pytest
from _scan_oracle import scan_rows

from conekit import (
    Detector,
    MatrixOp,
    detect_schmidt_number,
    expectation,
    isotropic_state,
    partial_transpose,
    random_schmidt_bounded_state,
    reduction_family,
    threshold_scan,
    werner_state,
    witness_from_map,
)
from conekit.certify import DEFAULT_OPTS
from conekit.errors import BadFamily, BadK, BadParam, DimMismatch, NotAState
from conekit.linalg import _gaussian_products
from conekit.serialize import scan_rows_to_csv


def test_isotropic_is_a_state_with_fidelity_f():
    from conekit import max_entangled
    for d in (2, 3):
        for f in (0.0, 0.4, 1.0):
            rho = isotropic_state(d, f)
            assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12
            psi = max_entangled(d, normalized=True).amp
            assert abs(psi.conj() @ rho.mat @ psi - f) <= 1e-12


def test_isotropic_rejects_bad_params():
    with pytest.raises(BadParam):
        isotropic_state(3, 1.2)
    with pytest.raises(BadParam):
        isotropic_state(1, 0.5)


def test_werner_partial_transpose_closed_form():
    """Bottom eigenvalue of the partial transpose is (1 - 3p)/4."""
    for p in (0.0, 0.2, 1 / 3, 0.6, 1.0):
        rho = werner_state(p)
        w = np.linalg.eigvalsh(partial_transpose(rho).mat)
        assert abs(w[0] - (1 - 3 * p) / 4) <= 1e-12


def test_werner_boundary_sharp_to_1e9():
    lo = np.linalg.eigvalsh(partial_transpose(werner_state(1 / 3 - 1e-9)).mat)[0]
    hi = np.linalg.eigvalsh(partial_transpose(werner_state(1 / 3 + 1e-9)).mat)[0]
    assert lo > 0 > hi


def test_werner_rejects_bad_params():
    with pytest.raises(BadParam):
        werner_state(1.5)
    with pytest.raises(BadParam):
        werner_state(-0.1)


def test_expectation_reduction_witness_on_isotropic():
    """Tr(W rho_F) = 1 - c d F for the reduction witness."""
    d = 3
    for c, f in [(1.0, 0.5), (0.5, 0.9), (1.0, 0.2)]:
        w = witness_from_map(reduction_family(d, c), 1)
        val = expectation(w, isotropic_state(d, f))
        assert abs(val - (1 - c * d * f)) <= 1e-12


def test_expectation_validates_the_state():
    w = witness_from_map(reduction_family(2, 1.0), 1)
    with pytest.raises(NotAState):
        expectation(w, MatrixOp(np.eye(4), dims=(2, 2)))  # trace 4
    with pytest.raises(NotAState, match="below the positivity floor"):
        expectation(w, MatrixOp(np.diag([1.5, -0.5, 0.0, 0.0]), dims=(2, 2)))
    with pytest.raises(DimMismatch):
        expectation(w, MatrixOp(np.eye(9) / 9, dims=(3, 3)))


def test_witness_nonnegative_on_separable_states():
    w = witness_from_map(reduction_family(3, 1.0), 1)
    for seed in range(500):
        sigma = random_schmidt_bounded_state(3, 1, 3, seed)
        assert expectation(w, sigma) >= -1e-9


def test_witness_from_map_level_gate():
    with pytest.raises(BadK):
        witness_from_map(reduction_family(3, 1.0), 4)


@pytest.mark.parametrize("k", [1.5, True, np.float64(1.0)])
def test_witness_from_map_level_is_an_integer(k):
    """witness_from_map packaged a level 1.5 or True as given."""
    with pytest.raises(BadK):
        witness_from_map(reduction_family(3, 1.0), k)


def test_detect_fires_on_entangled_isotropic():
    det = Detector(reduction_family(3, 0.5), 2, "red-k2")
    res = detect_schmidt_number(isotropic_state(3, 0.9), det)
    assert res.fired
    assert res.implied_lower_bound == 3
    assert res.detector_id == "red-k2"


def test_detect_quiet_on_maximally_mixed():
    det = Detector(reduction_family(3, 0.5), 2, "red-k2")
    res = detect_schmidt_number(MatrixOp(np.eye(9) / 9, dims=(3, 3)), det)
    assert not res.fired
    assert res.implied_lower_bound == 1


def test_detect_sound_on_rank_bounded_states():
    """Level-k detectors stay quiet on states of Schmidt number <= k."""
    for k in (1, 2):
        det = Detector(reduction_family(3, 1.0 / k), k, f"red-k{k}")
        for seed in range(25):
            rho = random_schmidt_bounded_state(3, k, 4, seed)
            assert not detect_schmidt_number(rho, det).fired


def test_detect_isotropic_flip_at_k_over_d():
    d = 3
    for k in (1, 2):
        det = Detector(reduction_family(d, 1.0 / k), k, "")
        below = detect_schmidt_number(isotropic_state(d, k / d - 0.01), det)
        above = detect_schmidt_number(isotropic_state(d, k / d + 0.01), det)
        assert not below.fired
        assert above.fired


def test_random_schmidt_bounded_state_is_valid():
    rho = random_schmidt_bounded_state(3, 2, 5, 0)
    assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12
    with pytest.raises(BadK):
        random_schmidt_bounded_state(3, 0, 2, 0)


@pytest.mark.parametrize("d,k,n_terms,seed", [(2, 1, 1, 0), (3, 2, 4, 9), (4, 3, 3, 21)])
def test_random_schmidt_bounded_state_is_the_one_draw(d, k, n_terms, seed):
    """After its Dirichlet weights, the state's generator feeds one
    _gaussian_products draw; each product, as a unit vector, is a term."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_terms))
    want = np.zeros((d * d, d * d), dtype=complex)
    for weight, g in zip(weights, _gaussian_products(rng, n_terms, d, k, d)):
        v = g.reshape(-1) / np.linalg.norm(g)
        want += weight * np.outer(v, v.conj())
    assert np.array_equal(random_schmidt_bounded_state(d, k, n_terms, seed).mat, want)


# ---------------------------------------------------------------------------
# Threshold scans


def test_scan_isotropic_flips_once_near_k_over_d():
    for d, k in [(2, 1), (3, 1), (3, 2)]:
        grid = np.arange(k / d - 0.05, k / d + 0.05, 0.01)
        rows = threshold_scan("isotropic", d, k, grid)
        flips = [i for i in range(1, len(rows)) if rows[i].fired != rows[i - 1].fired]
        assert len(flips) == 1
        assert abs(rows[flips[0]].param - k / d) <= 0.011


def test_scan_isotropic_rows_are_the_closed_form():
    """The image tr_B(rho_F) (x) 1 - rho_F/k = 1/d - rho_F/k has eigenvalues
    1/d - F/k and 1/d - (1-F)/((d^2-1)k): each row is their minimum within
    1e-15."""
    grid = np.linspace(0.0, 1.0, 41)
    for d in (2, 3, 4, 5):
        for k in range(1, d + 1):
            rows = threshold_scan("isotropic", d, k, grid)
            for row, f in zip(rows, grid):
                closed = min(1 / d - f / k, 1 / d - (1 - f) / ((d * d - 1) * k))
                assert abs(row.min_eig - closed) <= 1e-15, (d, k, f)


def test_scan_werner_flips_at_one_third():
    rows = threshold_scan("werner", 2, 1, np.linspace(0.2, 0.5, 31))
    flips = [i for i in range(1, len(rows)) if rows[i].fired != rows[i - 1].fired]
    assert len(flips) == 1
    assert abs(rows[flips[0]].param - 1 / 3) <= 0.011
    for r in rows:
        assert abs(r.min_eig - (1 - 3 * r.param) / 4) <= 1e-12


def test_scan_reduction_tracks_closed_form():
    rows = threshold_scan("reduction", 3, 2, np.linspace(0.3, 0.7, 41))
    for r in rows:
        assert abs(r.min_eig - (1 - 2 * r.param)) <= 1e-8
    flips = [i for i in range(1, len(rows)) if rows[i].fired != rows[i - 1].fired]
    assert len(flips) == 1
    assert abs(rows[flips[0]].param - 0.5) <= 0.011


def test_scan_reduction_top_level_uses_eigenvalues():
    rows = threshold_scan("reduction", 2, 2, np.linspace(0.3, 0.7, 9))
    for r in rows:
        assert abs(r.min_eig - (1 - 2 * r.param)) <= 1e-12


def test_scan_rejects_unknown_family():
    with pytest.raises(BadFamily):
        threshold_scan("nosuch", 3, 1, [0.1, 0.2])


def test_scan_rejects_bad_level():
    with pytest.raises(BadK):
        threshold_scan("isotropic", 3, 5, [0.1])


@pytest.mark.parametrize("family", ["isotropic", "reduction"])
@pytest.mark.parametrize("k", [1.5, True, np.float64(2.0)])
def test_scan_level_is_an_integer(family, k):
    """A scan's level is an integer: an isotropic scan at k = 1.5 or True ran
    its rows at that level."""
    with pytest.raises(BadK):
        threshold_scan(family, 3, k, [0.5])


def _per_row_reduction_scan(d, k, grid, opts):
    """The scan as one search per row: the minimum of C(c) = 1 - cP over
    Schmidt rank <= k, by the see-saw for k < d and by an eigensolve at
    k = d. Kept as the oracle of the shared search and the closed-form
    rows at c <= 0."""
    from conekit import hermitian_eig, max_entangled_projector
    from conekit._seesaw import seesaw_minimize
    proj = max_entangled_projector(d).mat
    rows = []
    for c in grid:
        cm = np.eye(d * d) - c * proj
        if k == d:
            val = float(hermitian_eig(cm)[0][0])
        else:
            val, _, _ = seesaw_minimize(cm, (d, d), k, restarts=opts.restarts,
                                        seed=opts.seed)
        rows.append((val, val < -opts.eps_neg))
    return rows


@pytest.mark.parametrize("d", [2, 3, 4])
def test_scan_reduction_matches_the_per_row_search(d):
    """The shared search and the closed-form rows at c <= 0 give every row
    the per-row search's value within 1e-14 * max(1, |v|) and the same
    fired flag, on grids with negative values, 0, +-1e-300 and the points
    1e-3 either side of 1/k."""
    for k in range(1, d + 1):
        grid = [-2.0, -0.5, -1e-300, 0.0, 1e-300, 0.25,
                1 / k - 1e-3, 1 / k + 1e-3, 1.0, 3.0]
        rows = threshold_scan("reduction", d, k, grid)
        for row, c, (val, fired) in zip(rows, grid,
                                        _per_row_reduction_scan(d, k, grid, DEFAULT_OPTS)):
            assert row.param == c
            assert abs(row.min_eig - val) <= 1e-14 * max(1.0, abs(val)), (d, k, c)
            assert row.fired == fired, (d, k, c)


@pytest.mark.parametrize("grid, searches", [
    ([0.1, 0.5, 0.9], 1),
    ([-0.4, -0.1], 0),
    ([-0.4, 0.0, 0.4, 0.6], 1),
    ([0.0, -0.0], 0),
    ([], 0),
])
def test_scan_reduction_runs_at_most_one_search(monkeypatch, grid, searches):
    """The see-saw runs once, at the scan's level, when the grid holds a
    c > 0 and k < d, and never at k = d or on a grid with no c > 0: the
    rows at c <= 0 take the smallest overlap from its closed form."""
    import conekit.witness as witness
    calls = []
    real = witness.seesaw_minimize

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(witness, "seesaw_minimize", counted)
    threshold_scan("reduction", 3, 2, grid)
    assert calls == [2] * searches
    threshold_scan("reduction", 3, 3, grid)
    assert calls == [2] * searches


@pytest.mark.parametrize("d", [2, 3, 4])
def test_scan_reduction_rows_at_nonpositive_c_are_exactly_one(d):
    """For c <= 0 the Choi matrix 1 + |c|P is >= 1, with equality on
    |0>|1>, so every row is exactly 1 and not fired, at every level and
    however large |c| is: a searched minimum of P a few ulps off 0 would
    be scaled by |c|."""
    grid = [-1e300, -1e17, -1e16, -1e15, -2.0, -0.0, 0.0]
    for k in range(1, d + 1):
        rows = threshold_scan("reduction", d, k, grid)
        assert [r.param for r in rows] == grid
        assert all(r.min_eig == 1.0 and not r.fired for r in rows), (d, k)


def test_scan_reduction_rows_at_d1_are_one_minus_c():
    """At d = 1, P = [[1]]: every row is 1 - c, on both sides of 0."""
    grid = [-1e300, -1e16, -2.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1e300]
    rows = threshold_scan("reduction", 1, 1, grid)
    assert [r.min_eig for r in rows] == [1.0 - c for c in grid]
    assert [r.fired for r in rows] == [c > 1.0 for c in grid]


@pytest.mark.parametrize("family, d", [("isotropic", 3), ("werner", 2), ("reduction", 3)])
def test_scan_of_an_empty_grid_is_empty(monkeypatch, family, d):
    """An empty grid gives no rows, with no eigensolve and no search."""
    import conekit.witness as witness

    def no_call(*args, **kwargs):
        raise AssertionError("an empty grid ran a search or an eigensolve")

    monkeypatch.setattr(witness, "seesaw_minimize", no_call)
    monkeypatch.setattr(witness, "hermitian_eig", no_call)
    assert threshold_scan(family, d, 1, []) == []


def _parity_grids(flip):
    """Grids of 1, 9 and 41 rows holding 0, 1 and the flip point +- 1e-12
    (kept inside [0, 1])."""
    marks = [0.0, flip - 1e-12, flip, min(flip + 1e-12, 1.0), 1.0]
    return [[flip], marks + list(np.linspace(0.1, 0.9, 4)),
            marks + list(np.linspace(0.0, 1.0, 36))]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_scan_isotropic_rows_match_the_per_row_oracle(d):
    """An isotropic scan decided as one stack writes the CSV bytes of the
    loop that decided each row alone, at every level k = 1..d, on grids of
    1, 9 and 41 rows through F = 0, F = 1 and F = k/d +- 1e-12."""
    for k in range(1, d + 1):
        for grid in _parity_grids(k / d):
            want = scan_rows_to_csv(scan_rows("isotropic", d, k, grid, DEFAULT_OPTS.eps_neg))
            assert scan_rows_to_csv(threshold_scan("isotropic", d, k, grid)) == want, (d, k)


def test_scan_werner_rows_match_the_per_row_oracle():
    """The same for the Werner rows, through p = 0, 1 and 1/3 +- 1e-12, at
    k = 1, the one level of a Werner scan."""
    for grid in _parity_grids(1 / 3):
        want = scan_rows_to_csv(scan_rows("werner", 2, 1, grid, DEFAULT_OPTS.eps_neg))
        assert scan_rows_to_csv(threshold_scan("werner", 2, 1, grid)) == want


@pytest.mark.parametrize("family, d, grid", [
    ("isotropic", 3, [0.2, 1.5, 0.3, -0.1]),
    ("isotropic", 2, [-1e-12]),
    ("werner", 2, [0.2, 0.4, 1.0 + 1e-12, 0.5]),
])
def test_scan_out_of_range_row_raises_what_the_loop_raises(family, d, grid):
    """A parameter outside [0, 1] in the middle of the grid raises the
    BadParam of the loop, naming the first such value."""
    with pytest.raises(BadParam) as want:
        scan_rows(family, d, 1, grid, 1e-6)
    with pytest.raises(BadParam) as got:
        threshold_scan(family, d, 1, grid)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("family, d, k", [("isotropic", 3, 2), ("isotropic", 4, 1), ("werner", 2, 1)])
@pytest.mark.parametrize("rows", [1, 9, 41])
def test_scan_eigenvalue_rows_make_one_eigh_call(monkeypatch, family, d, k, rows):
    """An isotropic or Werner scan makes exactly one numpy eigh call, on the
    stack of all its rows' images, whatever the grid's length."""
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        shapes.append(m.shape)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    out = threshold_scan(family, d, k, np.linspace(0.0, 1.0, rows))
    assert len(out) == rows
    assert shapes == [(rows, d * d, d * d)]


@pytest.mark.parametrize("family, d", [("reduction", 3), ("isotropic", 3), ("werner", 2)])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_scan_rejects_a_non_finite_grid_value(monkeypatch, family, d, bad):
    """A NaN or infinite grid value raises BadParam naming it before any
    row is computed: the sign test of the shared search would have sent a
    NaN row to the value 1."""
    import conekit.witness as witness

    def no_search(*args, **kwargs):
        raise AssertionError("searched before the grid was checked")

    monkeypatch.setattr(witness, "seesaw_minimize", no_search)
    monkeypatch.setattr(witness, "hermitian_eig", no_search)
    with pytest.raises(BadParam, match=repr(bad)):
        threshold_scan(family, d, 1, [0.2, bad])
