"""Seeded fuzz suite behavior: green runs, determinism and replayability."""

import re

import numpy as np
import pytest

from conekit import KrausSet, MapRep, choi, fuzz, random_cp_map, random_hp_map
from conekit.errors import BadFamily, BadK, BadParam
from conekit.fuzz import (
    SUITES,
    fuzz_adjoint,
    fuzz_bijection,
    fuzz_composition,
    fuzz_duality,
    run_suite,
)


def test_all_suites_green_small():
    for suite, n in [("duality", 40), ("composition", 20),
                     ("bijection", 60), ("adjoint", 60)]:
        out = run_suite(suite, n, seed=123)
        assert out["failed"] == 0, out["failures"][:1]
        assert out["passed"] == n
        assert out["suite"] == suite


def test_runs_deterministic():
    a = fuzz_duality(15, seed=9)
    b = fuzz_duality(15, seed=9)
    assert a == b


def test_instance_seeds_are_replayable():
    """Instance i of a run with base seed s is the n=1 run with seed s+i."""
    full = fuzz_bijection(10, seed=100)
    solo = fuzz_bijection(1, seed=107)
    assert full["failed"] == 0 and solo["failed"] == 0
    # same instance: single-run params match the full run's sub-case
    assert solo["params"] == full["params"]


def test_duality_defaults_are_the_cli_levels():
    """fuzz_duality's default levels are those below d, at most 2: the same
    run as the CLI's at every d."""
    for d in (2, 3, 4):
        assert fuzz_duality(3, d=d, seed=5) == run_suite("duality", 3, 5, d=d)
    assert fuzz_duality(2, d=2)["params"]["ks"] == [1]
    assert fuzz_duality(2, d=4)["params"]["ks"] == [1, 2]


def _break_duality(monkeypatch, seed):
    """The pairing of instance seed's level-1 CP map reads -1."""
    s_phi, _ = fuzz._sub_seeds(seed, 2)
    target = random_cp_map(3, 1, 3, s_phi + 1).super_mat
    pairing = fuzz.dual_pairing
    monkeypatch.setattr(fuzz, "dual_pairing", lambda phi, psi: (
        -1.0 if np.array_equal(phi.super_mat, target) else pairing(phi, psi)))
    return re.escape("pairing -1.000e+00 < -1e-09 at k=1")


def _break_composition(monkeypatch, seed):
    """Instance seed's factorization comes back as the rank-3 identity."""
    s_a, _ = fuzz._sub_seeds(seed, 2)
    target = fuzz._random_kraus(3, 2, 1, s_a)[0]
    certified = fuzz.compose_certified
    monkeypatch.setattr(fuzz, "compose_certified", lambda a, psi, k: (
        KrausSet([np.eye(3)]) if np.array_equal(a, target) else certified(a, psi, k)))
    return re.escape("factor rank 3 > 2")


def _break_bijection(monkeypatch, seed):
    """Instance seed's Choi matrix maps back to its map plus 1e-6 times the
    identity superoperator."""
    d = (2, 3, 4)[seed % 3]
    target = choi(random_hp_map(d, seed)).mat
    from_choi = fuzz.map_from_choi

    def broken(c):
        back = from_choi(c)
        if np.array_equal(c.mat, target):
            return MapRep(d, back.super_mat + 1e-6 * np.eye(d * d))
        return back

    monkeypatch.setattr(fuzz, "map_from_choi", broken)
    return re.escape(f"round-trip error 1.000e-06 at d={d}")


def _break_adjoint(monkeypatch, seed):
    """Instance seed's adjoint comes back doubled."""
    target = random_hp_map(3, seed).super_mat
    adjoint = fuzz.adjoint

    def broken(phi):
        dag = adjoint(phi)
        if np.array_equal(phi.super_mat, target):
            return MapRep(3, 2.0 * dag.super_mat)
        return dag

    monkeypatch.setattr(fuzz, "adjoint", broken)
    return r"pairing mismatch \d\.\d{3}e[-+]\d{2}"


@pytest.mark.parametrize("suite, breaks", [
    ("duality", _break_duality), ("composition", _break_composition),
    ("bijection", _break_bijection), ("adjoint", _break_adjoint),
])
def test_a_failed_instance_is_recorded_and_replays(suite, breaks, monkeypatch):
    """With the check of one instance forced to fail, the run records that
    instance alone: its index i, its seed s + i and the check's detail; the
    n = 1 run at seed s + i reproduces the same detail."""
    base, index = 20, 3
    pattern = breaks(monkeypatch, base + index)
    out = run_suite(suite, 5, base)
    assert (out["n"], out["passed"], out["failed"]) == (5, 4, 1)
    [record] = out["failures"]
    assert (record["index"], record["seed"]) == (index, base + index)
    assert re.fullmatch(pattern, record["detail"])
    replay = run_suite(suite, 1, base + index)
    assert replay["failures"] == [{"index": 0, "seed": base + index, "detail": record["detail"]}]


def test_composition_checks_bubble_up_details():
    out = fuzz_composition(5, d=3, k=2, seed=4)
    assert out["failed"] == 0
    assert out["params"] == {"d": 3, "k": 2, "tol": 1e-9}


def test_adjoint_suite_small_dim():
    out = fuzz_adjoint(25, d=2, seed=8)
    assert out["failed"] == 0


def test_run_suite_dispatch_and_overrides():
    out = run_suite("bijection", 6, seed=0, d=3)
    assert out["params"]["dims"] == [3]
    out = run_suite("duality", 4, seed=0, d=3, k=2)
    assert out["params"]["ks"] == [2]
    with pytest.raises(BadFamily):
        run_suite("nope", 3, seed=0)


def test_suite_names_exported():
    assert SUITES == ("duality", "composition", "bijection", "adjoint")


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: fuzz_duality(0), BadParam, id="duality-n0"),
    pytest.param(lambda: fuzz_duality(-3), BadParam, id="duality-n-3"),
    pytest.param(lambda: fuzz_adjoint(0), BadParam, id="adjoint-n0"),
    pytest.param(lambda: fuzz_bijection(-1), BadParam, id="bijection-n-1"),
    pytest.param(lambda: fuzz_composition(0), BadParam, id="composition-n0"),
    pytest.param(lambda: fuzz_duality(5, d=1, ks=()), BadK, id="duality-no-level"),
    pytest.param(lambda: run_suite("duality", 5, seed=0, d=1), BadK, id="run-suite-d1"),
    pytest.param(lambda: fuzz_duality(5, d=3, ks=(1, 4)), BadK, id="duality-k-above-d"),
    pytest.param(lambda: fuzz_duality(5, d=3, ks=(0,)), BadK, id="duality-k0"),
    pytest.param(lambda: fuzz_composition(5, d=3, k=0), BadK, id="composition-k0"),
    pytest.param(lambda: fuzz_composition(5, d=2, k=3), BadK, id="composition-k-above-d"),
    pytest.param(lambda: fuzz_duality(3, d=2.5), BadParam, id="duality-d-float"),
    pytest.param(lambda: fuzz_composition(3, d=2.5, k=2), BadParam, id="composition-d-float"),
    pytest.param(lambda: fuzz_adjoint(1, d=0), BadParam, id="adjoint-d0"),
    pytest.param(lambda: fuzz_bijection(2, dims=()), BadParam, id="bijection-no-dims"),
    pytest.param(lambda: fuzz_bijection(2, dims=5), BadParam, id="bijection-dims-int"),
    pytest.param(lambda: fuzz_bijection(2, dims=(3, 2.5)), BadParam, id="bijection-d-float-second"),
])
def test_runs_that_check_nothing_are_rejected_before_drawing(call, error, monkeypatch):
    """No instance, no level, a level outside 1..d, no dimension or a d that
    is not an integer >= 1 is refused before any random generator is built
    and before any map is drawn (random_hp_map refuses a bad d by itself, so
    it is counted too): a run that checks nothing never passes, and no
    instance at a good d is checked before a bad one is refused."""
    drawn = [0, 0]
    default_rng, random_hp = np.random.default_rng, fuzz.random_hp_map

    def counting(*args, **kwargs):
        drawn[0] += 1
        return default_rng(*args, **kwargs)

    def counting_hp(*args, **kwargs):
        drawn[1] += 1
        return random_hp(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    monkeypatch.setattr(fuzz, "random_hp_map", counting_hp)
    with pytest.raises(error):
        call()
    assert drawn == [0, 0]

