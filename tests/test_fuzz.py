"""Seeded fuzz suite behavior: green runs, determinism and replayability."""

import numpy as np
import pytest

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
])
def test_runs_that_check_nothing_are_rejected_before_drawing(call, error, monkeypatch):
    """No instance, no level, or a level outside 1..d is refused before any
    random generator is built: a run that checks nothing never passes."""
    drawn = [0]
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        drawn[0] += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    with pytest.raises(error):
        call()
    assert drawn[0] == 0
