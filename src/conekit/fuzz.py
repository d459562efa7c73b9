"""Seeded fuzz suites exercising the duality, composition, bijection and
adjoint identities. Instance i of a run with base seed s uses seed s + i, so
any recorded failure replays with n=1 and that seed."""

from __future__ import annotations

import numpy as np

from .certify import dual_pairing
from .errors import BadFamily, BadK, BadParam
from .linalg import (_check_count, _check_level, _complex_gaussian, _hermitian_part, hs_inner,
                     reshuffle, unreshuffle)
from .maps import (
    _check_dim,
    _random_kraus,
    _reduction_images,
    ad,
    adjoint,
    apply,
    choi,
    compose,
    compose_certified,
    map_from_choi,
    random_cp_map,
    random_hp_map,
    random_k_positive_map,
)

def _sub_seeds(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63 - 1, size=n).tolist()


def _run(suite: str, n: int, seed: int, params: dict, one) -> dict:
    """The summary of instances seed .. seed + n - 1; one(inst_seed) returns
    a failure detail or None. n >= 1 and seed >= 0 follow the integer rule,
    and are kept as Python ints, as every suite keeps its params."""
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    n, seed = int(n), int(seed)
    failures = []
    for i in range(n):
        inst_seed = seed + i
        detail = one(inst_seed)
        if detail is not None:
            failures.append({"index": i, "seed": inst_seed, "detail": detail})
    return {
        "suite": suite,
        "params": params,
        "n": n,
        "passed": n - len(failures),
        "failed": len(failures),
        "failures": failures,
    }


def fuzz_duality(n: int, d: int = 3, ks=None, seed: int = 0) -> dict:
    """Pairing of a random Schmidt-rank-k CP map against a random k-positive
    map is nonnegative (>= -1e-9) at each level k in ks, checked after d: a
    non-empty choice from 1..d (else BadK), by default those below d, <= 2."""
    _check_dim(d)
    ks = tuple(k for k in (1, 2) if k < d) if ks is None else tuple(ks)
    if not ks:
        raise BadK(f"no level to check in 1..{d}")
    for k in ks:
        _check_level(k, d)
    tol = 1e-9

    def one(inst_seed: int):
        s_phi, s_psi = _sub_seeds(inst_seed, 2)
        for k in ks:
            phi = random_cp_map(d, k, 3, s_phi + k)
            psi = random_k_positive_map(d, k, s_psi + k)
            val = dual_pairing(phi, psi)
            if val < -tol:
                return f"pairing {val:.3e} < -{tol} at k={k}"
        return None

    return _run("duality", n, seed, {"d": int(d), "ks": [int(k) for k in ks], "tol": tol}, one)


def fuzz_composition(n: int, d: int = 3, k: int = 2, seed: int = 0) -> dict:
    """compose(psi, ad(a)) with rank(a) <= k and psi k-positive factors into
    rank <= k Kraus terms; the level-k reduction detector never fires on the
    composite's Choi matrix. Residuals count up to 1e-9; d is checked first."""
    _check_dim(d)
    _check_level(k, d)
    tol = 1e-9

    def one(inst_seed: int):
        s_a, s_psi = _sub_seeds(inst_seed, 2)
        a = _random_kraus(d, k, 1, s_a)[0]
        psi = random_k_positive_map(d, k, s_psi)
        ks_set = compose_certified(a, psi, k)
        if ks_set.rank > k:
            return f"factor rank {ks_set.rank} > {k}"
        target = compose(psi, ad(a))
        recon = ks_set.to_map()
        err = float(np.abs(recon.super_mat - target.super_mat).max())
        if err > tol:
            return f"reconstruction error {err:.3e}"
        w = np.linalg.eigvalsh(_reduction_images(reshuffle(target.super_mat, d), d, d, (k,))[0])
        if float(w[0]) < -tol:
            return f"level-{k} detector fired at {w[0]:.3e} on the composite"
        return None

    return _run("composition", n, seed, {"d": int(d), "k": int(k), "tol": tol}, one)


def fuzz_bijection(n: int, dims=(2, 3, 4), seed: int = 0) -> dict:
    """map_from_choi inverts choi within 1e-13, and the reshuffling
    round-trip is exact. dims, checked first, must be a non-empty sequence
    of dimensions (BadParam otherwise)."""
    try:
        dims = tuple(dims)
    except TypeError:
        raise BadParam(f"dims must be a sequence of dimensions, got {dims!r}") from None
    if not dims:
        raise BadParam("dims must name at least one dimension")
    for d in dims:
        _check_dim(d)
    tol = 1e-13

    def one(inst_seed: int):
        d = dims[inst_seed % len(dims)]
        phi = random_hp_map(d, inst_seed)
        back = map_from_choi(choi(phi))
        err = float(np.abs(back.super_mat - phi.super_mat).max())
        if err > tol:
            return f"round-trip error {err:.3e} at d={d}"
        g = _complex_gaussian(np.random.default_rng(inst_seed), (d * d, d * d))
        if not np.array_equal(unreshuffle(reshuffle(g, d), d), g):
            return f"reshuffle round-trip not exact at d={d}"
        return None

    return _run("bijection", n, seed, {"dims": [int(d) for d in dims], "tol": tol}, one)


def fuzz_adjoint(n: int, d: int = 3, seed: int = 0) -> dict:
    """<phi(x), y> = <x, phi^dag(y)> within 1e-10 on random Hermitian pairs;
    d is checked first."""
    _check_dim(d)
    tol = 1e-10

    def one(inst_seed: int):
        phi = random_hp_map(d, inst_seed)
        rng = np.random.default_rng(inst_seed + 1)
        hs = [_hermitian_part(_complex_gaussian(rng, (d, d))) for _ in range(2)]
        x, y = (h / np.linalg.norm(h) for h in hs)
        lhs = hs_inner(apply(phi, x), y)
        rhs = hs_inner(x, apply(adjoint(phi), y))
        if abs(lhs - rhs) > tol:
            return f"pairing mismatch {abs(lhs - rhs):.3e}"
        return None

    return _run("adjoint", n, seed, {"d": int(d), "tol": tol}, one)


# Each suite by name, with where the CLI's --d and --k go among its
# parameters; None for a suite that reads no level.
_SUITES = {
    "duality": (fuzz_duality, lambda d: {"d": d}, lambda k: {"ks": (k,)}),
    "composition": (fuzz_composition, lambda d: {"d": d}, lambda k: {"k": k}),
    "bijection": (fuzz_bijection, lambda d: {"dims": (d,)}, None),
    "adjoint": (fuzz_adjoint, lambda d: {"d": d}, None),
}
SUITES = tuple(_SUITES)


def run_suite(suite: str, n: int, seed: int, d: int | None = None,
              k: int | None = None) -> dict:
    """One suite at the d and k given, its own defaults for the rest. A
    level k given to a suite that reads none (bijection, adjoint) raises
    BadK rather than be ignored."""
    if suite not in _SUITES:
        raise BadFamily(f"unknown fuzz suite {suite!r}; choose from {SUITES}")
    fn, d_args, k_args = _SUITES[suite]
    if k is not None and k_args is None:
        raise BadK(f"the {suite} suite takes no level; got k={k}")
    kwargs = {} if d is None else d_args(d)
    if k is not None:
        kwargs.update(k_args(k))
    return fn(n, seed=seed, **kwargs)
