"""Seeded fuzz suites exercising the duality, composition, bijection and
adjoint identities. Instance i of a run with base seed s uses seed s + i, so
any recorded failure replays with n=1 and that seed."""

from __future__ import annotations

import numpy as np

from .certify import dual_pairing
from .errors import BadFamily, BadK, BadParam
from .linalg import hs_inner, unreshuffle, reshuffle
from .maps import (
    _random_kraus,
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
    reduction_family,
    apply_on_right_factor,
)

SUITES = ("duality", "composition", "bijection", "adjoint")


def _sub_seeds(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**63 - 1, size=n)]


def _check_levels(d: int, ks) -> None:
    if not ks or not all(1 <= k <= d for k in ks):
        raise BadK(f"levels {list(ks)} must be a non-empty choice from 1..{d}")


def _run(suite: str, n: int, seed: int, params: dict, one) -> dict:
    """The summary of instances seed .. seed + n - 1; one(inst_seed) returns
    a failure detail or None. A run of no instance is refused."""
    if n < 1:
        raise BadParam(f"need n >= 1 instances, got {n}")
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


def fuzz_duality(n: int, d: int = 3, ks=(1, 2), seed: int = 0) -> dict:
    """Pairing of a random Schmidt-rank-k CP map against a random k-positive
    map is nonnegative (>= -1e-9) for each level k."""
    _check_levels(d, ks)
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

    return _run("duality", n, seed, {"d": d, "ks": list(ks), "tol": tol}, one)


def fuzz_composition(n: int, d: int = 3, k: int = 2, seed: int = 0) -> dict:
    """compose(psi, ad(a)) with rank(a) <= k and psi k-positive factors into
    rank <= k Kraus terms; the level-k reduction detector never fires on the
    composite's Choi matrix. Residuals count up to 1e-9."""
    _check_levels(d, (k,))
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
        det = reduction_family(d, 1.0 / k)
        comp_choi = choi(target)
        w = np.linalg.eigvalsh(apply_on_right_factor(det, comp_choi).mat)
        if float(w[0]) < -tol:
            return f"level-{k} detector fired at {w[0]:.3e} on the composite"
        return None

    return _run("composition", n, seed, {"d": d, "k": k, "tol": tol}, one)


def fuzz_bijection(n: int, dims=(2, 3, 4), seed: int = 0) -> dict:
    """map_from_choi inverts choi within 1e-13, and the reshuffling
    round-trip is exact."""
    tol = 1e-13

    def one(inst_seed: int):
        d = dims[inst_seed % len(dims)]
        phi = random_hp_map(d, inst_seed)
        back = map_from_choi(choi(phi))
        err = float(np.abs(back.super_mat - phi.super_mat).max())
        if err > tol:
            return f"round-trip error {err:.3e} at d={d}"
        rng = np.random.default_rng(inst_seed)
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        if not np.array_equal(unreshuffle(reshuffle(g, d), d), g):
            return f"reshuffle round-trip not exact at d={d}"
        return None

    return _run("bijection", n, seed, {"dims": list(dims), "tol": tol}, one)


def fuzz_adjoint(n: int, d: int = 3, seed: int = 0) -> dict:
    """<phi(x), y> = <x, phi^dag(y)> within 1e-10 on random Hermitian pairs."""
    tol = 1e-10

    def one(inst_seed: int):
        phi = random_hp_map(d, inst_seed)
        rng = np.random.default_rng(inst_seed + 1)
        mats = []
        for _ in range(2):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = 0.5 * (g + g.conj().T)
            mats.append(h / np.linalg.norm(h))
        x, y = mats
        lhs = hs_inner(apply(phi, x).mat, y)
        rhs = hs_inner(x, apply(adjoint(phi), y).mat)
        if abs(lhs - rhs) > tol:
            return f"pairing mismatch {abs(lhs - rhs):.3e}"
        return None

    return _run("adjoint", n, seed, {"d": d, "tol": tol}, one)


def run_suite(suite: str, n: int, seed: int, d: int | None = None,
              k: int | None = None) -> dict:
    if suite == "duality":
        dd = d if d is not None else 3
        ks = (k,) if k is not None else tuple(range(1, min(dd, 3)))
        return fuzz_duality(n, d=dd, ks=ks, seed=seed)
    if suite == "composition":
        dd = d if d is not None else 3
        return fuzz_composition(n, d=dd, k=k if k is not None else 2, seed=seed)
    if suite == "bijection":
        dims = (d,) if d is not None else (2, 3, 4)
        return fuzz_bijection(n, dims=dims, seed=seed)
    if suite == "adjoint":
        return fuzz_adjoint(n, d=d if d is not None else 3, seed=seed)
    raise BadFamily(f"unknown fuzz suite {suite!r}; choose from {SUITES}")
