"""Seeded fuzz suites exercising the duality, composition, bijection and
adjoint identities. Instance i of a run with base seed s uses seed s + i, so
any recorded failure replays with n=1 and that seed."""

from __future__ import annotations

import numpy as np

from .certify import dual_pairing
from .errors import BadFamily
from .linalg import hs_inner, numerical_rank, unreshuffle, reshuffle
from .maps import (
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
    MatrixOp,
)

SUITES = ("duality", "composition", "bijection", "adjoint")


def _sub_seeds(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**63 - 1, size=n)]


def _run(n: int, seed: int, one):
    failures = []
    for i in range(n):
        inst_seed = seed + i
        detail = one(inst_seed)
        if detail is not None:
            failures.append({"index": i, "seed": inst_seed, "detail": detail})
    return {
        "n": n,
        "passed": n - len(failures),
        "failed": len(failures),
        "failures": failures,
    }


def fuzz_duality(n: int, d: int = 3, ks=(1, 2), seed: int = 0, tol: float = 1e-9) -> dict:
    """Pairing of a random Schmidt-rank-k CP map against a random k-positive
    map is nonnegative for each level k."""

    def one(inst_seed: int):
        s_phi, s_psi = _sub_seeds(inst_seed, 2)
        for k in ks:
            phi = random_cp_map(d, k, 3, s_phi + k)
            psi = random_k_positive_map(d, k, s_psi + k)
            val = dual_pairing(phi, psi)
            if val < -tol:
                return f"pairing {val:.3e} < -{tol} at k={k}"
        return None

    out = _run(n, seed, one)
    out["suite"] = "duality"
    out["params"] = {"d": d, "ks": list(ks), "tol": tol}
    return out


def fuzz_composition(n: int, d: int = 3, k: int = 2, seed: int = 0,
                     tol: float = 1e-9) -> dict:
    """compose(psi, ad(a)) with rank(a) <= k and psi k-positive factors into
    rank <= k Kraus terms; the level-k reduction detector never fires on the
    composite's Choi matrix."""

    def one(inst_seed: int):
        s_a, s_psi = _sub_seeds(inst_seed, 2)
        rng = np.random.default_rng(s_a)
        g1 = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        g2 = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        a = g1 @ g2
        a = a / np.linalg.norm(a)
        psi = random_k_positive_map(d, k, s_psi)
        ks_set = compose_certified(a, psi, k)
        for op in ks_set.operators:
            if numerical_rank(op) > k:
                return f"factor rank {numerical_rank(op)} > {k}"
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

    out = _run(n, seed, one)
    out["suite"] = "composition"
    out["params"] = {"d": d, "k": k, "tol": tol}
    return out


def fuzz_bijection(n: int, dims=(2, 3, 4), seed: int = 0, tol: float = 1e-13) -> dict:
    """map_from_choi inverts choi, and the reshuffling round-trip is exact."""

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

    out = _run(n, seed, one)
    out["suite"] = "bijection"
    out["params"] = {"dims": list(dims), "tol": tol}
    return out


def fuzz_adjoint(n: int, d: int = 3, seed: int = 0, tol: float = 1e-10) -> dict:
    """<phi(x), y> = <x, phi^dag(y)> on random Hermitian pairs."""

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

    out = _run(n, seed, one)
    out["suite"] = "adjoint"
    out["params"] = {"d": d, "tol": tol}
    return out


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
