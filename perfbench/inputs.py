"""Seeded inputs of the four workloads, built with numpy only.

Nothing here imports conekit: the inputs must not depend on the code under
test, so every commit sees byte-identical files for the same seed. Each case
is written to its own JSON file during set-up; the program under test
receives only those files (an operator file for `classify`, a matrix file for
`decompose`, an argument list for `scan` and `fuzz`).

Wire formats follow the README of conekit:
  matrix  {"dim": n, "dims": [dA, dB] | null, "re": [[..]], "im": [[..]]}
  map     the superoperator as a matrix, plus "repr": "super"
  Kraus   {"kraus": [matrix, ...], "rank_bound": null}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# The CLI `classify` runs with every default except the see-saw restart
# count: at the default of 20, one k-positive interior map at d = 3 takes
# ~10 s, so a run of a few tens of seconds would hold only a handful of them.
# With one start per see-saw call, a run holds a dozen or more of them.
CLASSIFY_RESTARTS = 1


@dataclass(frozen=True)
class Case:
    """One input of a workload: `kind` selects the oracle, `params` carries
    the closed-form facts the oracle needs, `payload` is the file content."""

    id: str
    kind: str
    params: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)


# ---------------------------------------------------------------- formats

def matrix_json(m: np.ndarray, dims=None) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"dim": int(m.shape[0]), "dims": list(dims) if dims else None,
            "re": m.real.tolist(), "im": m.imag.tolist()}


def map_json(s: np.ndarray) -> dict:
    d = int(round(np.sqrt(s.shape[0])))
    return {"repr": "super", **matrix_json(s, (d, d))}


def matrix_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


# ---------------------------------------------------------------- algebra

def gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, n: int) -> np.ndarray:
    g = gaussian(rng, n, n)
    return 0.5 * (g + g.conj().T)


def random_psd(rng, n: int) -> np.ndarray:
    g = gaussian(rng, n, n)
    p = g @ g.conj().T
    return p / np.trace(p).real


def reduction_super(d: int, c: float) -> np.ndarray:
    """x -> tr(x) 1 - c x on row-major vectorizations."""
    v = np.eye(d).reshape(-1)
    return np.outer(v, v) - c * np.eye(d * d)


def kraus_super(ops) -> np.ndarray:
    """x -> sum_a a^dag x a, so vec(a^dag x a) = kron(a^dag, a^T) vec(x)."""
    return sum(np.kron(a.conj().T, a.T) for a in ops)


def partial_transpose(m: np.ndarray, da: int, db: int) -> np.ndarray:
    """Transpose of the second tensor factor."""
    return m.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)


def generalized_choi(a: float, b: float, c: float) -> np.ndarray:
    """Choi matrix sum_ij e_ij (x) Phi(e_ij) of the Cho-Kye-Lee map on M_3,
    Phi[a,b,c](X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33,
                         b x11 + c x22 + a x33) - X."""
    weights = np.array([[a, c, b], [b, a, c], [c, b, a]])  # row i: diag of Phi(e_ii)
    out = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            block = -np.outer(np.eye(3)[i], np.eye(3)[j])
            if i == j:
                block += np.diag(weights[i])
            out[3 * i:3 * i + 3, 3 * j:3 * j + 3] = block
    return out


def product_minimum_2x2(h: np.ndarray) -> float:
    """min <a (x) b| h |a (x) b> over unit a, b in C^2.

    For fixed a the minimum over b is the bottom eigenvalue of the 2x2
    compression h_a; a grid over the Bloch sphere of a finds the basin, and
    alternating exact minimization from the best grid point polishes it.
    """
    h4 = h.reshape(2, 2, 2, 2)
    theta, phi = np.meshgrid(np.linspace(0, np.pi, 61), np.linspace(0, 2 * np.pi, 121),
                             indexing="ij")
    a = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
    ha = np.einsum("...i,ijkl,...k->...jl", a.conj(), h4, a)
    grid_min = np.linalg.eigvalsh(ha)[..., 0]
    best = np.unravel_index(np.argmin(grid_min), grid_min.shape)
    av = a[best]
    q = float(grid_min[best])
    for _ in range(200):
        bv = np.linalg.eigh(np.einsum("i,ijkl,k->jl", av.conj(), h4, av))[1][:, 0]
        w, v = np.linalg.eigh(np.einsum("j,ijkl,l->ik", bv.conj(), h4, bv))
        av = v[:, 0]
        q = min(q, float(w[0]))
    return q


def interleave(groups: list[list[Case]]) -> list[Case]:
    """Spread each group evenly over the cycle, so that any stretch of the
    op sequence holds close to the cycle's mix of cheap and costly cases."""
    slots = []
    for gi, cases in enumerate(groups):
        for j, case in enumerate(cases):
            slots.append(((j + 0.5) / len(cases), gi, case))
    slots.sort(key=lambda s: (s[0], s[1]))
    return [case for _, _, case in slots]


# ---------------------------------------------------------------- workloads

def classify_cases(rng, tiny: bool) -> list[Case]:
    """Main user command, the only one that runs every layer; the see-saw
    dominates and the tail is heavy (k-positive interior maps run every
    restart to the sweep cap, while a violated reduction map stops early).

    - reduction(d, c), d = 3..4, c = 1/k -/+ 0.02 for every k: verdicts and
      values have a closed form (flip at c = 1/k, value 1 - ck);
    - random Hermiticity-preserving maps given as Choi matrices, d = 3..4:
      violations are found quickly, then 2000 decomposability sweeps fail;
    - k-positive interior maps at d = 3, k = 2: a small CP admixture to the
      reduction map at its boundary c = 1/2, so the search finds nothing;
    - random CP maps given as Kraus operators of rank <= 2.

    The median operation falls among the reduction maps at d = 4 and the p80
    tail among the k-positive maps.
    """
    red = []
    for d in (3, 4):
        for k in range(1, d + 1):
            for side, sign in (("below", -1.0), ("above", 1.0)):
                c = 1.0 / k + sign * 0.02
                red.append(Case(f"red-d{d}-k{k}-{side}", "reduction", {"d": d, "c": c},
                                map_json(reduction_super(d, c))))
    kpos = []
    for i in range(1 if tiny else 8):
        lam = float(rng.uniform(0.02, 0.1))
        ops = [gaussian(rng, 3, 3) for _ in range(2)]
        cp_part = kraus_super([a / np.linalg.norm(a) for a in ops])
        s = lam * cp_part + (1.0 - lam) * reduction_super(3, 0.5)
        kpos.append(Case(f"kpos-d3-k2-{i}", "k_positive", {"d": 3, "k": 2}, map_json(s)))
    hp3 = [Case("hp-d3-0", "hp", {"d": 3}, matrix_json(random_hermitian(rng, 9)))]
    hp4 = [Case("hp-d4-0", "hp", {"d": 4}, matrix_json(random_hermitian(rng, 16)))]
    cp = []
    for d, count in ((3, 1 if tiny else 4), (4, 1 if tiny else 2)):
        for i in range(count):
            ops = [gaussian(rng, d, 2) @ gaussian(rng, 2, d) for _ in range(2)]
            ops = [a / np.linalg.norm(a) for a in ops]
            cp.append(Case(f"cp-d{d}-{i}", "cp", {"d": d},
                           {"kraus": [matrix_json(a) for a in ops], "rank_bound": None}))
    if tiny:
        red = [red[2], red[3]]
    return interleave([red, kpos, hp3, hp4, cp])


def scan_cases(rng, tiny: bool) -> list[Case]:
    """Threshold scans straddling the known flips. The reduction rows call
    the see-saw from `witness` directly, bypassing `certify`, so a gain in
    `certify` must not show here while a gain in the see-saw must. The
    isotropic and Werner rows are eigenvalue-only work in `maps`/`linalg`.
    """
    specs = [("reduction:3", 3, 1), ("reduction:3", 3, 2), ("reduction:3", 3, 3),
             ("reduction:4", 4, 1), ("reduction:4", 4, 2), ("reduction:4", 4, 3),
             ("isotropic:3", 3, 1), ("isotropic:3", 3, 2), ("werner", 2, 1)]
    if tiny:
        specs = [specs[1], specs[6], specs[8]]
    cases = []
    for family, d, k in specs:
        name = family.split(":")[0]
        flip = {"reduction": 1.0 / k, "isotropic": k / d, "werner": 1.0 / 3.0}[name]
        # nine rows about 0.01 apart, five below the flip and four above it
        step = 0.01 * float(rng.uniform(0.8, 1.2))
        lo = flip - step * (4.0 + float(rng.uniform(0.25, 0.75)))
        hi = lo + 8 * step
        argv = ["scan", "--family", family, "--k", str(k), "--grid", f"{lo!r}:{hi!r}:9"]
        cases.append(Case(f"scan-{name}-d{d}-k{k}", name,
                          {"d": d, "k": k, "flip": flip, "step": step}, {"argv": argv}))
    return cases


# (suite, instances per invocation, invocations per d): the duality group
# holds the median operation, and one larger composition run per cycle is
# the tail.
FUZZ_MIX = (("bijection", 30, 2), ("adjoint", 30, 2), ("duality", 8, 4),
            ("composition", 8, 3), ("composition", 40, 1))


def fuzz_cases(rng, tiny: bool) -> list[Case]:
    """Identity fuzzing: many tiny MapRep/MatrixOp constructions and
    conversions, no see-saw and no decomposability search. The only workload
    that covers the `fuzz` layer and most of `maps`, and the one that shows
    added per-object cost (validation at construction, telemetry)."""
    groups = []
    for suite, n, count in FUZZ_MIX:
        group = []
        for d in (3, 4):
            for j in range(1 if tiny else count):
                seed = int(rng.integers(0, 2**31 - 1))
                argv = ["fuzz", suite, "--n", str(n), "--d", str(d), "--seed", str(seed)]
                group.append(Case(f"fuzz-{suite}{n}-d{d}-{j}", "fuzz",
                                  {"suite": suite, "n": n}, {"argv": argv}))
        groups.append(group)
    return interleave(groups)


def decompose_cases(rng, tiny: bool) -> list[Case]:
    """`decomposable_certify` alone: the alternating projections, the partial
    transpose and MatrixOp construction do the work, the see-saw none. The
    three groups use that layer three ways:

    - d = 2 block-positive matrices in the style of acceptance criterion 10,
      shifted so the product-state minimum (computed here, not by conekit)
      sits at 0.05; by Stormer-Woronowicz all are decomposable, and the
      search converges slowly (hundreds of sweeps);
    - d = 3 matrices A/2 + PT(B) from random full-rank PSD A and B of unit
      trace: quick convergence (about 60 sweeps);
    - generalized Choi maps Phi[a,b,c] on M_3 around the decomposability
      boundary bc = (3-a)^2/4 at a = 2 (Cho-Kye-Lee 1992). Phi[2,0,1] and
      the other non-decomposable points run the search to its cap and must
      never come back MembershipProven.

    Matrices of the first two groups that are already PSD are redrawn: the
    search settles those in one sweep, and how many a seed drew would move
    the run's cost. The median operation falls among the A/2 + PT(B) cases
    and the p95 tail among the capped Choi maps.
    """
    bp2 = []
    while len(bp2) < (1 if tiny else 8):
        h = random_hermitian(rng, 4)
        h = h / np.abs(h).max()
        c = h + (0.05 - product_minimum_2x2(h)) * np.eye(4)
        if np.linalg.eigvalsh(c)[0] < -0.01:
            bp2.append(Case(f"bp2-{len(bp2)}", "block_positive", {"d": 2}, matrix_json(c, (2, 2))))
    pt3 = []
    while len(pt3) < (1 if tiny else 48):
        c = 0.5 * random_psd(rng, 9) + partial_transpose(random_psd(rng, 9), 3, 3)
        if np.linalg.eigvalsh(c)[0] < -0.01:
            pt3.append(Case(f"pt3-{len(pt3)}", "psd_plus_pt", {"d": 3}, matrix_json(c, (3, 3))))
    choi = [Case("choi-2-0-1", "choi_map", {"a": 2.0, "b": 0.0, "c": 1.0, "decomposable": False},
                 matrix_json(generalized_choi(2.0, 0.0, 1.0), (3, 3)))]
    for i in range(0 if tiny else 5):
        b = float(rng.uniform(0.0, 0.1))
        c = float(rng.uniform(1.0, 1.2))
        choi.append(Case(f"choi-nd-{i}", "choi_map", {"a": 2.0, "b": b, "c": c, "decomposable": False},
                         matrix_json(generalized_choi(2.0, b, c), (3, 3))))
    for i in range(0 if tiny else 6):
        b = float(rng.uniform(0.6, 1.0))
        choi.append(Case(f"choi-dec-{i}", "choi_map", {"a": 2.0, "b": b, "c": b, "decomposable": True},
                         matrix_json(generalized_choi(2.0, b, b), (3, 3))))
    return interleave([pt3, bp2, choi])


GENERATORS = {
    "classify": classify_cases,
    "scan": scan_cases,
    "decompose": decompose_cases,
    "fuzz": fuzz_cases,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    return GENERATORS[workload](rng, tiny)


def write(cases: list[Case], directory: str) -> None:
    """One file per case plus a manifest of ids, kinds and oracle facts."""
    os.makedirs(directory, exist_ok=True)
    for case in cases:
        with open(os.path.join(directory, case.id + ".json"), "w", encoding="utf-8") as fh:
            json.dump(case.payload, fh, sort_keys=True)
    manifest = [{"id": c.id, "kind": c.kind, "params": c.params} for c in cases]
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
