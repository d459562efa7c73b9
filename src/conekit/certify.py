"""Cone membership certification.

Deciding k-block positivity is co-NP-hard in the dimension, so the certifiers
here are one-sided: a ViolationFound carries a re-verifiable witness vector, a
MembershipProven names a constructive proof, and everything else is
Inconclusive with the best value found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ._seesaw import DEFAULT_OPTS, SeesawOpts, seesaw_minimize
from .errors import BadParam, ConekitError, DimMismatch, NotPSD
from .linalg import (
    PSD_TOL,
    RANK_TOL,
    _TINY,
    BipartiteVector,
    MatrixOp,
    _check_count,
    _check_level,
    _dims,
    _hermitian_part,
    _margin,
    _pow2_scaled,
    _pt_array,
    _rank,
    check_hermitian,
    hs_inner,
    partial_transpose,
    schmidt_decompose,
)
from .maps import (
    KrausSet,
    MapRep,
    _fire,
    _reduction_images,
    choi,
)


class Verdict(str, Enum):
    VIOLATION = "ViolationFound"
    MEMBERSHIP = "MembershipProven"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class Certificate:
    verdict: Verdict
    value: float
    witness: BipartiteVector | None = None
    detail: str = ""
    restarts_used: int = 0
    extras: dict | None = None


@dataclass(frozen=True, eq=False)
class ConeReport:
    """`classify`'s certificates for one bipartite operator C with dims
    (dA, dB): both chains and every (k, m) flag run over 1..min(dims). The
    JSON report writes dims as "dims" and keeps "d" = min(dims), the top
    level of both chains (the map's d for a Choi matrix on M_d)."""

    dims: tuple[int, int]
    p: dict
    co_p: dict
    cp: bool
    schmidt_number: tuple[int, int] | None
    km_positive: dict
    km_superpositive: dict
    decomposable: Certificate | None


def _witness_quadratic_form(c: np.ndarray, w: BipartiteVector) -> float:
    val = complex(w.amp.conj() @ (c @ w.amp))
    return float(val.real)


def k_block_positive_certify(c: MatrixOp, k: int,
                             opts: SeesawOpts = DEFAULT_OPTS) -> Certificate:
    """Certify <psi|C|psi> >= 0 over Schmidt rank <= k unit vectors: the one
    decision of a chain level, CP and co-CP (the top levels) included.

    PSD input is a constructive proof for every k ("choi-psd"). Otherwise,
    for k = min(dims) the rank constraint is vacuous and the bottom
    eigenvector is the witness ("min-eigenvector"). Below it any violating
    vector of Schmidt rank <= k refutes the level, minimizer or not, so the
    bottom eigenvector's top k Schmidt terms, normalized, are tried first
    ("min-eigenvector-truncated", exact for the reduction maps, where it
    reads 1 - ck); only when that vector does not violate does the see-saw
    minimizer search for one ("seesaw"). A witness is re-verified against C
    (value and, below min(dims), Schmidt rank) and reported as a violation
    only when its value is below -tol (an overflowing or ill-conditioned
    eigensolve can return a vector that does not violate); else the answer
    is Inconclusive with that value ("min-eigenvector-unverified",
    "seesaw-best"). Every margin is eps_neg * max|C|.

    A violation's value is its witness's attained value: an upper bound on
    the level's minimum, not the minimum. restarts_used counts the see-saw's
    restarts: 0 means no search ran.

    The spectrum is C's own `c.eig`, taken once per MatrixOp, so the levels
    of one C (as `classify` certifies them) share one eigendecomposition.
    C needs its dims.
    """
    da, db = _dims(c)
    kmax = min(da, db)
    _check_level(k, kmax)
    w, v = c.eig
    tol = _margin(c.mat, opts.eps_neg)
    if float(w[0]) >= -tol:
        return Certificate(Verdict.MEMBERSHIP, float(w[0]), detail="choi-psd")
    wit = BipartiteVector(da, db, v[:, 0])
    found, best, restarts = "min-eigenvector", "min-eigenvector-unverified", 0
    if k < kmax:
        # the bottom eigenvector's top k Schmidt terms: a rank <= k witness
        sd = schmidt_decompose(wit)
        coef = sd.coefficients[:k]
        m = (sd.left_vectors[:k].T * coef) @ sd.right_vectors[:k]
        wit = BipartiteVector(da, db, m.reshape(-1) / np.linalg.norm(coef))
        found, best = "min-eigenvector-truncated", "seesaw-best"
    val_check = _witness_quadratic_form(c.mat, wit)
    if k < kmax and val_check >= -tol:
        val, m, _ = seesaw_minimize(c.mat, (da, db), k, restarts=opts.restarts,
                                    seed=opts.seed)
        wit = BipartiteVector(da, db, m.reshape(-1))
        val_check = _witness_quadratic_form(c.mat, wit)
        found, restarts = "seesaw", opts.restarts
        # the see-saw's own value can disagree with its witness; an
        # eigenvector's cannot
        if abs(val_check - val) > _margin(c.mat, 1e-8):
            raise ConekitError("optimizer value disagrees with its own witness")
    if val_check < -tol:
        if k < kmax and schmidt_decompose(wit).rank > k:
            raise ConekitError("witness Schmidt rank exceeds the queried level")
        return Certificate(Verdict.VIOLATION, val_check, witness=wit, detail=found,
                           restarts_used=restarts)
    return Certificate(Verdict.INCONCLUSIVE, val_check, detail=best, restarts_used=restarts)


def is_cp(phi: MapRep) -> Certificate:
    """Complete positivity, the top level d of the positivity chain: the
    level decision of `k_block_positive_certify` on phi's Choi matrix."""
    return k_block_positive_certify(choi(phi), phi.d)


def is_ccp(phi: MapRep) -> Certificate:
    """Complete copositivity, the top level d of the co-chain: the same
    decision on the partial transpose of phi's Choi matrix."""
    return k_block_positive_certify(partial_transpose(choi(phi)), phi.d)


def is_k_positive_certify(phi: MapRep, k: int,
                          opts: SeesawOpts = DEFAULT_OPTS) -> Certificate:
    """k-positivity of phi == k-block positivity of its Choi matrix."""
    return k_block_positive_certify(choi(phi), k, opts)


def dual_pairing(phi: MapRep, psi: MapRep) -> float:
    """Tr(C_phi C_psi). Nonnegative whenever one map is in S_k and the other
    in P_k (the cones are mutually dual under this pairing)."""
    if phi.d != psi.d:
        raise DimMismatch(f"maps act on M_{phi.d} and M_{psi.d}")
    return hs_inner(choi(phi), choi(psi))


def schmidt_number_bounds(c: MatrixOp, *, construction: KrausSet | None = None
                          ) -> tuple[int, int]:
    """(lower, upper) bounds on the Schmidt number of a PSD bipartite matrix
    C with declared dims: NotPSD unless C's spectrum `c.eig` is PSD within
    PSD_TOL * max|C|, then `_schmidt_bounds`.

    A construction must factor C: DimMismatch unless C's dims are (d, d) for
    its operators on C^d, BadParam when its Choi matrix misses C by more than
    PSD_TOL * max|C| (the reconstruction rule of `compose_certified`).
    """
    da, db = _dims(c)
    if construction is not None:
        if (da, db) != (construction.d,) * 2:
            raise DimMismatch(f"C has dims {(da, db)}; its construction acts on M_{construction.d}")
        err = float(np.abs(choi(construction.to_map()).mat - c.mat).max())
        if err > _margin(c.mat, PSD_TOL):
            raise BadParam(f"the Kraus construction misses C by {err:.3e}")
    w = c.eig[0]
    if float(w[0]) < -_margin(c.mat, PSD_TOL):
        raise NotPSD(f"matrix has eigenvalue {w[0]:.3e}; Schmidt number undefined")
    return _schmidt_bounds(c, construction)


def _schmidt_bounds(c: MatrixOp, construction: KrausSet | None) -> tuple[int, int]:
    """The Schmidt-number bounds of a C already proven PSD (by the caller's
    own margin: `classify`'s chains prove it at their top level), with a
    construction that factors C or none.

    Lower bound: 1 + the largest k among the reduction detectors
    R_{1/k}: a -> tr(a) 1 - a/k, k = 1..min(dims)-1, that fire (a k-positive
    map sends Schmidt-number <= k states to PSD, so a negative eigenvalue of
    (1 (x) R_{1/k})(C) = tr_B(C) (x) 1 - C/k proves Schmidt number >= k+1:
    the k-reduction criterion, formed in closed form). A level k >=
    min(dims) cannot fire, as no state has Schmidt number above min(dims),
    so none is applied. `maps._fire`, the rule of `detect_schmidt_number`
    too, decides the stack of images at every scale of C. Upper bound: the
    largest operator rank of the construction, the Schmidt rank of the
    range vector when C has rank one, else min(dims).
    """
    da, db = c.dims
    w, v = c.eig
    lower = 1
    kmax = min(da, db)
    if kmax > 1:
        fired = np.flatnonzero(_fire(_reduction_images(c.mat, da, db, range(1, kmax)))[1])
        if fired.size:  # image i is level k = i + 1, which proves k + 1
            lower = int(fired[-1]) + 2
    if construction is not None:
        upper, source = max(1, min(construction.rank, kmax)), "the Kraus rank"
    elif _rank(np.abs(w), RANK_TOL) == 1:
        upper = schmidt_decompose(BipartiteVector(da, db, v[:, -1])).rank
        source = "the Schmidt rank of C's range vector"
    else:
        upper, source = kmax, "min(dims)"
    if lower > upper:
        raise ConekitError(f"inconsistent bounds: lower {lower} from the level-{lower - 1} "
                           f"reduction detector > upper {upper} from {source}")
    return lower, upper


_FLAGS = {Verdict.VIOLATION: "violated", Verdict.MEMBERSHIP: "proven",
          Verdict.INCONCLUSIVE: "inconclusive"}


def _flag(a: str, b: str) -> str:
    """The two-index cone's flag from the flags of its two conditions."""
    if "violated" in (a, b):
        return "violated"
    if a == b == "proven":
        return "proven"
    return "inconclusive"


def _bound_flag(bounds: tuple[int, int] | None, psd_cert: Certificate, k: int) -> str:
    """Schmidt-number evidence for membership in S_k. Without bounds (C not
    proven PSD) it is the flag of the PSD decision itself."""
    if bounds is None:
        return _FLAGS[psd_cert.verdict]
    lower, upper = bounds
    if lower > k:
        return "violated"
    return "proven" if upper <= k else "inconclusive"


def classify(x: MatrixOp | MapRep | KrausSet, opts: SeesawOpts = DEFAULT_OPTS,
             include_dec: bool = True) -> ConeReport:
    """Certificates for every level of the positivity / copositivity chains
    of a bipartite operator C, Schmidt-number evidence for C when it is PSD,
    and combined flags for the two-index cones, one for each pair (k, m) in
    1..min(dims).

    x is C itself (a MatrixOp with dims, MissingDims otherwise), a MapRep,
    read as its Choi matrix, or a KrausSet, read as the Choi matrix of its
    map: the largest operator rank of a Kraus set then bounds the Schmidt
    number of C from above (the co-chain's matrix, the partial transpose,
    has no Kraus form of its own).

    A violation witness found at level k is inherited upward (it is a valid
    witness at every k' > k), so reports never claim membership above a
    refuted level. A level keeps its own violation unless it is weaker than
    the inherited one by more than eps_neg*max|C|, so ties between levels do
    not turn on last-bit differences at any scale of C. A violation's value
    is its witness's attained value, an upper bound on the level's minimum,
    not the minimum; an inherited certificate keeps its level's own
    restarts_used, and 0 means that level ran no search.
    """
    construction = None
    if isinstance(x, KrausSet):
        construction, x = x, x.to_map()
    c = choi(x) if isinstance(x, MapRep) else x
    dims = _dims(c)
    top = min(dims)

    def chain(target_choi: MatrixOp, kraus: KrausSet | None = None
              ) -> tuple[dict, tuple[int, int] | None]:
        certs: dict[int, Certificate] = {}
        best_viol: Certificate | None = None
        tie = _margin(target_choi.mat, opts.eps_neg)
        for k in range(1, top + 1):
            cert = k_block_positive_certify(target_choi, k, opts)
            if best_viol is not None and (
                    cert.verdict is not Verdict.VIOLATION
                    or cert.value > best_viol.value + tie):
                cert = replace(best_viol, detail=best_viol.detail + "+inherited",
                               restarts_used=cert.restarts_used)
            if cert.verdict is Verdict.VIOLATION:
                if best_viol is None or cert.value < best_viol.value:
                    best_viol = cert
            certs[k] = cert
        # Schmidt bounds stand on this chain's own proof that the matrix is PSD
        psd = certs[top].verdict is Verdict.MEMBERSHIP
        return certs, _schmidt_bounds(target_choi, kraus) if psd else None

    # choi(co(phi)) = PT_B(choi(phi)): the co-chain reads the same matrix
    co_c = partial_transpose(c)
    p, bounds = chain(c, construction)
    co_p, co_bounds = chain(co_c)
    cp = p[top].verdict is Verdict.MEMBERSHIP

    km_positive = {}
    km_superpositive = {}
    for k in range(1, top + 1):
        for m in range(1, top + 1):
            km_positive[(k, m)] = _flag(_FLAGS[p[k].verdict], _FLAGS[co_p[m].verdict])
            km_superpositive[(k, m)] = _flag(_bound_flag(bounds, p[top], k),
                                             _bound_flag(co_bounds, co_p[top], m))

    dec = decomposable_certify(c, opts=opts) if include_dec else None
    return ConeReport(dims=dims, p=p, co_p=co_p, cp=cp, schmidt_number=bounds,
                      km_positive=km_positive, km_superpositive=km_superpositive,
                      decomposable=dec)


# decomposable_certify relaxes each Douglas-Rachford step by _RELAX, and
# tests the gap vector for a PPT witness on every sweep; a candidate PPT
# state is shifted _WITNESS_SHIFT into the interior of both cones before it
# is re-checked.
_RELAX = 1.6
_WITNESS_SHIFT = 1e-9


def _clip_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix, over the last two axes, to the Hermitian matrix
    whose lower triangle m holds: `eigh` reads only that triangle and the
    real part of the diagonal, so m is passed to it as it is."""
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _ppt_witness(gap: np.ndarray, target: np.ndarray, da: int, db: int,
                 margin: float) -> tuple[np.ndarray, float] | None:
    """A PPT state rho with Tr(rho C) < 0 built from the gap vector, or None.

    gap is the search's DR displacement a - x (PSD iterate minus slide
    iterate), which on an infeasible pair tends to the minimal gap vector.

    g = herm(gap)/||.||_F is shifted to W = g + (max(0, -lmin(g), -lmin(PT g))
    + delta)*1 with delta = _WITNESS_SHIFT, so W and PT(W) = PT(g) + shift*1
    have all eigenvalues >= delta in exact arithmetic, and rho = W / Tr W
    (Tr W >= n*delta > 0). rho is then re-checked as given: Tr(rho C) <
    -margin (the caller passes eps_neg*max|C|), and lmin(rho), lmin(PT rho)
    > n*eps. eigh's backward error on a unit-trace PSD matrix is a small
    multiple of n*eps, and the shift keeps both minima at delta/Tr W or
    more, orders of magnitude above it. The rounding error of Tr(rho C) is
    ~n^2*eps*max|C|, far below the value margin at every scale of C, so a
    decomposable C (Tr(rho C) = Tr(rho A) + Tr(PT(rho) B) >= 0) is never
    refuted.

    A screen returns None before any eigensolve, where the re-check would
    fail: Tr(W C) = Tr(g C) + shift*Tr C with shift >= -lmin(g) >= -min
    diag g, so for Tr C >= 0 a witness needs Re Tr(gap C) + max(0, -min Re
    diag gap)*Tr C < 0.
    """
    n = target.shape[0]
    trace_c = target.trace().real
    if trace_c >= 0.0:
        floor = max(0.0, -gap.diagonal().real.min())
        if np.vdot(target, gap).real + floor * trace_c >= 0.0:
            return None
    g = _hermitian_part(gap)
    norm = float(np.linalg.norm(g))
    if not norm > 0.0:
        return None
    g = g / norm
    lam = np.linalg.eigvalsh(np.stack((g, _pt_array(g, da, db))))[:, 0]
    w = g + (max(0.0, -lam[0], -lam[1]) + _WITNESS_SHIFT) * np.eye(n)
    rho = w / np.trace(w).real
    value = float(np.einsum("ij,ji->", rho, target).real)
    if not value < -margin:
        return None
    lam = np.linalg.eigvalsh(np.stack((rho, _pt_array(rho, da, db))))[:, 0]
    if not (lam > n * np.finfo(float).eps).all():
        return None
    return rho, value


def decomposable_certify(c: MatrixOp, opts: SeesawOpts = DEFAULT_OPTS,
                         max_sweeps: int = 2000) -> Certificate:
    """Decide whether C = A + PT(B) with A, B PSD, either way with a proof.

    Douglas-Rachford (DR) runs on the PSD cone and its partial-transpose
    slide {C - PT(B) : B PSD}: a = clip(z), x = the slide's projection of
    2a - z, z += lambda*(x - a) with lambda = _RELAX = 1.6. Relaxed DR with
    lambda in (0, 2) converges whenever plain DR (lambda = 1) does (Eckstein
    & Bertsekas 1992), in fewer sweeps here. DR looks for any point of the
    intersection, not the nearest split, so on inputs that split it stops
    after a few sweeps (finite convergence under Slater's condition is known
    for some set pairs: Bauschke, Dao, Noll & Phan 2016). A sweep makes two
    `eigh` calls: one for a, and one stacked call for the reflected step's
    projection and the residual's B = clip(PT(C - a)). The split is the
    best sweep's own pair (a, B), kept as the loop computed it: no
    projection runs after the loop, and "residual" is
    max|C - A - PT(B)| on the A and B returned.

    - MembershipProven: a split with max-abs residual < eps_neg*max|C|;
      extras hold A and B.
    - ViolationFound (detail "ppt-witness"): decomposable maps are exactly
      those whose Choi matrix pairs nonnegatively with every PPT operator, so
      a PPT state rho with Tr(rho C) < 0 refutes decomposability. On an
      infeasible pair the DR displacement a - x = (z_k - z_{k+1})/lambda
      tends to the minimal displacement vector, which is the gap vector
      between the two sets (Bauschke, Combettes & Luke 2004; for relaxed
      steps Banjac, Goulart, Stellato & Boyd 2019) and such a witness up to
      a shift. On every sweep the gap passes a screen that needs no
      eigensolve (_ppt_witness), and one that passes is shifted
      delta = 1e-9 past both cones' boundaries and scaled to unit trace;
      rho is accepted only if Tr(rho C) < -eps_neg*max|C| and
      lmin(rho), lmin(PT rho) > n*eps, recomputed from rho itself (the
      reasons for these margins are in _ppt_witness). value is Tr(rho C)
      and extras["W"] is rho.
    - Inconclusive: neither within max_sweeps.

    The search runs on C / 2^e with max|C / 2^e| in [1/2, 1), the
    power-of-two rule of `seesaw_minimize`, so C and 2^j C make the same
    sweeps and no sum or squared norm of a sweep over- or underflows; A, B,
    the residual and the value are scaled back. extras always carry "A", "B",
    "residual" (the best split found) and "sweeps". Raises BadParam unless
    max_sweeps is an integer >= 1 (a search that never runs has no split),
    and when a number scaled back is not a double, the rule of `hermitian_eig`.
    """
    _check_count("max_sweeps", max_sweeps, 1)
    da, db = _dims(c)
    check_hermitian(c.mat)
    # max|C| is read once: max|C / 2^e| is its frexp mantissa, floored as
    # every margin is
    target = _hermitian_part(c.mat)
    top = float(np.abs(target).max())
    target, unscale = _pow2_scaled(target, top)
    tol = opts.eps_neg * max(math.frexp(top)[0], _TINY)

    def pt(m: np.ndarray) -> np.ndarray:
        return _pt_array(m, da, db)

    z = target.copy()
    best = None  # (A, B, residual) of the best sweep so far
    sweeps_done = 0
    witness = None
    for sweep in range(max_sweeps):
        a = _clip_psd(z)
        t_a = target - a
        # clip(pt(target - (2a - z))) is the reflected step's projection,
        # clip(pt(target - a)) the residual's B: both are known once a is,
        # so one stacked eigh serves both, and one partial transpose maps
        # both back
        b_pair = _clip_psd(pt(np.array((t_a - a + z, t_a))))
        pt_r, pt_b = pt(b_pair)
        x = target - pt_r
        sweeps_done = sweep + 1
        res = float(np.abs(t_a - pt_b).max())
        if best is None or res < best[2]:
            best = (a, b_pair[1], res)
        if best[2] < tol:
            break
        gap = a - x
        witness = _ppt_witness(gap, target, da, db, tol)
        if witness is not None:
            break
        z -= _RELAX * gap

    a, b, residual = best
    proven = residual < tol
    value = residual if witness is None else witness[1]
    a, b, residual, value = unscale(a), unscale(b), unscale(residual), unscale(value)
    if not (math.isfinite(value) and math.isfinite(residual)
            and np.isfinite(a).all() and np.isfinite(b).all()):
        raise BadParam("the split or its value is not a double (C is beyond the float range)")
    extras = {"A": a, "B": b, "residual": residual, "sweeps": sweeps_done}
    if witness is not None:
        extras["W"] = witness[0]
        return Certificate(Verdict.VIOLATION, value, detail="ppt-witness", extras=extras)
    if proven:
        return Certificate(Verdict.MEMBERSHIP, value, detail="psd+pt-psd-split",
                           extras=extras)
    return Certificate(Verdict.INCONCLUSIVE, value, detail="no-split-found",
                       extras=extras)
