"""Cone membership certification.

Deciding k-block positivity is co-NP-hard in the dimension, so the certifiers
here are one-sided: a ViolationFound carries a re-verifiable witness vector, a
MembershipProven names a constructive proof, and everything else is
Inconclusive with the best value found.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._seesaw import seesaw_minimize
from .errors import BadK, ConekitError, DimMismatch, MissingDims, NotPSD
from .linalg import (
    PSD_TOL,
    RANK_TOL,
    BipartiteVector,
    MatrixOp,
    _check_eps,
    _margin,
    _pt_array,
    _rank,
    check_hermitian,
    hermitian_eig,
    hs_inner,
    partial_transpose,
    schmidt_decompose,
)
from .maps import (
    Detector,
    KrausSet,
    MapRep,
    apply_on_right_factor,
    choi,
    reduction_detectors,
)


class Verdict(str, Enum):
    VIOLATION = "ViolationFound"
    MEMBERSHIP = "MembershipProven"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SeesawOpts:
    restarts: int = 20
    max_iters: int = 500
    eps_conv: float = 1e-10
    eps_neg: float = 1e-9
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("eps_conv", "eps_neg"):
            _check_eps(name, getattr(self, name))


DEFAULT_OPTS = SeesawOpts()


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
    d: int
    p: dict
    co_p: dict
    cp: bool
    schmidt_number: tuple[int, int] | None
    km_positive: dict
    km_superpositive: dict
    decomposable: Certificate | None


def _bipartite_dims(c: MatrixOp) -> tuple[int, int]:
    if c.dims is not None:
        return c.dims
    d = int(round(np.sqrt(c.dim)))
    if d * d != c.dim:
        raise MissingDims("matrix size is not a perfect square and no dims declared")
    return (d, d)


def _witness_quadratic_form(c: np.ndarray, w: BipartiteVector) -> float:
    val = complex(w.amp.conj() @ (c @ w.amp))
    return float(val.real)


def _eigen_cert(c: MatrixOp, eig: tuple[np.ndarray, np.ndarray], tol: float,
                prefix: str = "") -> Certificate:
    """The eigen-decision on C from its eigendecomposition eig: PSD within
    tol is a constructive proof ("choi-psd"); otherwise the bottom
    eigenvector is the witness, reported as a violation only when its
    re-verified value is below -tol (an overflowing or ill-conditioned
    eigensolve can return a vector that does not violate). prefix marks the
    co-chain ("pt-")."""
    w, v = eig
    lam_min = float(w[0])
    if lam_min >= -tol:
        return Certificate(Verdict.MEMBERSHIP, lam_min, detail=prefix + "choi-psd")
    da, db = _bipartite_dims(c)
    wit = BipartiteVector(da, db, v[:, 0])
    val = _witness_quadratic_form(c.mat, wit)
    if val < -tol:
        return Certificate(Verdict.VIOLATION, val, witness=wit,
                           detail=prefix + "min-eigenvector")
    return Certificate(Verdict.INCONCLUSIVE, val,
                       detail=prefix + "min-eigenvector-unverified")


def k_block_positive_certify(c: MatrixOp, k: int, opts: SeesawOpts = DEFAULT_OPTS,
                             eig: tuple[np.ndarray, np.ndarray] | None = None) -> Certificate:
    """Certify <psi|C|psi> >= 0 over Schmidt rank <= k unit vectors.

    PSD input is a constructive proof for every k. For k = min(dims) the
    rank constraint is vacuous and the bottom eigenpair decides. Otherwise
    the see-saw minimizer searches for a violating vector; its witnesses are
    re-verified against C before being reported. Every margin is
    eps_neg * max|C|.

    eig is C's eigendecomposition as `hermitian_eig` returns it, for a
    caller that certifies several levels of one C (as `classify` does);
    without it C is decomposed here.
    """
    da, db = _bipartite_dims(c)
    kmax = min(da, db)
    if not 1 <= k <= kmax:
        raise BadK(f"k={k} outside 1..{kmax}")
    if eig is None:
        eig = hermitian_eig(c)
    tol = _margin(c.mat, opts.eps_neg)
    if k == kmax or float(eig[0][0]) >= -tol:
        return _eigen_cert(c, eig, tol)
    val, m, _ = seesaw_minimize(c.mat, (da, db), k, restarts=opts.restarts,
                                max_iters=opts.max_iters, eps_conv=opts.eps_conv,
                                seed=opts.seed)
    wit = BipartiteVector(da, db, m.reshape(-1))
    val_check = _witness_quadratic_form(c.mat, wit)
    if abs(val_check - val) > _margin(c.mat, 1e-8):
        raise ConekitError("optimizer value disagrees with its own witness")
    if val_check < -tol:
        if schmidt_decompose(wit).rank > k:
            raise ConekitError("witness Schmidt rank exceeds the queried level")
        return Certificate(Verdict.VIOLATION, val_check, witness=wit,
                           detail="seesaw", restarts_used=opts.restarts)
    return Certificate(Verdict.INCONCLUSIVE, val_check, detail="seesaw-best",
                       restarts_used=opts.restarts)


def is_cp(phi: MapRep) -> Certificate:
    """Complete positivity via the bottom Choi eigenpair, with margin
    PSD_TOL * max|C|."""
    c = choi(phi)
    return _eigen_cert(c, hermitian_eig(c), _margin(c.mat, PSD_TOL))


def is_ccp(phi: MapRep) -> Certificate:
    """Complete copositivity: the partially transposed Choi matrix is tested."""
    c = partial_transpose(choi(phi))
    return _eigen_cert(c, hermitian_eig(c), _margin(c.mat, PSD_TOL), prefix="pt-")


def is_k_positive_certify(phi: MapRep, k: int,
                          opts: SeesawOpts = DEFAULT_OPTS) -> Certificate:
    """k-positivity of phi == k-block positivity of its Choi matrix."""
    return k_block_positive_certify(choi(phi), k, opts)


def dual_pairing(phi: MapRep, psi: MapRep) -> float:
    """Tr(C_phi C_psi). Nonnegative whenever one map is in S_k and the other
    in P_k (the cones are mutually dual under this pairing)."""
    if phi.d != psi.d:
        raise DimMismatch(f"maps act on M_{phi.d} and M_{psi.d}")
    return hs_inner(choi(phi).mat, choi(psi).mat)


def schmidt_number_bounds(c: MatrixOp, detectors: list[Detector] | None = None,
                          construction: KrausSet | None = None) -> tuple[int, int]:
    """(lower, upper) bounds on the Schmidt number of a PSD bipartite matrix.

    Lower bound: 1 + the largest k among detectors that fire (a k-positive
    map sends Schmidt-number <= k states to PSD, so a negative eigenvalue of
    (1 (x) psi)(C) proves Schmidt number >= k+1). Upper bound: the largest
    operator rank when a Kraus construction is supplied, the Schmidt rank of
    the range vector when C has rank one, else min(dims). C counts as PSD,
    and a detector as fired, against the margin PSD_TOL * max|M| of the
    matrix M tested, so the bounds are the same at every scale of C.
    """
    eig = hermitian_eig(c)
    if float(eig[0][0]) < -_margin(c.mat, PSD_TOL):
        raise NotPSD(f"matrix has eigenvalue {eig[0][0]:.3e}; Schmidt number undefined")
    return _schmidt_bounds(c, eig, detectors, construction)


def _schmidt_bounds(c: MatrixOp, eig: tuple[np.ndarray, np.ndarray],
                    detectors: list[Detector] | None = None,
                    construction: KrausSet | None = None) -> tuple[int, int]:
    """schmidt_number_bounds of a C already known PSD, from its eig."""
    da, db = _bipartite_dims(c)
    w, v = eig
    if detectors is None:
        detectors = reduction_detectors(db)
    cm = MatrixOp(c.mat, dims=(da, db))
    lower = 1
    for det in detectors:
        moved = apply_on_right_factor(det.map, cm)
        w_det, _ = hermitian_eig(moved)
        if float(w_det[0]) < -_margin(moved.mat, PSD_TOL):
            lower = max(lower, det.k_level + 1)
    kmax = min(da, db)
    if construction is not None:
        upper = max(1, min(construction.rank, kmax))
    elif _rank(np.abs(w), RANK_TOL) == 1:
        upper = schmidt_decompose(BipartiteVector(da, db, v[:, -1])).rank
    else:
        upper = kmax
    if lower > upper:
        raise ConekitError(
            f"inconsistent bounds lower={lower} > upper={upper}; a detector's k tag is wrong")
    return lower, upper


def _flag(*certs) -> str:
    if any(cc.verdict is Verdict.VIOLATION for cc in certs):
        return "violated"
    if all(cc.verdict is Verdict.MEMBERSHIP for cc in certs):
        return "proven"
    return "inconclusive"


def _bound_flag(bounds: tuple[int, int] | None, psd_cert: Certificate, k: int) -> Certificate:
    """Schmidt-number evidence for membership in S_k, shaped as a certificate
    so it can feed _flag."""
    if psd_cert.verdict is Verdict.VIOLATION:
        return Certificate(Verdict.VIOLATION, psd_cert.value, detail="not-cp")
    if bounds is None:
        return Certificate(Verdict.INCONCLUSIVE, 0.0, detail="no-bounds")
    lower, upper = bounds
    if lower > k:
        return Certificate(Verdict.VIOLATION, float(k - lower), detail="detector-fired")
    if upper <= k:
        return Certificate(Verdict.MEMBERSHIP, 0.0, detail="rank-bound")
    return Certificate(Verdict.INCONCLUSIVE, 0.0, detail="bounds-straddle")


def classify(phi: MapRep, opts: SeesawOpts = DEFAULT_OPTS,
             km_pairs: list[tuple[int, int]] | None = None,
             include_dec: bool = True) -> ConeReport:
    """Certificates for every level of the positivity / copositivity chains,
    Schmidt-number evidence for the Choi matrix when it is PSD, and combined
    flags for the two-index cones.

    A violation witness found at level k is inherited upward (it is a valid
    witness at every k' > k), so reports never claim membership above a
    refuted level. A level keeps its own violation unless it is weaker than
    the inherited one by more than eps_neg*max|C|, so ties between levels do
    not turn on last-bit differences at any scale of C.
    """
    d = phi.d
    if km_pairs is None:
        km_pairs = [(k, m) for k in range(1, d + 1) for m in range(1, d + 1)]

    def chain(target_choi: MatrixOp) -> tuple[dict, tuple[int, int] | None]:
        certs: dict[int, Certificate] = {}
        best_viol: Certificate | None = None
        eig = hermitian_eig(target_choi)
        tie = _margin(target_choi.mat, opts.eps_neg)
        for k in range(1, d + 1):
            cert = k_block_positive_certify(target_choi, k, opts, eig)
            if best_viol is not None and (
                    cert.verdict is not Verdict.VIOLATION
                    or cert.value > best_viol.value + tie):
                inherited = Certificate(Verdict.VIOLATION, best_viol.value,
                                        witness=best_viol.witness,
                                        detail=best_viol.detail + "+inherited",
                                        restarts_used=cert.restarts_used)
                cert = inherited
            if cert.verdict is Verdict.VIOLATION:
                if best_viol is None or cert.value < best_viol.value:
                    best_viol = cert
            certs[k] = cert
        # Schmidt bounds stand on this chain's own proof that the matrix is PSD
        psd = certs[d].verdict is Verdict.MEMBERSHIP
        return certs, _schmidt_bounds(target_choi, eig) if psd else None

    # choi(co(phi)) = PT_B(choi(phi)): the co-chain reads the same Choi matrix
    c = choi(phi)
    co_c = partial_transpose(c)
    p, bounds = chain(c)
    co_p, co_bounds = chain(co_c)
    cp = p[d].verdict is Verdict.MEMBERSHIP

    km_positive = {}
    km_superpositive = {}
    for k, m in km_pairs:
        km_positive[(k, m)] = _flag(p[k], co_p[m])
        km_superpositive[(k, m)] = _flag(_bound_flag(bounds, p[d], k),
                                         _bound_flag(co_bounds, co_p[d], m))

    dec = decomposable_certify(c, opts=opts) if include_dec else None
    return ConeReport(d=d, p=p, co_p=co_p, cp=cp, schmidt_number=bounds,
                      km_positive=km_positive, km_superpositive=km_superpositive,
                      decomposable=dec)


# Dual early exit of decomposable_certify: the gap vector is tested every
# _GAP_EVERY sweeps, and a candidate PPT state is shifted _WITNESS_SHIFT into
# the interior of both cones before it is re-checked.
_GAP_EVERY = 10
_WITNESS_SHIFT = 1e-9


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _clip_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to the Hermitian part, over the last two axes."""
    w, v = np.linalg.eigh(_herm(m))
    w = np.clip(w, 0.0, None)
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
    """
    n = target.shape[0]
    g = _herm(gap)
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
    2a - z, z += x - a. DR looks for any point of the intersection, not the
    nearest split, so on inputs that split it stops after a few sweeps
    (finite convergence under Slater's condition is known for some set
    pairs: Bauschke, Dao, Noll & Phan 2016). Each sweep stacks the reflected
    projection and the residual's projection into one `eigh` call; the split
    is A = a and B = clip(PT(C - a)).

    - MembershipProven: a split with max-abs residual < eps_neg*max|C|;
      extras hold the re-verified A and B.
    - ViolationFound (detail "ppt-witness"): decomposable maps are exactly
      those whose Choi matrix pairs nonnegatively with every PPT operator, so
      a PPT state rho with Tr(rho C) < 0 refutes decomposability. On an
      infeasible pair the DR displacement a - x = z_k - z_{k+1} tends to the
      minimal displacement vector, which is the gap vector between the two
      sets (Bauschke, Combettes & Luke 2004) and such a witness up to a
      shift. Every _GAP_EVERY = 10 sweeps the gap is shifted
      delta = 1e-9 past both cones' boundaries and scaled to unit trace;
      rho is accepted only if Tr(rho C) < -eps_neg*max|C| and
      lmin(rho), lmin(PT rho) > n*eps, recomputed from rho itself (the
      reasons for these margins are in _ppt_witness). value is Tr(rho C)
      and extras["W"] is rho.
    - Inconclusive: neither within max_sweeps.

    extras always carry "A", "B", "residual" (the best split found) and
    "sweeps".
    """
    da, db = c.require_dims()
    check_hermitian(c.mat)
    target = 0.5 * (c.mat + c.mat.conj().T)
    tol = _margin(target, opts.eps_neg)

    def pt(m: np.ndarray) -> np.ndarray:
        return _pt_array(m, da, db)

    z = target.copy()
    a_best = None
    res_best = np.inf
    sweeps_done = 0
    witness = None
    for sweep in range(max_sweeps):
        a = _clip_psd(z)
        # clip(pt(target - (2a - z))) is the reflected step's projection,
        # clip(pt(target - a)) the residual's B: both are known once a is,
        # so one stacked eigh serves both
        b_r, b = _clip_psd(pt(np.stack((target - (2.0 * a - z), target - a))))
        x = target - pt(b_r)
        sweeps_done = sweep + 1
        res = float(np.abs(target - a - pt(b)).max())
        if res < res_best:
            res_best = res
            a_best = a
        if res_best < tol:
            break
        if sweeps_done % _GAP_EVERY == 0:
            witness = _ppt_witness(a - x, target, da, db, tol)
            if witness is not None:
                break
        z += x - a

    a = _clip_psd(a_best)
    b = _clip_psd(pt(target - a))
    residual = float(np.abs(target - a - pt(b)).max())
    extras = {"A": a, "B": b, "residual": residual, "sweeps": sweeps_done}
    if witness is not None:
        rho, value = witness
        extras["W"] = rho
        return Certificate(Verdict.VIOLATION, value, detail="ppt-witness", extras=extras)
    if residual < tol:
        return Certificate(Verdict.MEMBERSHIP, residual, detail="psd+pt-psd-split",
                           extras=extras)
    return Certificate(Verdict.INCONCLUSIVE, residual, detail="no-split-found",
                       extras=extras)
