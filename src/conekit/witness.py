"""Detection on states: witnesses (maps.Witness, a k-positive map's Choi
matrix with the proof of its level) detect by `schmidt_number_bounds`' firing
rule; STATE_TOL only gates a state. States and threshold scans of families."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seesaw import DEFAULT_OPTS, SeesawOpts, seesaw_minimize
from .errors import BadFamily, BadParam, NotAState
from .linalg import (
    BipartiteVector,
    MatrixOp,
    _check_count,
    _check_level,
    _dims,
    _gaussian_products,
    _matrix,
    _pt_array,
    hermitian_eig,
    hs_inner,
)
from .maps import (
    MapRep,
    Witness,
    _check_dim,
    _fire,
    _reduction_images,
    apply_on_right_factor,
    choi,
    map_from_choi,
    max_entangled_projector,
)

STATE_TOL = 1e-9


@dataclass(frozen=True)
class DetectionResult:
    min_eigenvalue: float
    fired: bool
    vector: BipartiteVector | None
    implied_lower_bound: int


@dataclass(frozen=True)
class ScanPoint:
    param: float
    min_eig: float
    fired: bool


def _validate_state(rho: MatrixOp | np.ndarray) -> None:
    """NotAState unless Tr rho = 1 and lambda_min >= -STATE_TOL; no clipping."""
    m = _matrix(rho)
    w, _ = hermitian_eig(m)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > STATE_TOL:
        raise NotAState(f"trace {tr:.12g} is not 1 within {STATE_TOL}")
    if float(w[0]) < -STATE_TOL:
        raise NotAState(f"eigenvalue {w[0]:.3e} below the positivity floor")


def expectation(w: Witness, rho: MatrixOp | np.ndarray) -> float:
    """Tr(W rho) for a valid state rho, raw or not. Nonnegative on every state
    of Schmidt number <= k, since W's level k is proven."""
    _validate_state(rho)
    return hs_inner(w.operator, rho)


def detect_schmidt_number(rho: MatrixOp, w: Witness) -> DetectionResult:
    """Apply 1 (x) R to the state, R the map whose Choi matrix is W, and
    decide the image by `maps._fire`, the rule of `schmidt_number_bounds`.
    A firing proves Schmidt number > W's level; its evidence `vector` is the
    image's bottom eigenvector (None when quiet). A state without bipartite
    dims, a raw matrix included, raises MissingDims."""
    da, db = _dims(rho)
    _validate_state(rho)
    image = apply_on_right_factor(map_from_choi(w.operator), rho).mat
    (low,), (fired,), (v,) = _fire(image[None])
    vector = BipartiteVector(da, db, v) if fired else None
    return DetectionResult(float(low), bool(fired), vector, w.k_level + 1 if fired else 1)


def _isotropic_mats(d: int, fs) -> np.ndarray:
    """The isotropic states at the fidelities fs, as one (len(fs), d^2, d^2)
    stack, checked in order: d first, then each F."""
    _check_count("d", d, 2)
    for f in fs:
        if not 0.0 <= f <= 1.0:
            raise BadParam(f"fidelity must lie in [0, 1], got {f}")
    f = np.asarray(fs, dtype=float)[:, None, None]
    p_plus = max_entangled_projector(d).mat / d
    eye = np.eye(d * d, dtype=np.complex128)
    return f * p_plus + (1.0 - f) * (eye - p_plus) / (d * d - 1)


def isotropic_state(d: int, f: float) -> MatrixOp:
    """F-weighted mix of the maximally entangled projector and its complement:
    rho = F P+ + (1-F)(1 - P+)/(d^2 - 1), P+ normalized."""
    return MatrixOp(_isotropic_mats(d, (f,))[0], dims=(d, d))


def _werner_mats(ps) -> np.ndarray:
    """The two-qubit Werner states at the weights ps, as one (len(ps), 4, 4)
    stack, each weight checked in order."""
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise BadParam(f"mixing weight must lie in [0, 1], got {p}")
    p = np.asarray(ps, dtype=float)[:, None, None]
    singlet = np.zeros(4, dtype=np.complex128)
    singlet[1] = 1.0 / np.sqrt(2.0)
    singlet[2] = -1.0 / np.sqrt(2.0)
    return p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0


def werner_state(p: float) -> MatrixOp:
    """rho = p |psi-><psi-| + (1-p) 1/4 on two qubits. PPT exactly when
    p <= 1/3 (the partial transpose's bottom eigenvalue is (1-3p)/4)."""
    return MatrixOp(_werner_mats((p,))[0], dims=(2, 2))


def witness_from_map(phi: MapRep, k_level: int) -> Witness:
    """Witness(choi(phi), k_level): BadParam unless its level is proven."""
    return Witness(choi(phi), k_level)


def random_schmidt_bounded_state(d: int, k: int, n_terms: int, seed: int) -> MatrixOp:
    """Random state of Schmidt number <= k: a convex mix of pure states whose
    coefficient matrices factor through rank k."""
    _check_dim(d)
    _check_level(k, d)
    _check_count("n_terms", n_terms, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_terms))
    rho = np.zeros((d * d, d * d), dtype=np.complex128)
    for weight, g in zip(weights, _gaussian_products(rng, n_terms, d, k, d)):
        v = g.reshape(-1) / np.linalg.norm(g)
        rho += weight * np.outer(v, v.conj())
    return MatrixOp(rho, dims=(d, d))


def _scan_point(param: float, value: float, tol: float) -> ScanPoint:
    """One scan row, fired when value < -tol. A value that is not a finite
    double (the family's minimum overflows at this parameter) raises
    BadParam naming the parameter."""
    if not math.isfinite(value):
        raise BadParam(f"the value at grid point {param!r} is {value}, not a finite double")
    return ScanPoint(param, value, value < -tol)


def _bottom_rows(params: list[float], stack: np.ndarray, tol: float) -> list[ScanPoint]:
    """One scan row per grid value from the bottom eigenvalue of its member
    of stack, all decided by one hermitian_eig call."""
    if not params:
        return []
    w, _ = hermitian_eig(stack)
    return [_scan_point(x, float(v), tol) for x, v in zip(params, w[:, 0])]


def threshold_scan(family: str, d: int, k: int, grid,
                   opts: SeesawOpts = DEFAULT_OPTS) -> list[ScanPoint]:
    """Sweep a one-parameter family and record where the detector fires
    (value below -opts.eps_neg).

    isotropic: bottom eigenvalue of (1 (x) reduction[1/k]) rho_F =
    tr_B(rho_F) (x) 1 - rho_F/k, which is min(1/d - F/k,
    1/d - (1-F)/((d^2-1)k)); the flip sits at F = k/d. werner (d=2, k=1):
    bottom eigenvalue of the partial transpose, which detects Schmidt number
    > 1; flip at p = 1/3. No two-qubit state has Schmidt number > 2, so k = 1
    is the only level a Werner scan takes. Either family's rows are one
    stack (the states, then their images), gated and decomposed in one
    hermitian_eig call; each row's value is the one its own call would give.

    reduction: the family's Choi matrix is C(c) = 1 - cP with P =
    |psi+><psi+|, so its minimum over unit vectors of Schmidt rank <= k is
    1 - cm, where m is the largest <psi|P|psi> (closed form k, Terhal &
    Horodecki 2000) for c > 0 and the smallest for c <= 0: 0, at |0>|1>,
    for d >= 2 and 1 at d = 1, so the rows at c <= 0 are exact. At most one
    search runs, only when the grid holds a c > 0: the see-saw on -P with
    the scan's opts (so opts.restarts counts the restarts of that one
    search, not of each row), or for k = d the top eigenvalue of one
    eigensolve of P. Each value is attained by the search's witness, and
    the flip sits at c = 1/k.

    The dimension is checked first, by the rule of its family (an integer
    d >= 2 for isotropic, d >= 1 for reduction, d = 2 for werner), then
    the level k (1..d, and 1 for werner), then each isotropic F or Werner p
    against [0, 1], in grid order, before any row is decomposed. Raises
    BadParam naming the grid value when one is NaN or infinite (before any
    search or eigensolve) and when a row's value is not a finite double
    (1 - ck overflows near the top of the float range).
    """
    tol = opts.eps_neg
    params = [float(x) for x in grid]
    for x in params:
        if not math.isfinite(x):
            raise BadParam(f"grid point {x!r} is not a finite double")
    if family == "isotropic":
        _check_count("d", d, 2)
        _check_level(k, d)
        images = _reduction_images(_isotropic_mats(d, params), d, d, (k,))[:, 0]
        return _bottom_rows(params, images, tol)
    if family == "werner":
        if d != 2:
            raise BadParam("werner scans are defined for d=2 only")
        _check_level(k, 1)
        return _bottom_rows(params, _pt_array(_werner_mats(params), 2, 2), tol)
    if family == "reduction":
        _check_dim(d)
        _check_level(k, d)
        # the smallest <psi|P|psi>: 0 at |0>|1> for d >= 2, 1 at d = 1 (P = [[1]])
        low = high = float(d == 1)
        if any(c > 0 for c in params):
            proj = max_entangled_projector(d).mat
            if k == d:
                high = float(hermitian_eig(proj)[0][-1])
            else:
                high = -seesaw_minimize(-proj, (d, d), k, restarts=opts.restarts,
                                        seed=opts.seed)[0]
        return [_scan_point(c, 1.0 - c * (high if c > 0 else low), tol) for c in params]
    raise BadFamily(f"unknown family {family!r}")
