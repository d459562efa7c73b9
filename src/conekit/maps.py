"""Linear maps on M_d: superoperator and Choi forms, Kraus decompositions,
conjugation maps ad(a): x -> a^dag x a, and the certified factorization of
compose(psi, ad(a)) into at most rank-k Kraus terms.

A map's superoperator S acts on row-major vectorizations: vec(phi(x)) = S vec(x),
with S[(i*d+j), (k*d+l)] = (phi(e_kl))[i, j].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadK,
    BadParam,
    BadRank,
    BlockNotPSD,
    DimMismatch,
    EmptyList,
    NotCompletelyPositive,
    NotHermitian,
    NotHermiticityPreserving,
    RankTooHigh,
)
from .linalg import (
    PSD_TOL,
    RANK_TOL,
    MatrixOp,
    _check_hermitian_pair,
    _freeze,
    _margin,
    _rank,
    check_hermitian,
    max_entangled,
    reshuffle,
    swap_matrix,
    unreshuffle,
)

KRAUS_DROP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MapRep:
    """Hermiticity-preserving linear map on M_d, stored as its superoperator."""

    d: int
    super_mat: np.ndarray

    def __post_init__(self) -> None:
        s = _freeze(self.super_mat)
        n = self.d * self.d
        if s.shape != (n, n):
            raise DimMismatch(f"superoperator shape {s.shape} != ({n}, {n})")
        # The Choi matrix's gate read on S itself: C[ij, kl] = S4[j, l, i, k],
        # so C - C^dag holds exactly the entries S4[a, b, c, e] - conj(S4[b, a, e, c]).
        s4 = s.reshape(self.d, self.d, self.d, self.d)
        try:
            _check_hermitian_pair(s4, s4.transpose(1, 0, 3, 2).conj())
        except NotHermitian as exc:
            raise NotHermiticityPreserving(f"Choi matrix: {exc}") from None
        object.__setattr__(self, "super_mat", s)

    @classmethod
    def of_matrix(cls, s: np.ndarray) -> "MapRep":
        s = np.asarray(s)
        d = int(round(np.sqrt(s.shape[0])))
        return cls(d, s)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators of a CP map (or a certified CP factor) as one read-only
    (r, d, d) stack, built from any non-empty sequence of d x d matrices."""

    operators: np.ndarray
    rank_bound: int | None = None

    def __post_init__(self) -> None:
        ops = self.operators
        if len(ops) == 0:
            raise EmptyList("a Kraus set needs at least one operator")
        if not isinstance(ops, np.ndarray):
            mats = [_as_matrix(a) for a in ops]
            if any(a.shape != mats[0].shape for a in mats):
                raise DimMismatch("all Kraus operators must share one square shape")
            ops = np.stack(mats)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimMismatch(f"Kraus operators must form an (r, d, d) stack, got {ops.shape}")
        object.__setattr__(self, "operators", _freeze(ops))

    @property
    def d(self) -> int:
        return self.operators.shape[1]

    @property
    def rank(self) -> int:
        """The largest numerical rank among the operators, from one batched SVD."""
        s = np.linalg.svd(self.operators, compute_uv=False)
        return int(np.count_nonzero(s > RANK_TOL * s[:, :1], axis=1).max())

    def to_map(self) -> MapRep:
        return MapRep(self.d, _kraus_super(self.operators))


@dataclass(frozen=True)
class Detector:
    """A map together with the positivity level k it is certified for."""

    map: MapRep
    k_level: int
    label: str = ""


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, MatrixOp):
        return x.mat
    return np.asarray(x, dtype=np.complex128)


def apply(phi: MapRep, x) -> MatrixOp:
    """phi(x) for a d x d matrix x."""
    m = _as_matrix(x)
    if m.shape != (phi.d, phi.d):
        raise DimMismatch(f"argument shape {m.shape} != ({phi.d}, {phi.d})")
    return MatrixOp((phi.super_mat @ m.reshape(-1)).reshape(phi.d, phi.d))


def apply_on_right_factor(phi: MapRep, x: MatrixOp) -> MatrixOp:
    """(1_m (x) phi)(x) for x on C^m (x) C^d, acting on the second factor."""
    m_dim, d = x.require_dims()
    if d != phi.d:
        raise DimMismatch(f"second factor size {d} != map dimension {phi.d}")
    s4 = phi.super_mat.reshape(d, d, d, d)
    x4 = x.mat.reshape(m_dim, d, m_dim, d)
    out = np.einsum("jltu,itku->ijkl", s4, x4)
    n = m_dim * d
    return MatrixOp(out.reshape(n, n), dims=(m_dim, d))


def choi(phi: MapRep) -> MatrixOp:
    """Choi matrix sum_ij e_ij (x) phi(e_ij), carried with dims (d, d)."""
    return MatrixOp(reshuffle(phi.super_mat, phi.d), dims=(phi.d, phi.d))


def map_from_choi(c) -> MapRep:
    """Inverse of choi(). The input must be Hermitian."""
    m = _as_matrix(c)
    n = m.shape[0]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise DimMismatch(f"Choi matrix size {n} is not a perfect square")
    check_hermitian(m)
    return MapRep(d, unreshuffle(m, d))


def compose(f: MapRep, g: MapRep) -> MapRep:
    """f o g (g acts first)."""
    if f.d != g.d:
        raise DimMismatch(f"cannot compose maps on M_{f.d} and M_{g.d}")
    return MapRep(f.d, f.super_mat @ g.super_mat)


def adjoint(phi: MapRep) -> MapRep:
    """Adjoint for the Hilbert-Schmidt pairing: super(phi^dag) = super(phi)^dag."""
    return MapRep(phi.d, phi.super_mat.conj().T)


def co(phi: MapRep) -> MapRep:
    """transpose o phi. Satisfies choi(co(phi)) = PT_B(choi(phi))."""
    return compose(transpose_map(phi.d), phi)


def identity_map(d: int) -> MapRep:
    return MapRep(d, np.eye(d * d, dtype=np.complex128))


def transpose_map(d: int) -> MapRep:
    return MapRep(d, swap_matrix(d))


def _kraus_super(ops: np.ndarray) -> np.ndarray:
    """Superoperator of x -> sum_i a_i^dag x a_i for a stack ops of shape
    (r, d, d). Its Choi matrix is the Gram matrix V^H V whose V has the
    row-vectorized a_i as rows, so no Kronecker product is formed."""
    d = ops.shape[-1]
    v = ops.reshape(-1, d * d)
    return unreshuffle(v.conj().T @ v, d)


def ad(a) -> MapRep:
    """Conjugation x -> a^dag x a; superoperator kron(a^dag, a^T)."""
    return from_kraus([a])


def from_kraus(ops) -> MapRep:
    """Map x -> sum_i a_i^dag x a_i."""
    return KrausSet(ops).to_map()


def kraus_decompose(phi: MapRep) -> KrausSet:
    """Eigen-decompose the Choi matrix C into Kraus operators.

    Raises NotCompletelyPositive if C has an eigenvalue below
    -KRAUS_DROP_TOL * max|C|, so the CP floor is the same at every scale of
    phi. Eigenvalues under KRAUS_DROP_TOL * lambda_max are dropped as
    numerical noise.
    """
    c = choi(phi).mat
    w, v = np.linalg.eigh(0.5 * (c + c.conj().T))
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -_margin(c, KRAUS_DROP_TOL):
        raise NotCompletelyPositive(f"Choi eigenvalue {w[0]:.3e} below the CP floor")
    keep = w > KRAUS_DROP_TOL * max(lam_max, 1e-300)
    if not keep.any():
        return KrausSet(np.zeros((1, phi.d, phi.d), dtype=np.complex128))
    return KrausSet((v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, phi.d, phi.d).conj())


def _reduction_super(d: int, c: float) -> np.ndarray:
    v = np.eye(d, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj()) - c * np.eye(d * d, dtype=np.complex128)


def reduction_family(d: int, c: float) -> MapRep:
    """a -> tr(a) 1 - c a. Choi matrix 1_{d^2} - c |psi+><psi+| (psi+ unnormalized);
    k-positive exactly when c <= 1/k, completely positive when c <= 1/d."""
    if d < 1:
        raise BadParam(f"dimension must be >= 1, got {d}")
    if not np.isfinite(c):
        raise BadParam("family parameter must be finite")
    return MapRep(d, _reduction_super(d, c))


def depolarizing(d: int, p: float) -> MapRep:
    """a -> (1-p) a + p tr(a) 1/d."""
    if not 0.0 <= p <= 1.0:
        raise BadParam(f"depolarizing strength must lie in [0, 1], got {p}")
    v = np.eye(d, dtype=np.complex128).reshape(-1)
    return MapRep(d, (1.0 - p) * np.eye(d * d, dtype=np.complex128) + (p / d) * np.outer(v, v.conj()))


def _random_kraus(d: int, k: int, n_ops: int, seed: int) -> np.ndarray:
    """The Kraus stack of random_cp_map: unit-norm products g1 @ g2 of d x k
    and k x d complex Gaussians, from one draw of g1.re, g1.im, g2.re, g2.im
    per operator in that order."""
    z = np.random.default_rng(seed).normal(size=(n_ops, 4, d * k))
    g1 = (z[:, 0] + 1j * z[:, 1]).reshape(n_ops, d, k)
    ops = g1 @ (z[:, 2] + 1j * z[:, 3]).reshape(n_ops, k, d)
    return ops / np.array([np.linalg.norm(a) for a in ops])[:, None, None]


def random_cp_map(d: int, k: int, n_ops: int, seed: int) -> MapRep:
    """CP map built from n_ops random Kraus operators of exact rank <= k,
    each a product of d x k and k x d complex Gaussian factors."""
    if not 1 <= k <= d:
        raise BadRank(f"rank level k={k} outside 1..{d}")
    if n_ops < 1:
        raise BadParam("need n_ops >= 1")
    return MapRep(d, _kraus_super(_random_kraus(d, k, n_ops, seed)))


def random_hp_map(d: int, seed: int) -> MapRep:
    """Hermiticity-preserving map with a GUE-like random Hermitian Choi matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    return map_from_choi(0.5 * (g + g.conj().T))


def random_k_positive_map(d: int, k: int, seed: int) -> MapRep:
    """Random member of a provably k-positive family: a convex mix of a CP map
    and the reduction-family map at its k-positivity boundary c = 1/k."""
    if not 1 <= k <= d:
        raise BadK(f"k={k} outside 1..{d}")
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.0, 1.0))
    cp_seed = int(rng.integers(0, 2**63 - 1))
    return MapRep(d, lam * _kraus_super(_random_kraus(d, d, 2, cp_seed))
                  + (1.0 - lam) * _reduction_super(d, 1.0 / k))


def block_action(phi: MapRep, psis: list) -> MatrixOp:
    """Matrix on C^k (x) C^d with block (i, j) = phi(|psi_i><psi_j|).

    For k-positive phi and any k vectors this is PSD: the block matrix of the
    dyads equals |eta><eta| with eta = sum_i e_i (x) psi_i.
    """
    if len(psis) == 0:
        raise EmptyList("need at least one vector")
    d, k = phi.d, len(psis)
    if any(np.size(p) != d for p in psis):
        raise DimMismatch(f"every vector must have the map dimension {d}")
    g = np.array([np.ravel(p) for p in psis], dtype=np.complex128)
    s4 = phi.super_mat.reshape(d, d, d, d)
    out = np.einsum("abce,ic,je->iajb", s4, g, g.conj())
    return MatrixOp(out.reshape(k * d, k * d), dims=(k, d))


def compose_certified(a, phi: MapRep, k: int,
                      order: str = "map_after_ad") -> KrausSet:
    """Kraus operators of rank <= k reconstructing compose(phi, ad(a)) exactly,
    assuming rank(a) <= k and phi k-positive.

    Writes a = sum_i |f_i><g_i| from its SVD, eigendecomposes the PSD block
    matrix [phi(|g_i><g_j|)]_ij and slices each scaled eigenvector into the
    second legs of one Kraus operator. A negative block eigenvalue refutes
    k-positivity of phi and raises BlockNotPSD, as does a reconstruction
    residual above PSD_TOL * max|target|. The block floor is
    -PSD_TOL * max|block|, so both tests are the same at every scale of phi.
    With order="ad_after_map" the same route applied to (a^dag, phi^dag)
    certifies compose(ad(a), phi).
    """
    if order == "ad_after_map":
        inner = compose_certified(_as_matrix(a).conj().T, adjoint(phi), k)
        return KrausSet(inner.operators.conj().swapaxes(1, 2), rank_bound=k)
    if order != "map_after_ad":
        raise BadParam(f"unknown order {order!r}")

    m = _as_matrix(a)
    d = phi.d
    if m.shape != (d, d):
        raise DimMismatch(f"operator shape {m.shape} != ({d}, {d})")
    if not 1 <= k <= d:
        raise BadK(f"k={k} outside 1..{d}")

    u, s, vh = np.linalg.svd(m)
    r = _rank(s, RANK_TOL)
    if r > k:
        raise RankTooHigh(f"rank(a) = {r} exceeds the certified level k = {k}")
    if r == 0:
        return KrausSet(np.zeros((1, d, d), dtype=np.complex128), rank_bound=k)

    lefts = u[:, :r] * s[:r]    # columns |f_i>, singular values absorbed
    rights = vh[:r].conj()      # rows |g_i>, orthonormal

    block = block_action(phi, rights).mat
    w, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -_margin(block, PSD_TOL):
        raise BlockNotPSD(
            f"block eigenvalue {w[0]:.3e} < 0: the map is not {r}-positive")

    # Each kept eigenvector, scaled, is a stack xi of r second legs; its
    # Kraus operator is sum_j |f_j><xi_j|.
    keep = w > 1e-14 * max(lam_max, 1e-300)
    if keep.any():
        xi = (vecs[:, keep] * np.sqrt(w[keep])).T.reshape(-1, r, d)
        ops = lefts @ xi.conj()
    else:
        ops = np.zeros((1, d, d), dtype=np.complex128)

    target = phi.super_mat @ _kraus_super(m[None])
    recon = _kraus_super(ops)
    err = float(np.abs(recon - target).max())
    if err > _margin(target, PSD_TOL):
        raise BlockNotPSD(f"reconstruction residual {err:.3e} exceeds tolerance")
    return KrausSet(ops, rank_bound=k)


def reduction_detectors(d: int) -> list[Detector]:
    """Default detector bank: reduction maps at c = 1/k for k = 1..d-1, each
    k-positive by the closed-form threshold and not completely positive, so
    each can fire on an entangled state."""
    return [Detector(reduction_family(d, 1.0 / k), k, f"reduction[c=1/{k}]")
            for k in range(1, d)]


def max_entangled_projector(d: int) -> MatrixOp:
    """|psi+><psi+| (unnormalized), dims (d, d)."""
    v = max_entangled(d).amp
    return MatrixOp(np.outer(v, v.conj()), dims=(d, d))
