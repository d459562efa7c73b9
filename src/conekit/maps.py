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
    BadParam,
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
    _check_count,
    _check_hermitian_pair,
    _check_level,
    _check_square,
    _complex_gaussian,
    _dims,
    _eigh,
    _freeze,
    _gaussian_products,
    _hermitian_part,
    _is_int,
    _margin,
    _matrix,
    _rank,
    _square_side,
    max_entangled,
    reshuffle,
    swap_matrix,
    unreshuffle,
)


def _check_dim(d) -> None:
    """Raise BadParam unless the dimension d is an integer >= 1 (numpy ones
    pass, bool does not)."""
    if not _is_int(d, 1):
        raise BadParam(f"dimension must be an integer >= 1, got {d!r}")


@dataclass(frozen=True, eq=False)
class MapRep:
    """Hermiticity-preserving linear map on M_d, stored as its superoperator.
    d must be an integer >= 1 (BadParam otherwise) and is kept as an int."""

    d: int
    super_mat: np.ndarray

    def __post_init__(self) -> None:
        _check_dim(self.d)
        object.__setattr__(self, "d", int(self.d))
        s = _freeze(self.super_mat)
        n = self.d * self.d
        if s.shape != (n, n):
            raise DimMismatch(f"superoperator shape {s.shape} != ({n}, {n})")
        # The Choi matrix's gate read on S itself: C[ij, kl] = S4[j, l, i, k],
        # so C - C^dag holds exactly the entries S4[a, b, c, e] - conj(S4[b, a, e, c]).
        s4 = s.reshape(self.d, self.d, self.d, self.d)
        try:
            _check_hermitian_pair(s4, lambda x: x.transpose(1, 0, 3, 2).conj())
        except NotHermitian as exc:
            raise NotHermiticityPreserving(f"Choi matrix: {exc}") from None
        object.__setattr__(self, "super_mat", s)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators of a CP map (or a certified CP factor) as one read-only
    (r, d, d) stack, built from any non-empty sequence of d x d matrices."""

    operators: np.ndarray

    def __post_init__(self) -> None:
        ops = self.operators
        if len(ops) == 0:
            raise EmptyList("a Kraus set needs at least one operator")
        if not isinstance(ops, np.ndarray):
            mats = [_matrix(a) for a in ops]
            if any(a.shape != mats[0].shape for a in mats):
                raise DimMismatch("all Kraus operators must share one square shape")
            ops = np.stack(mats)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or not ops.shape[1]:
            raise DimMismatch(f"Kraus operators must form an (r, d, d) stack, got {ops.shape}")
        object.__setattr__(self, "operators", _freeze(ops))

    @property
    def d(self) -> int:
        return self.operators.shape[1]

    @property
    def rank(self) -> int:
        """The largest numerical rank among the operators, from one batched SVD."""
        return int(_rank(np.linalg.svd(self.operators, compute_uv=False), RANK_TOL).max())

    def to_map(self) -> MapRep:
        return MapRep(self.d, _kraus_super(self.operators))


@dataclass(frozen=True)
class Detector:
    """A map together with the positivity level k it is certified for."""

    map: MapRep
    k_level: int
    label: str = ""


def _right_action(phi: MapRep, x: np.ndarray, m: int) -> np.ndarray:
    """(1_m (x) phi)(x) for an (m d, m d) array x, as one gemm: the m^2 d x d
    blocks x_ab, vectorized as rows, times S^T; block (a, b) of the result is
    phi(x_ab). apply, apply_on_right_factor and block_action all act here."""
    d = phi.d
    rows = x.reshape(m, d, m, d).swapaxes(1, 2).reshape(m * m, d * d)
    out = (rows @ phi.super_mat.T).reshape(m, m, d, d)
    return out.swapaxes(1, 2).reshape(m * d, m * d)


def apply(phi: MapRep, x) -> MatrixOp:
    """phi(x) for a d x d matrix x (linalg's entry rule): _right_action at m = 1."""
    m = _matrix(x)
    if m.shape != (phi.d, phi.d):
        raise DimMismatch(f"argument shape {m.shape} != ({phi.d}, {phi.d})")
    return MatrixOp(_right_action(phi, m, 1))


def apply_on_right_factor(phi: MapRep, x: MatrixOp) -> MatrixOp:
    """(1_m (x) phi)(x) for x on C^m (x) C^d by _right_action; choi(phi) is its
    m = d case on |psi+><psi+|, formed exactly by reindexing S instead."""
    m_dim, d = _dims(x)
    if d != phi.d:
        raise DimMismatch(f"second factor size {d} != map dimension {phi.d}")
    return MatrixOp(_right_action(phi, x.mat, m_dim), dims=(m_dim, d))


def choi(phi: MapRep) -> MatrixOp:
    """Choi matrix sum_ij e_ij (x) phi(e_ij), carried with dims (d, d)."""
    return MatrixOp(reshuffle(phi.super_mat, phi.d), dims=(phi.d, phi.d))


def map_from_choi(c) -> MapRep:
    """Inverse of choi(). The input must be finite, square of perfect-square
    size, and Hermitian (MapRep's gate raises NotHermiticityPreserving)."""
    m = _matrix(c)
    _check_square(m)
    d = _square_side(m.shape[0], "Choi matrix")
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
    -PSD_TOL * max|C|, so the CP floor is the same at every scale of
    phi. Eigenvalues under PSD_TOL * lambda_max are dropped as
    numerical noise; a spectrum beyond the float range raises BadParam.
    """
    c = choi(phi).mat
    w, v = _eigh(c)
    if float(w[0]) < -_margin(c, PSD_TOL):
        raise NotCompletelyPositive(f"Choi eigenvalue {w[0]:.3e} below the CP floor")
    keep = w > PSD_TOL * max(float(w[-1]), 1e-300)
    if not keep.any():
        return KrausSet(np.zeros((1, phi.d, phi.d), dtype=np.complex128))
    return KrausSet((v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, phi.d, phi.d).conj())


def _reduction_super(d: int, c: float) -> np.ndarray:
    v = np.eye(d, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj()) - c * np.eye(d * d, dtype=np.complex128)


def reduction_family(d: int, c: float) -> MapRep:
    """a -> tr(a) 1 - c a. Choi matrix 1_{d^2} - c |psi+><psi+| (psi+ unnormalized);
    k-positive exactly when c <= 1/k, completely positive when c <= 1/d."""
    _check_dim(d)
    if not np.isfinite(c):
        raise BadParam("family parameter must be finite")
    return MapRep(d, _reduction_super(d, c))


def depolarizing(d: int, p: float) -> MapRep:
    """a -> (1-p) a + p tr(a) 1/d."""
    _check_dim(d)
    if not 0.0 <= p <= 1.0:
        raise BadParam(f"depolarizing strength must lie in [0, 1], got {p}")
    v = np.eye(d, dtype=np.complex128).reshape(-1)
    return MapRep(d, (1.0 - p) * np.eye(d * d, dtype=np.complex128) + (p / d) * np.outer(v, v.conj()))


def _random_kraus(d: int, k: int, n_ops: int, seed: int) -> np.ndarray:
    """The Kraus stack of random_cp_map: linalg._gaussian_products's draw
    from seed, each operator at unit norm."""
    ops = _gaussian_products(np.random.default_rng(seed), n_ops, d, k, d)
    return ops / np.array([np.linalg.norm(a) for a in ops])[:, None, None]


def random_cp_map(d: int, k: int, n_ops: int, seed: int) -> MapRep:
    """CP map built from n_ops random Kraus operators of exact rank <= k,
    each a product of d x k and k x d complex Gaussian factors."""
    _check_dim(d)
    _check_level(k, d)
    _check_count("n_ops", n_ops, 1)
    _check_count("seed", seed, 0)
    return MapRep(d, _kraus_super(_random_kraus(d, k, n_ops, seed)))


def random_hp_map(d: int, seed: int) -> MapRep:
    """Hermiticity-preserving map with a GUE-like random Hermitian Choi matrix."""
    _check_dim(d)
    _check_count("seed", seed, 0)
    g = _complex_gaussian(np.random.default_rng(seed), (d * d, d * d))
    return map_from_choi(_hermitian_part(g))


def random_k_positive_map(d: int, k: int, seed: int) -> MapRep:
    """Random member of a provably k-positive family: a convex mix of a CP map
    and the reduction-family map at its k-positivity boundary c = 1/k."""
    _check_dim(d)
    _check_level(k, d)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.0, 1.0))
    cp_seed = int(rng.integers(0, 2**63 - 1))
    return MapRep(d, lam * _kraus_super(_random_kraus(d, d, 2, cp_seed))
                  + (1.0 - lam) * _reduction_super(d, 1.0 / k))


def block_action(phi: MapRep, psis: list) -> MatrixOp:
    """Matrix on C^k (x) C^d with block (i, j) = phi(|psi_i><psi_j|).

    For k-positive phi and any k vectors this is PSD: the block matrix of the
    dyads equals |eta><eta| with eta = sum_i e_i (x) psi_i, so it is formed as
    (1_k (x) phi)(|eta><eta|) by _right_action.
    """
    if len(psis) == 0:
        raise EmptyList("need at least one vector")
    d, k = phi.d, len(psis)
    if any(np.size(p) != d for p in psis):
        raise DimMismatch(f"every vector must have the map dimension {d}")
    eta = np.array([np.ravel(p) for p in psis], dtype=np.complex128).reshape(-1)
    return MatrixOp(_right_action(phi, np.outer(eta, eta.conj()), k), dims=(k, d))


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
    certifies compose(ad(a), phi). A non-finite a or block spectrum raises
    BadParam; the block gets no second Hermiticity gate (phi passed one).
    """
    if order == "ad_after_map":
        inner = compose_certified(_matrix(a).conj().T, adjoint(phi), k)
        return KrausSet(inner.operators.conj().swapaxes(1, 2))
    if order != "map_after_ad":
        raise BadParam(f"unknown order {order!r}")

    m = _matrix(a)
    d = phi.d
    if m.shape != (d, d):
        raise DimMismatch(f"operator shape {m.shape} != ({d}, {d})")
    _check_level(k, d)

    u, s, vh = np.linalg.svd(m)
    r = _rank(s, RANK_TOL)
    if r > k:
        raise RankTooHigh(f"rank(a) = {r} exceeds the certified level k = {k}")
    if r == 0:
        return KrausSet(np.zeros((1, d, d), dtype=np.complex128))

    lefts = u[:, :r] * s[:r]    # columns |f_i>, singular values absorbed
    rights = vh[:r].conj()      # rows |g_i>, orthonormal

    block = block_action(phi, rights).mat
    w, vecs = _eigh(block)
    if float(w[0]) < -_margin(block, PSD_TOL):
        raise BlockNotPSD(
            f"block eigenvalue {w[0]:.3e} < 0: the map is not {r}-positive")

    # Each kept eigenvector, scaled, is a stack xi of r second legs; its
    # Kraus operator is sum_j |f_j><xi_j|.
    keep = w > 1e-14 * max(float(w[-1]), 1e-300)
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
    return KrausSet(ops)


def reduction_detectors(d: int) -> list[Detector]:
    """Default detector bank: reduction maps at c = 1/k for k = 1..d-1, each
    k-positive by the closed-form threshold and not completely positive, so
    each can fire on an entangled state. A fresh list on every call, for
    detect_schmidt_number and any caller that applies the maps themselves;
    schmidt_number_bounds forms the same images in closed form
    (_reduction_images) and builds none of them."""
    _check_dim(d)
    return [Detector(reduction_family(d, 1.0 / k), k, f"reduction[c=1/{k}]")
            for k in range(1, d)]


def _reduction_images(x: np.ndarray, da: int, db: int, levels) -> np.ndarray:
    """(1_da (x) R_{1/k})(X) = tr_B(X) (x) 1 - X/k for each k in levels, as
    one (len(levels), n, n) stack, n = da*db: the images apply_on_right_factor
    forms with reduction_family(db, 1/k), in closed form (the k-reduction
    criterion of Terhal & Horodecki). x may also be a stack (r, n, n), whose
    images come as one (r, len(levels), n, n) array, each equal to the image
    of its member alone. An image beyond the float range holds inf or NaN
    and raises no numpy warning; the caller judges it."""
    n = da * db
    lead = x.shape[:-2]
    x4 = x.reshape(lead + (da, db, da, db))
    c = 1.0 / np.asarray(levels, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        tr_b = np.trace(x4, axis1=-3, axis2=-1)
        out = (tr_b[..., :, None, :, None] * np.eye(db)[:, None, :]).reshape(lead + (1, n, n))
        return out - c[:, None, None] * x.reshape(lead + (1, n, n))


def max_entangled_projector(d: int) -> MatrixOp:
    """|psi+><psi+| (unnormalized), dims (d, d)."""
    v = max_entangled(d).amp
    return MatrixOp(np.outer(v, v.conj()), dims=(d, d))
