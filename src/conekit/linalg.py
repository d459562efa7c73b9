"""Bipartite linear algebra: operators with subsystem structure, Schmidt
decompositions, partial transposition and the reshuffling between
superoperator and Choi orderings.

Index convention used everywhere: row-major Kronecker ordering, first factor
slow, so e_i (x) e_j sits at flat index i*d_B + j and np.kron matches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParam, DimMismatch, MissingDims, NotHermitian, ZeroVector

HERM_TOL = 1e-10
# Relative floor of the PSD decisions in is_cp, is_ccp, schmidt_number_bounds
# and compose_certified: an eigenvalue counts as negative below
# -PSD_TOL * max|M| of the matrix M it belongs to.
PSD_TOL = 1e-9
# Relative cutoff of every numerical rank (Schmidt, operator, Choi matrix).
RANK_TOL = 1e-8


def _margin(m: np.ndarray, eps: float) -> float:
    """The margin eps * max|M| of a sign or Hermiticity decision on M, so that
    scaling M by any positive factor leaves the decision unchanged. M = 0 gets
    the least positive scale, so exact zeros still pass."""
    return eps * max(float(np.abs(m).max()), np.finfo(float).tiny)


def _check_eps(name: str, eps: float) -> None:
    """Raise BadParam unless the margin factor eps is finite and >= 0: a
    negative margin reverses every sign decision, a NaN one disables it."""
    if not 0.0 <= eps < np.inf:
        raise BadParam(f"{name} must be finite and >= 0, got {eps}")


def _rank(values: np.ndarray, tol: float) -> int:
    """Number of nonnegative values above tol times the largest; 0 when the
    largest is not positive."""
    top = float(values.max()) if values.size else 0.0
    if not top > 0.0:
        return 0
    return int(np.count_nonzero(values > tol * top))


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only complex copy; NaN or inf entries raise BadParam."""
    out = np.array(a, dtype=np.complex128, copy=True, order="C")
    if not np.isfinite(out).all():
        raise BadParam("matrix has a NaN or infinite entry")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MatrixOp:
    """Dense complex square matrix, optionally carrying bipartite dims (d_A, d_B)."""

    mat: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        m = _freeze(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
        if self.dims is not None:
            da, db = self.dims
            if da < 1 or db < 1 or da * db != m.shape[0]:
                raise DimMismatch(f"dims {self.dims} incompatible with size {m.shape[0]}")
            object.__setattr__(self, "dims", (int(da), int(db)))
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def require_dims(self) -> tuple[int, int]:
        if self.dims is None:
            raise MissingDims("operation needs bipartite dims but none are declared")
        return self.dims


@dataclass(frozen=True, eq=False)
class BipartiteVector:
    """Vector in C^{d_A} (x) C^{d_B}, amplitudes in row-major Kronecker order."""

    d_a: int
    d_b: int
    amp: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amp, dtype=np.complex128, copy=True, order="C").reshape(-1)
        if a.shape[0] != self.d_a * self.d_b:
            raise DimMismatch(f"length {a.shape[0]} != {self.d_a}*{self.d_b}")
        a.setflags(write=False)
        object.__setattr__(self, "amp", a)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def matrix(self) -> np.ndarray:
        """d_A x d_B coefficient matrix M with M[i, j] = amp[i*d_B + j]."""
        return self.amp.reshape(self.d_a, self.d_b)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt data of a bipartite vector: v = sum_l c_l u_l (x) w_l."""

    coefficients: np.ndarray          # nonnegative, descending
    left_vectors: np.ndarray          # rows u_l, orthonormal
    right_vectors: np.ndarray         # rows w_l, orthonormal

    @property
    def rank(self) -> int:
        return _rank(self.coefficients, RANK_TOL)


def schmidt_decompose(v: BipartiteVector) -> SchmidtDecomposition:
    """SVD of the coefficient matrix M = U diag(c) Vh, so that
    sum_l c_l kron(u_l, w_l) with w_l = Vh[l, :] reconstructs the input.
    Raises BadParam on a NaN or infinite amplitude and ZeroVector on the zero
    vector; any other vector, however small, has a rank (it is relative)."""
    if not np.isfinite(v.amp).all():
        raise BadParam("vector has a NaN or infinite amplitude")
    if not v.amp.any():
        raise ZeroVector("cannot decompose the zero vector")
    m = v.matrix()
    u, s, vh = np.linalg.svd(m)
    r = min(v.d_a, v.d_b)
    return SchmidtDecomposition(
        coefficients=s[:r].copy(),
        left_vectors=u[:, :r].T.copy(),
        right_vectors=vh[:r, :].copy(),
    )


def schmidt_rank(v: BipartiteVector) -> int:
    return schmidt_decompose(v).rank


def _pt_array(m: np.ndarray, da: int, db: int, subsystem: str = "B") -> np.ndarray:
    """Partial transpose of raw arrays over their last two axes (any stack
    of (da*db, da*db) matrices); no validation, no copy into a MatrixOp."""
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    if subsystem == "B":
        t = t.swapaxes(-3, -1)
    elif subsystem == "A":
        t = t.swapaxes(-4, -2)
    else:
        raise DimMismatch(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return t.reshape(m.shape)


def partial_transpose(x: MatrixOp, subsystem: str = "B") -> MatrixOp:
    """Transpose one tensor factor. For subsystem B:
    out_{ij,kl} = x_{il,kj}. Involutive and trace preserving."""
    da, db = x.require_dims()
    return MatrixOp(_pt_array(x.mat, da, db, subsystem), dims=(da, db))


def reshuffle(superop: np.ndarray, d: int) -> np.ndarray:
    """Superoperator ordering -> Choi ordering: out_{ij,kl} = in_{jl,ik}."""
    s4 = np.asarray(superop, dtype=np.complex128).reshape(d, d, d, d)
    return np.einsum("jlik->ijkl", s4).reshape(d * d, d * d)


def unreshuffle(choi: np.ndarray, d: int) -> np.ndarray:
    """Choi ordering -> superoperator ordering: out_{ab,ce} = in_{ca,eb}.
    Exact inverse of reshuffle (pure index permutation, no arithmetic)."""
    c4 = np.asarray(choi, dtype=np.complex128).reshape(d, d, d, d)
    return np.einsum("caeb->abce", c4).reshape(d * d, d * d)


def check_hermitian(m: np.ndarray) -> None:
    """The Hermiticity gate: raise NotHermitian when max |X - X^dag| exceeds
    HERM_TOL * max |X|, so the gate is the same at every scale of X."""
    _check_hermitian_pair(m, m.conj().T)


def _check_hermitian_pair(m: np.ndarray, m_dag: np.ndarray) -> None:
    """check_hermitian for X held in any layout, given X^dag in the same
    layout: the decision and the message depend only on the entries."""
    dev = float(np.abs(m - m_dag).max())
    if dev > _margin(m, HERM_TOL):
        raise NotHermitian(f"max |X - X^dag| = {dev:.3e} exceeds tolerance")


def hermitian_eig(x: MatrixOp | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition with a Hermiticity gate. Ascending eigenvalues."""
    m = x.mat if isinstance(x, MatrixOp) else np.asarray(x, dtype=np.complex128)
    check_hermitian(m)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return w, v


def hs_inner(a: MatrixOp | np.ndarray, b: MatrixOp | np.ndarray) -> float:
    """Hilbert-Schmidt pairing Tr(a b) of two Hermitian matrices (real)."""
    ma = a.mat if isinstance(a, MatrixOp) else np.asarray(a, dtype=np.complex128)
    mb = b.mat if isinstance(b, MatrixOp) else np.asarray(b, dtype=np.complex128)
    if ma.shape != mb.shape:
        raise DimMismatch(f"shape mismatch {ma.shape} vs {mb.shape}")
    check_hermitian(ma)
    check_hermitian(mb)
    return float(np.einsum("ij,ji->", ma, mb).real)


def max_entangled(d: int, normalized: bool = False) -> BipartiteVector:
    """sum_i e_i (x) e_i on C^d (x) C^d; unnormalized unless asked."""
    amp = np.eye(d, dtype=np.complex128).reshape(-1)
    if normalized:
        amp = amp / np.sqrt(d)
    return BipartiteVector(d, d, amp)


def swap_matrix(d: int) -> np.ndarray:
    """SWAP on C^d (x) C^d: sum_ij e_ij (x) e_ji."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def numerical_rank(m: np.ndarray) -> int:
    return _rank(np.linalg.svd(np.asarray(m), compute_uv=False), RANK_TOL)
