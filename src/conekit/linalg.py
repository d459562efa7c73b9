"""Bipartite linear algebra: operators with subsystem structure, Schmidt
decompositions, partial transposition and the reshuffling between
superoperator and Choi orderings.

Index convention used everywhere: row-major Kronecker ordering, first factor
slow, so e_i (x) e_j sits at flat index i*d_B + j and np.kron matches it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadK, BadParam, DimMismatch, MissingDims, NotHermitian, ZeroVector

HERM_TOL = 1e-10
# Relative floor of the PSD decisions in kraus_decompose (also its drop
# cutoff) and compose_certified: an eigenvalue counts as negative below
# -PSD_TOL * max|M| of the matrix M it belongs to. The chain levels, CP and
# co-CP included (and so the PSD proof behind schmidt_number_bounds), use
# SeesawOpts.eps_neg instead, whose default is the same 1e-9.
PSD_TOL = 1e-9
# Relative cutoff of every numerical rank (Schmidt, operator, Choi matrix).
RANK_TOL = 1e-8
# The smallest normal double, read once: each np.finfo lookup costs about 1 us.
_TINY = float(np.finfo(float).tiny)


def _margin(m: np.ndarray, eps: float, axes=None) -> float | np.ndarray:
    """The margin eps * max|M| of a sign or Hermiticity decision on M, so that
    scaling M by any positive factor leaves the decision unchanged. M = 0 gets
    the least positive scale, so exact zeros still pass. With axes, m is a
    stack whose members span those axes, and each member gets its own margin
    (an array of them, the same numbers one call per member returns)."""
    if axes is None:
        return eps * max(float(np.abs(m).max()), _TINY)
    return eps * np.maximum(np.abs(m).max(axis=axes), _TINY)


def _pow2_scaled(m: np.ndarray, top: float):
    """M / 2^e with max|M / 2^e| in [1/2, 1) (M = 0 is kept), for top =
    max|M|, and the function x -> x * 2^e that scales a result back.
    Dividing by a power of two is exact, so M and 2^j M give the same scaled
    matrix, and so the same search, and no sum over its entries overflows.
    2^1024 is not a double, so at max|M| >= 2^1023 one factor 2 is divided
    out first and multiplied back last; a number scaled back then overflows
    to inf only when it is not a double itself, and top = inf has no 2^e."""
    if not top < math.inf:
        raise BadParam("max|M| is beyond the float range (an entry's modulus overflows)")
    e = math.frexp(top)[1] if top > 0.0 else 0
    halved = e > 1023
    scale = math.ldexp(1.0, e - 1 if halved else e)

    def unscale(x):
        return (x * 2.0 if halved else x) * scale

    return (m / 2.0 if halved else m) / scale, unscale


def _check_eps(name: str, eps: float) -> None:
    """Raise BadParam unless the margin factor eps is a finite real >= 0, not
    a bool: a negative margin reverses every sign decision, a NaN one disables it."""
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0.0 <= eps < np.inf:
        raise BadParam(f"{name} must be a finite real number >= 0, got {eps!r}")


def _is_int(val, low: int) -> bool:
    """The integer rule of every count, level, seed and dimension: val is a
    numbers.Integral (numpy integers pass), not a bool, and >= low. An exact
    int, the common case, is decided by its one comparison."""
    if type(val) is int:
        return val >= low
    return not isinstance(val, bool) and isinstance(val, numbers.Integral) and val >= low


def _check_count(name: str, val, low: int) -> None:
    """Raise BadParam unless val passes _is_int(val, low)."""
    if not _is_int(val, low):
        raise BadParam(f"need an integer {name} >= {low}, got {val!r}")


def _check_level(k, top: int) -> None:
    """Raise BadK unless the Schmidt level k passes _is_int(k, 1) and k <= top."""
    if not _is_int(k, 1) or k > top:
        raise BadK(f"k={k} outside 1..{top}")


def _rank(values: np.ndarray, tol: float) -> int | np.ndarray:
    """Number of nonnegative values above tol times the largest; 0 when the
    largest is not positive. A stack of value rows is counted row by row
    (an array of counts, each the int its row alone gives)."""
    top = values.max(axis=-1, keepdims=True, initial=0.0)
    counts = np.count_nonzero(values > tol * top, axis=-1)
    return int(counts) if values.ndim == 1 else counts


def _gaussian_products(rng: np.random.Generator, n: int, da: int, k: int, db: int) -> np.ndarray:
    """n products G1 @ G2 of complex Gaussian da x k and k x db factors, the one
    draw of every random rank <= k object. Each product reads its normals in
    one order: G1's real part, its imaginary part, then G2's."""
    a, b = da * k, k * db
    z = rng.normal(size=(n, 2 * (a + b)))
    g1 = (z[:, :a] + 1j * z[:, a:2 * a]).reshape(n, da, k)
    g2 = (z[:, 2 * a:2 * a + b] + 1j * z[:, 2 * a + b:]).reshape(n, k, db)
    return g1 @ g2


def _complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A complex Gaussian array, the draw of every full-rank random matrix:
    all real parts are read first, then all imaginary parts."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _matrix(x) -> np.ndarray:
    """A MatrixOp's matrix, or x as a complex array; a NaN or inf entry raises BadParam."""
    if isinstance(x, MatrixOp):
        return x.mat
    m = np.asarray(x, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise BadParam("matrix has a NaN or infinite entry")
    return m


def _dims(x) -> tuple[int, int]:
    """The declared bipartite dims (dA, dB) of a MatrixOp; MissingDims for a
    MatrixOp without dims and for anything else, a raw matrix declaring none."""
    if not isinstance(x, MatrixOp):
        raise MissingDims(f"operation needs a MatrixOp with bipartite dims, got {type(x).__name__}")
    return x.require_dims()


def _check_square(m: np.ndarray) -> None:
    """Raise DimMismatch unless m is a non-empty square 2-D array."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DimMismatch(f"expected a non-empty square matrix, got shape {m.shape}")


def _square_side(n: int, what: str) -> int:
    """The side d of the square split (d, d) of size n = d^2, else DimMismatch."""
    d = math.isqrt(n)
    if d * d != n:
        raise DimMismatch(f"{what} size {n} is not a perfect square")
    return d


def _split(dims, n: int) -> tuple[int, int]:
    """dims (dA, dB) as ints; DimMismatch unless dims is a pair, both pass
    _is_int(., 1) and dA dB = n."""
    try:
        da, db = dims
    except (TypeError, ValueError):
        raise DimMismatch(f"dims {dims!r} are not a pair (dA, dB)") from None
    if not (_is_int(da, 1) and _is_int(db, 1)) or da * db != n:
        raise DimMismatch(f"dims {dims} incompatible with size {n}")
    return int(da), int(db)


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only complex copy that passed _matrix's entry rule."""
    out = _matrix(np.array(a, dtype=np.complex128, copy=True, order="C"))
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MatrixOp:
    """Dense complex square matrix, optionally with integer bipartite dims
    (d_A, d_B). Its matrix is a read-only copy, so its spectrum `eig` is
    taken once, on first read, and kept."""

    mat: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        m = _freeze(self.mat)
        _check_square(m)
        if self.dims is not None:
            object.__setattr__(self, "dims", _split(self.dims, m.shape[0]))
        object.__setattr__(self, "mat", m)

    def require_dims(self) -> tuple[int, int]:
        if self.dims is None:
            raise MissingDims("operation needs bipartite dims but none are declared")
        return self.dims

    @functools.cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """hermitian_eig of the matrix (its gate and its refusals included),
        both arrays read-only: every certificate of this matrix reads it."""
        w, v = hermitian_eig(self)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


@dataclass(frozen=True, eq=False)
class BipartiteVector:
    """Vector in C^{d_A} (x) C^{d_B}, amplitudes in row-major Kronecker order."""

    d_a: int
    d_b: int
    amp: np.ndarray

    def __post_init__(self) -> None:
        a = _freeze(self.amp)
        if a.ndim != 1:
            raise DimMismatch(f"amplitudes must be a 1-D array, got shape {a.shape}")
        da, db = _split((self.d_a, self.d_b), a.shape[0])
        object.__setattr__(self, "d_a", da)
        object.__setattr__(self, "d_b", db)
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
    Raises ZeroVector on the zero vector (a BipartiteVector is finite); any
    other vector, however small, has a rank (it is relative)."""
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
    da, db = _dims(x)
    return MatrixOp(_pt_array(x.mat, da, db, subsystem), dims=(da, db))


def reshuffle(superop: np.ndarray, d: int) -> np.ndarray:
    """Superoperator ordering -> Choi ordering: out_{ij,kl} = in_{jl,ik}."""
    s4 = np.asarray(superop, dtype=np.complex128).reshape(d, d, d, d)
    return s4.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def unreshuffle(choi: np.ndarray, d: int) -> np.ndarray:
    """Choi ordering -> superoperator ordering: out_{ab,ce} = in_{ca,eb}.
    Exact inverse of reshuffle (pure index permutation, no arithmetic)."""
    c4 = np.asarray(choi, dtype=np.complex128).reshape(d, d, d, d)
    return c4.transpose(1, 3, 0, 2).reshape(d * d, d * d)


def check_hermitian(m: np.ndarray) -> None:
    """The Hermiticity gate: DimMismatch unless X is a square matrix, then
    NotHermitian when max |X - X^dag| > HERM_TOL * max |X|, at every scale."""
    _check_square(m)
    _check_hermitian_pair(m, lambda x: x.conj().T)


def _check_hermitian_pair(m: np.ndarray, dagger, axes=None) -> None:
    """check_hermitian for X held in any layout, given dagger, which maps an
    array in that layout to its adjoint in the same layout: the decision
    and the message depend only on the entries. With
    axes, m is a stack whose members span those axes, and each member is
    judged against its own margin; the message gives the deviation of the
    first member that fails.

    X/4 - X^dag/4 is judged against HERM_TOL * max|X/4|: for finite X no
    modulus of these overflows, and quartering is exact outside the
    subnormal range, so the decision is that on X itself."""
    quarter = 0.25 * m
    devs = np.abs(quarter - dagger(quarter)).max(axis=axes)
    if axes is None:
        if devs > _margin(quarter, HERM_TOL):
            raise NotHermitian(f"max |X - X^dag| = {4.0 * float(devs):.3e} exceeds tolerance")
        return
    failing = np.flatnonzero(devs > _margin(quarter, HERM_TOL, axes))
    if failing.size:
        i = int(failing[0])
        raise NotHermitian(f"max |X - X^dag| = {4.0 * float(devs[i]):.3e} exceeds tolerance "
                           f"(stack member {i})")


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2 over the last two axes, formed as M/2 + M^dag/2 so that
    it does not overflow for finite M; halving is exact outside the
    subnormal range, so it equals the halved sum wherever that sum is finite
    and normal."""
    return 0.5 * m + 0.5 * m.conj().swapaxes(-1, -2)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part of a finite, gated m, one matrix or each
    member of a non-empty (r, n, n) stack in one LAPACK call per member;
    BadParam if a spectrum is not finite, naming the eigenvalue range of the
    first member whose spectrum is not."""
    w, v = np.linalg.eigh(_hermitian_part(m))
    first = w if w.ndim == 1 else w[np.argmin(np.isfinite(w[:, 0]) & np.isfinite(w[:, -1]))]
    if not (math.isfinite(first[0]) and math.isfinite(first[-1])):
        raise BadParam(f"the spectrum is not finite (eigenvalues from {first[0]} to {first[-1]})")
    return w, v


def hermitian_eig(x: MatrixOp | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gated eigen-decomposition, ascending: _matrix, the Hermiticity gate,
    _eigh. x is one square matrix, or a non-empty (r, n, n) stack of them,
    decided in one call: each member is gated against its own margin (the
    rule of check_hermitian) and eigh runs the same LAPACK routine on each,
    so every member's (w, v) equals that of its own call."""
    m = _matrix(x)
    if m.ndim == 3 and m.size and m.shape[1] == m.shape[2]:
        _check_hermitian_pair(m, lambda x: x.conj().swapaxes(1, 2), axes=(1, 2))
    else:
        check_hermitian(m)
    return _eigh(m)


def hs_inner(a: MatrixOp | np.ndarray, b: MatrixOp | np.ndarray) -> float:
    """Hilbert-Schmidt pairing Tr(a b) of two Hermitian matrices (real)."""
    ma, mb = _matrix(a), _matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatch(f"shape mismatch {ma.shape} vs {mb.shape}")
    check_hermitian(ma)
    check_hermitian(mb)
    return _pairing(ma, mb)


def _pairing(ma: np.ndarray, mb: np.ndarray) -> float:
    """Re Tr(A B) of two same-shape square arrays, with no entry rule or gate:
    the one formula of hs_inner and of dual_pairing, whose Choi matrices
    already passed their maps' gates."""
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
    return _rank(np.linalg.svd(_matrix(m), compute_uv=False), RANK_TOL)
