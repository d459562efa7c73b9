"""Rank-constrained quadratic-form minimizer (the hot kernel).

Minimizes <psi| C |psi> over unit vectors psi in C^{dA} (x) C^{dB} of Schmidt
rank <= k by alternating eigenproblems: with one side's orthonormal frame
fixed, the optimal other side is the bottom eigenvector of a small effective
matrix, so the objective is exact and monotone at every half-step.

All restarts advance together. Each half-step takes one stacked `svd` of the
active restarts' coefficient matrices, builds their effective matrices by a
`tensordot` of C (viewed as a dA x dB x dA x dB tensor) with the fixed frames
followed by a two-operand `einsum`, and takes one stacked `eigh`. A restart
leaves the active set on the sweep at which its value moves by less than
the stop threshold, so every restart runs exactly the sweeps it would run on
its own.
tests/_seesaw_oracle.py keeps the one-restart-at-a-time scalar loop as the
reference the parity tests compare against.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParam

# Always False: no compiled kernel exists; perfbench's environment header reads it.
NUMBA_ACTIVE = False


def _seesaw_kernel(C, da, db, k, starts, max_iters, eps_conv):
    # C: (da*db, da*db) complex128 Hermitian.
    # starts: (restarts, da, db) complex128.
    # Returns (best value, best coefficient matrix, total sweeps).
    c4 = C.reshape(da, db, da, db)
    n_restarts = starts.shape[0]
    norms = np.sqrt(np.sum(np.abs(starts.reshape(n_restarts, -1)) ** 2, axis=1))
    m = starts / norms[:, None, None]
    q = np.full(n_restarts, np.inf)  # each restart's value after its last sweep
    active = np.arange(n_restarts)
    sweeps = 0
    for _ in range(max_iters):
        r = active.size
        # Fix the right frames V (rows span the row space of m, padded to k):
        # aeff[r, a, i, c, l] = sum_{b, e} conj(v[r, i, b]) C[a, b, c, e] v[r, l, e].
        v = np.linalg.svd(m[active])[2][:, :k, :]
        cv = np.tensordot(c4, v, axes=([3], [2]))  # (a, b, c, r, l)
        aeff = np.einsum("rib,abcrl->raicl", v.conj(), cv).reshape(r, da * k, da * k)
        aeff = 0.5 * (aeff + aeff.conj().swapaxes(1, 2))
        p = np.linalg.eigh(aeff)[1][:, :, 0].reshape(r, da, k)
        # Fix the left frames U (columns span the column space of m):
        # beff[r, i, b, l, e] = sum_{a, c} conj(u[r, a, i]) C[a, b, c, e] u[r, c, l].
        u = np.linalg.svd(p @ v)[0][:, :, :k]
        cu = np.tensordot(c4, u, axes=([2], [1]))  # (a, b, e, r, l)
        beff = np.einsum("rai,aberl->rible", u.conj(), cu).reshape(r, k * db, k * db)
        beff = 0.5 * (beff + beff.conj().swapaxes(1, 2))
        w_b, vec_b = np.linalg.eigh(beff)
        m[active] = u @ vec_b[:, :, 0].reshape(r, k, db)
        q_new = w_b[:, 0]
        converged = np.abs(q[active] - q_new) < eps_conv
        q[active] = q_new
        sweeps += r
        active = active[~converged]
        if active.size == 0:
            break
    # Strictly smaller wins, so the first restart wins a tie; NaN never wins.
    best = int(np.argmin(np.where(q < np.inf, q, np.inf)))
    if not q[best] < np.inf:
        return np.inf, np.zeros((da, db), dtype=np.complex128), sweeps
    return q[best], m[best].copy(), sweeps


def random_starts(da: int, db: int, k: int, restarts: int, seed: int) -> np.ndarray:
    """Rank <= k complex Gaussian start matrices; restart r uses seed + r."""
    starts = np.empty((restarts, da, db), dtype=np.complex128)
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        g1 = rng.normal(size=(da, k)) + 1j * rng.normal(size=(da, k))
        g2 = rng.normal(size=(k, db)) + 1j * rng.normal(size=(k, db))
        starts[r] = g1 @ g2
    return starts


def seesaw_minimize(c_mat: np.ndarray, dims: tuple[int, int], k: int,
                    restarts: int = 20, max_iters: int = 500,
                    eps_conv: float = 1e-10,
                    seed: int = 42) -> tuple[float, np.ndarray, int]:
    """Best value, best dA x dB coefficient matrix (unit Frobenius norm, rank
    <= k) and total sweep count over all restarts. Deterministic in seed.

    A restart stops when its value moves by less than
    eps_conv * max(1, max|C|), so the stop rule scales with C above unit size.

    Raises BadParam unless restarts >= 1 and max_iters >= 1: a search that
    never runs has no value to report.
    """
    if restarts < 1:
        raise BadParam(f"need restarts >= 1, got {restarts}")
    if max_iters < 1:
        raise BadParam(f"need max_iters >= 1, got {max_iters}")
    da, db = dims
    c = np.asarray(c_mat, dtype=np.complex128)
    starts = random_starts(da, db, k, restarts, seed)
    tol = float(eps_conv) * max(1.0, float(np.abs(c).max()))
    best_q, best_m, sweeps = _seesaw_kernel(c, da, db, k, starts, int(max_iters), tol)
    return float(best_q), best_m, int(sweeps)
