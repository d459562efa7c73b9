"""Rank-constrained quadratic-form minimizer (the hot kernel).

Minimizes <psi| C |psi> over unit vectors psi in C^{dA} (x) C^{dB} of Schmidt
rank <= k by alternating eigenproblems: with one side's orthonormal frame
fixed, the optimal other side is the bottom eigenvector of a small effective
matrix, so the objective is exact and monotone at every half-step.

Near the boundary of a cone the minimum sits in a flat valley where these
sweeps converge linearly and slowly. A restart whose per-sweep decrease
keeps more than half of the previous one on two consecutive sweeps (after at
least 5 sweeps) enters a quasi-Newton phase on the reduced objective
f(V) = lmin(aeff(V)), the exact minimum over the first factor for a k-frame
V of the second, which depends only on the row space of V (a point of the
Grassmannian; Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008). The phase works in the chart W = [1 X] Q0, where the rows
of the unitary Q0 start with the current frame, normalizes V = (W W^H)^(-1/2)
W, takes the gradient from Hellmann-Feynman at the cost of one effective
matrix and one `eigh`, and runs BFGS with an Armijo backtracking line
search, so every accepted step lowers the value. Once |X|_F exceeds 1 the
chart is restarted at the current point (inside, every principal angle to
the chart's frame is below 45 degrees). The phase ends at an accepted step
that gains less than the stop threshold, or when a rejected step's predicted
gain falls below it; see-saw sweeps then resume, and their exact half-steps
leave any saddle of f. Every value held is an attained lmin with its
eigenvector as witness, never an extrapolation.

All restarts advance together: on each iteration the restarts in the see-saw
take one sweep and those in the phase one evaluation of f, each group
through stacked `eigh`/`qr` calls and a `tensordot` of C (viewed as a
dA x dB x dA x dB tensor) with the fixed frames followed by a two-operand
`einsum`. The kernel keeps each restart's right frame (k orthonormal rows)
and takes every frame from a factor it already holds, since the minimum
over a frame depends only on the frame's span: the left frame U is the Q of
`qr(P)` for the bottom eigenvector P (dA x k) of the left half-step, the
next right frame the Q of `qr(B^H)` for the bottom eigenvector B (k x dB)
of the right half-step, as the iterate is U B; a quasi-Newton step hands
over its frame V directly. The starts and their first frames come from a
small memo, so a repeated configuration (the rows of a threshold scan, the
levels of two chains) runs no `svd` at all. A restart stops when a sweep
moves its value by less than the stop threshold, or after max_iters
iterations (sweeps and evaluations together). tests/_seesaw_oracle.py keeps
the one-restart-at-a-time scalar see-saw loop as the reference the tests
compare against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BadParam
from .linalg import _check_eps, _margin

# Always False: no compiled kernel exists; perfbench's environment header reads it.
NUMBA_ACTIVE = False

# A restart enters the quasi-Newton phase after at least _QN_AFTER see-saw
# sweeps in a row, once two consecutive sweeps each kept more than _QN_SLOW
# of the previous sweep's decrease (slow linear convergence). _ARMIJO is the
# sufficient-decrease constant of the line search; a chart is restarted once
# |X|_F^2 > _CHART_R2, before its metric distorts.
_QN_AFTER = 5
_QN_SLOW = 0.5
_ARMIJO = 1e-4
_CHART_R2 = 1.0


def _bottom_left(c4, v, da, k):
    # Exact minimum over the first factor for right frames v (r, k, db):
    # aeff[r, a, i, c, l] = sum_{b, e} conj(v[r, i, b]) C[a, b, c, e] v[r, l, e];
    # returns its bottom eigenvalues (r,) and eigenvectors as (r, da, k).
    r = v.shape[0]
    cv = np.tensordot(c4, v, axes=([3], [2]))  # (a, b, c, r, l)
    aeff = np.einsum("rib,abcrl->raicl", v.conj(), cv).reshape(r, da * k, da * k)
    aeff = 0.5 * (aeff + aeff.conj().swapaxes(1, 2))
    w, vec = np.linalg.eigh(aeff)
    return w[:, 0], vec[:, :, 0].reshape(r, da, k)


def _bottom_right(c4, u, db, k):
    # Exact minimum over the second factor for left frames u (r, da, k):
    # beff[r, i, b, l, e] = sum_{a, c} conj(u[r, a, i]) C[a, b, c, e] u[r, c, l];
    # returns its bottom eigenvalues (r,) and eigenvectors as (r, k, db).
    r = u.shape[0]
    cu = np.tensordot(c4, u, axes=([2], [1]))  # (a, b, e, r, l)
    beff = np.einsum("rai,aberl->rible", u.conj(), cu).reshape(r, k * db, k * db)
    beff = 0.5 * (beff + beff.conj().swapaxes(1, 2))
    w, vec = np.linalg.eigh(beff)
    return w[:, 0], vec[:, :, 0].reshape(r, k, db)


def _row_frame(b, mode="reduced"):
    # Q^H for the Q of qr(b^H): k orthonormal rows spanning the row space of
    # each b (r, k, db), padded where b is rank deficient; mode="complete"
    # extends them to a unitary (r, db, db), the frame of a chart.
    return np.linalg.qr(b.conj().swapaxes(1, 2), mode=mode)[0].conj().swapaxes(1, 2)


def _reduced(C, c4, frame, x, da, k):
    # f(V) = lmin(aeff(V)) at W = [1 X] frame, V = S W with S = (W W^H)^(-1/2);
    # the complex k x (db - k) chart coordinate X is stored as the float64
    # view x of its entries. Returns f, the witness m = P V, the frame V and
    # the gradient of f in x (Hellmann-Feynman: df/dconj(W) = (P S)^H (G - f m),
    # where G = mat(C vec m), and df/dx is the float view of 2 df/dconj(X)).
    r, db = frame.shape[0], frame.shape[1]
    perp = frame[:, k:]
    w = frame[:, :k] + x.view(np.complex128).reshape(r, k, db - k) @ perp
    lam, e = np.linalg.eigh(w @ w.conj().swapaxes(1, 2))  # W W^H = 1 + X X^H
    s = (e * lam[:, None, :] ** -0.5) @ e.conj().swapaxes(1, 2)
    v = s @ w
    f, p = _bottom_left(c4, v, da, k)
    ps = p @ s
    m = ps @ w
    g = (m.reshape(r, -1) @ C.T).reshape(r, da, db) - f[:, None, None] * m
    gx = ps.conj().swapaxes(1, 2) @ g @ perp.conj().swapaxes(1, 2)
    return f, m, v, 2.0 * gx.reshape(r, -1).view(np.float64)


def _seesaw_kernel(C, da, db, k, starts, frames, max_iters, eps_conv):
    # C: (da*db, da*db) complex128 Hermitian.
    # starts: (restarts, da, db) complex128, unit Frobenius norm.
    # frames: (restarts, k, db) complex128, orthonormal rows spanning each
    # start's row space (padded to k rows where its rank is below k).
    # Returns (best value, best coefficient matrix, total iterations).
    c4 = C.reshape(da, db, da, db)
    n_restarts = starts.shape[0]
    m = starts.copy()
    vr = frames.copy()  # each restart's right frame: rows span the row space of m
    q = np.full(n_restarts, np.inf)  # each restart's value at m
    live = np.ones(n_restarts, dtype=bool)
    # see-saw state: sweeps since the start or the last phase, last two decreases
    run = np.zeros(n_restarts, dtype=np.int64)
    dec1 = np.full(n_restarts, np.inf)
    dec2 = np.full(n_restarts, np.inf)
    # quasi-Newton state: chart frame, point, gradient, inverse Hessian,
    # direction and step length; stage 2 marks a chart whose origin is not
    # yet evaluated, stage 1 one whose inverse Hessian is not yet rescaled
    nx = 2 * k * (db - k)
    phase = np.zeros(n_restarts, dtype=bool)
    stage = np.zeros(n_restarts, dtype=np.int64)
    frame = np.zeros((n_restarts, db, db), dtype=np.complex128)
    x = np.zeros((n_restarts, nx))
    grad = np.zeros((n_restarts, nx))
    hinv = np.zeros((n_restarts, nx, nx))
    step = np.zeros((n_restarts, nx))
    slope = np.zeros(n_restarts)  # grad . step
    t = np.zeros(n_restarts)
    eye = np.eye(nx)
    iters = 0
    for _ in range(max_iters):
        sw = np.flatnonzero(live & ~phase)
        qn = np.flatnonzero(phase)
        iters += sw.size + qn.size
        if sw.size:
            r = sw.size
            i = sw if r < n_restarts else slice(None)
            # With the right frames V fixed, the bottom P gives m = P V, whose
            # column space is that of P: its Q is the left frame U. With U
            # fixed, the bottom B gives m = U B, whose row space is that of B.
            p = _bottom_left(c4, vr[i], da, k)[1]
            u = np.linalg.qr(p)[0]
            q_new, b = _bottom_right(c4, u, db, k)
            m[i] = u @ b
            dec = q[i] - q_new
            converged = np.abs(dec) < eps_conv
            q[i] = q_new
            run[i] += 1
            slow = ~converged & (run[i] >= _QN_AFTER)
            if slow.any():
                slow &= (dec > _QN_SLOW * dec1[i]) & (dec1[i] > _QN_SLOW * dec2[i])
            dec2[i] = dec1[i]
            dec1[i] = dec
            live[sw[converged]] = False
            if not converged.all():
                # only restarts that sweep on (or enter the phase) need a frame
                vr[sw[~converged]] = _row_frame(b[~converged])
            if slow.any():
                enter = sw[slow]
                frame[enter] = _row_frame(vr[enter], "complete")
                x[enter] = 0.0
                step[enter] = 0.0
                slope[enter] = 0.0
                phase[enter] = True
                stage[enter] = 2
        if qn.size:
            r = qn.size
            i = qn if r < n_restarts else slice(None)
            tq, st, x0 = t[i], stage[i], x[i]
            s = tq[:, None] * step[i]
            trial = x0 + s
            f, m_new, v_new, g = _reduced(C, c4, frame[i], trial, da, k)
            gain = q[i] - f
            origin = st == 2
            # Armijo's sufficient decrease; a chart's origin is always taken
            ok = origin | (gain >= -_ARMIJO * tq * slope[i])
            y = g - grad[i]
            sy = (s * y).sum(1)
            upd = ok & (sy > 0.0)  # s = 0 at an origin: no update there
            h = hinv[i]
            if upd.any():
                # BFGS update of the inverse Hessian; the first one in a chart
                # starts from (s.y / y.y) 1 (Nocedal & Wright, eq. 6.20)
                first = upd & (st == 1)
                if first.any():
                    h0 = sy / np.maximum((y * y).sum(1), np.finfo(float).tiny)
                    h = np.where(first[:, None, None], h0[:, None, None] * eye, h)
                    st = np.where(first, 0, st)
                rho = np.divide(1.0, sy, out=np.zeros(r), where=upd)
                hy = (h @ y[:, :, None])[:, :, 0]
                shy = s[:, :, None] * hy[:, None, :]
                h = (h - rho[:, None, None] * (shy + shy.swapaxes(1, 2))
                     + (rho * (1.0 + rho * (y * hy).sum(1)))[:, None, None]
                     * (s[:, :, None] * s[:, None, :]))
            if origin.any():
                # a chart's first step predicts the last sweep's decrease
                gg = (g * g).sum(1)
                h0 = np.divide(dec1[i], gg, out=np.zeros(r), where=origin & (gg > 0.0))
                h = np.where(origin[:, None, None], h0[:, None, None] * eye, h)
                st = np.where(origin, 1, st)
            okc = ok[:, None]
            x0 = np.where(okc, trial, x0)
            g0 = np.where(okc, g, grad[i])
            sp = np.where(okc, -(h @ g0[:, :, None])[:, :, 0], step[i])
            sl = (g0 * sp).sum(1)
            tq = np.where(ok, 1.0, 0.5 * tq)
            q[i] = np.where(ok, f, q[i])
            ok3 = ok[:, None, None]
            m[i] = np.where(ok3, m_new, m[i])
            vr[i] = np.where(ok3, v_new, vr[i])
            # far from its frame the chart distorts: start a new one at the point
            far = ok & ((x0 * x0).sum(1) > _CHART_R2)
            if far.any():
                frame[qn[far]] = _row_frame(v_new[far], "complete")
                x0[far] = 0.0
                sp[far] = 0.0
                sl[far] = 0.0
                st = np.where(far, 2, st)
            x[i], grad[i], step[i], slope[i], hinv[i], t[i], stage[i] = x0, g0, sp, sl, h, tq, st
            # the phase ends at an accepted step that gained less than the
            # stop threshold, or once a rejected step's predicted gain falls
            # below it; see-saw sweeps resume there
            stay = far | np.where(ok, (origin | (gain >= eps_conv)) & (sl < 0.0),
                                  -tq * sl >= eps_conv)
            if not stay.all():
                out = qn[~stay]
                phase[out] = False
                run[out] = 0
                dec1[out] = np.inf
                dec2[out] = np.inf
        if not live.any():
            break
    # Strictly smaller wins, so the first restart wins a tie; NaN never wins.
    best = int(np.argmin(np.where(q < np.inf, q, np.inf)))
    if not q[best] < np.inf:
        return np.inf, np.zeros((da, db), dtype=np.complex128), iters
    return q[best], m[best].copy(), iters


def random_starts(da: int, db: int, k: int, restarts: int, seed: int) -> np.ndarray:
    """Rank <= k complex Gaussian start matrices; restart r uses seed + r."""
    starts = np.empty((restarts, da, db), dtype=np.complex128)
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        g1 = rng.normal(size=(da, k)) + 1j * rng.normal(size=(da, k))
        g2 = rng.normal(size=(k, db)) + 1j * rng.normal(size=(k, db))
        starts[r] = g1 @ g2
    return starts


@functools.lru_cache(maxsize=8)
def _starts(da: int, db: int, k: int, restarts: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """random_starts scaled to unit Frobenius norm, and their right k-frames
    (orthonormal rows spanning each start's row space), both read-only.

    Memoized: one `svd` per configuration, not one per call. The memo keeps
    the 8 configurations used last, restarts * (da + k) * db complex entries
    each (9 KB at 20 restarts, d = 4 and k = 3), so it holds a few calls'
    starts and never grows beyond them.
    """
    starts = random_starts(da, db, k, restarts, seed)
    norms = np.sqrt(np.sum(np.abs(starts.reshape(restarts, -1)) ** 2, axis=1))
    starts /= norms[:, None, None]
    frames = np.linalg.svd(starts)[2][:, :k, :].copy()
    starts.setflags(write=False)
    frames.setflags(write=False)
    return starts, frames


def seesaw_minimize(c_mat: np.ndarray, dims: tuple[int, int], k: int,
                    restarts: int = 20, max_iters: int = 500,
                    eps_conv: float = 1e-10,
                    seed: int = 42) -> tuple[float, np.ndarray, int]:
    """Best value, best dA x dB coefficient matrix (unit Frobenius norm, rank
    <= k) and the total iteration count over all restarts: see-saw sweeps
    plus quasi-Newton evaluations. Deterministic in seed.

    A restart stops when a sweep moves its value by less than
    eps_conv * max|C|, so the stop rule scales with C at every size (C = 0
    stops on its second sweep), or after max_iters iterations.

    Raises BadParam unless restarts >= 1 and max_iters >= 1 (a search that
    never runs has no value to report) and eps_conv is finite and >= 0 (a
    negative threshold stops every restart at once, a NaN one none).
    """
    if restarts < 1:
        raise BadParam(f"need restarts >= 1, got {restarts}")
    if max_iters < 1:
        raise BadParam(f"need max_iters >= 1, got {max_iters}")
    _check_eps("eps_conv", eps_conv)
    da, db = dims
    c = np.asarray(c_mat, dtype=np.complex128)
    starts, frames = _starts(da, db, k, restarts, seed)
    # The kernel runs on C / 2^e with max|C / 2^e| in [1/2, 1): dividing by a
    # power of two is exact, so the search is the same at every scale of C,
    # and no squared gradient of the quasi-Newton phase under- or overflows.
    top = float(np.abs(c).max())
    scale = math.ldexp(1.0, math.frexp(top)[1]) if 0.0 < top < math.inf else 1.0
    c = c / scale
    best_q, best_m, iters = _seesaw_kernel(c, da, db, k, starts, frames, int(max_iters),
                                           _margin(c, float(eps_conv)))
    return float(best_q) * scale, best_m, int(iters)
