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
through stacked `eigh`/`qr` calls. The Schmidt-rank <= k vectors are the
same with the two factors swapped, so the minimum over the second factor is
the minimum over the first of S C S (S the swap): one helper is the only
half-step, given C's tensor (dA x dB x dA x dB, summed axis last) on the
left and that of S C S, formed once per search, on the right. Its effective
matrix is one gemm of the tensor with the stacked fixed frames, then a
two-operand `einsum`; `eigh` reads one triangle of it, so no Hermitian part
is formed. The groups are recomputed only when a
restart converges, enters the phase or leaves it, which saves numpy calls,
not arithmetic. A phase evaluation has one step update: it builds the
accepted step's state for its whole group, then patches the rows whose step
was rejected. Charts open in one place, after the phase's evaluation, for
the restarts that entered the phase and those whose chart went far, in one
stacked `qr`. The kernel keeps each restart's right frame (k
orthonormal rows) and takes every frame by one rule, the rows of Q^T for
the Q of `qr(X)`, from a factor X (n x k) it already holds, since the
minimum over a frame depends only on the frame's span: the left frame U^T
is that of the bottom eigenvector P (dA x k) of the left half-step, the
next right frame that of the bottom eigenvector B (dB x k) of the right
half-step, as the iterate is (B U^T)^T; a
quasi-Newton step hands over its frame V directly. The starts' frames (the
first sweep reads nothing else) follow the same rule from their first k
rows and come from a memo, so two chains' levels draw their starts once. A
restart stops when a sweep moves its value by less than the stop threshold
_EPS_CONV * max|C|, or after _MAX_ITERS iterations (sweeps and evaluations
together). It stops earlier in the same sweep, skipping the right
half-step with its `eigh` and its two `qr` calls, when the left half-step
gains less than the threshold and the restart has a full sweep behind it
since its start or its last phase: a sweep's decrease is the sum of its
half-steps' decreases, both >= 0. The value and witness P V kept are that half-step's, and the cut
sweep counts as one iteration.
tests/_seesaw_oracle.py keeps the one-restart-at-a-time scalar see-saw loop
as the reference the tests compare against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (_TINY, _check_count, _check_eps, _check_level, _check_square,
                     _gaussian_products, _margin, _matrix, _pow2_scaled, _split)

# Always False: no compiled kernel exists; perfbench's environment header reads it.
NUMBA_ACTIVE = False

# A restart enters the quasi-Newton phase after at least _QN_AFTER see-saw
# sweeps in a row, once two consecutive sweeps each kept more than _QN_SLOW
# of the previous sweep's decrease (slow linear convergence). _ARMIJO is the
# sufficient-decrease constant of the line search; a chart is restarted once
# |X|_F^2 > _CHART_R2, before its metric distorts. A restart stops after
# _MAX_ITERS iterations or at the stop threshold _EPS_CONV * max|C|.
_QN_AFTER = 5
_QN_SLOW = 0.5
_ARMIJO = 1e-4
_CHART_R2 = 1.0
_MAX_ITERS = 500
_EPS_CONV = 1e-10


def _bottom(cx, v, n, k):
    # Exact minimum over the first factor of the (n, m, n, m) tensor cx for
    # frames v (r, k, m) of the second: the bottom eigenpairs (r,), (r, n, k) of
    # eff[r, a, i, c, l] = sum_{b, e} conj(v[r, i, b]) cx[a, b, c, e] v[r, l, e].
    # cv[a, b, c, r, l] = sum_e cx[a, b, c, e] v[r, l, e] is one gemm; eigh
    # reads one triangle of eff, so no Hermitian part is formed.
    r, m = v.shape[0], v.shape[2]
    cv = (cx.reshape(-1, m) @ v.transpose(2, 0, 1).reshape(m, -1)).reshape(n, m, n, r, k)
    eff = np.einsum("rib,abcrl->raicl", v.conj(), cv).reshape(r, n * k, n * k)
    w, vec = np.linalg.eigh(eff)
    return w[:, 0], vec[:, :, 0].reshape(r, n, k)


def _frame(p):
    # Q^T for the Q of qr(p): k orthonormal rows spanning the column space of
    # each p (r, n, k), padded where p is rank deficient.
    return np.linalg.qr(p)[0].swapaxes(1, 2)


def _chart_frame(v):
    # A unitary (r, db, db) whose first k rows span the rows of each v (r, k, db).
    return np.linalg.qr(v.swapaxes(1, 2), mode="complete")[0].swapaxes(1, 2)


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
    f, p = _bottom(c4, v, da, k)
    ps = p @ s
    m = ps @ w
    g = (m.reshape(r, -1) @ C.T).reshape(r, da, db) - f[:, None, None] * m
    gx = ps.conj().swapaxes(1, 2) @ g @ perp.conj().swapaxes(1, 2)
    return f, m, v, 2.0 * gx.reshape(r, -1).view(np.float64)


def _seesaw_kernel(C, da, db, k, frames, max_iters, eps_conv):
    # C: (da*db, da*db) complex128 Hermitian.
    # frames: (restarts, k, db) complex128, orthonormal rows spanning each
    # start's row space (padded to k rows where its rank is below k); the
    # first sweep sets every iterate m from them.
    # Returns (best value, best coefficient matrix, total iterations).
    c4 = C.reshape(da, db, da, db)
    # S C S for the swap S of the factors: the right half-step's tensor
    c4s = np.ascontiguousarray(c4.transpose(1, 0, 3, 2))
    n_restarts = frames.shape[0]
    m = np.empty((n_restarts, da, db), dtype=np.complex128)
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
    # the restarts in the see-saw (sw) and in the phase (qn), and the index
    # of each group (a slice when it holds every restart, so that its
    # gathers are views); regrouped only after a restart converges, enters
    # the phase or leaves it
    sw, qn = np.arange(n_restarts), np.arange(0)
    isw, iqn = slice(None), qn
    regroup = False
    for _ in range(max_iters):
        iters += sw.size + qn.size
        opening = []  # the restarts whose chart opens on this iteration
        rows, irows = sw, isw  # the restarts that take the right half-step
        if sw.size:
            # With the right frames V fixed, the bottom P gives m = P V, whose
            # column space is that of P: _frame(P) is the left frame. A restart
            # with a full sweep behind it since its start or its last phase
            # stops here, keeping P V, when this half-step gains less than the
            # stop threshold: a sweep's gain is its two half-steps' gains,
            # both >= 0, so the full-sweep test would stop in this sweep too.
            # The first sweep after a phase starts at the phase's own
            # minimum over its frame; only its right half-step can leave a
            # saddle of f, so it always runs.
            vs = vr[isw]
            q_half, p = _bottom(c4, vs, da, k)
            half = (run[isw] > 0) & (np.abs(q[isw] - q_half) < eps_conv)
            if half.any():
                regroup = True
                done = sw[half]
                live[done] = False
                q[done], m[done] = q_half[half], p[half] @ vs[half]
                rows = irows = sw[~half]
                p = p[~half]
        if rows.size:
            # With U fixed, the left half-step of S C S gives the bottom B
            # (dB x k) and m = (B U^T)^T, whose row space is the column
            # space of B: _frame(B) is the next right frame.
            u = _frame(p)
            q_new, b = _bottom(c4s, u, db, k)
            m[irows] = (b @ u).swapaxes(1, 2)
            dec = q[irows] - q_new
            converged = np.abs(dec) < eps_conv
            q[irows] = q_new
            run[irows] += 1
            slow = ~converged & (run[irows] >= _QN_AFTER)
            d1 = dec1[irows]
            if slow.any():
                slow &= (dec > _QN_SLOW * d1) & (d1 > _QN_SLOW * dec2[irows])
            dec2[irows] = d1
            dec1[irows] = dec
            if not converged.any():
                vr[irows] = _frame(b)
            else:
                regroup = True
                live[rows[converged]] = False
                if not converged.all():
                    # only restarts that sweep on (or enter the phase) need a frame
                    vr[rows[~converged]] = _frame(b[~converged])
            if slow.any():
                regroup = True
                enter = rows[slow]
                phase[enter] = True
                opening.append(enter)
        if qn.size:
            r = qn.size
            # each state array gathered once (views when iqn is a slice)
            tq, st, x0, q_old = t[iqn], stage[iqn], x[iqn], q[iqn]
            g_old, sp_old, sl_old = grad[iqn], step[iqn], slope[iqn]
            s = tq[:, None] * sp_old
            trial = x0 + s
            f, m_new, v_new, g = _reduced(C, c4, frame[iqn], trial, da, k)
            gain = q_old - f
            origin = st == 2
            # Armijo's sufficient decrease; a chart's origin is always taken
            ok = origin | (gain >= -_ARMIJO * tq * sl_old)
            y = g - g_old
            sy = (s * y).sum(1)
            upd = ok & (sy > 0.0)  # s = 0 at an origin: no update there
            h = hinv[iqn]
            if upd.any():
                # BFGS update of the inverse Hessian; the first one in a chart
                # starts from (s.y / y.y) 1 (Nocedal & Wright, eq. 6.20)
                first = upd & (st == 1)
                if first.any():
                    h0 = sy / np.maximum((y * y).sum(1), _TINY)
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
                h0 = np.divide(dec1[iqn], gg, out=np.zeros(r), where=origin & (gg > 0.0))
                h = np.where(origin[:, None, None], h0[:, None, None] * eye, h)
                st = np.where(origin, 1, st)
            # the accepted step's state for the whole group: the trial point
            # and its gradient, the new direction at t = 1, the value, witness
            # and frame found there; the phase ends at an accepted step that
            # gained less than the stop threshold
            sp = -(h @ g[:, :, None])[:, :, 0]
            sl = (g * sp).sum(1)
            tn = np.ones(r)
            far = (trial * trial).sum(1) > _CHART_R2
            stay = (origin | (gain >= eps_conv)) & (sl < 0.0)
            if not ok.all():
                # a rejected step keeps its point, gradient, direction, value,
                # witness and frame and is halved; the phase ends once its
                # predicted gain falls below the stop threshold
                rej = ~ok
                back = qn[rej]
                trial[rej], g[rej] = x0[rej], g_old[rej]
                sp[rej], sl[rej], tn[rej] = sp_old[rej], sl_old[rej], 0.5 * tq[rej]
                f[rej], m_new[rej], v_new[rej] = q_old[rej], m[back], vr[back]
                far[rej] = False
                stay[rej] = -tn[rej] * sl[rej] >= eps_conv
            q[iqn], m[iqn], vr[iqn] = f, m_new, v_new
            x[iqn], grad[iqn], step[iqn], slope[iqn], hinv[iqn], t[iqn], stage[iqn] = (
                trial, g, sp, sl, h, tn, st)
            if far.any():
                # far from its frame the chart distorts: a new one opens at the point
                opening.append(qn[far])
                stay |= far
            if not stay.all():
                regroup = True
                out = qn[~stay]
                phase[out] = False
                run[out] = 0
                dec1[out] = np.inf
                dec2[out] = np.inf
        if opening:
            # a new chart's frame extends the point's frame to a unitary, and
            # its origin is evaluated next
            new = np.concatenate(opening)
            frame[new] = _chart_frame(vr[new])
            x[new], step[new], slope[new], stage[new] = 0.0, 0.0, 0.0, 2
        if regroup:
            if not live.any():
                break
            regroup = False
            sw, qn = np.flatnonzero(live & ~phase), np.flatnonzero(phase)
            isw = sw if sw.size < n_restarts else slice(None)
            iqn = qn if qn.size < n_restarts else slice(None)
    # Every restart ran a whole first sweep, so every q is a finite eigh
    # eigenvalue; argmin takes the first restart on a tie.
    best = int(np.argmin(q))
    return q[best], m[best].copy(), iters


def random_starts(da: int, db: int, k: int, restarts: int, seed: int) -> np.ndarray:
    """Rank <= k start matrices: restart r is linalg._gaussian_products's draw at seed + r."""
    return np.concatenate([_gaussian_products(np.random.default_rng(seed + r), 1, da, k, db)
                           for r in range(restarts)])


@functools.lru_cache(maxsize=8)
def _start_frames(da: int, db: int, k: int, restarts: int, seed: int) -> np.ndarray:
    """The right k-frames of random_starts, read-only: _frame of each start's
    first k rows, which span its row space almost surely.

    Memoized: one draw per configuration, not one per call. The memo keeps
    the 8 configurations used last, 4 KB each at 20 restarts, d = 4, k = 3.
    """
    frames = _frame(random_starts(da, db, k, restarts, seed)[:, :k, :].swapaxes(1, 2))
    frames.setflags(write=False)
    return frames


@dataclass(frozen=True)
class SeesawOpts:
    """The see-saw's restarts and seed, and the margin factor eps_neg of the
    decisions built on it. BadParam unless, in this order, restarts passes
    _check_count at 1 (a search that never runs has no value), seed at 0
    and eps_neg _check_eps. restarts and seed are kept as Python ints, so a
    numpy integer given here reaches no JSON report."""

    restarts: int = 20
    eps_neg: float = 1e-9
    seed: int = 42

    def __post_init__(self) -> None:
        _check_count("restarts", self.restarts, 1)
        _check_count("seed", self.seed, 0)
        _check_eps("eps_neg", self.eps_neg)
        object.__setattr__(self, "restarts", int(self.restarts))
        object.__setattr__(self, "seed", int(self.seed))


DEFAULT_OPTS = SeesawOpts()


def seesaw_minimize(c_mat: np.ndarray, dims: tuple[int, int], k: int,
                    restarts: int = DEFAULT_OPTS.restarts,
                    seed: int = DEFAULT_OPTS.seed) -> tuple[float, np.ndarray, int]:
    """Best value, best dA x dB coefficient matrix (unit Frobenius norm, rank
    <= k) and the total iteration count over all restarts: see-saw sweeps
    plus quasi-Newton evaluations. Deterministic in seed.

    A restart stops when a sweep moves its value by less than
    _EPS_CONV * max|C|, so the stop rule scales with C at every size (C = 0
    stops on its second sweep), or after _MAX_ITERS iterations. Once it has
    a full sweep behind it since its start or since it left the
    quasi-Newton phase, it stops already when a sweep's first half-step
    gains less than that, keeping the half-step's value and witness; the
    sweep still counts as one iteration.

    Raises BadParam when restarts or seed fail SeesawOpts's rule (they are
    checked by building one) and when an entry of C is not finite (a NaN or
    inf one makes every value inf); DimMismatch unless dims are integers >= 1
    and C is (dA dB) x (dA dB); BadK unless k is an integer in 1..min(dims).
    """
    SeesawOpts(restarts, seed=seed)
    c = _matrix(c_mat)
    _check_square(c)
    da, db = _split(dims, c.shape[0])
    _check_level(k, min(da, db))
    top = float(np.abs(c).max())
    frames = _start_frames(da, db, k, restarts, seed)
    # The kernel runs on C / 2^e with max|C / 2^e| in [1/2, 1), so the search
    # is the same at every scale of C and no squared gradient of the
    # quasi-Newton phase under- or overflows; the value overflows to inf
    # only when it is not a double itself.
    c, unscale = _pow2_scaled(c, top)
    best_q, best_m, iters = _seesaw_kernel(c, da, db, k, frames, _MAX_ITERS,
                                           _margin(c, _EPS_CONV))
    return unscale(float(best_q)), best_m, int(iters)
