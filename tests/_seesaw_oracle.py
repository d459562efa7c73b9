"""Test-only reference for the see-saw kernel: the scalar loop that
`conekit._seesaw` used before the batched kernel, kept verbatim. It is the
plain see-saw, with no quasi-Newton phase.

It runs one restart at a time and builds every effective-matrix entry in
nested Python loops, so it is slow. test_seesaw.py calls it on small inputs
in two ways: where no restart enters the kernel's quasi-Newton phase
(reduction and CP maps, rotated Kronecker forms) the kernel must reproduce
its values, sweep counts and (for a unique minimiser) witnesses; where the
phase runs, the kernel's value must never be above the loop's, also with the
loop run to 20 000 sweeps on the maps near the k-positivity boundary.

The loop keeps the full-sweep stop rule: a restart ends after the sweep
that moves its value by less than eps_conv. The kernel stops within that
same sweep, after its left half-step (whose gain is then below eps_conv
too), so the sweep counts agree and the values differ by at most the
skipped right half-step's gain.
"""

import numpy as np


def _seesaw_kernel(C, da, db, k, starts, max_iters, eps_conv):
    # C: (da*db, da*db) complex128 Hermitian, contiguous.
    # starts: (restarts, da, db) complex128.
    # Returns (best value, best coefficient matrix, total sweeps).
    n_restarts = starts.shape[0]
    best_q = np.inf
    best_m = np.zeros((da, db), dtype=np.complex128)
    sweeps = 0
    for r in range(n_restarts):
        m = starts[r] / np.sqrt(np.sum(np.abs(starts[r]) ** 2))
        q = np.inf
        q_prev = np.inf
        for _ in range(max_iters):
            # Fix the right frame V (rows span the row space of m, padded to k).
            u0, s0, vh0 = np.linalg.svd(m)
            v = np.ascontiguousarray(vh0[:k, :])
            aeff = np.zeros((da * k, da * k), dtype=np.complex128)
            for a in range(da):
                for c in range(da):
                    for i in range(k):
                        for l in range(k):
                            acc = 0.0 + 0.0j
                            for b in range(db):
                                cv = np.conj(v[i, b]) * 1.0
                                for e in range(db):
                                    acc += cv * C[a * db + b, c * db + e] * v[l, e]
                            aeff[a * k + i, c * k + l] = acc
            aeff = 0.5 * (aeff + np.conj(aeff.T))
            w_a, vec_a = np.linalg.eigh(aeff)
            q = w_a[0]
            p = np.ascontiguousarray(vec_a[:, 0]).reshape(da, k)
            m = p @ v
            # Fix the left frame U (columns span the column space of m).
            u1, s1, vh1 = np.linalg.svd(m)
            u = np.ascontiguousarray(u1[:, :k])
            beff = np.zeros((k * db, k * db), dtype=np.complex128)
            for i in range(k):
                for l in range(k):
                    for a in range(da):
                        cu = np.conj(u[a, i])
                        for c in range(da):
                            f = cu * u[c, l]
                            for b in range(db):
                                for e in range(db):
                                    beff[i * db + b, l * db + e] += (
                                        f * C[a * db + b, c * db + e]
                                    )
            beff = 0.5 * (beff + np.conj(beff.T))
            w_b, vec_b = np.linalg.eigh(beff)
            q = w_b[0]
            wv = np.ascontiguousarray(vec_b[:, 0]).reshape(k, db)
            m = u @ wv
            sweeps += 1
            if abs(q_prev - q) < eps_conv:
                break
            q_prev = q
        if q < best_q:
            best_q = q
            best_m = m.copy()
    return best_q, best_m, sweeps
