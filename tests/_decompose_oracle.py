"""Test-only reference for the decomposability search: the sweep loop that
`conekit.certify.decomposable_certify` used before the batched one, kept
verbatim.

It builds a MatrixOp for every partial transpose and runs three separate
`eigh` per sweep, so it is slow; the parity tests in test_certify.py call it
on small inputs to pin the new loop's A, B, residual and sweep count on every
input the search splits. It never refutes: an input that does not split runs
to `max_sweeps`.
"""

import numpy as np

from conekit.certify import DEFAULT_OPTS, Certificate, Verdict
from conekit.linalg import MatrixOp, hermitian_eig, partial_transpose


def _clip_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def decomposable_certify(c: MatrixOp, opts=DEFAULT_OPTS,
                         max_sweeps: int = 2000) -> Certificate:
    da, db = c.require_dims()
    w0, _ = hermitian_eig(c)
    target = 0.5 * (c.mat + c.mat.conj().T)

    def pt(m: np.ndarray) -> np.ndarray:
        return partial_transpose(MatrixOp(m, dims=(da, db))).mat

    x = target.copy()
    p_inc = np.zeros_like(target)
    q_inc = np.zeros_like(target)
    a_best = None
    res_best = np.inf
    sweeps_done = 0
    for sweep in range(max_sweeps):
        y = _clip_psd(x + p_inc)
        p_inc = x + p_inc - y
        z = y + q_inc
        x = target - pt(_clip_psd(pt(target - z)))
        q_inc = z - x
        sweeps_done = sweep + 1
        b = _clip_psd(pt(target - y))
        res = float(np.abs(target - y - pt(b)).max())
        if res < res_best:
            res_best = res
            a_best = y
        if res_best < opts.eps_neg:
            break

    a = _clip_psd(a_best)
    b = _clip_psd(pt(target - a))
    residual = float(np.abs(target - a - pt(b)).max())
    extras = {"A": a, "B": b, "residual": residual, "sweeps": sweeps_done}
    if residual < opts.eps_neg:
        return Certificate(Verdict.MEMBERSHIP, residual, detail="psd+pt-psd-split",
                           extras=extras)
    return Certificate(Verdict.INCONCLUSIVE, residual, detail="no-split-found",
                       extras=extras)
