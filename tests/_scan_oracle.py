"""Test-only reference for the eigenvalue rows of `threshold_scan`: the loop
that decided one grid row at a time, kept as it was, with the states and
the k-reduction image written out in their closed forms.

Each row builds its state as a `MatrixOp`, forms its image (the k-reduction
image tr_B(rho) (x) 1 - rho/k of an isotropic state, or the partial
transpose of a Werner state) and decides it with its own `hermitian_eig`
call. test_witness.py requires the stacked scan to give the same CSV bytes
and to raise the same error at the same grid value.
"""

import math

import numpy as np

from conekit import hermitian_eig, max_entangled_projector, partial_transpose
from conekit.errors import BadParam
from conekit.linalg import MatrixOp, _check_count, _check_level
from conekit.witness import ScanPoint


def _isotropic_state(d, f):
    _check_count("d", d, 2)
    if not 0.0 <= f <= 1.0:
        raise BadParam(f"fidelity must lie in [0, 1], got {f}")
    p_plus = max_entangled_projector(d).mat / d
    eye = np.eye(d * d, dtype=np.complex128)
    rho = f * p_plus + (1.0 - f) * (eye - p_plus) / (d * d - 1)
    return MatrixOp(rho, dims=(d, d))


def _werner_state(p):
    if not 0.0 <= p <= 1.0:
        raise BadParam(f"mixing weight must lie in [0, 1], got {p}")
    singlet = np.zeros(4, dtype=np.complex128)
    singlet[1] = 1.0 / np.sqrt(2.0)
    singlet[2] = -1.0 / np.sqrt(2.0)
    rho = p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0
    return MatrixOp(rho, dims=(2, 2))


def _reduction_image(x, d, k):
    """tr_B(X) (x) 1 - X/k of one d^2 x d^2 matrix."""
    n = d * d
    x4 = x.reshape(d, d, d, d)
    tr_b = np.trace(x4, axis1=1, axis2=3)
    out = (tr_b[:, None, :, None] * np.eye(d)[:, None, :]).reshape(n, n)
    return out - (1.0 / k) * x4.reshape(n, n)


def _row(param, value, tol):
    if not math.isfinite(value):
        raise BadParam(f"the value at grid point {param!r} is {value}, not a finite double")
    return ScanPoint(param, value, value < -tol)


def scan_rows(family, d, k, grid, tol):
    """The rows of an `isotropic` or `werner` scan, one row at a time."""
    params = [float(x) for x in grid]
    rows = []
    if family == "isotropic":
        _check_level(k, d)
        for f in params:
            rho = _isotropic_state(d, f)
            w, _ = hermitian_eig(_reduction_image(rho.mat, d, k))
            rows.append(_row(f, float(w[0]), tol))
    elif family == "werner":
        _check_level(k, 1)
        for p in params:
            w, _ = hermitian_eig(partial_transpose(_werner_state(p)))
            rows.append(_row(p, float(w[0]), tol))
    else:
        raise ValueError(f"the oracle covers isotropic and werner, not {family!r}")
    return rows
