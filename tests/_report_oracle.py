"""Test-only check of a classify report with numpy alone: every certificate
in the JSON report (`report_to_json`, or the CLI's output) is re-verified
against the operator C and its dims (dA, dB), with no conekit code.

- a witness has norm 1, Schmidt rank <= k at (dA, dB), and a quadratic form
  equal to its negative value;
- "choi-psd" means lambda_min(C) >= -eps_neg * max|C|;
- a split has PSD A and B and residual < 1e-8 under the (dA, dB) partial
  transpose, and a PPT witness is PSD with a PSD partial transpose and a
  negative pairing with C.
"""

import numpy as np


def partial_transpose(m: np.ndarray, da: int, db: int) -> np.ndarray:
    n = da * db
    return m.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(n, n)


def _matrix(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def check_chain_certificate(cert: dict, c: np.ndarray, dims, k: int, eps_neg: float) -> None:
    """One level-k certificate of the chain on the matrix c."""
    scale = float(np.abs(c).max())
    if cert["verdict"] == "MembershipProven":
        assert cert["detail"] == "choi-psd"
        assert _min_eig(c) >= -eps_neg * scale
    elif cert["verdict"] == "ViolationFound":
        wit = cert["witness"]
        assert wit["dims"] == list(dims)
        amp = np.asarray(wit["re"], dtype=float) + 1j * np.asarray(wit["im"], dtype=float)
        assert abs(np.linalg.norm(amp) - 1.0) <= 1e-12
        s = np.linalg.svd(amp.reshape(dims), compute_uv=False)
        assert np.count_nonzero(s > 1e-8 * s[0]) <= k
        value = float(cert["value"])
        assert value < -eps_neg * scale
        assert abs(float((amp.conj() @ c @ amp).real) - value) <= 1e-12 * scale
    else:
        assert cert["verdict"] == "Inconclusive"


def check_split(cert: dict, c: np.ndarray, dims) -> None:
    """A decomposability certificate of c."""
    da, db = dims
    if cert["verdict"] == "MembershipProven":
        a, b = _matrix(cert["extras"]["A"]), _matrix(cert["extras"]["B"])
        for m in (a, b):
            assert _min_eig(m) >= -1e-10 * max(1.0, float(np.abs(m).max()))
        assert float(np.abs(c - a - partial_transpose(b, da, db)).max()) < 1e-8
    elif cert["verdict"] == "ViolationFound":
        w = _matrix(cert["extras"]["W"])
        assert _min_eig(w) > 0 and _min_eig(partial_transpose(w, da, db)) > 0
        assert float(np.einsum("ij,ji->", w, c).real) < 0


def check_report(rep: dict, c: np.ndarray, dims, eps_neg: float = 1e-9) -> None:
    """Both chains and the (k, m) flags over 1..min(dims), every certificate
    re-verified on C or its partial transpose."""
    da, db = dims
    top = min(dims)
    levels = [str(k) for k in range(1, top + 1)]
    pairs = {f"{k},{m}" for k in levels for m in levels}
    assert rep["d"] == top and rep["dims"] == [da, db]
    assert list(rep["p"]) == levels and list(rep["co_p"]) == levels
    assert set(rep["km_positive"]) == set(rep["km_superpositive"]) == pairs
    co_c = partial_transpose(c, da, db)
    for k in range(1, top + 1):
        check_chain_certificate(rep["p"][str(k)], c, dims, k, eps_neg)
        check_chain_certificate(rep["co_p"][str(k)], co_c, dims, k, eps_neg)
    assert rep["cp"] == (rep["p"][str(top)]["verdict"] == "MembershipProven")
    if rep["decomposable"] is not None:
        check_split(rep["decomposable"], c, dims)
