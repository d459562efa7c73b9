"""Checks of the program's answers that do not use conekit (numpy only).

Every answer is checked from what the program emitted: the JSON of
`classify` and `fuzz`, the CSV of `scan`, and the certificate returned by
`decomposable_certify`. Tolerances are the ones the repository's tests pin.
`check` returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import numpy as np

from inputs import kraus_super, matrix_from_json, partial_transpose

EPS_NEG = 1e-9        # the CLI's default violation threshold (--tol)
TOL_CLOSED_FORM = 2e-3  # see-saw value vs. 1 - ck (acceptance criterion 1)
TOL_WITNESS = 1e-8    # witness value vs. reported value, relative (certify)
TOL_RESIDUAL = 1e-8   # decomposition residual (acceptance criterion 10)
TOL_EIGEN = 1e-12     # eigenvalue-only scan rows (acceptance criterion 8)
TOL_SCHMIDT = 1e-8    # relative singular-value cut for the Schmidt rank

VIOLATION = "ViolationFound"
MEMBERSHIP = "MembershipProven"
DECIDED = (VIOLATION, MEMBERSHIP)


# ---------------------------------------------------------------- helpers

def as_matrix(x) -> np.ndarray:
    return matrix_from_json(x) if isinstance(x, dict) else np.asarray(x)


def choi_from_super(s: np.ndarray) -> np.ndarray:
    """sum_ik e_ik (x) phi(e_ik), with phi(e_ik) read off column i*d+k of
    the row-major superoperator."""
    d = int(round(np.sqrt(s.shape[0])))
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            out[i * d:(i + 1) * d, k * d:(k + 1) * d] = s[:, i * d + k].reshape(d, d)
    return out


def choi_of_payload(payload: dict) -> np.ndarray:
    if "kraus" in payload:
        return choi_from_super(kraus_super([as_matrix(m) for m in payload["kraus"]]))
    m = as_matrix(payload)
    return choi_from_super(m) if payload.get("repr") == "super" else m


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def scale(m: np.ndarray) -> float:
    return max(1.0, float(np.abs(m).max()))


def check_certificate(cert: dict, c: np.ndarray, k: int, where: str) -> list[str]:
    """Re-verify a chain certificate against the Choi (or partially
    transposed Choi) matrix c at Schmidt level k."""
    verdict, value = cert["verdict"], float(cert["value"])
    if verdict == MEMBERSHIP:
        if min_eig(c) < -EPS_NEG - 1e-12 * scale(c):
            return [f"{where}: MembershipProven but the matrix is not PSD"]
        return []
    if verdict != VIOLATION:
        return []
    wit = cert.get("witness")
    if wit is None:
        return [f"{where}: ViolationFound without a witness"]
    da, db = wit["dims"]
    amp = np.asarray(wit["re"], dtype=float) + 1j * np.asarray(wit["im"], dtype=float)
    problems = []
    if abs(np.linalg.norm(amp) - 1.0) > 1e-8:
        problems.append(f"{where}: witness norm {np.linalg.norm(amp):.3e} is not 1")
    s = np.linalg.svd(amp.reshape(da, db), compute_uv=False)
    rank = int(np.count_nonzero(s > TOL_SCHMIDT * s[0]))
    if rank > k:
        problems.append(f"{where}: witness Schmidt rank {rank} exceeds k = {k}")
    q = float((amp.conj() @ c @ amp).real)
    if not (q < 0 and value < 0):
        problems.append(f"{where}: witness value {q:.3e} is not negative")
    if abs(q - value) > TOL_WITNESS * max(1.0, abs(value)):
        problems.append(f"{where}: witness gives {q!r}, certificate says {value!r}")
    return problems


def check_split(cert: dict, c: np.ndarray, d: int, where: str) -> list[str]:
    """A decomposability MembershipProven must carry PSD A and B with
    C = A + PT(B) to the residual bound."""
    if cert["verdict"] != MEMBERSHIP:
        return []
    a, b = as_matrix(cert["extras"]["A"]), as_matrix(cert["extras"]["B"])
    problems = []
    for name, m in (("A", a), ("B", b)):
        if min_eig(m) < -1e-10 * scale(m):
            problems.append(f"{where}: {name} is not PSD (min eigenvalue {min_eig(m):.3e})")
    target = 0.5 * (c + c.conj().T)
    residual = float(np.abs(target - a - partial_transpose(b, d, d)).max())
    if not residual < TOL_RESIDUAL:
        problems.append(f"{where}: residual {residual:.3e} is not below {TOL_RESIDUAL}")
    return problems


# ---------------------------------------------------------------- parsing

def parse_scan_csv(text: str) -> list[tuple[float, float, bool]]:
    lines = text.strip().splitlines()
    if lines[0] != "param,min_eig,fired":
        raise ValueError(f"unexpected scan header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        p, v, f = line.split(",")
        rows.append((float(p), float(v), f == "1"))
    return rows


# ---------------------------------------------------------------- oracles

def _check_classify(case, rep) -> list[str]:
    d = case.params["d"]
    c = choi_of_payload(case.payload)
    co_c = partial_transpose(c, d, d)
    problems = [] if rep["d"] == d else [f"report is for d = {rep['d']}, not {d}"]
    for k in range(1, d + 1):
        problems += check_certificate(rep["p"][str(k)], c, k, f"p[{k}]")
        problems += check_certificate(rep["co_p"][str(k)], co_c, k, f"co_p[{k}]")
    if rep["decomposable"] is not None:
        problems += check_split(rep["decomposable"], c, d, "decomposable")

    if case.kind == "reduction":
        cc = case.params["c"]
        for k in range(1, d + 1):
            cert = rep["p"][str(k)]
            if (cert["verdict"] == VIOLATION) != (cc > 1.0 / k):
                problems.append(f"p[{k}]: {cert['verdict']} at c = {cc:.4f}, threshold 1/{k}")
            expected = 1.0 - cc * d if cc <= 1.0 / d else 1.0 - cc * k
            if abs(float(cert["value"]) - expected) > TOL_CLOSED_FORM:
                problems.append(f"p[{k}]: value {cert['value']:.6f}, closed form {expected:.6f}")
            # choi(co(phi)) = 1 - c SWAP: bottom value 1 - c at every level
            co_cert = rep["co_p"][str(k)]
            if (co_cert["verdict"] == VIOLATION) != (cc > 1.0):
                problems.append(f"co_p[{k}]: {co_cert['verdict']} at c = {cc:.4f}")
            if abs(float(co_cert["value"]) - (1.0 - cc)) > TOL_CLOSED_FORM:
                problems.append(f"co_p[{k}]: value {co_cert['value']:.6f}, closed form {1 - cc:.6f}")
    elif case.kind == "k_positive":
        for k in range(1, case.params["k"] + 1):
            if rep["p"][str(k)]["verdict"] == VIOLATION:
                problems.append(f"p[{k}]: violation reported for a {case.params['k']}-positive map")
    elif case.kind == "cp":
        if not rep["cp"] or rep["p"][str(d)]["verdict"] != MEMBERSHIP:
            problems.append("a map given by Kraus operators is not reported CP")
    return problems


def _check_scan(case, rows) -> list[str]:
    d, k, flip, step = (case.params[x] for x in ("d", "k", "flip", "step"))
    problems = [] if len(rows) == 9 else [f"{len(rows)} rows, expected 9"]
    for p, v, fired in rows:
        if case.kind == "reduction":
            expected, tol = 1.0 - p * k, (TOL_EIGEN if k == d else TOL_CLOSED_FORM)
        elif case.kind == "isotropic":
            # (1 (x) R_{1/k}) rho_F = 1/d - rho_F / k, top eigenvalue of rho_F is F
            expected, tol = 1.0 / d - p / k, TOL_EIGEN
        else:
            expected, tol = (1.0 - 3.0 * p) / 4.0, TOL_EIGEN
        if abs(v - expected) > tol:
            problems.append(f"row {p:.6f}: min_eig {v!r}, closed form {expected!r}")
        if fired != (v < -EPS_NEG):
            problems.append(f"row {p:.6f}: fired flag contradicts min_eig {v!r}")
    flips = [i for i in range(1, len(rows)) if rows[i][2] != rows[i - 1][2]]
    if len(flips) != 1:
        problems.append(f"{len(flips)} flips, expected one")
    elif not all(abs(rows[i][0] - flip) <= step * 1.001 for i in (flips[0] - 1, flips[0])):
        problems.append(f"flip at {rows[flips[0]][0]:.6f} is not within a grid step of {flip:.6f}")
    return problems


def _check_fuzz(case, summary) -> list[str]:
    n, suite = case.params["n"], case.params["suite"]
    if summary.get("suite") != suite or summary.get("n") != n:
        return [f"summary is for {summary.get('suite')} n={summary.get('n')}"]
    if summary["failed"] != 0 or summary["passed"] != n:
        return [f"{summary['failed']} of {n} instances failed: {summary['failures'][:2]}"]
    return []


def _check_decompose(case, cert) -> list[str]:
    d = int(round(np.sqrt(as_matrix(case.payload).shape[0])))
    problems = check_split(cert, as_matrix(case.payload), d, "decomposable")
    if case.kind == "choi_map" and not case.params["decomposable"] and cert["verdict"] == MEMBERSHIP:
        p = case.params
        problems.append(f"Phi[{p['a']:.3f},{p['b']:.3f},{p['c']:.3f}] is not decomposable "
                        "but came back MembershipProven")
    return problems


CHECKS = {"classify": _check_classify, "scan": _check_scan,
          "fuzz": _check_fuzz, "decompose": _check_decompose}


def check(workload: str, case, answer) -> list[str]:
    return CHECKS[workload](case, answer)


# ---------------------------------------------------------------- answers

def decisions(workload: str, case, answer) -> list[bool]:
    """One entry per answer the op gives, True where it is decided.

    Certificates are decided when ViolationFound or MembershipProven. A scan
    row is decided when exact: an eigenvalue row, or a see-saw row that
    fired (its witness proves the violation); a see-saw row that did not
    fire is only a bound. A fuzz summary is a pass/fail count, always decided.
    """
    if workload == "classify":
        certs = [*answer["p"].values(), *answer["co_p"].values()]
        if answer["decomposable"] is not None:
            certs.append(answer["decomposable"])
        return [cert["verdict"] in DECIDED for cert in certs]
    if workload == "decompose":
        return [answer["verdict"] in DECIDED]
    if workload == "scan":
        seesaw = case.kind == "reduction" and case.params["k"] < case.params["d"]
        return [fired or not seesaw for _, _, fired in answer]
    return [True]


def _r3(x) -> float:
    return round(float(x), 3) + 0.0  # + 0.0 folds -0.0 into 0.0


def _cert_summary(cert: dict) -> list:
    return [cert["verdict"], cert["detail"], _r3(cert["value"])]


def digest_entry(workload: str, case, answer):
    """The answer reduced to what must not change between commits: verdicts,
    certificate details and values rounded to the tests' 2e-3 tolerance."""
    if workload == "classify":
        dec = answer["decomposable"]
        return {
            "p": {k: _cert_summary(c) for k, c in answer["p"].items()},
            "co_p": {k: _cert_summary(c) for k, c in answer["co_p"].items()},
            "cp": answer["cp"],
            "schmidt_number": answer["schmidt_number"],
            "km_positive": answer["km_positive"],
            "km_superpositive": answer["km_superpositive"],
            "decomposable": None if dec is None else [dec["verdict"], dec["detail"]],
        }
    if workload == "scan":
        return [[round(p, 12), fired, _r3(v)] for p, v, fired in answer]
    if workload == "fuzz":
        return [answer["suite"], answer["n"], answer["passed"], answer["failed"]]
    return [answer["verdict"], answer["detail"]]
