"""JSON wire formats and the scan CSV.

Matrix: {"dim": n, "dims": [dA, dB] | null, "re": [[..]], "im": [[..]]}
Map:    the same applied to the superoperator, plus "repr": "super"
Kraus:  {"kraus": [matrix, ...]}; a reader ignores any other key

"dim" is an integer >= 1 (a float, bool or string raises BadParam), "im"
may be left out (zero); _to_json and _from_json write and read every matrix.

Floats print via repr (shortest round-trip); CSV uses 17 significant digits.
JSON is written compact with sorted keys, by json's C encoder, so identical
configs give identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .certify import Certificate, ConeReport, Verdict
from .linalg import BipartiteVector, MatrixOp, _check_count, _split, _square_side
from .maps import KrausSet, MapRep


def _complex(re, im) -> np.ndarray:
    """re + 1j*im from JSON number lists of one shape (neither is broadcast).
    json.loads accepts NaN and Infinity; no certificate can be built on
    them, so they are refused."""
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    if re.shape != im.shape:
        raise ValueError(f"re and im differ in shape: {re.shape} vs {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("entries must be finite numbers")
    return re + 1j * im


def _dim(obj: dict) -> int:
    """A matrix payload's "dim", under linalg's integer rule (BadParam)."""
    n = obj["dim"]
    _check_count("dim", n, 1)
    return n


def _to_json(m: np.ndarray, dims=None) -> dict:
    """The one writer of a matrix payload {"dim", "dims", "re", "im"}."""
    return {"dim": m.shape[0], "dims": list(dims) if dims is not None else None,
            "re": m.real.tolist(), "im": m.imag.tolist()}


def _from_json(obj: dict) -> np.ndarray:
    """The one reader of a matrix payload: its n x n complex matrix, n =
    _dim(obj); a grid of another shape raises ValueError."""
    n = _dim(obj)
    re = np.asarray(obj["re"], dtype=float)
    m = _complex(re, obj.get("im") or np.zeros_like(re))
    if m.shape != (n, n):
        raise ValueError(f"re/im grids must be {n}x{n}")
    return m


def matrix_to_json(x: MatrixOp) -> dict:
    return _to_json(x.mat, x.dims)


def matrix_from_json(obj: dict) -> MatrixOp:
    return MatrixOp(_from_json(obj), dims=obj.get("dims"))


def map_to_json(phi: MapRep) -> dict:
    return {"repr": "super", **_to_json(phi.super_mat, (phi.d, phi.d))}


def map_from_json(obj: dict) -> MapRep:
    if obj.get("repr") != "super":
        raise ValueError(f"expected repr 'super', got {obj.get('repr')!r}")
    s = _from_json(obj)
    return MapRep(_square_side(s.shape[0], "superoperator"), s)


def kraus_to_json(ks: KrausSet) -> dict:
    return {"kraus": [_to_json(a) for a in ks.operators]}


def kraus_from_json(obj: dict) -> KrausSet:
    return KrausSet([matrix_from_json(m) for m in obj["kraus"]])


def vector_to_json(v: BipartiteVector) -> dict:
    return {
        "dims": [v.d_a, v.d_b],
        "re": v.amp.real.tolist(),
        "im": v.amp.imag.tolist(),
    }


def vector_from_json(obj: dict) -> BipartiteVector:
    amp = _complex(obj["re"], obj["im"])
    return BipartiteVector(*_split(obj["dims"], amp.size), amp)


def certificate_to_json(cert: Certificate) -> dict:
    out = {
        "verdict": cert.verdict.value,
        "value": cert.value,
        "detail": cert.detail,
        "restarts_used": cert.restarts_used,
        "witness": vector_to_json(cert.witness) if cert.witness is not None else None,
    }
    if cert.extras is not None:
        out["extras"] = {key: _to_json(val) if isinstance(val, np.ndarray) else val
                         for key, val in cert.extras.items()}
    return out


def certificate_from_json(obj: dict) -> Certificate:
    """Inverse of certificate_to_json; matrix entries of extras come back as
    ndarrays, so a decomposability split or PPT witness can be re-checked."""
    wit = obj.get("witness")
    extras = obj.get("extras")
    if extras is not None:
        extras = {key: _from_json(val) if isinstance(val, dict) else val
                  for key, val in extras.items()}
    return Certificate(
        verdict=Verdict(obj["verdict"]),
        value=float(obj["value"]),
        witness=vector_from_json(wit) if wit is not None else None,
        detail=obj.get("detail", ""),
        restarts_used=int(obj.get("restarts_used", 0)),
        extras=extras,
    )


def report_to_json(rep: ConeReport) -> dict:
    return {
        "d": min(rep.dims),
        "dims": list(rep.dims),
        "p": {str(k): certificate_to_json(c) for k, c in rep.p.items()},
        "co_p": {str(k): certificate_to_json(c) for k, c in rep.co_p.items()},
        "cp": rep.cp,
        "schmidt_number": (
            {"lower": rep.schmidt_number[0], "upper": rep.schmidt_number[1]}
            if rep.schmidt_number is not None else None
        ),
        "km_positive": {f"{k},{m}": flag for (k, m), flag in rep.km_positive.items()},
        "km_superpositive": {f"{k},{m}": flag for (k, m), flag in rep.km_superpositive.items()},
        "decomposable": (
            certificate_to_json(rep.decomposable) if rep.decomposable is not None else None
        ),
    }


def load_operator(obj: dict):
    """Dispatch a JSON payload: a map if tagged repr=super or given as Kraus
    operators, otherwise a Choi operator, a MatrixOp that always carries
    dims. Its declared dims are kept, and anything but a pair of them raises
    DimMismatch; null or no "dims" makes the operator square, (d, d) with
    d^2 = dim, and any other size raises DimMismatch."""
    if not isinstance(obj, dict):
        raise ValueError("operator payload must be a JSON object")
    if obj.get("repr") == "super":
        return map_from_json(obj)
    if "kraus" in obj:
        return kraus_from_json(obj)
    if obj.get("dims") is None:
        obj = {**obj, "dims": [_square_side(_dim(obj), "Choi matrix")] * 2}
    return matrix_from_json(obj)


def scan_rows_to_csv(rows) -> str:
    lines = ["param,min_eig,fired"]
    for r in rows:
        lines.append(f"{r.param:.17g},{r.min_eig:.17g},{int(r.fired)}")
    return "\n".join(lines) + "\n"


def dumps(obj: dict) -> str:
    """obj as one line of JSON with sorted keys, plus a line break."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
