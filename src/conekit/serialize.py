"""JSON wire formats and the scan CSV.

Matrix: {"dim": n, "dims": [dA, dB] | null, "re": [[..]], "im": [[..]]}
Map:    the same applied to the superoperator, plus "repr": "super"
Kraus:  {"kraus": [matrix, ...], "rank_bound": k | null}

Floats print via repr (shortest round-trip); CSV uses 17 significant digits.
Everything is emitted with sorted keys so identical configs give identical
bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .certify import Certificate, ConeReport, Verdict
from .linalg import BipartiteVector, MatrixOp
from .maps import KrausSet, MapRep


def _grid(m: np.ndarray) -> tuple[list, list]:
    return m.real.tolist(), m.imag.tolist()


def _complex(re, im) -> np.ndarray:
    """re + 1j*im from JSON number lists. json.loads accepts NaN and
    Infinity; no certificate can be built on them, so they are refused."""
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("entries must be finite numbers")
    return re + 1j * im


def _ungrid(obj: dict, n: int) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im") or np.zeros_like(re), dtype=float)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"re/im grids must be {n}x{n}")
    return _complex(re, im)


def matrix_to_json(x: MatrixOp) -> dict:
    re, im = _grid(x.mat)
    return {
        "dim": x.dim,
        "dims": list(x.dims) if x.dims is not None else None,
        "re": re,
        "im": im,
    }


def matrix_from_json(obj: dict) -> MatrixOp:
    n = int(obj["dim"])
    dims = obj.get("dims")
    return MatrixOp(_ungrid(obj, n), dims=tuple(dims) if dims else None)


def map_to_json(phi: MapRep) -> dict:
    re, im = _grid(phi.super_mat)
    return {
        "repr": "super",
        "dim": phi.d * phi.d,
        "dims": [phi.d, phi.d],
        "re": re,
        "im": im,
    }


def map_from_json(obj: dict) -> MapRep:
    if obj.get("repr") != "super":
        raise ValueError(f"expected repr 'super', got {obj.get('repr')!r}")
    n = int(obj["dim"])
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ValueError(f"superoperator size {n} is not a perfect square")
    return MapRep(d, _ungrid(obj, n))


def kraus_to_json(ks: KrausSet) -> dict:
    return {
        "kraus": [matrix_to_json(MatrixOp(a)) for a in ks.operators],
        "rank_bound": ks.rank_bound,
    }


def kraus_from_json(obj: dict) -> KrausSet:
    ops = [matrix_from_json(m) for m in obj["kraus"]]
    rb = obj.get("rank_bound")
    return KrausSet(ops, rank_bound=int(rb) if rb is not None else None)


def vector_to_json(v: BipartiteVector) -> dict:
    return {
        "dims": [v.d_a, v.d_b],
        "re": v.amp.real.tolist(),
        "im": v.amp.imag.tolist(),
    }


def vector_from_json(obj: dict) -> BipartiteVector:
    da, db = (int(x) for x in obj["dims"])
    return BipartiteVector(da, db, _complex(obj["re"], obj["im"]))


def certificate_to_json(cert: Certificate) -> dict:
    out = {
        "verdict": cert.verdict.value,
        "value": cert.value,
        "detail": cert.detail,
        "restarts_used": cert.restarts_used,
        "witness": vector_to_json(cert.witness) if cert.witness is not None else None,
    }
    if cert.extras is not None:
        extras = {}
        for key, val in cert.extras.items():
            if isinstance(val, np.ndarray):
                extras[key] = matrix_to_json(MatrixOp(val))
            else:
                extras[key] = val
        out["extras"] = extras
    return out


def certificate_from_json(obj: dict) -> Certificate:
    """Inverse of certificate_to_json; matrix entries of extras come back as
    ndarrays, so a decomposability split or PPT witness can be re-checked."""
    wit = obj.get("witness")
    extras = obj.get("extras")
    if extras is not None:
        extras = {key: _ungrid(val, int(val["dim"])) if isinstance(val, dict) else val
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
        "d": rep.d,
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
    operators, otherwise a plain matrix (the CLI treats those as Choi
    matrices)."""
    if not isinstance(obj, dict):
        raise ValueError("operator payload must be a JSON object")
    if obj.get("repr") == "super":
        return map_from_json(obj)
    if "kraus" in obj:
        return kraus_from_json(obj)
    return matrix_from_json(obj)


def scan_rows_to_csv(rows) -> str:
    lines = ["param,min_eig,fired"]
    for r in rows:
        lines.append(f"{r.param:.17g},{r.min_eig:.17g},{int(r.fired)}")
    return "\n".join(lines) + "\n"


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
