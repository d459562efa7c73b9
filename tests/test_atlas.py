"""A slice of the cone atlas: classify over one-parameter families whose
cone memberships are known in closed form.

- Tomiyama maps on M_3 with Choi matrix 1 + lam |psi+><psi+| (psi+
  unnormalized): in P_k iff lam >= -1/k; in co-P_1 and decomposable iff
  lam >= -1; in co-P_k for k >= 2 iff |lam| <= 1 (the partial transpose is
  1 + lam SWAP).
- Isotropic states at d = 3: PPT iff F <= 1/d, Schmidt number <= k iff
  F <= k/d.
- Two-qubit Werner states p |psi-><psi-| + (1-p) 1/4: PPT and separable
  iff p <= 1/3.
- Cho-Kye-Lee maps Phi[a,b,c](X) = diag(a x11 + b x22 + c x33,
  c x11 + a x22 + b x33, b x11 + c x22 + a x33) - X on M_3, b, c >= 0:
  positive iff a >= 1, a + b + c >= 3 and, for 1 <= a <= 2,
  bc >= (2-a)^2; decomposable iff a >= 1 and, for a <= 3,
  bc >= (3-a)^2/4; completely positive iff a >= 3.
- The Breuer-Hall map phi(X) = Tr(X) 1 - X - U X^T U^dag on M_4 with
  U = i sigma_y (+) i sigma_y, and phi o ad(V) for seeded unitaries V:
  positive and co-positive, not decomposable, and neither 2-positive nor
  2-copositive: for eta = e_1 (x) e_1 + e_2 (x) e_3, the principal 2 x 2
  minor of (1_2 (x) phi)(|eta><eta|) at e_1 (x) e_1, e_2 (x) e_3, and that
  of the co-map's image at e_1 (x) e_2, e_2 (x) e_4, are [[0, -1], [-1, 0]].
  Conjugation by a unitary leaves every one of these memberships unchanged.

A report may leave a cone Inconclusive, but it never proves membership
outside the cone's region nor finds a violation inside it, and reported
Schmidt bounds contain the true Schmidt number. Points within _EDGE of a
boundary are skipped. Each cone's count of decided points (and of points
whose Schmidt bounds meet) is pinned as a floor, so a search that decides
less fails here as well.
"""

import numpy as np
import pytest

from conekit import (MapRep, MatrixOp, ad, classify, compose, isotropic_state,
                     reduction_family, transpose_map, werner_state)
from conekit.certify import Verdict

from _inputs import cho_kye_lee_choi

_EDGE = 1e-6
D = 3


def _psi_plus_projector(d):
    v = np.eye(d).reshape(-1)
    return np.outer(v, v)


def _inside(*margins):
    """True inside the region {every margin >= 0}, False outside, None
    within _EDGE of its boundary."""
    if min(abs(m) for m in margins) < _EDGE:
        return None
    return min(margins) >= 0.0


def _tomiyama():
    for lam in np.linspace(-1.5, 1.5, 13):
        c = MatrixOp(np.eye(D * D) + lam * _psi_plus_projector(D), dims=(D, D))
        cones = {f"p[{k}]": _inside(lam + 1.0 / k) for k in range(1, D + 1)}
        cones["co_p[1]"] = cones["dec"] = _inside(lam + 1.0)
        for k in range(2, D + 1):
            cones[f"co_p[{k}]"] = _inside(1.0 - lam, 1.0 + lam)
        yield c, True, cones, None


def _isotropic():
    for f in np.linspace(0.0, 1.0, 10):
        sn = None
        if all(abs(f - k / D) >= _EDGE for k in range(1, D)):
            sn = next(k for k in range(1, D + 1) if f <= k / D)
        yield isotropic_state(D, f), False, {f"co_p[{D}]": _inside(1.0 / D - f)}, sn


def _werner():
    for p in np.linspace(0.0, 1.0, 9):
        ppt = _inside(1.0 / 3.0 - p)
        sn = None if ppt is None else (1 if ppt else 2)
        yield werner_state(p), False, {"co_p[2]": ppt}, sn


def _cho_kye_lee():
    rng = np.random.default_rng(5)
    for _ in range(24):
        a = float(rng.uniform(0.5, 3.5))
        b, c = (float(x) for x in rng.uniform(0.0, 2.0, size=2))
        positive = (a - 1.0, a + b + c - 3.0) + ((b * c - (2.0 - a) ** 2,) if a <= 2.0 else ())
        dec = (a - 1.0,) + ((b * c - (3.0 - a) ** 2 / 4.0,) if a <= 3.0 else ())
        cones = {"p[1]": _inside(*positive), "dec": _inside(*dec), "p[3]": _inside(a - 3.0)}
        yield MatrixOp(cho_kye_lee_choi(a, b, c), dims=(3, 3)), True, cones, None


def _breuer_hall():
    u = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    # ad(u^dag)(Y) = u Y u^dag, so the subtracted term is ad(u^dag) o transpose
    phi = MapRep(4, reduction_family(4, 1.0).super_mat
                 - compose(ad(u.conj().T), transpose_map(4)).super_mat)
    cones = {"p[1]": True, "co_p[1]": True, "dec": False}
    cones.update({f"{chain}[{k}]": False for chain in ("p", "co_p") for k in (2, 3, 4)})
    rng = np.random.default_rng(14)
    yield phi, True, cones, None
    for _ in range(6):
        q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        yield compose(phi, ad(q * (np.diag(r) / np.abs(np.diag(r))))), True, cones, None


FAMILIES = {"tomiyama": _tomiyama, "isotropic": _isotropic, "werner": _werner,
            "cho-kye-lee": _cho_kye_lee, "breuer-hall": _breuer_hall}

# The decided points of each cone today, out of the points off its
# boundary; for "schmidt", the points whose Schmidt bounds meet.
FLOORS = {
    "tomiyama": {"p[1]": 10, "p[2]": 12, "p[3]": 13, "co_p[1]": 10, "co_p[2]": 11,
                 "co_p[3]": 11, "dec": 12},
    "isotropic": {"co_p[3]": 9, "schmidt": 3},
    "werner": {"co_p[2]": 9, "schmidt": 6},
    "cho-kye-lee": {"p[1]": 9, "dec": 24, "p[3]": 24},
    # positivity sits at value 0 (phi has many product zeros) and stays
    # Inconclusive; every violation and the PPT witness are found
    "breuer-hall": {"p[1]": 0, "co_p[1]": 0, "dec": 7,
                    **{f"{chain}[{k}]": 7 for chain in ("p", "co_p") for k in (2, 3, 4)}},
}


def _certificate(report, cone):
    if cone == "dec":
        return report.decomposable
    chain, k = cone[:-3], int(cone[-2])
    return getattr(report, chain)[k]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_classify_agrees_with_the_closed_form_regions(family):
    decided = dict.fromkeys(FLOORS[family], 0)
    for i, (op, include_dec, cones, true_sn) in enumerate(FAMILIES[family]()):
        report = classify(op, include_dec=include_dec)
        for cone, inside in cones.items():
            verdict = _certificate(report, cone).verdict
            if inside is None:
                continue
            wrong = Verdict.VIOLATION if inside else Verdict.MEMBERSHIP
            assert verdict is not wrong, f"{family} point {i}: {cone} {verdict.value}"
            decided[cone] += verdict is not Verdict.INCONCLUSIVE
        if true_sn is not None:
            lower, upper = report.schmidt_number
            assert lower <= true_sn <= upper, f"{family} point {i}: bounds {lower, upper}"
            decided["schmidt"] += lower == upper
    for cone, floor in FLOORS[family].items():
        assert decided[cone] >= floor, f"{family} {cone}: {decided[cone]} < {floor}"
