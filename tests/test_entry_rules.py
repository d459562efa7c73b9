"""Regression cases for the entry rules: a raw matrix argument with a NaN or
infinite entry, a spectrum beyond the float range, a count, level, seed
or dimension that is not an integer, bipartite dims that are not a pair,
amplitudes that are not a 1-D array, an empty matrix, shapes or maps that
do not line up, an entry whose modulus overflows at the Hermiticity gate,
and a payload whose "dim" is not an integer or does not match its grid or
whose size has no square side are each refused with a conekit error, whichever
public function receives them. Every case raises (and no numpy warning,
which pytest turns into an error) instead of returning a value computed
from such input."""

import numpy as np
import pytest

import conekit.cli as cli
import conekit.linalg as linalg_mod
import conekit.maps as maps_mod
from conekit import (
    BipartiteVector,
    Detector,
    KrausSet,
    MapRep,
    MatrixOp,
    apply,
    apply_on_right_factor,
    compose,
    compose_certified,
    detect_schmidt_number,
    expectation,
    from_kraus,
    hermitian_eig,
    hs_inner,
    identity_map,
    is_cp,
    kraus_decompose,
    map_from_choi,
    numerical_rank,
    partial_transpose,
    reduction_family,
    witness_from_map,
)
from conekit._seesaw import seesaw_minimize
from conekit.certify import decomposable_certify, dual_pairing
from conekit.errors import (
    BadK,
    BadParam,
    DimMismatch,
    MissingDims,
    NotHermitian,
    NotHermiticityPreserving,
)
from conekit.fuzz import fuzz_adjoint, fuzz_bijection, fuzz_composition, fuzz_duality
from conekit.serialize import (
    certificate_from_json,
    dumps,
    load_operator,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)
from conekit.witness import isotropic_state, threshold_scan


def _nan_at(n, i, j=None):
    a = np.eye(n, dtype=complex)
    a[i, i if j is None else j] = np.nan
    return a


def _huge_kraus_map():
    # Choi matrix 1.7e308 * ones(4): finite entries, top eigenvalue 6.8e308
    return from_kraus([np.sqrt(1.7e308) * np.ones((2, 2))])


def _overflowing_skew():
    """1_4 with X[0,1] = z and X[1,0] = -conj(z), z = 1.7e308(1 + i): every
    part is finite, but |z|, max|X| and X - X^dag overflow, which once made
    the Hermiticity margin inf and let X through."""
    x = np.eye(4, dtype=complex)
    x[0, 1] = 1.7e308 + 1.7e308j
    x[1, 0] = -np.conj(x[0, 1])
    return x


CASES = {
    # an entry whose modulus overflows, at the Hermiticity gate
    "check-hermitian-modulus-overflow": (NotHermitian, lambda: linalg_mod.check_hermitian(
        _overflowing_skew())),
    "hs-inner-modulus-overflow": (NotHermitian, lambda: hs_inner(_overflowing_skew(), np.eye(4))),
    "map-from-choi-modulus-overflow": (NotHermiticityPreserving, lambda: map_from_choi(
        _overflowing_skew())),
    # a spectrum beyond the float range in the map layer's factorizations
    "kraus-decompose-spectrum": (BadParam, lambda: kraus_decompose(_huge_kraus_map())),
    "compose-certified-spectrum": (BadParam, lambda: compose_certified(
        np.diag([1.0, 1.0, 0.0]), MapRep(3, identity_map(3).super_mat * 1.7e308), 2)),
    # a NaN or infinite entry of a raw array
    "hermitian-eig-nan": (BadParam, lambda: hermitian_eig(np.diag([1.0, np.nan, 1.0, 1.0]))),
    "hs-inner-nan": (BadParam, lambda: hs_inner(np.diag([np.nan, 1.0, 1.0, 1.0]), np.eye(4))),
    "hs-inner-inf": (BadParam, lambda: hs_inner(np.eye(4), np.diag([np.inf, 1.0, 1.0, 1.0]))),
    "compose-certified-nan": (BadParam, lambda: compose_certified(
        _nan_at(3, 0, 1), identity_map(3), 2)),
    "compose-certified-nan-ad-after-map": (BadParam, lambda: compose_certified(
        _nan_at(3, 0, 1), identity_map(3), 2, order="ad_after_map")),
    "numerical-rank-nan": (BadParam, lambda: numerical_rank([[np.nan, 0.0], [0.0, 1.0]])),
    "bipartite-vector-nan": (BadParam, lambda: BipartiteVector(2, 2, [np.nan, 0, 0, 1])),
    "bipartite-vector-inf": (BadParam, lambda: BipartiteVector(2, 2, [1, 0, 0, -np.inf])),
    "reduction-family-c-nan": (BadParam, lambda: reduction_family(2, np.nan)),
    # the integer rule of every count and seed
    "fuzz-n-float": (BadParam, lambda: fuzz_duality(2.5)),
    "fuzz-seed-negative": (BadParam, lambda: fuzz_duality(2, seed=-1)),
    "fuzz-seed-float": (BadParam, lambda: fuzz_bijection(2, seed=1.5)),
    "fuzz-n-bool": (BadParam, lambda: fuzz_adjoint(True)),
    "decomposable-max-sweeps-float": (BadParam, lambda: decomposable_certify(
        MatrixOp(np.eye(4), dims=(2, 2)), max_sweeps=2.5)),
    "decomposable-max-sweeps-bool": (BadParam, lambda: decomposable_certify(
        MatrixOp(np.eye(4), dims=(2, 2)), max_sweeps=True)),
    # ... of every dimension
    "isotropic-d-float": (BadParam, lambda: isotropic_state(2.5, 0.5)),
    # (a fuzz suite's d comes first, by the maps' rule: d = 0 is a BadParam, not a BadK)
    "fuzz-duality-d-float": (BadParam, lambda: fuzz_duality(3, d=2.5)),
    "fuzz-duality-d-zero": (BadParam, lambda: fuzz_duality(3, d=0)),
    "fuzz-composition-d-float": (BadParam, lambda: fuzz_composition(3, d=2.5, k=2)),
    "fuzz-composition-d-zero": (BadParam, lambda: fuzz_composition(3, d=0, k=1)),
    "matrixop-dims-float": (DimMismatch, lambda: MatrixOp(np.eye(3), dims=(1.5, 2))),
    "matrixop-dims-bool": (DimMismatch, lambda: MatrixOp(np.eye(4), dims=(True, 4))),
    # ... and of every Schmidt level
    "werner-scan-k-float": (BadK, lambda: threshold_scan("werner", 2, 1.5, [0.2])),
    "werner-scan-k-too-high": (BadK, lambda: threshold_scan("werner", 2, 3, [0.2])),
    # a two-qubit state has Schmidt number <= 2: the PPT test decides k = 1 only
    "werner-scan-k-two": (BadK, lambda: threshold_scan("werner", 2, 2, [0.5])),
    # ... where a scan's dimension is checked first, by its family's rule
    "reduction-scan-d-float": (BadParam, lambda: threshold_scan("reduction", 2.0, 1, [0.3])),
    "reduction-scan-d-zero": (BadParam, lambda: threshold_scan("reduction", 0, 1, [0.3])),
    "isotropic-scan-d-one": (BadParam, lambda: threshold_scan("isotropic", 1, 2, [0.3])),
    "isotropic-scan-d-float": (BadParam, lambda: threshold_scan("isotropic", 3.0, 4, [0.3])),
    "werner-scan-d-three": (BadParam, lambda: threshold_scan("werner", 3, 5, [0.3])),
    # a raw array that is not a square matrix at the Hermiticity gate
    "hermitian-eig-not-square": (DimMismatch, lambda: hermitian_eig(np.ones((2, 3)))),
    "hermitian-eig-1d": (DimMismatch, lambda: hermitian_eig(np.ones(4))),
    "hermitian-eig-empty-stack": (DimMismatch, lambda: hermitian_eig(np.zeros((0, 3, 3)))),
    "hermitian-eig-stack-not-square": (DimMismatch, lambda: hermitian_eig(np.ones((2, 3, 4)))),
    "hs-inner-not-square": (DimMismatch, lambda: hs_inner(np.ones((2, 3)), np.ones((2, 3)))),
    # a raw state: read through the entry rule, refused where dims are needed
    "detect-raw-state": (MissingDims, lambda: detect_schmidt_number(
        np.eye(4) / 4, Detector(reduction_family(2, 1.0), 1))),
    "detect-state-without-dims": (MissingDims, lambda: detect_schmidt_number(
        MatrixOp(np.eye(4) / 4), Detector(reduction_family(2, 1.0), 1))),
    "expectation-raw-nan": (BadParam, lambda: expectation(
        witness_from_map(reduction_family(2, 1.0), 1), _nan_at(4, 1) / 4)),
    "expectation-raw-wrong-shape": (DimMismatch, lambda: expectation(
        witness_from_map(reduction_family(2, 1.0), 1), np.ones(4) / 4)),
    # an empty matrix, by the square rule
    "matrixop-empty": (DimMismatch, lambda: MatrixOp(np.zeros((0, 0)))),
    "hermitian-eig-empty": (DimMismatch, lambda: hermitian_eig(np.zeros((0, 0)))),
    "map-from-choi-empty": (DimMismatch, lambda: map_from_choi(np.zeros((0, 0)))),
    "kraus-set-empty-operator": (DimMismatch, lambda: KrausSet([np.zeros((0, 0))])),
    # bipartite dims, by the split rule
    "bipartite-vector-dims-float": (DimMismatch, lambda: BipartiteVector(2.5, 1.6, np.ones(4))),
    "bipartite-vector-dims-negative": (DimMismatch, lambda: BipartiteVector(-2, -2, np.ones(4))),
    "seesaw-dims-float": (DimMismatch, lambda: seesaw_minimize(np.eye(4), (2.0, 2), 1)),
    "matrixop-dims-not-a-pair": (DimMismatch, lambda: MatrixOp(np.eye(4), dims=(4,))),
    "seesaw-dims-not-a-pair": (DimMismatch, lambda: seesaw_minimize(np.eye(4), 4, 1)),
    # an argument, a subsystem name or a pair of maps that does not line up
    "apply-shape": (DimMismatch, lambda: apply(identity_map(2), np.eye(3))),
    "apply-on-right-factor-size": (DimMismatch, lambda: apply_on_right_factor(
        identity_map(2), MatrixOp(np.eye(6), dims=(2, 3)))),
    "compose-across-d": (DimMismatch, lambda: compose(identity_map(2), identity_map(3))),
    "compose-certified-shape": (DimMismatch, lambda: compose_certified(
        np.eye(2), identity_map(3), 1)),
    "partial-transpose-subsystem": (DimMismatch, lambda: partial_transpose(
        MatrixOp(np.eye(4), dims=(2, 2)), "C")),
    "dual-pairing-across-d": (DimMismatch, lambda: dual_pairing(
        identity_map(2), identity_map(3))),
    # amplitudes, a 1-D array
    "bipartite-vector-grid": (DimMismatch, lambda: BipartiteVector(2, 2, np.eye(2))),
    "vector-from-json-grid": (DimMismatch, lambda: vector_from_json(
        {"dims": [2, 2], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})),
}
# A payload's "dims" is read as given: only null or a missing key means square.
for _name, _dims in {"empty-list": [], "zero": 0, "false": False, "empty-string": "",
                     "one-entry": [4]}.items():
    CASES[f"load-operator-dims-{_name}"] = (
        DimMismatch, lambda dims=_dims: load_operator(_matrix_payload(dims=dims)))
    CASES[f"matrix-from-json-dims-{_name}"] = (
        DimMismatch, lambda dims=_dims: matrix_from_json(_matrix_payload(dims=dims)))

# ... and a witness payload's "dims", by the same split rule.
for _name, _dims in {"one-entry": [4], "null": None, "three-entries": [2, 2, 1]}.items():
    CASES[f"vector-from-json-dims-{_name}"] = (DimMismatch, lambda dims=_dims: vector_from_json(
        {"dims": dims, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}))


@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_rule_refuses(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()


def test_kraus_decompose_refuses_what_is_cp_refuses():
    """One spectrum rule: the map layer's factorization refuses the map
    whose CP test refuses it, rather than returning a zero Kraus set."""
    phi = _huge_kraus_map()
    with pytest.raises(BadParam, match="spectrum is not finite"):
        is_cp(phi)
    with pytest.raises(BadParam, match="spectrum is not finite"):
        kraus_decompose(phi)


def test_expectation_reads_a_raw_state_as_its_matrixop():
    w = witness_from_map(reduction_family(2, 1.0), 1)
    rho = isotropic_state(2, 0.9)
    assert expectation(w, np.array(rho.mat)) == expectation(w, rho)
    assert expectation(w, np.eye(4) / 4) == expectation(w, MatrixOp(np.eye(4) / 4))


def test_matrixop_keeps_numpy_integer_dims_as_python_ints():
    x = MatrixOp(np.eye(4), dims=(np.int64(2), np.uint8(2)))
    assert x.dims == (2, 2)
    assert all(type(d) is int for d in x.dims)


@pytest.mark.parametrize("search", ["seesaw", "decomposable"])
def test_entry_modulus_beyond_the_float_range_is_refused(search):
    """Both parts of an entry near the largest double: the entry is finite
    but max|C| is not a double, so no power of two scales C. Unscaled, the
    see-saw reported 1.0 and the Douglas-Rachford eigensolve failed to
    converge; both searches raise BadParam instead."""
    c = np.eye(4, dtype=complex)
    c[0, 1] = 1.7e308 + 1.7e308j
    c[1, 0] = np.conj(c[0, 1])
    with pytest.raises(BadParam, match="beyond the float range"):
        if search == "seesaw":
            seesaw_minimize(c, (2, 2), 1, restarts=2)
        else:
            decomposable_certify(MatrixOp(c, dims=(2, 2)))


def test_bipartite_vector_keeps_numpy_integer_dims_as_python_ints():
    v = BipartiteVector(np.int64(2), 2, np.ones(4))
    assert (v.d_a, v.d_b) == (2, 2)
    assert all(type(d) is int for d in (v.d_a, v.d_b))
    assert dumps(vector_to_json(v)) == dumps(vector_to_json(BipartiteVector(2, 2, np.ones(4))))


def _matrix_payload(**changes):
    return {**matrix_to_json(MatrixOp(np.eye(4), dims=(2, 2))), **changes}


def _extras_payload(dim):
    return {"verdict": "Inconclusive", "value": 0.0,
            "extras": {"A": _matrix_payload(dim=dim, dims=None)}}


# The readers of a matrix payload, each handed one whose "dim" is bad.
PAYLOAD_READERS = {
    "matrix": lambda dim: matrix_from_json(_matrix_payload(dim=dim)),
    "choi-with-dims": lambda dim: load_operator(_matrix_payload(dim=dim)),
    "choi-without-dims": lambda dim: load_operator(_matrix_payload(dim=dim, dims=None)),
    "super": lambda dim: map_from_json({**map_to_json(identity_map(2)), "dim": dim}),
    "certificate-extras": lambda dim: certificate_from_json(_extras_payload(dim)),
}


@pytest.mark.parametrize("dim", [4.5, True, "4"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("reader", sorted(PAYLOAD_READERS))
def test_payload_dim_must_be_an_integer(reader, dim):
    with pytest.raises(BadParam, match="need an integer dim >= 1"):
        PAYLOAD_READERS[reader](dim)


def _super_payload_of_size_6():
    return {**matrix_to_json(MatrixOp(np.eye(6))), "repr": "super"}


# "dim" 10^7 beside a 1 x 1 grid and no "im": the grid is read first, so the
# payload is refused, not allocated as a 10^7 x 10^7 grid of zeros (728 TiB)
_HUGE_DIM = {"dim": 10_000_000, "dims": [1, 10_000_000], "re": [[1.0]]}


def test_super_payload_needs_a_square_side():
    with pytest.raises(DimMismatch, match="superoperator size 6 is not a perfect square"):
        map_from_json(_super_payload_of_size_6())


@pytest.mark.parametrize("payload, code", [
    (_matrix_payload(dim=4.5), cli.PARSE_ERROR),
    (_matrix_payload(dim=True, dims=None), cli.PARSE_ERROR),
    (_matrix_payload(dim="4"), cli.PARSE_ERROR),
    (_super_payload_of_size_6(), cli.INVARIANT_ERROR),
    (_matrix_payload(dims=[]), cli.INVARIANT_ERROR),
    (_HUGE_DIM, cli.PARSE_ERROR),
    ({**_HUGE_DIM, "repr": "super"}, cli.PARSE_ERROR),
    ({"kraus": [_HUGE_DIM]}, cli.PARSE_ERROR),
], ids=["dim-float", "dim-bool", "dim-string", "super-size-6", "dims-empty",
        "dim-huge-choi", "dim-huge-super", "dim-huge-kraus"])
def test_classify_refuses_a_bad_payload_size(payload, code, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(dumps(payload))
    assert cli.main(["classify", str(path), "--no-dec"]) == code
    assert capsys.readouterr().out == ""


def test_map_from_choi_gates_hermiticity_once(monkeypatch):
    """map_from_choi leaves the Hermiticity decision to MapRep's gate; its
    error is a NotHermitian as well as a NotHermiticityPreserving."""
    calls = []
    real = linalg_mod._check_hermitian_pair

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg_mod, "_check_hermitian_pair", counted)
    monkeypatch.setattr(maps_mod, "_check_hermitian_pair", counted)
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = 1.0
    with pytest.raises(NotHermitian) as got:
        map_from_choi(c)
    assert isinstance(got.value, NotHermiticityPreserving)
    assert len(calls) == 1
