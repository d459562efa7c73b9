"""JSON and CSV serialization round trips."""

import json
import json.encoder

import numpy as np
import pytest

import conekit.cli as cli
from conekit.errors import DimMismatch

from conekit import (
    BipartiteVector,
    KrausSet,
    MatrixOp,
    Verdict,
    choi,
    classify,
    decomposable_certify,
    identity_map,
    k_block_positive_certify,
    kraus_decompose,
    random_cp_map,
    reduction_family,
    swap_matrix,
    transpose_map,
)
from conekit.serialize import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    kraus_from_json,
    kraus_to_json,
    load_operator,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    scan_rows_to_csv,
    vector_from_json,
    vector_to_json,
)
from conekit.witness import ScanPoint, threshold_scan

from _inputs import cho_kye_lee_choi


def test_matrix_round_trip_with_dims():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    x = MatrixOp(m, dims=(2, 3))
    obj = matrix_to_json(x)
    assert set(obj) == {"dim", "dims", "re", "im"}
    assert obj["dim"] == 6
    assert obj["dims"] == [2, 3]
    back = matrix_from_json(obj)
    assert np.abs(back.mat - x.mat).max() <= 1e-15
    assert back.dims == (2, 3)


def test_matrix_round_trip_without_dims():
    x = MatrixOp(np.eye(3, dtype=complex))
    obj = matrix_to_json(x)
    assert obj["dims"] is None
    assert matrix_from_json(obj).dims is None


def test_map_round_trip_tags_repr():
    phi = reduction_family(3, 0.4)
    obj = map_to_json(phi)
    assert obj["repr"] == "super"
    back = map_from_json(obj)
    assert np.abs(back.super_mat - phi.super_mat).max() <= 1e-15


def test_map_with_a_numpy_dimension_writes_the_same_bytes():
    """MapRep keeps d as an int, so a numpy integer d serializes as 2 does."""
    assert dumps(map_to_json(identity_map(np.int64(2)))) == dumps(map_to_json(identity_map(2)))


def test_map_from_json_requires_tag():
    obj = map_to_json(transpose_map(2))
    del obj["repr"]
    with pytest.raises((KeyError, ValueError)):
        map_from_json(obj)


def test_kraus_round_trip():
    ks = kraus_decompose(random_cp_map(3, 2, 3, 1))
    obj = kraus_to_json(ks)
    assert "kraus" in obj
    back = kraus_from_json(obj)
    assert len(back.operators) == len(ks.operators)
    for a, b in zip(back.operators, ks.operators):
        assert np.abs(a - b).max() <= 1e-15


def test_kraus_json_holds_only_the_operators():
    """kraus_to_json writes the operators alone, and a payload's "rank_bound"
    key, an integer or null, is ignored on reading: the rank is computed."""
    ks = kraus_decompose(random_cp_map(3, 2, 3, 1))
    obj = kraus_to_json(ks)
    assert list(obj) == ["kraus"]
    for rank_bound in (2, None):
        back = kraus_from_json({**obj, "rank_bound": rank_bound})
        assert np.array_equal(back.operators, ks.operators)


def test_vector_round_trip():
    rng = np.random.default_rng(2)
    v = BipartiteVector(2, 3, rng.normal(size=6) + 1j * rng.normal(size=6))
    back = vector_from_json(vector_to_json(v))
    assert back.d_a == 2 and back.d_b == 3
    assert np.abs(back.amp - v.amp).max() <= 1e-15


def test_certificate_round_trip_with_witness():
    cert = k_block_positive_certify(choi(reduction_family(3, 0.7)), 2)
    obj = certificate_to_json(cert)
    back = certificate_from_json(obj)
    assert back.verdict is Verdict.VIOLATION
    assert back.value == cert.value
    assert np.abs(back.witness.amp - cert.witness.amp).max() <= 1e-15
    assert back.detail == cert.detail


def _assert_extras_round_trip(cert):
    back = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
    assert back.verdict is cert.verdict
    assert back.value == cert.value
    assert back.detail == cert.detail
    assert set(back.extras) == set(cert.extras)
    for key, val in cert.extras.items():
        if isinstance(val, np.ndarray):
            assert isinstance(back.extras[key], np.ndarray)
            assert np.array_equal(back.extras[key], val)
        else:
            assert back.extras[key] == val
    return back


def test_certificate_round_trip_keeps_split():
    cert = decomposable_certify(MatrixOp(swap_matrix(2).astype(complex), dims=(2, 2)))
    assert cert.verdict is Verdict.MEMBERSHIP
    back = _assert_extras_round_trip(cert)
    a, b = back.extras["A"], back.extras["B"]
    pt_b = b.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert np.abs(a + pt_b - swap_matrix(2)).max() <= 1e-8


def test_certificate_round_trip_keeps_ppt_witness():
    c = cho_kye_lee_choi(2.0, 0.0, 1.0)
    cert = decomposable_certify(MatrixOp(c, dims=(3, 3)))
    assert cert.detail == "ppt-witness"
    back = _assert_extras_round_trip(cert)
    assert float(np.trace(back.extras["W"] @ c).real) < 0.0


def test_non_finite_entries_rejected():
    obj = matrix_to_json(MatrixOp(np.eye(2, dtype=complex)))
    obj["re"][0][1] = float("nan")
    with pytest.raises(ValueError):
        matrix_from_json(obj)
    obj = vector_to_json(BipartiteVector(1, 2, np.ones(2)))
    obj["im"][1] = float("inf")
    with pytest.raises(ValueError):
        vector_from_json(obj)


@pytest.mark.parametrize("read, obj", [
    (vector_from_json, {"dims": [2, 2], "re": [1.0, 0.0, 0.0, 0.0], "im": [0.5]}),
    (vector_from_json, {"dims": [2, 2], "re": [1.0], "im": [0.0, 0.0, 0.0, 0.5]}),
    (matrix_from_json, {"dim": 2, "dims": None, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [0.5]}),
], ids=["vector-im-short", "vector-re-short", "matrix-im-short"])
def test_re_and_im_of_different_shapes_are_rejected(read, obj):
    """Neither part of a payload is broadcast against the other."""
    with pytest.raises(ValueError, match="differ in shape"):
        read(obj)


def test_matrix_grid_must_match_its_dim():
    eye = np.eye(3).tolist()
    with pytest.raises(ValueError, match="grids must be 2x2"):
        matrix_from_json({"dim": 2, "dims": None, "re": eye, "im": np.zeros((3, 3)).tolist()})


def test_certificate_json_is_json_serializable():
    cert = k_block_positive_certify(choi(reduction_family(2, 0.3)), 1)
    text = dumps(certificate_to_json(cert))
    assert json.loads(text)["verdict"] == "MembershipProven"


def test_report_json_shape():
    rep = classify(transpose_map(2), include_dec=False)
    obj = report_to_json(rep)
    assert set(obj) == {"d", "dims", "p", "co_p", "cp", "schmidt_number",
                        "km_positive", "km_superpositive", "decomposable"}
    assert obj["d"] == 2 and obj["dims"] == [2, 2]
    assert obj["cp"] is False
    assert obj["decomposable"] is None
    assert obj["p"]["2"]["verdict"] == "ViolationFound"
    assert obj["p"]["2"]["witness"] is not None
    assert obj["km_positive"]["2,1"] == "violated"
    assert json.loads(dumps(obj))  # fully JSON-serializable


def test_report_json_carries_extras():
    rep = classify(reduction_family(2, 0.8))
    obj = report_to_json(rep)
    dec = obj["decomposable"]
    assert dec["verdict"] == "MembershipProven"
    assert "A" in dec["extras"] and "B" in dec["extras"]
    assert dec["extras"]["residual"] < 1e-8
    json.loads(dumps(obj))


def test_load_operator_dispatch():
    assert hasattr(load_operator(map_to_json(transpose_map(2))), "super_mat")
    ks = load_operator(kraus_to_json(KrausSet((np.eye(2, dtype=complex),))))
    assert isinstance(ks, KrausSet)
    m = load_operator(matrix_to_json(MatrixOp(np.eye(4), dims=(2, 2))))
    assert isinstance(m, MatrixOp)
    with pytest.raises(ValueError):
        load_operator([1, 2, 3])


def test_load_operator_reads_a_bare_matrix_as_a_choi_operator():
    """Declared dims are kept as given; null dims mean square (d, d), and a
    size that is not a perfect square has no such split."""
    assert load_operator(matrix_to_json(MatrixOp(np.eye(6), dims=(2, 3)))).dims == (2, 3)
    assert load_operator(matrix_to_json(MatrixOp(np.eye(9), dims=(1, 9)))).dims == (1, 9)
    assert load_operator(matrix_to_json(MatrixOp(np.eye(9)))).dims == (3, 3)
    with pytest.raises(DimMismatch, match="Choi matrix size 6 is not a perfect square"):
        load_operator(matrix_to_json(MatrixOp(np.eye(6))))


def test_scan_rows_csv_format():
    rows = [ScanPoint(0.1, -0.25, True), ScanPoint(0.2, 0.5, False)]
    text = scan_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "param,min_eig,fired"
    assert lines[1] == "0.10000000000000001,-0.25,1"
    assert lines[2] == "0.20000000000000001,0.5,0"
    assert text.endswith("\n")


def test_scan_csv_deterministic():
    rows = threshold_scan("werner", 2, 1, np.linspace(0.2, 0.4, 5))
    assert scan_rows_to_csv(rows) == scan_rows_to_csv(
        threshold_scan("werner", 2, 1, np.linspace(0.2, 0.4, 5)))


def test_dumps_sorted_and_stable():
    """One line with sorted keys; floats by repr, and NaN, infinities and
    -0.0 as json spells them."""
    obj = {"b": 1, "a": [2, 3], "z": [float("nan"), float("-inf"), -0.0, 0.1]}
    a = dumps(obj)
    assert a == dumps(dict(reversed(obj.items())))
    assert a == '{"a":[2,3],"b":1,"z":[NaN,-Infinity,-0.0,0.1]}\n'
    back = json.loads(a)
    assert np.isnan(back["z"][0]) and back["z"][1] == -np.inf
    assert np.copysign(1.0, back["z"][2]) == -1.0


# ---------------------------------------------------------------------------
# classify prints its report as one compact line


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _report_payloads():
    """Operator files whose reports hold a split (d = 2), a PPT witness
    (d = 3) and a Kraus payload's bounds (d = 4)."""
    ops = np.random.default_rng(7).normal(size=(2, 4, 4, 2)) @ np.array([1.0, 1j])
    return {
        "split-d2": map_to_json(reduction_family(2, 0.8)),
        "ppt-witness-d3": matrix_to_json(MatrixOp(cho_kye_lee_choi(2.0, 0.0, 1.0), dims=(3, 3))),
        "kraus-d4": kraus_to_json(KrausSet(ops)),
    }


@pytest.mark.parametrize("name", sorted(_report_payloads()))
def test_cli_reports_are_the_reference_encoders_bytes(name, tmp_path, monkeypatch, capsys):
    """classify's stdout is one line, the compact reference encoding of the
    very report object it printed, and parses back to that object."""
    path = tmp_path / f"{name}.json"
    path.write_text(dumps(_report_payloads()[name]))
    printed = []

    def recording_dumps(obj):
        printed.append(obj)
        return dumps(obj)

    monkeypatch.setattr(cli, "dumps", recording_dumps)
    assert cli.main(["classify", str(path), "--restarts", "2"]) == 0
    out = capsys.readouterr().out
    assert len(printed) == 1 and out == _reference(printed[0])
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out) == printed[0]
    dec = json.loads(out)["decomposable"]
    expected = {"split-d2": "psd+pt-psd-split", "ppt-witness-d3": "ppt-witness",
                "kraus-d4": "psd+pt-psd-split"}[name]
    assert dec["detail"] == expected


def test_reports_skip_the_pure_python_encoder(tmp_path, monkeypatch, capsys):
    """A classify report is written without json's interpreted encoder
    (json.dumps with an indent runs json.encoder._make_iterencode); the
    counter is checked on a direct json.dumps call first."""
    calls = []
    make = json.encoder._make_iterencode

    def counting(*args, **kwargs):
        calls.append(1)
        return make(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    json.dumps({"a": [1.0]}, indent=2)
    assert calls
    calls.clear()
    for name, payload in _report_payloads().items():
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(payload))
        assert cli.main(["classify", str(path), "--restarts", "2"]) == 0
        assert capsys.readouterr().out
    assert calls == []
