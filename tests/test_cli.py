"""End-to-end tests of the command line interface, driven through main()."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conekit.cli as cli
from conekit import MatrixOp, choi, reduction_family, transpose_map
from conekit.serialize import dumps, map_to_json, matrix_to_json


def _write(path, obj):
    path.write_text(dumps(obj))
    return str(path)


@pytest.fixture
def tmap_file(tmp_path):
    return _write(tmp_path / "tmap.json", map_to_json(transpose_map(2)))


def test_classify_map_file(tmap_file, capsys):
    assert cli.main(["classify", tmap_file, "--no-dec", "--restarts", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cp"] is False
    assert rep["p"]["2"]["verdict"] == "ViolationFound"
    assert rep["p"]["2"]["witness"] is not None
    assert rep["co_p"]["1"]["verdict"] == "MembershipProven"
    assert rep["p"]["1"]["restarts_used"] == 4
    assert rep["decomposable"] is None


def test_classify_bare_matrix_is_choi(tmp_path, capsys):
    """Operator files without a repr tag are read as Choi matrices."""
    path = _write(tmp_path / "choi.json", matrix_to_json(choi(reduction_family(2, 0.5))))
    assert cli.main(["classify", path, "--no-dec"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cp"] is True
    assert rep["d"] == 2


def test_classify_kraus_payload(tmp_path, capsys):
    ops = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    payload = {"kraus": [matrix_to_json(MatrixOp(a)) for a in ops], "rank_bound": 2}
    path = _write(tmp_path / "kraus.json", payload)
    assert cli.main(["classify", path, "--no-dec"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cp"] is True


def test_classify_out_file_and_determinism(tmap_file, tmp_path):
    out1 = tmp_path / "rep1.json"
    out2 = tmp_path / "rep2.json"
    assert cli.main(["classify", tmap_file, "--out", str(out1)]) == 0
    assert cli.main(["classify", tmap_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["decomposable"]["verdict"] == "MembershipProven"


def test_classify_config_merge(tmap_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 6, "seed": 7}))
    assert cli.main(["classify", tmap_file, "--no-dec", "--config", str(cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["p"]["1"]["restarts_used"] == 6
    # flags win over config
    assert cli.main(["classify", tmap_file, "--no-dec", "--config", str(cfg),
                     "--restarts", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["p"]["1"]["restarts_used"] == 3


def test_unknown_config_key_exits_2(tmap_file, tmp_path, capsys):
    """Config keys are exactly SeesawOpts's fields; a misspelt key or the
    former "out" key is an input error, not silently ignored."""
    for bad in ({"restart": 6}, {"out": str(tmp_path / "report.json")}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert cli.main(["classify", tmap_file, "--no-dec",
                         "--config", str(cfg)]) == cli.PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config keys" in captured.err
    assert not (tmp_path / "report.json").exists()
    # a known key with a value its int field cannot hold is no better
    for bad in ({"restarts": 2.7}, {"seed": True}):
        cfg.write_text(json.dumps(bad))
        assert cli.main(["classify", tmap_file, "--no-dec",
                         "--config", str(cfg)]) == cli.PARSE_ERROR
        assert capsys.readouterr().out == ""


def test_scan_csv_stdout(capsys):
    assert cli.main(["scan", "--family", "reduction:3", "--k", "2",
                     "--grid", "0.3:0.7:9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,min_eig,fired"
    assert len(lines) == 10
    fired = [int(l.rsplit(",", 1)[1]) for l in lines[1:]]
    assert fired == sorted(fired)  # one monotone flip
    assert fired[0] == 0 and fired[-1] == 1


def test_scan_werner_shortform(capsys):
    assert cli.main(["scan", "--family", "werner", "--k", "1",
                     "--grid", "0.2:0.5:7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("param,min_eig,fired\n")


def test_scan_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["scan", "--family", "isotropic:3", "--k", "1", "--grid", "0.2:0.5:7"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fuzz_green_suite(capsys):
    assert cli.main(["fuzz", "bijection", "--n", "20", "--seed", "5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] == 20
    assert summary["failed"] == 0
    assert summary["seed"] == 5


def test_fuzz_failure_exit_code(monkeypatch, capsys):
    def fake_run(suite, n, seed, d=None, k=None):
        return {"suite": suite, "n": n, "passed": n - 1, "failed": 1,
                "failures": [{"index": 0, "seed": seed, "detail": "boom"}]}
    monkeypatch.setattr(cli.fuzz_mod, "run_suite", fake_run)
    assert cli.main(["fuzz", "duality", "--n", "3"]) == cli.FUZZ_FAILURE
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"][0]["detail"] == "boom"


@pytest.mark.parametrize("argv", [
    ["fuzz", "duality", "--n", "-3"],
    ["fuzz", "duality", "--n", "0"],
    ["fuzz", "adjoint", "--n", "0"],
    ["fuzz", "bijection", "--n", "-1"],
    ["fuzz", "duality", "--d", "1"],
    ["fuzz", "composition", "--k", "0"],
], ids=lambda argv: "_".join(argv[1:]))
def test_fuzz_run_that_checks_nothing_exits_2(argv, capsys):
    """No instance, no level, or a level outside 1..d: a parse error with
    empty stdout, never a green summary (nor a warning before the error)."""
    assert cli.main(argv) == cli.PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_classify_trusts_its_own_psd_proof(tmp_path, capsys):
    """A Choi matrix PSD within --tol 1e-6 but not within PSD_TOL is CP in
    the report, with Schmidt bounds, not an invariant error."""
    c = np.eye(9, dtype=complex)
    c[0, 0] = -1e-8
    path = _write(tmp_path / "barely.json", matrix_to_json(MatrixOp(c, dims=(3, 3))))
    assert cli.main(["classify", path, "--tol", "1e-6", "--restarts", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cp"] is True
    assert rep["schmidt_number"] == {"lower": 1, "upper": 3}


def test_parser_built_once_per_process(monkeypatch, capsys):
    """Two main() calls construct the argparse tree once."""
    cli._build_parser.cache_clear()
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["fuzz", "bijection", "--n", "2"]) == 0
    first = built[0]
    assert first > 0
    assert cli.main(["fuzz", "adjoint", "--n", "2"]) == 0
    assert built[0] == first
    capsys.readouterr()


def test_parser_reuse_leaks_nothing(tmp_path, capsys):
    """A parse error, a run with --out and the same run without it, in one
    process: the last run writes to stdout the bytes the --out run wrote,
    and neither --out nor any other value carries over between calls."""
    assert cli.main(["fuzz", "nosuch"]) == cli.PARSE_ERROR
    capsys.readouterr()
    out = tmp_path / "summary.json"
    argv = ["fuzz", "composition", "--n", "3", "--seed", "4", "--d", "4"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()
    summary = json.loads(out.read_text())
    assert summary["n"] == 3 and summary["seed"] == 4
    # defaults come back when the flags are dropped
    assert cli.main(["fuzz", "composition"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 100 and summary["seed"] == cli.DEFAULT_OPTS.seed
    assert summary["params"]["d"] == 3


def test_parse_errors_exit_2(tmap_file, tmp_path, capsys):
    assert cli.main(["classify", str(tmp_path / "missing.json")]) == cli.PARSE_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["classify", str(bad)]) == cli.PARSE_ERROR
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"unexpected": 1}))
    assert cli.main(["classify", str(wrong)]) == cli.PARSE_ERROR
    assert cli.main(["scan", "--family", "nosuch:3", "--k", "1",
                     "--grid", "0:1:3"]) == cli.PARSE_ERROR
    assert cli.main(["scan", "--family", "reduction:3", "--k", "9",
                     "--grid", "0:1:3"]) == cli.PARSE_ERROR
    assert cli.main(["scan", "--family", "reduction:3", "--k", "1",
                     "--grid", "0-1-3"]) == cli.PARSE_ERROR
    assert cli.main(["nonsense"]) == cli.PARSE_ERROR
    capsys.readouterr()
    # a negative margin reverses every sign decision, a NaN one disables it
    for tol in ("-1", "nan"):
        assert cli.main(["classify", tmap_file, "--no-dec",
                         "--tol", tol]) == cli.PARSE_ERROR
        assert capsys.readouterr().out == ""


def test_zero_restarts_rejected(tmap_file, capsys):
    """A search that never runs is a bad parameter, not an Inconclusive
    verdict or an inf scan row."""
    assert cli.main(["scan", "--family", "reduction:3", "--k", "2",
                     "--grid", "0.4:0.6:3", "--restarts", "0"]) == cli.PARSE_ERROR
    assert cli.main(["classify", tmap_file, "--no-dec",
                     "--restarts", "0"]) == cli.PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert "restarts" in out.err


def test_invariant_error_exit_3(tmp_path, capsys):
    """A non-Hermitian matrix parses fine but fails the Choi invariant."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    path = _write(tmp_path / "nonherm.json", matrix_to_json(MatrixOp(m, dims=(2, 2))))
    assert cli.main(["classify", str(path)]) == cli.INVARIANT_ERROR
    assert "invariant" in capsys.readouterr().err


def test_entry_point_installed(tmp_path):
    """The packaging metadata exposes a `conekit` console script bound to
    `conekit.cli.main`.

    The metadata is built from the checkout with the declared build backend
    (setuptools `egg_info`, written under tmp_path), so the test holds whether
    or not conekit is installed. Where it is installed, the installed entry
    point must agree."""
    pytest.importorskip("setuptools")
    import importlib.metadata as md

    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path)],
        cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    dist = md.PathDistribution(tmp_path / "conekit.egg-info")
    found = list(dist.entry_points.select(group="console_scripts", name="conekit"))
    assert len(found) == 1
    assert found[0].value == "conekit.cli:main"
    assert found[0].load() is cli.main

    try:
        installed = md.distribution("conekit")
    except md.PackageNotFoundError:
        return
    eps = installed.entry_points.select(group="console_scripts", name="conekit")
    assert [ep.value for ep in eps] == ["conekit.cli:main"]


def test_classify_rejects_non_finite_entries(tmp_path, capsys):
    """json.loads reads NaN and Infinity; the loader refuses them (exit 2)."""
    for bad in ("NaN", "Infinity"):
        obj = matrix_to_json(choi(reduction_family(2, 0.5)))
        obj["re"][1][1] = float(bad.lower())
        text = dumps(obj)
        assert bad in text
        path = tmp_path / f"{bad}.json"
        path.write_text(text)
        assert cli.main(["classify", str(path), "--no-dec"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
