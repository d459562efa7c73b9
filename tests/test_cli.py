"""End-to-end tests of the command line interface, driven through main()."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conekit.cli as cli
from conekit import MatrixOp, choi, depolarizing, reduction_family, transpose_map
from conekit.certify import DEFAULT_OPTS
from conekit.serialize import dumps, map_to_json, matrix_to_json

from _report_oracle import check_report


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
    assert rep["d"] == 2 and rep["dims"] == [2, 2]


def _hermitian_payload(dims, seed):
    """A seeded Hermitian operator on C^dA (x) C^dB and its JSON payload."""
    n = dims[0] * dims[1]
    g = np.random.default_rng(seed).normal(size=(2, n, n))
    c = (g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T) / 2
    return c, matrix_to_json(MatrixOp(c, dims=dims))


@pytest.mark.parametrize("dims,seed", [((2, 3), 11), ((3, 2), 12)])
def test_classify_rectangular_choi_payload(tmp_path, capsys, dims, seed):
    """A Choi payload on C^dA (x) C^dB is classified at its declared dims:
    levels 1..2 on both chains, four (k, m) flags, and every certificate
    re-checks with numpy alone."""
    c, payload = _hermitian_payload(dims, seed)
    path = _write(tmp_path / "choi.json", payload)
    assert cli.main(["classify", path, "--restarts", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    check_report(rep, c, dims, DEFAULT_OPTS.eps_neg)


def test_classify_choi_payload_keeps_its_declared_dims(tmp_path, capsys):
    """A 9 x 9 payload declared on C^1 (x) C^9 has level 1 only; it is not
    read as 3 x 3."""
    c, payload = _hermitian_payload((1, 9), 13)
    path = _write(tmp_path / "choi.json", payload)
    assert cli.main(["classify", path, "--restarts", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert list(rep["p"]) == list(rep["co_p"]) == ["1"]
    check_report(rep, c, (1, 9), DEFAULT_OPTS.eps_neg)


def test_classify_choi_payload_without_dims_must_be_square(tmp_path, capsys):
    """"dims": null means square (d, d); a 6 x 6 matrix has no such split."""
    _, payload = _hermitian_payload((2, 3), 14)
    payload["dims"] = None
    path = _write(tmp_path / "choi.json", payload)
    assert cli.main(["classify", path, "--no-dec"]) == cli.INVARIANT_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert "Choi matrix size 6 is not a perfect square" in out.err


def test_classify_kraus_payload(tmp_path, capsys):
    ops = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    payload = {"kraus": [matrix_to_json(MatrixOp(a)) for a in ops], "rank_bound": 2}
    path = _write(tmp_path / "kraus.json", payload)
    assert cli.main(["classify", path, "--no-dec"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cp"] is True


@pytest.mark.parametrize("rank,n_ops,upper", [(1, 4, 1), (2, 2, 2)])
def test_classify_kraus_payload_bounds_schmidt_number(tmp_path, capsys, rank, n_ops, upper):
    """The Kraus operators of a payload reach classify: their largest rank
    bounds the Schmidt number of the Choi matrix, whose own rank (4 for four
    rank-1 operators at d = 3) would only give min(dims) = 3."""
    rng = np.random.default_rng(rank)
    ops = [(rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank)))
           @ (rng.normal(size=(rank, 3)) + 1j * rng.normal(size=(rank, 3))) for _ in range(n_ops)]
    path = _write(tmp_path / "kraus.json",
                  {"kraus": [matrix_to_json(MatrixOp(a)) for a in ops], "rank_bound": None})
    assert cli.main(["classify", path, "--no-dec", "--restarts", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schmidt_number"]["upper"] == upper
    assert rep["schmidt_number"]["lower"] <= upper
    if upper == 1:  # a separable Choi matrix: the map is superpositive
        assert rep["schmidt_number"]["lower"] == 1
        assert rep["km_superpositive"]["1,3"] == "proven"


def test_classify_out_file_and_determinism(tmap_file, tmp_path):
    out1 = tmp_path / "rep1.json"
    out2 = tmp_path / "rep2.json"
    assert cli.main(["classify", tmap_file, "--out", str(out1)]) == 0
    assert cli.main(["classify", tmap_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["decomposable"]["verdict"] == "MembershipProven"


@pytest.mark.parametrize("phi", [depolarizing(3, 1.0), reduction_family(3, 0.6)],
                         ids=["no-search", "search"])
def test_negative_seed_exits_2(phi, tmp_path, capsys):
    """--seed -1 is an input error whether or not a search would run: the
    depolarizing map's chains are both PSD, the reduction map's are not."""
    path = _write(tmp_path / "phi.json", map_to_json(phi))
    assert cli.main(["classify", path, "--no-dec", "--seed", "-1"]) == cli.PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed >= 0" in captured.err


@pytest.mark.parametrize("extra", [["--no-dec"], []])
def test_classify_spectrum_beyond_the_float_range_exits_2(extra, tmp_path, capsys):
    """-1.7e308 * ones(4) has eigenvalue -6.8e308, not a double: with or
    without the decomposability search the command exits 2 saying the
    spectrum is not finite, prints no report (so no NaN value) and no numpy
    warning, and never reaches a failed eigensolve."""
    path = _write(tmp_path / "c.json",
                  matrix_to_json(MatrixOp(-1.7e308 * np.ones((4, 4)), dims=(2, 2))))
    assert cli.main(["classify", path, "--restarts", "1", *extra]) == cli.PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spectrum is not finite" in captured.err
    assert "Warning" not in captured.err and "converge" not in captured.err


def test_scan_csv_stdout(capsys):
    assert cli.main(["scan", "--family", "reduction:3", "--k", "2",
                     "--grid", "0.3:0.7:9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,min_eig,fired"
    assert len(lines) == 10
    fired = [int(l.rsplit(",", 1)[1]) for l in lines[1:]]
    assert fired == sorted(fired)  # one monotone flip
    assert fired[0] == 0 and fired[-1] == 1


def test_scan_reduction_negative_rows_are_exact(capsys):
    """At c < 0 a reduction row is exactly 1 and not fired, however large
    |c| is: three rows from -1e17 to -1e16 all print 1 and 0."""
    assert cli.main(["scan", "--family", "reduction:3", "--k", "1",
                     "--grid=-1e17:-1e16:3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "param,min_eig,fired"
    assert len(lines) == 4
    assert all(line.endswith(",1,0") for line in lines[1:])


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
    ["fuzz", "bijection", "--k", "7"],
    ["fuzz", "adjoint", "--k", "7"],
], ids=lambda argv: "_".join(argv[1:]))
def test_fuzz_run_that_checks_nothing_exits_2(argv, capsys):
    """No instance, no level, a level outside 1..d, or a level given to a
    suite that reads none: a parse error with empty stdout, never a green
    summary (nor a warning before the error)."""
    assert cli.main(argv) == cli.PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_fuzz_at_dimension_zero_exits_2(capsys):
    """--d 0 is refused by the map layer's dimension rule, not by numpy."""
    assert cli.main(["fuzz", "bijection", "--d", "0", "--n", "2"]) == cli.PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: dimension must be an integer >= 1, got 0\n"


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
    assert summary["n"] == 100 and summary["seed"] == DEFAULT_OPTS.seed
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


@pytest.mark.parametrize("argv, message", [
    # options are set by flags alone: even a valid options file is refused
    (["classify", "--config", "{cfg}", "{tmap}"], "unrecognized arguments: --config"),
    (["scan", "--family", "reduction:3", "--k", "1", "--grid", "0:1:0"], "at least one step"),
    (["scan", "--family", "reduction", "--k", "1", "--grid", "0:1:3"], "needs a dimension"),
    # the PPT test detects Schmidt number > 1 only, and no two-qubit state
    # has one above 2: a Werner scan takes no level but k = 1
    (["scan", "--family", "werner", "--k", "2", "--grid", "0.5:1:3"], "k=2 outside 1..1"),
], ids=["config-is-no-option", "grid-zero-steps", "family-without-dimension",
        "werner-k-two"])
def test_malformed_options_exit_2(argv, message, tmap_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"restarts": 3}')
    argv = [arg.format(tmap=tmap_file, cfg=cfg) for arg in argv]
    assert cli.main(argv) == cli.PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_zero_restarts_rejected(tmap_file, tmp_path, capsys):
    """A search that never runs is a bad parameter, not an Inconclusive
    verdict or an inf scan row, whatever the input: a CP map (every level
    proven by its Choi spectrum) and an eigenvalue-only scan are refused
    too."""
    dep_file = _write(tmp_path / "dep.json", map_to_json(depolarizing(3, 1.0)))
    for argv in (["scan", "--family", "reduction:3", "--k", "2", "--grid", "0.4:0.6:3"],
                 ["classify", tmap_file, "--no-dec"],
                 ["classify", dep_file, "--no-dec"],
                 ["scan", "--family", "isotropic:3", "--k", "1", "--grid", "0.2:0.5:3"]):
        assert cli.main(argv + ["--restarts", "0"]) == cli.PARSE_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert "restarts" in out.err


@pytest.mark.parametrize("grid", ["nan:nan:2", "0:inf:3", "-inf:1:2", "-1e308:1e308:3"])
def test_scan_rejects_non_finite_grid(grid, capsys):
    """A NaN or inf grid bound (or a span that overflows) is an input error
    that names the grid, raised before any family is built."""
    assert cli.main(["scan", "--family", "reduction:3", "--k", "3",
                     f"--grid={grid}"]) == cli.PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert grid in out.err and "finite" in out.err


@pytest.mark.parametrize("family, k, message", [
    ("reduction:0", "1", "dimension must be an integer >= 1, got 0"),
    ("isotropic:1", "2", "need an integer d >= 2, got 1"),
    ("werner:3", "5", "werner scans are defined for d=2 only"),
])
def test_scan_names_the_dimension_before_the_level(family, k, message, capsys):
    """A dimension its family does not define exits 2 naming the dimension,
    even where the level is out of range for it too."""
    assert cli.main(["scan", "--family", family, "--k", k,
                     "--grid", "0.1:0.3:3"]) == cli.PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("family, grid, bad", [
    ("isotropic:3", "0.5:1.5:5", "fidelity must lie in [0, 1], got 1.25"),
    ("werner", "-0.5:0.5:3", "mixing weight must lie in [0, 1], got -0.5"),
])
def test_scan_with_an_out_of_range_row_prints_no_rows(family, grid, bad, capsys):
    """A parameter outside [0, 1] anywhere in the grid exits 2 naming it,
    and no row of the grid reaches stdout."""
    assert cli.main(["scan", "--family", family, "--k", "1",
                     f"--grid={grid}"]) == cli.PARSE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {bad}\n"


def test_scan_at_the_top_of_the_float_range(capsys):
    """reduction:3 at c = 1e308: level 1's minimum 1 - c is a double and is
    printed; at levels 2 and 3, 1 - kc overflows, so the scan exits 2 naming
    the grid value, with no numpy warning and no failed eigensolve. Just
    below, at 5e307, every level still prints its value."""
    assert cli.main(["scan", "--family", "reduction:3", "--k", "1",
                     "--grid", "1e308:1e308:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    param, value, fired = lines[1].split(",")
    assert float(param) == 1e308 and fired == "1"
    assert abs(float(value) + 1e308) <= 1e-15 * 1e308
    for k in ("2", "3"):
        assert cli.main(["scan", "--family", "reduction:3", "--k", k,
                         "--grid", "1e308:1e308:1"]) == cli.PARSE_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert "1e+308" in out.err and "finite" in out.err
        assert "Warning" not in out.err and "converge" not in out.err
    for k, value in (("2", "-1.0000000000000006e+308"), ("3", "-1.5e+308")):
        assert cli.main(["scan", "--family", "reduction:3", "--k", k,
                         "--grid", "5e307:5e307:1"]) == 0
        printed = capsys.readouterr().out.splitlines()[1].split(",")[1]
        assert printed == value
        closed = 1 - int(k) * 5e307
        assert abs(float(printed) - closed) <= 1e-15 * abs(float(printed))


def test_invariant_error_exit_3(tmp_path, capsys):
    """A non-Hermitian matrix parses fine but fails the Choi invariant."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    path = _write(tmp_path / "nonherm.json", matrix_to_json(MatrixOp(m, dims=(2, 2))))
    assert cli.main(["classify", str(path)]) == cli.INVARIANT_ERROR
    assert "invariant" in capsys.readouterr().err


def test_classify_refuses_an_entry_whose_modulus_overflows(tmp_path, capsys):
    """1_4 with X[0,1] = z and X[1,0] = -conj(z), z = 1.7e308(1 + i), is
    finite but not Hermitian: it was reported CP (its Hermiticity margin
    overflowed to inf) and now exits 3 with no report and no numpy warning."""
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1.7e308 + 1.7e308j
    m[1, 0] = -np.conj(m[0, 1])
    path = _write(tmp_path / "skew.json", matrix_to_json(MatrixOp(m, dims=(2, 2))))
    assert cli.main(["classify", path, "--restarts", "1"]) == cli.INVARIANT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant" in captured.err and "Warning" not in captured.err


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
