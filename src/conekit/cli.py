"""Command line front end.

subcommands:
  classify  read an operator file (map or Choi matrix), emit a cone report
  scan      sweep a named one-parameter family, emit param,min_eig,fired CSV
  fuzz      run a seeded identity-fuzz suite, emit a JSON summary

exit codes: 0 ok, 2 parse/input error, 3 invariant violation, 4 fuzz failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import fuzz as fuzz_mod
from .certify import DEFAULT_OPTS, SeesawOpts, classify
from .errors import (
    BadFamily,
    BadK,
    BadParam,
    BadRank,
    ConekitError,
    EmptyList,
)
from .maps import KrausSet, MapRep, map_from_choi
from .serialize import dumps, load_operator, report_to_json, scan_rows_to_csv
from .witness import threshold_scan

PARSE_ERROR = 2
INVARIANT_ERROR = 3
FUZZ_FAILURE = 4

_PARSE_EXC = (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError,
              BadFamily, BadParam, BadK, BadRank, EmptyList)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args keeps no state
    between calls (each returns a fresh Namespace)."""
    ap = argparse.ArgumentParser(prog="conekit",
                                 description="cone membership tools for maps on M_d")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--restarts", type=int, default=None)
    common.add_argument("--tol", type=float, default=None,
                        help="violation threshold (eps_neg)")
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--config", type=str, default=None,
                        help="JSON file with restarts/max_iters/eps_conv/eps_neg/seed")

    p_cls = sub.add_parser("classify", parents=[common],
                           help="full cone report for one operator file")
    p_cls.add_argument("input", type=str,
                       help="JSON operator; files without repr=super are Choi matrices")
    p_cls.add_argument("--no-dec", action="store_true",
                       help="skip the decomposability heuristic")

    p_scan = sub.add_parser("scan", parents=[common],
                            help="threshold scan over a named family")
    p_scan.add_argument("--family", type=str, required=True,
                        help="reduction:D | isotropic:D | werner")
    p_scan.add_argument("--k", type=int, default=1)
    p_scan.add_argument("--grid", type=str, required=True, help="lo:hi:steps")

    p_fuzz = sub.add_parser("fuzz", parents=[common],
                            help="seeded identity fuzzing")
    p_fuzz.add_argument("suite", choices=fuzz_mod.SUITES)
    p_fuzz.add_argument("--n", type=int, default=100)
    p_fuzz.add_argument("--d", type=int, default=None)
    p_fuzz.add_argument("--k", type=int, default=None)
    return ap


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _opt_value(key: str, val):
    """val as the type of SeesawOpts's field key. A boolean, or a number
    with a fractional part for an int field, is an input error rather than
    a silent truncation."""
    kind = type(getattr(DEFAULT_OPTS, key))
    if isinstance(val, bool) or (kind is int and not float(val).is_integer()):
        raise ValueError(f"{key} must be {kind.__name__}, got {val!r}")
    return kind(val)


def _opts_from(args) -> SeesawOpts:
    """Config keys are SeesawOpts's field names; --restarts, --tol and --seed
    win over them, and every other field keeps its default."""
    cfg = _load_config(args.config)
    names = [f.name for f in dataclasses.fields(SeesawOpts)]
    unknown = sorted(set(cfg) - set(names))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; allowed: {names}")
    flags = {"restarts": args.restarts, "eps_neg": args.tol, "seed": args.seed}
    merged = {**cfg, **{key: val for key, val in flags.items() if val is not None}}
    return SeesawOpts(**{key: _opt_value(key, val) for key, val in merged.items()})


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:steps, got {spec!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError("grid needs at least one step")
    return np.linspace(lo, hi, steps)


def _parse_family(spec: str) -> tuple[str, int]:
    if ":" in spec:
        name, d_str = spec.split(":", 1)
        return name, int(d_str)
    if spec == "werner":
        return "werner", 2
    raise ValueError(f"family {spec!r} needs a dimension, e.g. {spec}:3")


def _cmd_classify(args) -> int:
    opts = _opts_from(args)
    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    op = load_operator(payload)
    if isinstance(op, KrausSet):
        op = op.to_map()
    phi = op if isinstance(op, MapRep) else map_from_choi(op)  # a Choi matrix
    report = classify(phi, opts=opts, include_dec=not args.no_dec)
    _emit(dumps(report_to_json(report)), args.out)
    return 0


def _cmd_scan(args) -> int:
    opts = _opts_from(args)
    name, d = _parse_family(args.family)
    grid = _parse_grid(args.grid)
    rows = threshold_scan(name, d, args.k, grid, opts=opts)
    _emit(scan_rows_to_csv(rows), args.out)
    return 0


def _cmd_fuzz(args) -> int:
    opts = _opts_from(args)
    summary = fuzz_mod.run_suite(args.suite, args.n, opts.seed, d=args.d, k=args.k)
    summary["seed"] = opts.seed
    _emit(dumps(summary), args.out)
    return FUZZ_FAILURE if summary["failed"] else 0


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return PARSE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        raise ValueError(f"unknown command {args.command!r}")
    except _PARSE_EXC as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except ConekitError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR


if __name__ == "__main__":
    sys.exit(main())
