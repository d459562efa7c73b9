"""Command line front end.

subcommands:
  classify  read an operator file (map or Choi matrix), emit a cone report
  scan      sweep a named one-parameter family, emit param,min_eig,fired CSV
  fuzz      run a seeded identity-fuzz suite, emit a JSON summary

exit codes: 0 ok, 2 parse/input error, 3 invariant violation, 4 fuzz failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fuzz as fuzz_mod
from .certify import DEFAULT_OPTS, SeesawOpts, classify
from .errors import (
    BadFamily,
    BadK,
    BadParam,
    ConekitError,
    EmptyList,
)
from .serialize import dumps, load_operator, report_to_json, scan_rows_to_csv
from .witness import threshold_scan

PARSE_ERROR = 2
INVARIANT_ERROR = 3
FUZZ_FAILURE = 4

_PARSE_EXC = (ValueError, KeyError, TypeError, OSError,
              BadFamily, BadParam, BadK, EmptyList)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args keeps no state
    between calls (each returns a fresh Namespace)."""
    ap = argparse.ArgumentParser(prog="conekit",
                                 description="cone membership tools for maps on M_d")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_OPTS.seed)
    common.add_argument("--restarts", type=int, default=DEFAULT_OPTS.restarts)
    common.add_argument("--tol", type=float, default=DEFAULT_OPTS.eps_neg,
                        help="violation threshold (eps_neg)")
    common.add_argument("--out", type=str, default=None)

    p_cls = sub.add_parser("classify", parents=[common],
                           help="full cone report for one operator file")
    p_cls.add_argument("input", type=str,
                       help="JSON operator; files that are neither repr=super nor kraus "
                            "are Choi matrices, split by their dims (null: square)")
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


def _opts_from(args) -> SeesawOpts:
    """SeesawOpts from --restarts, --tol and --seed, whose defaults are
    DEFAULT_OPTS's; SeesawOpts checks them."""
    return SeesawOpts(restarts=args.restarts, eps_neg=args.tol, seed=args.seed)


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
    # a NaN or inf bound, or a span that overflows, yields no finite grid point
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ValueError(f"grid bounds must be finite with a finite span, got {spec!r}")
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


def _cmd_classify(args, opts: SeesawOpts) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    report = classify(load_operator(payload), opts=opts, include_dec=not args.no_dec)
    _emit(dumps(report_to_json(report)), args.out)
    return 0


def _cmd_scan(args, opts: SeesawOpts) -> int:
    name, d = _parse_family(args.family)
    grid = _parse_grid(args.grid)
    rows = threshold_scan(name, d, args.k, grid, opts=opts)
    _emit(scan_rows_to_csv(rows), args.out)
    return 0


def _cmd_fuzz(args, opts: SeesawOpts) -> int:
    summary = fuzz_mod.run_suite(args.suite, args.n, opts.seed, d=args.d, k=args.k)
    summary["seed"] = opts.seed
    _emit(dumps(summary), args.out)
    return FUZZ_FAILURE if summary["failed"] else 0


_COMMANDS = {"classify": _cmd_classify, "scan": _cmd_scan, "fuzz": _cmd_fuzz}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return PARSE_ERROR if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, _opts_from(args))
    except _PARSE_EXC as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except ConekitError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR


if __name__ == "__main__":
    sys.exit(main())
