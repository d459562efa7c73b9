"""conekit benchmark: one run of one workload.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from a checkout's root. conekit is imported from `src/` of that checkout
(no install needed). BLAS is pinned to one thread before numpy loads.

--trace 0 times the workload for --seconds and prints every end-to-end
metric; --trace 1 runs the workload untraced for half of --seconds, then the
same operations again with spans recorded around conekit's public functions,
and prints every per-layer metric. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Each run also
leaves its inputs, result, answer digest and (traced) spans under
perfbench/out/<workload>-seed<seed>[-trace]/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classify", "scan", "decompose", "fuzz")
SETUP_REPEATS = 7
# A fixed start-up job that does not use conekit: a fresh interpreter that
# imports numpy and scipy.linalg. It is timed before and after each set-up, and
# setup_s is reported as seconds on a machine where it takes REF_START_S.
REF_START = (sys.executable, "-c", "import numpy, scipy.linalg")
REF_START_S = 0.4
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_environment() -> None:
    """One BLAS thread, and conekit from this checkout's source tree. Must run
    before numpy or conekit is imported."""
    if not os.path.isfile(os.path.join(SRC, "conekit", "__init__.py")):
        sys.exit(f"error: no conekit sources under {SRC}; run from a checkout of the repository")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def wall_s(cmd) -> float:
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed_setups(args, directory: str) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_REPEATS fresh interpreters that each import conekit,
    generate and write the inputs, and run one warm-up operation, and of the
    reference start-up job run before the first and after each of them."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe", directory]
    cmd += ["--tiny"] if args.tiny else []
    setups, refs = [], [wall_s(REF_START)]
    for _ in range(SETUP_REPEATS):
        setups.append(wall_s(cmd))
        refs.append(wall_s(REF_START))
    return setups, refs


def scaled_setup_s(setups: list[float], refs: list[float]) -> float:
    """Median set-up time in reference start-ups, times REF_START_S. On a
    shared machine a fixed start-up drifts by a third for minutes at a time;
    the ratio to the start-up job timed around it does not."""
    return REF_START_S * statistics.median(
        t / (0.5 * (a + b)) for t, a, b in zip(setups, refs, refs[1:]))


def emit(label: str, value, unit: str, note: str = "") -> None:
    print(f"  {label:<34} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import harness
    import spans

    if args.setup_probe:
        cases, ops = harness.prepare(args.workload, args.seed, args.setup_probe, args.tiny)
        harness.warm_up(args.workload, cases, ops)
        return 0

    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}"
                           + ("-trace" if args.trace else "") + ("-tiny" if args.tiny else ""))
    os.makedirs(out_dir, exist_ok=True)
    setups, setup_refs = ([], []) if args.trace else timed_setups(args, os.path.join(out_dir, "setup"))
    in_dir = os.path.join(out_dir, "inputs")
    cases, ops = harness.prepare(args.workload, args.seed, in_dir, args.tiny)
    harness.warm_up(args.workload, cases, ops)
    inputs_sha = harness.inputs_digest(in_dir)
    problems = []
    if setups and harness.inputs_digest(os.path.join(out_dir, "setup")) != inputs_sha:
        problems.append("set-up wrote different inputs for the same seed")

    env = harness.environment()
    print(f"conekit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs: {len(cases)} cases, sha256 {inputs_sha}")

    if not args.trace:
        p = harness.run_pass(args.workload, cases, ops, args.seconds)
        passes = [p]
        values, notes = harness.timing_metrics(p, args.workload)
        values["setup_s"] = scaled_setup_s(setups, setup_refs)
        notes["setup_s"] = (f"median of {len(setups)} set-ups, scaled to a {REF_START_S:g} s reference "
                            "start-up; wall s: " + " ".join(f"{t:.3f}" for t in setups)
                            + "; reference s: " + " ".join(f"{t:.3f}" for t in setup_refs))
        values["decided_frac"] = p.decided / p.answers if p.answers else 0.0
        notes["decided_frac"] = f"{p.decided} of {p.answers} answers decided"
        values["peak_rss_mb"] = harness.peak_rss_mb()
        units = harness.E2E_UNITS
        extra = harness.WALL_UNITS
    else:
        p0 = harness.run_pass(args.workload, cases, ops, args.seconds / 2)
        tracer = spans.Tracer()
        spans.install(tracer, harness.conekit)
        try:
            p = harness.run_pass(args.workload, cases, ops, 0, n_ops=p0.n, tracer=tracer)
        finally:
            spans.uninstall(tracer)
        passes = [p0, p]
        overhead = harness.normalized_times(p).sum() / harness.normalized_times(p0).sum() - 1.0
        values = spans.per_layer_metrics(tracer, harness.ROOT_SPAN, overhead)
        notes = {"trace.overhead_frac": f"traced vs untraced, same {p.n} operations, in ref units"}
        units = spans.METRIC_UNITS
        extra = {}
        spans.save(tracer, os.path.join(out_dir, "spans.npz"))
        if p0.digest(cases)[0] != p.digest(cases)[0]:
            problems.append("the traced run gave different answers from the untraced run")

    digest, entries = p.digest(cases)
    attempted = sum(q.n for q in passes)
    failures = [f for q in passes for f in q.failures]
    for name, unit in {**units, **extra}.items():
        emit(name, values[name], unit, notes.get(name, ""))
    print(f"  {'fail_frac':<34} {len(failures) / attempted:>14.6g} {'frac':<6} "
          f"{len(failures)} of {attempted} operations failed")
    for f in failures[:5]:
        print(f"  FAILED op {f['op']} ({f['case']}): {'; '.join(f['problems'])[:400]}")
    for msg in problems:
        print(f"  FAILED: {msg}")
    print(f"digest: sha256 {digest} over {len(entries)} of {len(cases)} cases")

    with open(os.path.join(out_dir, "digest.json"), "w", encoding="utf-8") as fh:
        json.dump({"sha256": digest, "answers": entries}, fh, sort_keys=True, indent=1)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    wall = {name: {"value": values[name], "unit": unit} for name, unit in extra.items()}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "inputs_sha256": inputs_sha,
                   "why": harness.inputs.GENERATORS[args.workload].__doc__,
                   "metrics": metrics, "wall_clock": wall, "notes": notes, "digest_sha256": digest,
                   "case_ms": harness.case_medians(p, cases),
                   "op_ms": [round(t / 1e6, 4) for t in p.times_ns],
                   "op_ref": [round(float(x), 4) for x in harness.normalized_times(p)],
                   "op_start_s": [round((t - p.refs[0][0]) / 1e9, 6) for t in p.starts_ns],
                   "ref_ms": [round(r / 1e6, 5) for _, r in p.refs],
                   "ref_at_s": [round((w - p.refs[0][0]) / 1e9, 6) for w, _ in p.refs],
                   "setup_wall_s": setups, "setup_ref_s": setup_refs,
                   "failures": failures[:50], "problems": problems}, fh, indent=1)
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
