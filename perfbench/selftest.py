"""Fast self-test of the benchmark itself (about 20 s on two cores):

    python3 perfbench/selftest.py

1. Runs every workload once at tiny size, untraced and traced, and checks
   that each run is correct and prints exactly the metrics BENCHMARK.json
   names, each with its unit.
2. Checks that every span the per-layer metrics read wraps a real conekit
   function, rebound in every module that imported it, and that removing
   the tracer restores the originals.
3. Feeds each oracle a deliberately corrupted answer and checks that it is
   rejected: a flipped verdict, a witness of Schmidt rank above k, an A that
   is not PSD, a flipped scan row and a failed fuzz instance.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import run

run.pin_environment()

import numpy as np  # noqa: E402  (BLAS is pinned above)

import conekit  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def tiny_runs() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, run.__file__, "--workload", workload, "--seed", "1",
                 "--seconds", "0", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == expected, f"{label}: emits every {key} metric with its unit")
            table = proc.stdout.splitlines()[:-1]
            expect(all(any(line.split()[:1] == [name] for line in table) for name in expected),
                   f"{label}: prints every metric by name")


def wrapping() -> None:
    targets = spans.targets(conekit)
    originals = {id(getattr(owner, attr)) for owner, attr, _ in targets}
    names = {span for *_, span in targets}
    missing = [s for s in spans.REPORTED_SPANS if s not in names]
    expect(not missing, f"every reported span names a conekit function (missing: {missing})")
    modules = [m for n, m in sys.modules.items() if n == "conekit" or n.startswith("conekit.")]
    tracer = spans.Tracer()
    spans.install(tracer, conekit)
    try:
        expect(all(getattr(getattr(owner, attr), "__perfbench_span__", None) == span
                   for owner, attr, span in targets), "every target is wrapped")
        left = [f"{m.__name__}.{k}" for m in modules for k, v in vars(m).items()
                if id(v) in originals and callable(v)]
        expect(not left, f"no module keeps an unwrapped binding ({left[:5]})")
        expect(conekit.certify.seesaw_minimize is conekit.witness.seesaw_minimize
               and hasattr(conekit.witness.seesaw_minimize, "__perfbench_span__"),
               "the see-saw is rebound in both certify and witness")
        conekit.MatrixOp(np.eye(4), dims=(2, 2))
        expect("linalg.matrixop" in tracer.names and len(tracer.start) == 1,
               "MatrixOp construction records one span")
    finally:
        spans.uninstall(tracer)
    restored = {id(getattr(owner, attr)) for owner, attr, _ in spans.targets(conekit)}
    expect(restored == originals, "uninstall restores every original")


def real_answer(workload: str, case_id: str):
    directory = os.path.join(run.HERE, "out", "selftest", workload)
    cases, ops = harness.prepare(workload, 1, directory, tiny=True)
    i = next(j for j, c in enumerate(cases) if c.id == case_id)
    _, answer, error = harness.read_result(workload, ops[i]())
    assert error is None and not oracles.check(workload, cases[i], answer), case_id
    return cases[i], answer


def rejects(workload: str, case, answer, needle: str, what: str) -> None:
    problems = oracles.check(workload, case, answer)
    expect(any(needle in p for p in problems), f"oracle rejects {what} ({problems[:1]})")


def corrupted_outputs() -> None:
    case, rep = real_answer("classify", "red-d3-k2-above")
    bad = copy.deepcopy(rep)
    bad["p"]["2"]["verdict"] = oracles.MEMBERSHIP
    rejects("classify", case, bad, "p[2]", "a flipped classify verdict")

    bad = copy.deepcopy(rep)
    amp = np.eye(3).reshape(-1) / np.sqrt(3.0)  # Schmidt rank 3
    bad["p"]["2"]["witness"].update(re=amp.tolist(), im=[0.0] * 9)
    rejects("classify", case, bad, "Schmidt rank 3 exceeds k = 2", "a witness of Schmidt rank above k")

    case, cert = real_answer("decompose", "pt3-0")
    bad = copy.deepcopy(cert)
    a = bad["extras"]["A"]
    w, v = np.linalg.eigh(a)
    bad["extras"]["A"] = a - (w[-1] + 1.0) * np.outer(v[:, -1], v[:, -1].conj())
    rejects("decompose", case, bad, "A is not PSD", "an A that is not PSD")

    case, cert = real_answer("decompose", "choi-2-0-1")
    bad = dict(cert, verdict=oracles.MEMBERSHIP)
    rejects("decompose", case, bad, "not decomposable", "Phi[2,0,1] reported decomposable")

    case, rows = real_answer("scan", "scan-isotropic-d3-k1")
    bad = [(p, v, not f) if i == 0 else (p, v, f) for i, (p, v, f) in enumerate(rows)]
    rejects("scan", case, bad, "fired flag", "a flipped scan row")

    cases = harness.prepare("fuzz", 1, os.path.join(run.HERE, "out", "selftest", "fuzz"), tiny=True)[0]
    case, summary = real_answer("fuzz", cases[0].id)
    bad = dict(summary, passed=summary["n"] - 1, failed=1, failures=[{"index": 0}])
    rejects("fuzz", case, bad, "instances failed", "a fuzz summary with a failure")


def main() -> int:
    tiny_runs()
    wrapping()
    corrupted_outputs()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
