"""One run of one workload against conekit: set-up, a closed loop of
operations from a single client on a single thread, answer checks, the
answer digest and the metrics.

An operation is one CLI invocation through `conekit.cli.main`, in process,
with its standard output captured, or one `decomposable_certify` call for
the `decompose` workload. The client sends the next operation only after the
previous one returns, cycling through the workload's cases; the benchmark's
own checks run between operations and are not part of an operation's time.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import conekit
import conekit.cli
import inputs
import oracles
import spans as tr

ROOT_SPAN = "bench.op"
# The tail percentile of each workload: the highest that leaves ten or more
# operations beyond it in a run of --seconds 20 on a 2-core machine.
TAIL_PCT = {"classify": 80, "scan": 85, "decompose": 95, "fuzz": 99}
REF_EVERY_NS = 50_000_000
# End-to-end metrics of an untraced run: the ones BENCHMARK.json bounds,
# then the wall-clock figures, which are printed and saved but not bounded
# (see the README on reference units).
E2E_UNITS = {"setup_s": "s", "ops_per_kref": "1/kref", "op_p50_ref": "ref", "op_tail_ref": "ref",
             "decided_frac": "frac", "peak_rss_mb": "MB"}
WALL_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}


# ---------------------------------------------------------------- set-up

def prepare(workload: str, seed: int, directory: str, tiny: bool = False):
    """Generate the cases, write them as files, read the files back and bind
    one operation per case to what was read."""
    cases = inputs.build(workload, seed, tiny)
    inputs.write(cases, directory)
    ops = []
    for case in cases:
        path = os.path.join(directory, case.id + ".json")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if workload == "classify":
            argv = ["classify", path, "--restarts", str(inputs.CLASSIFY_RESTARTS)]
            ops.append(functools.partial(run_cli, argv))
        elif workload == "decompose":
            mat = inputs.matrix_from_json(payload)
            ops.append(functools.partial(run_decompose, mat, tuple(payload["dims"])))
        else:
            ops.append(functools.partial(run_cli, payload["argv"]))
    return cases, ops


def inputs_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def warm_up(workload: str, cases, ops) -> None:
    """One operation on the workload's cheapest kind of case."""
    cheapest = {"classify": "reduction", "scan": "isotropic", "fuzz": "fuzz",
                "decompose": "psd_plus_pt"}[workload]
    ops[next(i for i, c in enumerate(cases) if c.kind == cheapest)]()


# ---------------------------------------------------------------- operations

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = conekit.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_decompose(mat, dims):
    return conekit.certify.decomposable_certify(conekit.MatrixOp(mat, dims=dims))


def read_result(workload: str, result):
    """(output bytes, parsed answer, error). Raw bytes are what must repeat
    exactly when the same invocation runs again."""
    if workload == "decompose":
        cert, ex = result, result.extras
        answer = {"verdict": cert.verdict.value, "value": cert.value, "detail": cert.detail,
                  "extras": ex}
        raw = repr((cert.verdict.value, cert.value, cert.detail, ex["residual"], ex["sweeps"],
                    ex["A"].tobytes(), ex["B"].tobytes())).encode()
        return raw, answer, None
    code, out, err = result
    if code != 0:
        return out.encode(), None, f"exit code {code}: {err.strip()[-300:]}"
    answer = oracles.parse_scan_csv(out) if workload == "scan" else json.loads(out)
    return out.encode(), answer, None


def settle(workload: str, case, result):
    """(output bytes, problems, decisions, digest entry) of one result."""
    raw, answer, error = read_result(workload, result)
    if error is not None:
        return raw, [error], [], None
    return (raw, oracles.check(workload, case, answer), oracles.decisions(workload, case, answer),
            oracles.digest_entry(workload, case, answer))


# ---------------------------------------------------------------- the loop

_REF_RNG = np.random.default_rng(0)
_REF_C = _REF_RNG.normal(size=(9, 9)) + 1j * _REF_RNG.normal(size=(9, 9))
_REF_C = 0.5 * (_REF_C + _REF_C.conj().T)
_REF_V = _REF_RNG.normal(size=9) + 1j * _REF_RNG.normal(size=9)
_REF_A = _REF_RNG.normal(size=(3, 3)) + 1j * _REF_RNG.normal(size=(3, 3))


def _reference_job() -> None:
    """A fixed job in the image of conekit's hot paths, without conekit:
    an interpreted loop over numpy scalars (the see-saw kernel), small
    eigendecompositions with a PSD clip and a partial transpose (the
    decomposability search), and small Kronecker products, reshuffles and
    frozen copies (map construction)."""
    acc = 0j
    for i in range(400):
        a, k = i % 9, (i * 7) % 9
        acc += np.conj(_REF_V[a]) * _REF_C[a, k] * _REF_V[k]
    for _ in range(8):
        w, v = np.linalg.eigh(_REF_C)
        m = (v * np.clip(w, 0, None)) @ v.conj().T
        m.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    for _ in range(20):
        s = np.kron(_REF_A.conj().T, _REF_A.T)
        c = np.einsum("jlik->ijkl", s.reshape(3, 3, 3, 3)).reshape(9, 9)
        np.array(c, dtype=np.complex128, copy=True, order="C").setflags(write=False)
        float(np.abs(c - c.conj().T).max())


def reference_time_ns() -> int:
    """Median of three timed runs of the reference job. The job does not use
    conekit, so its time tracks the machine's speed at this moment (other
    tenants slow a shared machine by up to 1.7x for tens of seconds), not
    the code under test."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _reference_job()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1]


@dataclass
class Pass:
    times_ns: list = field(default_factory=list)
    starts_ns: list = field(default_factory=list)
    refs: list = field(default_factory=list)      # (when, reference time) in ns
    failures: list = field(default_factory=list)
    decided: int = 0
    answers: int = 0
    first: dict = field(default_factory=dict)    # case index -> (bytes hash, entry)

    @property
    def n(self) -> int:
        return len(self.times_ns)

    def digest(self, cases) -> tuple[str, dict]:
        entries = {cases[i].id: self.first[i][1] for i in sorted(self.first)}
        text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest(), entries


def run_pass(workload, cases, ops, seconds: float, n_ops: int | None = None,
             tracer: tr.Tracer | None = None) -> Pass:
    """Closed loop over the cases in order. Without `n_ops` it runs whole
    cycles over the cases until `seconds` have passed, so that every run
    holds the same mix of cases whatever its length."""
    p = Pass()
    root = tracer.name_id(ROOT_SPAN) if tracer else None
    begin = time.perf_counter()
    p.refs.append((time.perf_counter_ns(), reference_time_ns()))
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i % len(cases) == 0 and i > 0 and time.perf_counter() - begin >= seconds:
            break
        ci = i % len(cases)
        case = cases[ci]
        if tracer:
            tracer.op_id = i
            span = tracer.open(root)
        t0 = time.perf_counter_ns()
        try:
            result = ops[ci]()
            error = None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.close(span)
        p.times_ns.append(t1 - t0)
        p.starts_ns.append(t0)
        if t1 - p.refs[-1][0] >= REF_EVERY_NS:
            p.refs.append((time.perf_counter_ns(), reference_time_ns()))
        i += 1
        if error is not None:
            p.failures.append({"op": i - 1, "case": case.id, "problems": [f"raised: {error}"]})
            continue
        try:
            raw, problems, decided, entry = settle(workload, case, result)
        except Exception:
            raw, problems, decided, entry = b"", [f"unreadable output: {traceback.format_exc(limit=2)}"], [], None
        key = hashlib.sha256(raw).hexdigest()
        if ci in p.first and not problems and p.first[ci][0] != key:
            problems = ["output differs from the first run of the same invocation"]
        elif ci not in p.first and entry is not None:
            p.first[ci] = (key, entry)
        if problems:
            p.failures.append({"op": i - 1, "case": case.id, "problems": problems})
        p.decided += sum(decided)
        p.answers += len(decided)
    p.refs.append((time.perf_counter_ns(), reference_time_ns()))
    return p


# ---------------------------------------------------------------- metrics

def timing_metrics(p: Pass, workload: str) -> tuple[dict, dict]:
    """(metric values, notes) of the operation times, in ms and in reference
    units. Runs hold whole cycles of cases and the percentiles are taken by
    the inverted CDF, so a run of more cycles of the same mix gives the same
    percentiles."""
    pct = TAIL_PCT[workload]
    ms = np.array(p.times_ns, dtype=float) / 1e6
    ref = normalized_times(p)
    values = {"ops_per_s": 1e3 * len(ms) / ms.sum(), "ops_per_kref": 1e3 * len(ref) / ref.sum()}
    for t, unit in ((ms, "ms"), (ref, "ref")):
        p50, tail = np.percentile(t, [50, pct], method="inverted_cdf")
        values[f"op_p50_{unit}"], values[f"op_tail_{unit}"] = float(p50), float(tail)
    beyond = int((ms > values["op_tail_ms"]).sum())
    ref_ms = np.median([r for _, r in p.refs]) / 1e6
    notes = {"ops_per_s": f"n={p.n} in {ms.sum() / 1e3:.3f} s of operations",
             "ops_per_kref": f"n={p.n}; 1 ref = reference job, median {ref_ms:.4f} ms"}
    for unit in ("ms", "ref"):
        notes[f"op_p50_{unit}"] = f"p50 of n={p.n}"
        notes[f"op_tail_{unit}"] = f"p{pct} of n={p.n}, {beyond} beyond"
    return values, notes


def normalized_times(p: Pass) -> np.ndarray:
    """Each operation's time in reference units: divided by the mean of the
    reference times sampled just before it started and just after it ended."""
    when = np.array([w for w, _ in p.refs])
    ref = np.array([r for _, r in p.refs], dtype=float)
    t = np.array(p.times_ns, dtype=float)
    starts = np.array(p.starts_ns)
    before = np.searchsorted(when, starts, side="right") - 1
    after = np.minimum(np.searchsorted(when, starts + t, side="left"), len(when) - 1)
    return t / (0.5 * (ref[before] + ref[after]))


def case_medians(p: Pass, cases) -> dict:
    """Median operation time of each case, in ms, for reading a run."""
    per_case = {}
    for i, t in enumerate(p.times_ns):
        per_case.setdefault(cases[i % len(cases)].id, []).append(t / 1e6)
    return {cid: float(np.median(ts)) for cid, ts in per_case.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(conekit.__file__))))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "numba_active": bool(conekit._seesaw.NUMBA_ACTIVE),
        "conekit_from": os.path.relpath(os.path.dirname(conekit.__file__), root),
        "conekit_installed": version("conekit") is not None,
        "setuptools": version("setuptools"),
        "note": "conekit runs from the source tree on sys.path, not from an install: an "
                "offline editable install needs setuptools >= 68",
        "load": "closed loop, 1 client, 1 thread, operations in process",
    }
