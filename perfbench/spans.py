"""Span recording around conekit's public functions, from outside the
package, and the per-layer metrics computed from the spans.

`install` wraps every public function defined in each conekit module, plus
the `__post_init__` of MatrixOp and MapRep (which counts constructions).
`from .x import f` copies the binding, so each wrapper is bound into every
module that holds the original. Each span records its name, start, end,
parent span and operation id; spans stay in memory until the run ends. A
span's self time is its duration minus the time covered by its children,
and a layer's self time is the sum over its spans, so time spent in private
helpers counts toward the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Layers are the conekit modules; a span name starts with its layer's prefix.
LAYERS = {"cli": "cli", "serialize": "serialize", "certify": "certify",
          "_seesaw": "seesaw", "linalg": "linalg", "maps": "maps",
          "witness": "witness", "fuzz": "fuzz"}
LAYER_BY_PREFIX = {prefix: layer for layer, prefix in LAYERS.items()}

# Span names that differ from "<prefix>.<function>".
RENAMED = {
    ("_seesaw", "seesaw_minimize"): "seesaw",
    ("certify", "k_block_positive_certify"): "certify.kbp",
    ("certify", "classify"): "certify.classify",
    ("certify", "schmidt_number_bounds"): "certify.snb",
    ("certify", "decomposable_certify"): "certify.dec",
    ("linalg", "MatrixOp.__post_init__"): "linalg.matrixop",
    ("maps", "MapRep.__post_init__"): "maps.maprep",
}

# Functions whose .calls and .busy_s are reported one by one.
LISTED = ["linalg.hermitian_eig", "linalg.partial_transpose", "linalg.reshuffle",
          "linalg.schmidt_decompose", "maps.choi", "maps.map_from_choi",
          "maps.apply_on_right_factor", "maps.compose_certified", "maps.from_kraus"]

# Every span name the per-layer metrics read.
REPORTED_SPANS = ["seesaw", "certify.kbp", "certify.classify", "certify.snb", "certify.dec",
                  *LISTED, "linalg.matrixop", "maps.maprep", "witness.threshold_scan",
                  "fuzz.run_suite", "serialize.load_operator", "serialize.report_to_json",
                  "serialize.dumps", "serialize.scan_rows_to_csv", "cli.main"]


def _metric_units() -> dict:
    units = {
        "seesaw.calls": "count", "seesaw.busy_s": "s", "seesaw.sweeps": "count",
        "seesaw.ms_per_sweep": "ms", "seesaw.sweeps_per_restart": "count",
        "certify.kbp.calls": "count", "certify.kbp.self_s": "s",
        "certify.kbp.search_frac": "frac", "certify.kbp.wasted_search_frac": "frac",
        "certify.classify.calls": "count", "certify.classify.self_s": "s",
        "certify.snb.calls": "count", "certify.snb.busy_s": "s",
        "certify.dec.calls": "count", "certify.dec.busy_s": "s", "certify.dec.self_s": "s",
        "certify.dec.sweeps": "count", "certify.dec.ms_per_sweep": "ms",
        "certify.dec.capped_frac": "frac", "certify.dec.proven_frac": "frac",
    }
    for name in LISTED:
        units[name + ".calls"] = "count"
        units[name + ".busy_s"] = "s"
    units.update({
        "linalg.matrixop.count": "count", "linalg.matrixop.busy_s": "s",
        "maps.maprep.count": "count", "maps.maprep.busy_s": "s",
        "witness.threshold_scan.calls": "count", "witness.threshold_scan.self_s": "s",
        "witness.rows": "count",
        "fuzz.run_suite.calls": "count", "fuzz.run_suite.self_s": "s",
        "fuzz.instances": "count",
        "serialize.load_operator.busy_s": "s", "serialize.report_to_json.busy_s": "s",
        "serialize.dumps.busy_s": "s", "serialize.bytes_out": "bytes",
        "cli.main.calls": "count", "cli.main.self_s": "s",
    })
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.share"] = "frac"
    units.update({"layer.bench.self_s": "s", "trace.op_s": "s", "trace.spans": "count",
                  "trace.accounted_frac": "frac", "trace.overhead_frac": "frac"})
    return units


METRIC_UNITS = _metric_units()


class Tracer:
    """Append-only span store. Single-threaded: one open-span stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")       # 1 unless nested in a span of the same name
        self._stack: list[int] = []
        self._active: list[int] = []  # open spans per name id
        self.op_id = -1
        self.results: dict[str, list] = {}  # span name -> [(span index, info)]
        self.installed: list[tuple] = []    # (owner, attribute, original)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outer.append(self._active[nid] == 0)
        self.end.append(0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def note(self, span_name: str, idx: int, info) -> None:
        self.results.setdefault(span_name, []).append((idx, info))


# ---------------------------------------------------------------- wrapping

def _argument(fn, name: str):
    """Reads one argument of a call to fn, defaults applied."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


def _result_hook(span_name: str, fn):
    """Counts taken from a call's arguments and result, at the boundary."""
    if span_name == "seesaw":
        restarts = _argument(fn, "restarts")
        return lambda args, kwargs, result: (result[2], restarts(args, kwargs))
    if span_name == "certify.kbp":
        return lambda args, kwargs, result: result.verdict.value
    if span_name == "certify.dec":
        cap = _argument(fn, "max_sweeps")
        return lambda args, kwargs, result: (result.verdict.value, result.extras["sweeps"],
                                             cap(args, kwargs))
    if span_name == "witness.threshold_scan":
        return lambda args, kwargs, result: len(result)
    if span_name == "fuzz.run_suite":
        return lambda args, kwargs, result: result["n"]
    if span_name in ("serialize.dumps", "serialize.scan_rows_to_csv"):
        return lambda args, kwargs, result: len(result.encode())
    return None


def _wrap(tracer: Tracer, span_name: str, fn):
    nid = tracer.name_id(span_name)
    hook = _result_hook(span_name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            tracer.note(span_name, idx, hook(args, kwargs, result))
        return result

    wrapper.__perfbench_span__ = span_name
    return wrapper


def targets(conekit) -> list[tuple]:
    """(owner, attribute, span name) for every wrapped callable."""
    out = []
    for layer, prefix in LAYERS.items():
        mod = sys.modules[f"{conekit.__name__}.{layer}"]
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and val.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((mod, attr, RENAMED.get((layer, attr), f"{prefix}.{attr}")))
    for layer, cls in (("linalg", conekit.MatrixOp), ("maps", conekit.MapRep)):
        key = (layer, f"{cls.__name__}.__post_init__")
        out.append((cls, "__post_init__", RENAMED[key]))
    return out


def install(tracer: Tracer, conekit) -> None:
    """Wrap every target and rebind the wrapper wherever conekit's modules
    hold the original function."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == conekit.__name__ or name.startswith(conekit.__name__ + "."))]
    for owner, attr, span_name in targets(conekit):
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, span_name, original)
        if inspect.isclass(owner):
            tracer.installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    tracer.installed.append((mod, key, original))
                    setattr(mod, key, wrapper)


def uninstall(tracer: Tracer) -> None:
    for owner, attr, original in reversed(tracer.installed):
        setattr(owner, attr, original)
    tracer.installed.clear()


# ---------------------------------------------------------------- metrics

def _arrays(tracer: Tracer):
    name = np.frombuffer(tracer.name, dtype=np.int32)
    dur = (np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)) / 1e9
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return name, dur, dur - child, parent, np.frombuffer(tracer.outer, dtype=np.int8).astype(bool)


def per_layer_metrics(tracer: Tracer, op_span: str, overhead_frac: float) -> dict:
    """Every per-layer metric, zero where the workload never reached it."""
    name, dur, self_t, parent, outer = _arrays(tracer)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(span_name):
        return name == ids[span_name] if span_name in ids else np.zeros(len(name), bool)

    def calls(s):
        return float(mask(s).sum())

    def busy(s):
        m = mask(s)
        return float(dur[m & outer].sum())

    def self_s(s):
        return float(self_t[mask(s)].sum())

    def results(s):
        return [info for _, info in tracer.results.get(s, [])]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    sw = results("seesaw")
    sweeps, restarts = sum(s for s, _ in sw), sum(r for _, r in sw)
    m["seesaw.calls"] = calls("seesaw")
    m["seesaw.busy_s"] = busy("seesaw")
    m["seesaw.sweeps"] = float(sweeps)
    m["seesaw.ms_per_sweep"] = ratio(1e3 * m["seesaw.busy_s"], sweeps)
    m["seesaw.sweeps_per_restart"] = ratio(sweeps, restarts)

    kbp = tracer.results.get("certify.kbp", [])
    searched = set(parent[mask("seesaw")].tolist())
    searches = [v for idx, v in kbp if idx in searched]
    m["certify.kbp.calls"] = calls("certify.kbp")
    m["certify.kbp.self_s"] = self_s("certify.kbp")
    m["certify.kbp.search_frac"] = ratio(len(searches), len(kbp))
    m["certify.kbp.wasted_search_frac"] = ratio(sum(v == "Inconclusive" for v in searches), len(searches))
    for s in ("certify.classify", "certify.snb"):
        m[s + ".calls"] = calls(s)
    m["certify.classify.self_s"] = self_s("certify.classify")
    m["certify.snb.busy_s"] = busy("certify.snb")

    dec = results("certify.dec")
    dec_sweeps = sum(sw for _, sw, _ in dec)
    m["certify.dec.calls"] = calls("certify.dec")
    m["certify.dec.busy_s"] = busy("certify.dec")
    m["certify.dec.self_s"] = self_s("certify.dec")
    m["certify.dec.sweeps"] = float(dec_sweeps)
    m["certify.dec.ms_per_sweep"] = ratio(1e3 * m["certify.dec.busy_s"], dec_sweeps)
    m["certify.dec.capped_frac"] = ratio(sum(sw >= cap for _, sw, cap in dec), len(dec))
    m["certify.dec.proven_frac"] = ratio(sum(v == "MembershipProven" for v, _, _ in dec), len(dec))

    for s in LISTED:
        m[s + ".calls"] = calls(s)
        m[s + ".busy_s"] = busy(s)
    for s, key in (("linalg.matrixop", "linalg.matrixop"), ("maps.maprep", "maps.maprep")):
        m[key + ".count"] = calls(s)
        m[key + ".busy_s"] = busy(s)

    m["witness.threshold_scan.calls"] = calls("witness.threshold_scan")
    m["witness.threshold_scan.self_s"] = self_s("witness.threshold_scan")
    m["witness.rows"] = float(sum(results("witness.threshold_scan")))
    m["fuzz.run_suite.calls"] = calls("fuzz.run_suite")
    m["fuzz.run_suite.self_s"] = self_s("fuzz.run_suite")
    m["fuzz.instances"] = float(sum(results("fuzz.run_suite")))
    for s in ("load_operator", "report_to_json", "dumps"):
        m[f"serialize.{s}.busy_s"] = busy(f"serialize.{s}")
    m["serialize.bytes_out"] = float(sum(results("serialize.dumps")) + sum(results("serialize.scan_rows_to_csv")))
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")

    op_s = float(dur[mask(op_span)].sum())
    layer_of = np.array([LAYER_BY_PREFIX.get(n.split(".")[0], "bench") for n in tracer.names])
    span_layer = layer_of[name]
    accounted = 0.0
    for layer in LAYERS:
        t = float(self_t[span_layer == layer].sum())
        m[f"layer.{layer}.self_s"] = t
        m[f"layer.{layer}.share"] = ratio(t, op_s)
        accounted += t
    m["layer.bench.self_s"] = float(self_t[span_layer == "bench"].sum())
    m["trace.op_s"] = op_s
    m["trace.spans"] = float(len(name))
    m["trace.accounted_frac"] = ratio(accounted, op_s)
    m["trace.overhead_frac"] = overhead_frac
    return m


def save(tracer: Tracer, path: str) -> None:
    """Write the spans once, at the end of the run."""
    name, dur, self_t, parent, outer = _arrays(tracer)
    np.savez_compressed(path, names=np.array(tracer.names), name=name,
                        start=np.frombuffer(tracer.start, dtype=np.int64),
                        end=np.frombuffer(tracer.end, dtype=np.int64),
                        parent=parent, op=np.frombuffer(tracer.op, dtype=np.int32))
