"""Span recording around metriclab's public calls, and the per-module summary.

Tracing lives entirely in the benchmark: `install()` replaces each traced
function at the name its caller uses (for example `erm` imports
`pair_forward` by name, so the wrapper goes on `metriclab.erm.pair_forward`)
with a wrapper that records a span (name, start, end, parent) and a few
counts.  Spans stay in memory and are written out at the end of the command;
a forked pool worker writes its spans after each top-level job, because
workers are stopped without running exit handlers.

`summarize()` turns the span files of one traced command into the per-module
metrics.  A span's self time is its duration minus the union of the
intervals its child spans cover, so parallel children in pool workers are
not subtracted twice.  Counting work done by a wrapper runs in its own
`trace.count` span, so it is charged to no module.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import resource
import time

import numpy as np


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.root_depth = 0
        self.seq = 0

    def _adopt_fork(self) -> None:
        # a forked worker inherits the parent's finished spans (dropped) and
        # its open spans (kept, so worker spans hang under the caller)
        pid = os.getpid()
        if pid != self.pid:
            self.pid, self.spans, self.root_depth = pid, [], len(self.stack)

    def open(self, name: str) -> dict:
        self._adopt_fork()
        self.seq += 1
        span = {"id": f"{self.pid}:{self.seq}", "name": name, "pid": self.pid,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": time.perf_counter(), "rss0_kb": _maxrss_kb()}
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss1_kb"] = _maxrss_kb()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def keep(self, span: dict, counts: dict | None = None) -> None:
        span["counts"] = counts or {}
        self.spans.append(span)
        if self.root_depth and len(self.stack) == self.root_depth:
            self.flush()

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def _wrap(rec: Recorder, fn, name: str, count=None, wrap_args=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        counts = None
        if wrap_args is not None:
            args, kwargs, counts = wrap_args(args, kwargs)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            # the oracle signals unbounded minimizers by raising; the solve
            # still counts
            rec.close(span)
            rec.keep(span, counts)
            raise
        rec.close(span)
        # counts are computed inside a span of their own so their cost is
        # charged to the tracer, not to the caller's self time
        if count is not None:
            cspan = rec.open("trace.count")
            counts = count(args, kwargs, out)
            rec.close(cspan)
            rec.keep(cspan)
        rec.keep(span, counts)
        return out

    return traced


def _nbytes(obj, seen: set) -> int:
    """Bytes of the distinct array buffers reachable from a trace object."""
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        return base.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o, seen) for o in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, f), seen) for f in obj.__dataclass_fields__)
    return 0


def _count_pair_forward(args, kwargs, trace):
    X = np.asarray(args[1], dtype=np.float64)
    Xp = np.asarray(args[2], dtype=np.float64)
    sides = np.concatenate([X.reshape(len(X), -1), Xp.reshape(len(Xp), -1)])
    rows = sides.shape[0]
    # a 1-D sort is far cheaper than unique rows, and inputs are mostly 1-D
    distinct = (np.unique(sides[:, 0]) if sides.shape[1] == 1
                else np.unique(sides, axis=0)).shape[0]
    return {"pairs": len(X), "rows": rows, "rows_sq_per_distinct": rows * rows / distinct,
            "trace_bytes": _nbytes(trace, set())}


def _count_pairs_arg(position):
    def count(args, kwargs, out):
        return {"pairs": len(np.atleast_1d(args[position]))}
    return count


def _count_rows(args, kwargs, out):
    x = np.asarray(args[1])
    return {"rows": x.shape[0] if x.ndim == 2 else 1}


def _count_points(args, kwargs, out):
    return {"points": int(np.size(args[2]))}


def _count_file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _count_manifest_bytes(args, kwargs, out):
    out_dir = os.path.dirname(out)
    return {"bytes": sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))}


def _count_workers(args, kwargs, out):
    return {"workers": int(kwargs.get("jobs", 1))}


def _oracle_points(args, kwargs):
    """Count the grid points the oracle evaluates by wrapping its objective."""
    counts = {"points": 0}
    objective = args[0]

    def counted(t):
        counts["points"] += int(np.size(t))
        return objective(t)

    return (counted, *args[1:]), kwargs, counts


# (module, attribute, span name, counter, argument wrapper); one entry per
# binding a caller uses, several bindings may share a span name
HOOKS = [
    ("cli", "main", "cli.main", None, None),
    ("cli", "write_csv", "cli.write_csv", _count_file_bytes, None),
    ("cli", "load_config", "config.load_config", None, None),
    ("cli", "build_product_gadget", "gadgets.build_product_gadget", None, None),
    ("structured", "build_product_gadget", "gadgets.build_product_gadget", None, None),
    ("cli", "build_sign_approx", "gadgets.build_sign_approx", None, None),
    ("structured", "build_sign_approx", "gadgets.build_sign_approx", None, None),
    ("erm", "build_sign_approx", "gadgets.build_sign_approx", None, None),
    ("gadgets", "forward", "relu_net.forward", _count_rows, None),
    ("erm", "pair_forward", "structured.pair_forward", _count_pair_forward, None),
    ("structured", "pair_forward", "structured.pair_forward", _count_pair_forward, None),
    ("erm", "pair_backward", "structured.pair_backward", _count_pairs_arg(2), None),
    ("risk", "pair_values", "structured.pair_values", _count_pairs_arg(1), None),
    ("erm", "pair_values", "structured.pair_values", _count_pairs_arg(1), None),
    ("cli", "make_structured_net", "structured.make_structured_net", None, None),
    ("risk", "make_structured_net", "structured.make_structured_net", None, None),
    ("cli", "save_manifest", "structured.save_manifest", _count_manifest_bytes, None),
    ("cli", "train", "erm.train", None, None),
    ("risk", "train", "erm.train", None, None),
    ("cli", "sample_dataset", "synthetic.sample_dataset", None, None),
    ("risk", "sample_dataset", "synthetic.sample_dataset", None, None),
    ("risk", "sample_inputs", "synthetic.sample_inputs", None, None),
    ("synthetic", "sample_inputs", "synthetic.sample_inputs", None, None),
    ("risk", "eta_pairs", "synthetic.eta_pairs", _count_pairs_arg(1), None),
    ("synthetic", "eta_pairs", "synthetic.eta_pairs", _count_pairs_arg(1), None),
    ("synthetic", "conditional_probs", "synthetic.conditional_probs", None, None),
    ("risk", "estimate_noise_exponent", "synthetic.estimate_noise_exponent", None, None),
    ("cli", "risk_report", "risk.risk_report", None, None),
    ("risk", "generalization_risk", "risk.generalization_risk", None, None),
    ("risk", "excess_risk_identity", "risk.excess_risk_identity", None, None),
    ("cli", "rate_sweep", "risk.rate_sweep", _count_workers, None),
    # the pool pickles the job function by name, so workers run this wrapper
    ("risk", "_run_sweep_job", "risk.sweep_job", None, None),
    # every t* solve goes through the grid oracle, whichever check asks
    ("losses", "_grid_infimum_minimize", "losses.tstar_oracle", None, _oracle_points),
    ("losses", "q_value", "losses.q_value", _count_points, None),
    ("cli", "check_monotone", "losses.check_monotone", None, None),
    ("cli", "check_bias_shift", "losses.check_bias_shift", None, None),
    ("cli", "check_self_distance", "losses.check_self_distance", None, None),
    ("cli", "continuous_label_degeneracy", "losses.continuous_label_degeneracy", None, None),
]


def install(out_dir: str) -> tuple[Recorder, list[str]]:
    """Wrap every hooked binding; returns the recorder and the bindings
    that no longer exist in the program (each one fails the traced run)."""
    rec = Recorder(out_dir)
    missing = []
    for module_name, attr, name, count, wrap_args in HOOKS:
        module = importlib.import_module(f"metriclab.{module_name}")
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"metriclab.{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(rec, fn, name, count, wrap_args))
    return rec, missing


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def load(trace_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            spans += [json.loads(line) for line in fh]
    return spans


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ()) if c["end"] > s["start"] and c["start"] < s["end"])
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-module metrics of one traced command (import and trace-overhead
    metrics are added by the runner)."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s["id"]] for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, ()))

    def rss_rise_mb(name):
        return max((s["rss1_kb"] - s["rss0_kb"] for s in by_name.get(name, ())), default=0) / 1024

    def per(num, den):
        return num / den if den else 0.0

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    m = {}
    m["gadgets.build_product_gadget.calls"] = calls("gadgets.build_product_gadget")
    m["gadgets.build_product_gadget.self_s"] = self_s("gadgets.build_product_gadget")
    m["gadgets.build_sign_approx.calls"] = calls("gadgets.build_sign_approx")
    m["relu_net.forward.rows"] = count("relu_net.forward", "rows")

    fwd = "structured.pair_forward"
    m[f"{fwd}.calls"] = calls(fwd)
    m[f"{fwd}.pairs"] = count(fwd, "pairs")
    m[f"{fwd}.self_s"] = self_s(fwd)
    m[f"{fwd}.us_per_pair"] = per(1e6 * total(fwd), count(fwd, "pairs"))
    m[f"{fwd}.trace_bytes_per_pair"] = per(count(fwd, "trace_bytes"), count(fwd, "pairs"))
    # row-weighted mean over calls of (rows / distinct points in the call)
    m[f"{fwd}.rows_per_distinct_point"] = per(count(fwd, "rows_sq_per_distinct"),
                                               count(fwd, "rows"))
    bwd = "structured.pair_backward"
    m[f"{bwd}.self_s"] = self_s(bwd)
    m[f"{bwd}.us_per_pair"] = per(1e6 * total(bwd), count(bwd, "pairs"))
    m["structured.pair_values.s"] = total("structured.pair_values")

    train_ids = {s["id"] for s in by_name.get("erm.train", ())}
    steps_ms, train_pairs, batches = [], 0, 0
    for tid in train_ids:
        fwds = sorted((s for s in by_name.get(fwd, ()) if s["parent"] == tid),
                      key=lambda s: s["start"])
        batches += len(fwds)
        train_pairs += sum(s["counts"].get("pairs", 0) for s in fwds)
        steps_ms += [1e3 * (b["start"] - a["start"]) for a, b in zip(fwds, fwds[1:])]
    m["erm.train.s"] = total("erm.train")
    m["erm.train.self_s"] = self_s("erm.train")
    m["erm.train.pairs"] = train_pairs
    m["erm.train.batches"] = batches
    m["erm.train.step_ms.p50"] = pct(steps_ms, 50)
    m["erm.train.step_ms.p99"] = pct(steps_ms, 99)
    m["erm.train.rss_rise_mb"] = rss_rise_mb("erm.train")

    m["synthetic.eta_pairs.pairs"] = count("synthetic.eta_pairs", "pairs")
    m["synthetic.eta_pairs.self_s"] = self_s("synthetic.eta_pairs")
    m["synthetic.conditional_probs.calls"] = calls("synthetic.conditional_probs")
    m["synthetic.sample_inputs.self_s"] = self_s("synthetic.sample_inputs")
    m["synthetic.estimate_noise_exponent.s"] = total("synthetic.estimate_noise_exponent")

    m["risk.risk_report.s"] = total("risk.risk_report")
    m["risk.risk_report.rss_rise_mb"] = rss_rise_mb("risk.risk_report")
    m["risk.excess_risk_identity.s"] = total("risk.excess_risk_identity")
    m["risk.generalization_risk.s"] = total("risk.generalization_risk")
    sweep_s = total("risk.rate_sweep")
    jobs = [s["end"] - s["start"] for s in by_name.get("risk.sweep_job", ())]
    m["risk.rate_sweep.s"] = sweep_s
    m["risk.rate_sweep.pool_busy_frac"] = per(sum(jobs), count("risk.rate_sweep", "workers")
                                              * sweep_s)
    m["risk.rate_sweep.job_s.p50"] = pct(jobs, 50)
    m["risk.rate_sweep.job_s.max"] = max(jobs, default=0.0)

    m["losses.tstar_oracle.calls"] = calls("losses.tstar_oracle")
    m["losses.tstar_oracle.self_s"] = self_s("losses.tstar_oracle")
    m["losses.q_value.calls"] = calls("losses.q_value")
    m["losses.q_value.points"] = count("losses.q_value", "points")
    m["losses.points_per_solve"] = per(count("losses.tstar_oracle", "points"),
                                       calls("losses.tstar_oracle"))
    for check in ("check_monotone", "check_bias_shift", "check_self_distance",
                  "continuous_label_degeneracy"):
        m[f"losses.{check}.s"] = total(f"losses.{check}")

    m["cli.write_csv.calls"] = calls("cli.write_csv")
    m["cli.write_csv.bytes"] = count("cli.write_csv", "bytes")
    m["cli.write_csv.s"] = total("cli.write_csv")
    m["structured.save_manifest.bytes"] = count("structured.save_manifest", "bytes")
    m["structured.save_manifest.s"] = total("structured.save_manifest")
    m["config.load_config.s"] = total("config.load_config")

    module_self: dict[str, float] = {}
    for s in spans:
        module_self[module_of(s["name"])] = module_self.get(module_of(s["name"]), 0.0) \
            + selfs[s["id"]]
    module_self.pop("trace", None)
    program_self = sum(module_self.values())
    for module in MODULES:
        m[f"share.{module}"] = per(module_self.get(module, 0.0), program_self)
    return m


MODULES = ("cli", "config", "gadgets", "relu_net", "structured", "erm", "synthetic", "risk",
           "losses")
