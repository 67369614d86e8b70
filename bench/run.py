"""metriclab benchmark: whole CLI commands, and the modules beneath them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` next to this directory
and run in a fresh process per command.  One run:

1. writes the workload's inputs, generated from --seed (modulo
   REFERENCE_SEEDS at full size), into a scratch directory under
   `.bench_out/` (see workloads.py);
2. times the set-up (import, config, task, certified gadgets) in fresh
   interpreters, SETUP_REPEATS times;
3. runs the command again and again for --seconds (at least MIN_REPEATS
   times), checking every run: exit code, PASS/FAIL lines, consistent=True,
   byte-identical deterministic outputs across the repeats of the seed, and
   the headline numbers against `reference.json` (result_dev);
4. prints each metric by name with its unit and, as the last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, as
medians over the repeats.  With --trace 1 traced and untraced repeats
alternate; the metrics are the per-module ones (spans.py), as medians over
the traced repeats, plus import times from `python -X importtime` and the
tracing overhead.  A results file with the machine record and every repeat
goes to `.bench_out/results/`.

Load comes from one process (closed loop, one command at a time);
sweep_wide's command runs its own 2-process pool.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import multiprocessing
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_ROOT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import NONDETERMINISTIC, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_REPEATS = 2
COMMAND_TIMEOUT_S = 90
# headline numbers may move by at most this much from the reference; it is
# the program's own t* oracle tolerance (cli.ORACLE_TOL)
RESULT_TOL = 2e-6
# reference.json holds the headline numbers of input seeds 0..REFERENCE_SEEDS-1;
# a full-size run generates its inputs from --seed modulo this, so every
# seed is checked against a reference
REFERENCE_SEEDS = 32
# the module(s) each workload was chosen to load; the traced run reports
# whether the largest self-time share falls on one of them
CHOSEN_FOR = {
    "train_reuse": ("structured", "erm"),
    "sweep_wide": ("structured", "erm", "risk"),
    "lab_oracle": ("losses",),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs, for the smoke test")
    return parser.parse_args(argv)


def run_process(argv, log_path, env, cwd):
    """Run argv to completion; returns (exit code, start, end, peak RSS MB).

    The peak is the largest resident set of any single process in the tree
    (the child's own peak or that of a descendant it waited for)."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd,
                                start_new_session=True)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e6
    return cumulative


def measure_setup(workload, in_dir, env, work_dir, importtime):
    probe = [sys.executable] + (["-X", "importtime"] if importtime else [])
    probe += [str(BENCH / "setup_probe.py")]
    probe += ["--losses"] if workload.name == "lab_oracle" else [str(Path(in_dir) / "config.yaml")]
    times, imports = [], []
    for k in range(SETUP_REPEATS):
        log = os.path.join(work_dir, f"setup{k}.log")
        rc, _, _, _ = run_process(probe, log, env, work_dir)
        with open(log, encoding="utf-8") as fh:
            text = fh.read()
        if rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}):\n{text}")
        times.append(float(text.strip().splitlines()[-1]))
        imports.append(parse_importtime(text))
    return times, imports


def output_hashes(out_dir: str) -> dict[str, str]:
    hashes = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file() and path.name not in NONDETERMINISTIC:
            hashes[str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def run_repeat(workload, argv, k, traced, env, work_dir, state):
    """One command; returns its record (times, checks, headline numbers)."""
    out_dir = os.path.join(work_dir, f"out{k}")
    stamp = os.path.join(work_dir, f"stamp{k}")
    trace_dir = os.path.join(work_dir, f"trace{k}")
    if traced:
        os.makedirs(trace_dir)
    log = os.path.join(work_dir, f"run{k}.log")
    cmd = [sys.executable, str(BENCH / "launch.py"), stamp, trace_dir if traced else "-", "--",
           *argv, "--out", out_dir]
    rc, start, end, rss = run_process(cmd, log, env, work_dir)
    with open(log, encoding="utf-8") as fh:
        stdout = fh.read()

    rec = {"traced": traced, "exit_code": rc, "wall_s": end - start, "peak_rss_mb": rss,
           "problems": []}
    if rc != 0:
        rec["problems"].append(f"exit code {rc}: {stdout.strip()[-500:]}")
    else:
        with open(stamp, encoding="utf-8") as fh:
            rec["work_s"] = end - float(fh.read())
        rec["problems"] += workload.problems(out_dir, stdout)
        hashes = output_hashes(out_dir)
        if state.setdefault("hashes", hashes) != hashes:
            differ = sorted(set(hashes.items()) ^ set(state["hashes"].items()))
            rec["problems"].append(f"outputs differ from the first repeat: "
                                   f"{sorted({name for name, _ in differ})}")
        try:
            headline = workload.headline(out_dir)
        except (OSError, KeyError, ValueError, AttributeError) as err:
            rec["problems"].append(f"headline numbers unreadable: {err!r}")
        else:
            ref = state.get("reference")
            if ref is not None:
                if set(ref) != set(headline):
                    rec["problems"].append("headline numbers differ in kind from the reference")
                    dev = float("inf")
                else:
                    dev = max((abs(headline[key] - ref[key]) for key in ref), default=0.0)
                rec["result_dev"] = dev
                if not dev <= RESULT_TOL:
                    rec["problems"].append(f"result_dev {dev:.3g} above tolerance {RESULT_TOL}")
            rec["headline"] = headline
        if traced:
            rec["spans"] = spans.summarize(spans.load(trace_dir))
            with open(os.path.join(trace_dir, "missing_hooks.json"), encoding="utf-8") as fh:
                rec["missing_hooks"] = json.load(fh)
            if rec["missing_hooks"]:
                # a renamed function would silently read 0 in its metrics
                rec["problems"].append(f"traced bindings missing from the program: "
                                       f"{rec['missing_hooks']}")
    for path in (out_dir, trace_dir):
        shutil.rmtree(path, ignore_errors=True)
    return rec


def scratch(prefix: str):
    """A scratch directory under .bench_out/ and the environment that runs
    the program from src/ with its temporary files kept there."""
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{prefix}-", dir=OUT_ROOT)
    env = dict(os.environ, TMPDIR=os.path.join(work_dir, "tmp"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    os.makedirs(env["TMPDIR"])
    return work_dir, env


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "mp_start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "metriclab" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'metriclab'} is missing",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    input_seed, reference = args.seed, None
    if args.size == "full":
        input_seed = args.seed % REFERENCE_SEEDS
        with open(BENCH / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][workload.name].get(str(input_seed))
        if reference is None:
            print(f"error: reference.json has no {workload.name} numbers for input seed "
                  f"{input_seed}; run bench/make_reference.py", file=sys.stderr)
            return 2

    work_dir, env = scratch(workload.name)
    try:
        in_dir = os.path.join(work_dir, "inputs")
        cli_argv = workload.write_inputs(input_seed, args.size, in_dir)
        setup_times, import_probes = measure_setup(workload, in_dir, env, work_dir,
                                                   importtime=traced)
        state = {"reference": reference}
        repeats = []
        t0 = time.monotonic()
        while True:
            # traced runs alternate untraced and traced commands, so the
            # tracing overhead is measured under the same conditions
            rec = run_repeat(workload, cli_argv, len(repeats), traced and len(repeats) % 2 == 1,
                             env, work_dir, state)
            repeats.append(rec)
            typical = median([r["wall_s"] for r in repeats])
            if len(repeats) >= MIN_REPEATS and time.monotonic() - t0 + typical > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(repeats)
    failed = sum(1 for r in repeats if r["problems"])
    devs = [r["result_dev"] for r in repeats if "result_dev" in r]
    result_dev = max(devs) if devs else None
    plain = [r for r in repeats if not r["traced"] and r["exit_code"] == 0]
    traced_runs = [r for r in repeats if r["traced"] and r["exit_code"] == 0]
    if not plain or (traced and not traced_runs):
        for r in repeats:
            print("\n".join(r["problems"]), file=sys.stderr)
        print("error: no run of the command succeeded", file=sys.stderr)
        return 1
    work = workload.work(args.size)

    values = {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median(setup_times),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "throughput_per_s": median([work / r["work_s"] for r in plain]),
    }
    results = {
        "workload": workload.name, "seed": args.seed, "input_seed": input_seed,
        "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_record(), "sizes": workload.sizes(args.size),
        "work": {"unit": workload.unit, "count": work}, "cli_args": cli_argv,
        "attempted": attempted, "failed": failed, "failed_runs_frac": failed / attempted,
        "result_dev": result_dev, "result_tol": RESULT_TOL,
        "reference": "recorded" if reference is not None else "none at this size",
        "setup_s_runs": setup_times, "end_to_end": values, "repeats": repeats,
    }
    lines = [f"workload {workload.name} seed {args.seed} (input seed {input_seed}, "
             f"{args.size}): {attempted} runs, {failed} failed"]
    if traced:
        layer = {}
        for key in traced_runs[0]["spans"]:
            layer[key] = median([r["spans"][key] for r in traced_runs])
        layer["import.metriclab_s"] = median([p.get("metriclab", 0.0) for p in import_probes])
        layer["import.scipy_stats_s"] = median([p.get("scipy.stats", 0.0) for p in import_probes])
        layer["trace.overhead_frac"] = (median([r["wall_s"] for r in traced_runs])
                                        / values["wall_s"] - 1.0)
        shares = {m: layer[f"share.{m}"] for m in spans.MODULES}
        top = max(shares, key=shares.get)
        results.update(per_layer=layer, top_module=top,
                       top_module_expected=list(CHOSEN_FOR[workload.name]),
                       missing_hooks=traced_runs[0]["missing_hooks"])
        metric_specs, shown = spec["per_layer"], layer
        lines.append(f"  largest self-time share: {top} ({shares[top]:.1%}); chosen for "
                     f"{'/'.join(CHOSEN_FOR[workload.name])}")
    else:
        metric_specs, shown = spec["end_to_end"], values
        lines.append(f"  {workload.unit}_per_s (throughput_per_s): "
                     f"{values['throughput_per_s']:.6g} 1/s, {work} {workload.unit} per run")
    lines.append(f"  failed_runs_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    lines.append(f"  result_dev = {result_dev!r} (tolerance {RESULT_TOL}; reference "
                 f"{results['reference']})")
    lines.append(f"  medians over {len(traced_runs if traced else plain)} "
                 f"{'traced ' if traced else ''}runs; set-up and import times over "
                 f"{SETUP_REPEATS} set-ups")
    for m in metric_specs:
        lines.append(f"  {m['name']} = {shown[m['name']]:.6g} {m['unit']}")

    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    results_path = results_dir / (f"{workload.name}-seed{args.seed}-trace{args.trace}"
                                  f"-{args.size}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, default=str)
    lines.append(f"  results: {results_path.relative_to(ROOT)}")
    print("\n".join(lines))

    correct = failed == 0
    metrics = {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]} for m in metric_specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
