"""Smoke test for the benchmark: every workload, run at a tiny size, emits
every metric that BENCHMARK.json names, with its unit, and passes its own
output checks.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

from spans import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the per-layer count that must equal the work the throughput metric divides
WORK_COUNTER = {
    "train_reuse": "erm.train.pairs",
    "sweep_wide": "erm.train.pairs",
    "lab_oracle": "losses.tstar_oracle.calls",
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        # the trace counts the same work the throughput metric is based on
        assert values[WORK_COUNTER[workload]] == WORKLOADS[workload].work("tiny")
        assert abs(sum(v for k, v in values.items() if k.startswith("share.")) - 1.0) < 1e-9
    else:
        assert all(v > 0 for v in values.values())


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        # two workers' jobs overlap in [2, 5]; together they cover [1, 7]
        {"id": "a", "parent": "p", "start": 1.0, "end": 5.0},
        {"id": "b", "parent": "p", "start": 2.0, "end": 7.0},
    ]
    assert self_times(spans) == {"p": 4.0, "a": 4.0, "b": 5.0}
