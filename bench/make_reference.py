"""Record the headline numbers that run.py compares each run against.

    python3 bench/make_reference.py

Runs each workload once for each input seed 0..run.REFERENCE_SEEDS-1 with
the program in src/, checks the run as the benchmark does, and rewrites the
whole of bench/reference.json with the numbers.
Record them only at a commit whose results are the accepted ones: any later
change in these numbers beyond run.RESULT_TOL fails the benchmark's check.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, REFERENCE_SEEDS, run_repeat, scratch
from workloads import WORKLOADS

REFERENCE = BENCH / "reference.json"


def main() -> int:
    doc = {"workloads": {}}
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        table = doc["workloads"][name] = {}
        for seed in range(REFERENCE_SEEDS):
            work_dir, env = scratch(f"reference-{name}")
            try:
                argv_cli = workload.write_inputs(seed, "full", f"{work_dir}/inputs")
                rec = run_repeat(workload, argv_cli, 0, False, env, work_dir, {})
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if rec["problems"]:
                print(f"{name} seed {seed}: not recorded: {rec['problems']}", file=sys.stderr)
                return 1
            table[str(seed)] = rec["headline"]
            print(f"{name} seed {seed}: {len(rec['headline'])} numbers", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
