"""The benchmark's three workloads.

Each workload turns a seed into the inputs the `metriclab` CLI reads (a YAML
config and/or command-line arguments), states how many units of work that
run performs, checks the run's outputs and extracts the headline numbers
that are compared against the references recorded in `reference.json`.

Only seeds vary with the workload seed; every size is fixed, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import csv
import os
import random
import re
from dataclasses import dataclass

import yaml

# Sizes per workload.  "full" is what the benchmark measures; "tiny" only
# proves that every metric is emitted (bench/tests).
SIZES = {
    "train_reuse": {
        "full": {"n": 256, "epochs": 40, "pairs_per_epoch": 16384, "mc_pairs": 20_000},
        "tiny": {"n": 64, "epochs": 2, "pairs_per_epoch": 2048, "mc_pairs": 1_000},
    },
    "sweep_wide": {
        "full": {"n_list": [1024, 2048, 4096, 8192], "epochs": 12, "pairs_per_epoch": 8192,
                 "mc_pairs": 20_000, "noise_mc_pairs": 100_000},
        "tiny": {"n_list": [64, 128, 256, 512], "epochs": 1, "pairs_per_epoch": 1024,
                 "mc_pairs": 1_000, "noise_mc_pairs": 10_000},
    },
    "lab_oracle": {
        "full": {"eta_points": 11, "pairs": 20},
        "tiny": {"eta_points": 5, "pairs": 2},
    },
}

PAIR_BATCH = 1024
SWEEP_SEEDS = 3
SWEEP_PROCESSES = 2
SWEEP_TASK_SEED = 3
LAB_LOSSES = 4  # metric-lab studies every registered loss by default
T_GRID = [0.02, 0.035, 0.06, 0.1, 0.17, 0.3]
ANNEAL = {"start": 3.0, "decay": 0.93}

# files left out of the byte-identity comparison (wall-clock content)
NONDETERMINISTIC = {"timings.csv"}


def _seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of work is, for the throughput metric

    def sizes(self, size: str) -> dict:
        return SIZES[self.name][size]

    def write_inputs(self, seed: int, size: str, in_dir: str) -> list[str]:
        """Write the generated inputs into in_dir; return the CLI arguments
        (without --out)."""
        os.makedirs(in_dir, exist_ok=True)
        argv = self._inputs(seed, self.sizes(size), in_dir)
        with open(os.path.join(in_dir, "args.txt"), "w", encoding="utf-8") as fh:
            fh.write(" ".join(argv) + "\n")
        return argv

    def _write_config(self, in_dir, doc) -> str:
        path = os.path.join(in_dir, "config.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        return path

    def _inputs(self, seed, s, in_dir):
        raise NotImplementedError

    def work(self, size: str) -> int:
        raise NotImplementedError

    def problems(self, out_dir: str, stdout: str) -> list[str]:
        """Output checks beyond the exit code; empty when the run is good."""
        return ["consistent=False printed"] if "consistent=False" in stdout else []

    def headline(self, out_dir: str) -> dict[str, float]:
        raise NotImplementedError


class TrainReuse(Workload):
    """train-eval: train on a sampled dataset, then the three-stream risk report."""

    def _inputs(self, seed, s, in_dir):
        task_seed, train_seed, eval_seed = _seeds(self.name, seed, 3)
        config = self._write_config(in_dir, {
            "task": {"family": "linear", "p": 1, "seed": task_seed},
            "model": {"m": 2, "depth": 2, "width": 4, "epsilon": 1e-2, "a": 0.1, "clamp": True,
                      "init_scale": 1.0, "a_anneal": ANNEAL},
            "train": {"n": s["n"], "epochs": s["epochs"], "pair_batch": PAIR_BATCH,
                      "lr_init": 0.5, "lr_decay": 0.97, "pair_strategy": "uniform-subsample",
                      "pairs_per_epoch": s["pairs_per_epoch"], "seed": train_seed},
            "eval": {"mc_pairs": s["mc_pairs"], "seed": eval_seed},
        })
        return ["train-eval", "--config", config]

    def work(self, size):
        s = self.sizes(size)
        return s["epochs"] * s["pairs_per_epoch"]

    def problems(self, out_dir, stdout):
        found = super().problems(out_dir, stdout)
        if "consistent=True" not in stdout:
            found.append("consistent=True not printed")
        return found

    def headline(self, out_dir):
        row = _read_csv(os.path.join(out_dir, "risk_report.csv"))[0]
        return {f"risk_report.{k}": float(v) for k, v in row.items()}


class SweepWide(Workload):
    def _inputs(self, seed, s, in_dir):
        train_seed, eval_seed, first = _seeds(self.name, seed, 3)
        config = self._write_config(in_dir, {
            # the task seed sets the noise-exponent fit, which sizes every
            # sub-network; it stays fixed so every seed does the same work
            "task": {"family": "linear", "p": 1, "seed": SWEEP_TASK_SEED},
            "model": {"m": 2, "epsilon": 1e-2, "a": 0.1, "clamp": True, "init_scale": 1.0,
                      "a_anneal": ANNEAL},
            "train": {"epochs": s["epochs"], "pair_batch": PAIR_BATCH, "lr_init": 0.5,
                      "lr_decay": 0.97, "pair_strategy": "uniform-subsample",
                      "pairs_per_epoch": s["pairs_per_epoch"], "seed": train_seed},
            "eval": {"mc_pairs": s["mc_pairs"], "seed": eval_seed, "n_list": s["n_list"],
                     "seeds": [first % 1000 + k for k in range(SWEEP_SEEDS)],
                     "t_grid": T_GRID, "noise_mc_pairs": s["noise_mc_pairs"]},
        })
        return ["rate-sweep", "--config", config, "--jobs", str(SWEEP_PROCESSES)]

    def work(self, size):
        s = self.sizes(size)
        return s["epochs"] * s["pairs_per_epoch"] * len(s["n_list"]) * SWEEP_SEEDS

    def headline(self, out_dir):
        fit = _read_csv(os.path.join(out_dir, "sweep_fit.csv"))[0]
        values = {"sweep_fit.slope": float(fit["slope"])}
        for row in _read_csv(os.path.join(out_dir, "plot_data.csv")):
            values[f"log10_median_excess@{row['log10_n']}"] = float(row["log10_median_excess"])
        return values


class LabOracle(Workload):
    def _inputs(self, seed, s, in_dir):
        (lab_seed,) = _seeds(self.name, seed, 1)
        return ["metric-lab", "--eta-points", str(s["eta_points"]), "--pairs", str(s["pairs"]),
                "--seed", str(lab_seed)]

    def work(self, size):
        # t* solves: profiles, bias shift (2 b x 9 eta x 2 solves), the
        # counterexample, the random self-distance sweep, degeneracy
        s = self.sizes(size)
        return (s["eta_points"] * LAB_LOSSES + 2 * 9 * 2 * LAB_LOSSES + 3
                + 3 * s["pairs"] + LAB_LOSSES)

    def problems(self, out_dir, stdout):
        found = super().problems(out_dir, stdout)
        path = os.path.join(out_dir, "checks_summary.txt")
        if not os.path.exists(path):
            return found + ["checks_summary.txt missing"]
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        if not lines:
            found.append("checks_summary.txt has no check lines")
        found += [f"check line: {ln}" for ln in lines if not ln.startswith("PASS ")]
        return found

    def headline(self, out_dir):
        values = {}
        for fname in sorted(os.listdir(out_dir)):
            if fname.startswith("profile_") and fname.endswith(".csv"):
                loss = fname[len("profile_"):-len(".csv")]
                for row in _read_csv(os.path.join(out_dir, fname)):
                    values[f"{loss}.tstar@{row['eta']}"] = float(row["tstar_oracle"])
                    values[f"{loss}.q_min@{row['eta']}"] = float(row["q_min"])
        with open(os.path.join(out_dir, "checks_summary.txt"), encoding="utf-8") as fh:
            held = re.search(r"precondition held (\d+)/", fh.read())
        values["self_distance_random_sweep.held"] = float(held.group(1))
        return values


WORKLOADS = {w.name: w for w in (
    TrainReuse("train_reuse", "train_pairs"),
    SweepWide("sweep_wide", "train_pairs"),
    LabOracle("lab_oracle", "oracle_solves"),
)}
