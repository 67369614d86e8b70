import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab
from metriclab.cli import (EXIT_OK, EXIT_PROPERTY, EXIT_RUNTIME, EXIT_VALIDATION, LAB_MAX_COUNT,
                           build_parser, main)
from metriclab.config import _KEYS, load_config
from metriclab.erm import TrainConfig
from metriclab.errors import ConfigError, RangeTooSmallError
from metriclab.losses import LOSSES, get_loss, self_distance_etas
from metriclab.structured import load_manifest
from metriclab.synthetic import MODEL_FAMILIES, family_parameters, sample_dataset

from helpers import BENCH, bench_module, scalar_grid_infimum_minimize

TINY_CONFIG = """\
task:
  family: linear
  p: 1
  seed: 3
model:
  m: 2
  depth: 2
  width: 4
  epsilon: 1.0e-2
  a: 0.1
  a_anneal: {start: 3.0, decay: 0.8}
train:
  n: 64
  epochs: 25
  pair_batch: 256
  lr_init: 0.5
  lr_decay: 0.97
  pair_strategy: uniform-subsample
  pairs_per_epoch: 2048
  seed: 100
eval:
  mc_pairs: 20000
  seed: 7
"""

SWEEP_CONFIG = TINY_CONFIG + """\
  n_list: [16, 32, 64, 128]
  seeds: [0, 1, 2]
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def gen_data_exit(lines):
    """gen-data's exit code on a config of these lines, in a throwaway directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.yaml")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return main(["gen-data", "--config", cfg, "--out", os.path.join(tmp, "o")])


def exit_code(argv):
    """main's exit code, including argparse's exit 2 for a rejected flag value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestVerifyGadgets:
    def test_passes_and_writes_certificates(self, tmp_path, capsys):
        code = main(["verify-gadgets", "--epsilons", "1e-2", "--a-values", "0.2",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS phi eps=0.01" in out
        assert (tmp_path / "gadget_certificates.csv").exists()

    def test_rejects_epsilon_outside_range(self):
        assert main(["verify-gadgets", "--epsilons", "0.6"]) == EXIT_VALIDATION

    def test_draws_nothing_so_takes_no_seed(self, tmp_path, capsys):
        assert exit_code(["verify-gadgets", "--seed", "0"]) == EXIT_VALIDATION
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert main(["verify-gadgets", "--epsilons", "1e-2", "--a-values", "0.2",
                     "--out", str(tmp_path)]) == EXIT_OK
        provenance = (tmp_path / "gadget_certificates.csv").read_text().splitlines()[0]
        assert provenance.startswith("# version=") and "seed=" not in provenance

    def test_verdict_does_not_depend_on_epsilon_order(self, capsys):
        # each gadget is held to its own depth law, not to the first one's
        assert main(["verify-gadgets", "--epsilons", "1e-3", "1e-2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS phi eps=0.001 sup_error=2.441e-04" in out
        assert "PASS phi eps=0.01 sup_error=9.766e-04" in out

    def test_rejects_an_epsilon_deeper_than_the_knot_check_certifies(self, capsys):
        assert main(["verify-gadgets", "--epsilons", "1e-12"]) == EXIT_VALIDATION
        assert "sawtooth depth 22" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [["--epsilons", "1e-2", "1e-12"],
                                        ["--epsilons", "1e-2", "0.6"],
                                        ["--epsilons", "1e-2", "--a-values", "0.2", "-1"]])
    def test_a_bad_value_anywhere_prints_and_writes_nothing(self, values, tmp_path, capsys):
        out_dir = tmp_path / "certs"
        assert main(["verify-gadgets", *values, "--out", str(out_dir)]) == EXIT_VALIDATION
        assert "PASS" not in capsys.readouterr().out
        assert not (out_dir / "gadget_certificates.csv").exists()

    def test_complexity_grows_logarithmically(self, tmp_path, capsys):
        code = main(["verify-gadgets", "--epsilons", "1e-1", "1e-2", "1e-3"])
        assert code == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if "phi" in l]
        depths = [int(l.split("L=")[1].split()[0]) for l in lines]
        assert np.all(np.diff(depths) >= 0) and np.all(np.diff(depths) <= 2)


class TestMetricLab:
    def test_hinge_run_reports_counterexample(self, tmp_path, capsys):
        code = main(["metric-lab", "--losses", "hinge", "--pairs", "40",
                     "--out", str(tmp_path / "lab")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS self_distance_counterexample" in out
        assert "eta_self=0.44" in out and "d_cross=-1" in out
        profile = (tmp_path / "lab" / "profile_hinge.csv").read_text().splitlines()
        assert profile[1] == "eta,tstar_oracle,tstar_analytic,q_min"
        assert (tmp_path / "lab" / "checks_summary.txt").exists()

    def test_unknown_loss_rejected(self, tmp_path):
        code = main(["metric-lab", "--losses", "perceptron", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    def test_repeated_loss_rejected_before_any_output(self, tmp_path, capsys):
        code = main(["metric-lab", "--losses", "hinge", "hinge", "--out", str(tmp_path / "lab")])
        assert code == EXIT_VALIDATION
        assert "--losses" in capsys.readouterr().err
        assert not (tmp_path / "lab").exists()

    @pytest.mark.parametrize("losses", [[], ["hinge"], ["logistic", "exponential"]])
    def test_oracle_solves_do_not_grow_with_the_grid_or_the_pairs(self, tmp_path, capsys,
                                                                   monkeypatch, losses):
        # every check's questions about a loss are one batched solve, and the
        # self-distance checks always ask the hinge
        from metriclab import losses as losses_module

        oracle = losses_module._grid_infimum_minimize
        solves = []

        def counted(slope, size):
            solves.append(size)
            return oracle(slope, size)

        monkeypatch.setattr(losses_module, "_grid_infimum_minimize", counted)
        counts = []
        for eta_points, pairs in (("11", "20"), ("41", "200")):
            solves.clear()
            code = main(["metric-lab", "--losses", *losses, "--eta-points", eta_points,
                         "--pairs", pairs, "--out", str(tmp_path / f"lab{eta_points}")])
            assert code == EXIT_OK
            counts.append(len(solves))
        assert counts == [len(set(losses or losses_module.LOSSES) | {"hinge"})] * 2

    @pytest.mark.parametrize("name", sorted(LOSSES))
    @settings(max_examples=25, deadline=None)
    @given(grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           shifted=st.lists(st.floats(0.0, 1.0), max_size=6),
           shifts=st.lists(st.integers(-16, 16).map(lambda k: k / 8.0), min_size=1, max_size=3),
           pairs=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_one_solve_answers_a_mix_of_questions_bit_for_bit(self, name, grid, shifted, shifts,
                                                              pairs, seed):
        # profile, shifted, base, eta = 0 and self-distance questions in one
        # solve, each answer against the one-problem reference
        from metriclab.cli import _ask_once

        loss = get_loss(name)
        draws = np.random.default_rng(seed).dirichlet(np.ones(3), size=(pairs, 2))
        questions = {"profile": (sorted(grid), 0.0),
                     "shifted": (shifted, np.array(shifts)[:, None]), "base": (shifted, 0.0),
                     "degenerate": (0.0, 0.0),
                     "sweep": (self_distance_etas(draws[:, 0], draws[:, 1]), 0.0)}
        answers = _ask_once(loss, questions)
        assert list(answers) == list(questions)
        for key, (eta, b) in questions.items():
            eta, b = np.broadcast_arrays(np.asarray(eta, dtype=np.float64),
                                         np.asarray(b, dtype=np.float64))
            assert answers[key].shape == eta.shape, key
            for t, e, s in zip(answers[key].ravel().tolist(), eta.ravel().tolist(),
                               b.ravel().tolist()):
                try:
                    want = scalar_grid_infimum_minimize(
                        lambda u: e * loss.subgradient(u - s) - (1.0 - e) * loss.subgradient(s - u))
                except RangeTooSmallError as err:
                    want = -math.inf if err.side == "lower" else math.inf
                assert t == want, (key, e, s)

    @pytest.mark.parametrize("flag,value", [("--eta-points", "0"), ("--pairs", "-1"),
                                            ("--eta-points", str(LAB_MAX_COUNT + 1)),
                                            ("--pairs", str(LAB_MAX_COUNT + 1))])
    def test_out_of_range_counts_rejected(self, tmp_path, capsys, flag, value):
        # refused before --out is made or anything sized by the count is
        # allocated (the run holds about 300 bytes per grid point or pair)
        tracemalloc.start()
        try:
            code = main(["metric-lab", flag, value, "--out", str(tmp_path / "lab")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "lab").exists()
        assert peak < 2**20

    def test_provenance_records_the_pair_count(self, tmp_path):
        # the random-sweep line depends on --pairs, so its provenance must too
        def provenance(out, pairs):
            code = main(["metric-lab", "--losses", "hinge", "--eta-points", "5",
                         "--pairs", pairs, "--out", str(tmp_path / out)])
            assert code == EXIT_OK
            return (tmp_path / out / "checks_summary.txt").read_text().splitlines()[0]

        first, again, other = provenance("a", "20"), provenance("b", "20"), provenance("c", "21")
        assert first.startswith("# version=") and "args_digest=" in first
        assert first == again and first != other


class TestGenData:
    def test_writes_csv_with_header(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG)
        code = main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")])
        assert code == EXIT_OK
        lines = (tmp_path / "d" / "dataset.csv").read_text().splitlines()
        assert lines[1] == "x_1,y"
        assert len(lines) == 2 + 64

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG)
        main(["gen-data", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["gen-data", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "dataset.csv").read_bytes() == \
            (tmp_path / "b" / "dataset.csv").read_bytes()

    def test_round_trip(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == EXIT_OK
        config = load_config(cfg)
        X, y = sample_dataset(config.build_task(), 64)
        lines = (tmp_path / "d" / "dataset.csv").read_text().splitlines()
        assert lines[0] == f"# version={metriclab.__version__} seed=3 " \
                           f"config_sha256={config.sha256}"
        assert lines[1] == "x_1,y"
        rows = [line.split(",") for line in lines[2:]]
        assert np.array_equal(np.array([float(x) for x, _ in rows]), X[:, 0])
        assert np.array_equal(np.array([int(label) for _, label in rows]), y)

    @pytest.mark.parametrize("command", ["gen-data", "train-eval"])
    def test_missing_n_exits_two_before_out(self, tmp_path, capsys, command):
        # both commands sample the training set, so both need its size
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG.replace("  n: 64\n", ""))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"[train] needs 'n' for {command}" in err and "Traceback" not in err
        assert not out.exists()


class TestTrainEval:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG)
        code = main(["train-eval", "--config", cfg, "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "consistent=True" in out
        rows = (tmp_path / "run" / "risk_report.csv").read_text().splitlines()
        header = rows[1].split(",")
        values = dict(zip(header, rows[2].split(",")))
        excess = float(values["excess_direct"])
        se = float(values["excess_direct_se"])
        assert excess >= -3 * se
        assert (tmp_path / "run" / "model" / "manifest.json").exists()
        assert (tmp_path / "run" / "train_report.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG)
        main(["train-eval", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["train-eval", "--config", cfg, "--out", str(tmp_path / "r2")])
        for name in ("risk_report.csv", "train_report.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()
        assert (tmp_path / "r1" / "model" / "subnet_0.json").read_bytes() == \
            (tmp_path / "r2" / "model" / "subnet_0.json").read_bytes()

    def test_n_below_two_rejected(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG.replace("n: 64", "n: 1"))
        assert main(["train-eval", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == EXIT_VALIDATION


class TestRateSweepCommand:
    def test_sweep_writes_all_outputs(self, tmp_path, monkeypatch):
        # bench/spans.py reads the worker count from the jobs keyword
        import metriclab.cli as cli

        calls, sweep = [], cli.rate_sweep

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "rate_sweep", recorded)
        cfg = write(tmp_path, "c.yaml", SWEEP_CONFIG)
        code = main(["rate-sweep", "--config", cfg, "--out", str(tmp_path / "sw")])
        assert code == EXIT_OK
        assert len(calls) == 1 and calls[0]["jobs"] == 1
        assert calls[0]["model"] == {"m": 2, "depth": 2, "width": 4, "epsilon": 1e-2, "a": 0.1}
        for name in ("sweep_rows.csv", "sweep_fit.csv", "plot_data.csv", "timings.csv"):
            assert (tmp_path / "sw" / name).exists()
        rows = (tmp_path / "sw" / "sweep_rows.csv").read_text().splitlines()
        assert rows[1].startswith("n,seed,excess")
        assert len(rows) == 2 + 12  # 4 sizes x 3 seeds

    def test_single_n_rejected(self, tmp_path):
        bad = SWEEP_CONFIG.replace("n_list: [16, 32, 64, 128]", "n_list: [64]")
        cfg = write(tmp_path, "c.yaml", bad)
        assert main(["rate-sweep", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("t_grid", "[0.1, 0.1, 0.1, 0.1]",
                     "[eval] t_grid needs >= 4 distinct values", id="t-grid-one-value"),
        pytest.param("t_grid", "[0.05, 0.1, 0.1, 0.05]",
                     "[eval] t_grid needs >= 4 distinct values", id="t-grid-two-values"),
        pytest.param("seeds", "[5, 5, 5]", "[eval] seeds must be distinct", id="seeds-one-value"),
        pytest.param("seeds", "[0, 1, 2, 1]", "[eval] seeds must be distinct", id="seeds-repeat"),
        pytest.param("n_list", "[8, 9, 10, 11]", "[eval] n_list needs >= 4 distinct sizes >= 8 "
                     "spanning at least a factor of 8, got [8, 9, 10, 11]", id="n-list-span"),
        pytest.param("noise_mc_pairs", "500", "[eval] noise_mc_pairs must be >= 1e4, got 500",
                     id="noise-mc-pairs"),
    ])
    def test_degenerate_eval_lists_exit_two_before_out(self, tmp_path, capsys, key, value,
                                                      message):
        # [eval] is the last block: drop the key's line there, append the value
        kept = [line for line in SWEEP_CONFIG.splitlines() if not line.startswith(f"  {key}:")]
        cfg = write(tmp_path, "c.yaml", "\n".join(kept) + f"\n  {key}: {value}\n")
        out = tmp_path / "o"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("train-eval", "mc_pairs"),
                                              ("rate-sweep", "noise_mc_pairs")])
    def test_a_stream_past_the_cap_exits_two_before_out(self, tmp_path, capsys, command, key):
        # a stream holds 16 p + 8 bytes per pair: refused before it is drawn
        import yaml  # noqa: F401  (load_config's first-use import is not what is measured)

        from metriclab.synthetic import MAX_STREAM_PAIRS

        kept = [line for line in SWEEP_CONFIG.splitlines() if not line.startswith(f"  {key}:")]
        cfg = write(tmp_path, "c.yaml",
                    "\n".join(kept) + f"\n  {key}: {MAX_STREAM_PAIRS + 1}\n")
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main([command, "--config", cfg, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"[eval] {key} must be <= 10,000,000" in err and "Traceback" not in err
        assert not out.exists()
        assert peak < 2**20

    def test_a_task_without_margin_mass_on_the_grid_exits_four_before_training(self, tmp_path,
                                                                                capsys):
        # two_value's eta is 0.82 or 0.18, so every |eta - 1/2| = 0.32 lies
        # past the default grid's largest t, 0.3
        cfg = write(tmp_path, "c.yaml", SWEEP_CONFIG.replace("family: linear", "family: two_value"))
        out = tmp_path / "o"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "0 of 8 grid points have positive margin mass; the fit needs 2" in err
        assert "Traceback" not in err and list(out.iterdir()) == []

    def test_an_epsilon_too_deep_to_certify_exits_two_before_out(self, tmp_path, capsys):
        # load_config asks gadgets.product_depth, as build_product_gadget will
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG.replace("epsilon: 1.0e-2", "epsilon: 1.0e-13"))
        out = tmp_path / "o"
        assert main(["train-eval", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "[model] epsilon 1e-13 asks for sawtooth depth 24" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train-eval", "rate-sweep", "metric-lab",
                                     "verify-gadgets"])
def test_out_naming_a_file_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command):
    def work(*args, **kwargs):
        raise AssertionError(f"{command} started work before checking --out")

    for name in ("sample_dataset", "train", "rate_sweep", "get_loss", "build_product_gadget"):
        monkeypatch.setattr(f"metriclab.cli.{name}", work)
    taken = tmp_path / "taken"
    taken.write_text("")
    args = [command, "--out", str(taken)]
    if command in ("gen-data", "train-eval", "rate-sweep"):
        args += ["--config", write(tmp_path, "c.yaml", SWEEP_CONFIG)]
    assert main(args) == EXIT_VALIDATION
    assert str(taken) in capsys.readouterr().err


# Runs the CLI commands given as a JSON list of argv lists in a process
# where any import of scipy fails, as it would with scipy not installed;
# prints each command's exit code and the scipy modules it loaded (none).
_WITHOUT_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} blocked: scipy is a test-only dependency")

sys.meta_path.insert(0, NoScipy())
from metriclab.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_cli_import_skips_scipy_stats(tmp_path):
    # scipy is only the tests' reference: no command may need it
    tiny, sweep = write(tmp_path, "t.yaml", TINY_CONFIG), write(tmp_path, "s.yaml", SWEEP_CONFIG)
    commands = {  # --out directory: (command, one file it must write)
        "sweep1": (["rate-sweep", "--config", sweep, "--jobs", "1"], "sweep_fit.csv"),
        "sweep2": (["rate-sweep", "--config", sweep, "--jobs", "2"], "sweep_fit.csv"),
        "run": (["train-eval", "--config", tiny], "risk_report.csv"),
        "lab": (["metric-lab", "--losses", "hinge", "--pairs", "40"], "profile_hinge.csv"),
        "gadgets": (["verify-gadgets"], "gadget_certificates.csv"),
    }
    argvs = [argv + ["--out", str(tmp_path / out)] for out, (argv, _) in commands.items()]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(metriclab.__file__))}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [EXIT_OK] * len(commands), proc.stdout
    assert loaded == []
    for out, (_, name) in commands.items():
        assert (tmp_path / out / name).is_file(), (out, name)
    assert (tmp_path / "sweep1" / "sweep_fit.csv").read_bytes() == \
        (tmp_path / "sweep2" / "sweep_fit.csv").read_bytes()


# Imports the CLI and runs the argv given; prints which of the modules that
# only the config commands (yaml) and the sweep pool (concurrent.futures)
# need are loaded after the import and after the run.
_LAZY_IMPORTS = """
import json, sys

def loaded():
    return sorted(m for m in ("yaml", "concurrent.futures") if m in sys.modules)

from metriclab.cli import main
after_import = loaded()
code = main(sys.argv[1:])
print(json.dumps([after_import, code, loaded()]))
"""


def test_metric_lab_loads_neither_yaml_nor_the_pool(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(metriclab.__file__))}
    argv = ["metric-lab", "--eta-points", "5", "--pairs", "3", "--out", str(tmp_path / "lab")]
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[], EXIT_OK, []]


# Imports the CLI and runs the argv given twice; prints the collector's
# freeze count after the import and after each run.
_FREEZE_COUNTS = """
import gc, json, sys

from metriclab.cli import main
counts = [gc.get_freeze_count()]
for out in ("first", "second"):
    assert main([*sys.argv[1:], "--out", out]) == 0
    counts.append(gc.get_freeze_count())
print(json.dumps(counts))
"""


def test_the_first_command_freezes_the_import_graph_once(tmp_path):
    # importing the CLI leaves the collector alone; main freezes what is
    # alive when it is first called, and only then
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(metriclab.__file__))}
    argv = ["metric-lab", "--eta-points", "5", "--pairs", "3"]
    proc = subprocess.run([sys.executable, "-c", _FREEZE_COUNTS, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, after_first, after_second = json.loads(proc.stdout.strip().splitlines()[-1])
    assert after_import == 0
    assert after_first > 0
    assert after_second == after_first


def test_traced_bindings_exist():
    # the benchmark's tracer wraps these names; a refactor that drops one
    # fails every traced run
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.HOOKS
               if not hasattr(importlib.import_module(f"metriclab.{module}"), attr)]
    assert missing == []


class TestExitCodes:
    def test_property_failures_map_to_three(self, monkeypatch):
        import metriclab.cli as cli
        from metriclab.errors import PropertyViolation

        def boom(args):
            raise PropertyViolation("forced")

        monkeypatch.setattr(cli, "cmd_verify_gadgets", boom)
        assert cli.main(["verify-gadgets"]) == EXIT_PROPERTY


class TestConfigValidation:
    def test_unknown_key_rejected_with_location(self, tmp_path):
        cfg = write(tmp_path, "bad.yaml", TINY_CONFIG + "  typo_key: 3\n")
        with pytest.raises(ConfigError, match=r"\[eval\] unknown key 'typo_key'"):
            load_config(cfg)

    def test_unknown_block_rejected(self, tmp_path):
        cfg = write(tmp_path, "bad.yaml", TINY_CONFIG + "extras:\n  x: 1\n")
        with pytest.raises(ConfigError, match="unknown block"):
            load_config(cfg)

    def test_yaml_error_carries_location(self, tmp_path):
        cfg = write(tmp_path, "bad.yaml", "task: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_epsilon_range_checked(self, tmp_path):
        cfg = write(tmp_path, "bad.yaml", TINY_CONFIG.replace("epsilon: 1.0e-2",
                                                              "epsilon: 0.7"))
        with pytest.raises(ConfigError, match="epsilon"):
            load_config(cfg)

    @pytest.mark.parametrize("old, new, message", [
        ("  p: 1\n", "  p: abc\n", r"\[task\] p must be an integer, got 'abc'"),
        ("  depth: 2\n", "  depth: 2.7\n", r"\[model\] depth must be an integer, got 2.7"),
        ("  lr_init: 0.5\n", "  lr_init: .nan\n", r"\[train\] lr_init must be a finite"),
        ("  n_list: [16, 32", "  n_list: [16.5, 32", r"\[eval\] n_list must be an integer"),
        ("  pairs_per_epoch: 2048\n", "  pairs_per_epoch: null\n",
         r"\[train\] pairs_per_epoch must be an integer, got None"),
    ])
    def test_scalar_types_checked_with_location(self, tmp_path, capsys, old, new, message):
        cfg = write(tmp_path, "bad.yaml", SWEEP_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        assert main(["rate-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION
        assert "bad.yaml" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.yaml")
        assert main(["train-eval", "--config", missing, "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION
        assert "absent.yaml" in capsys.readouterr().err

    def test_exponent_without_dot_is_a_number(self, tmp_path):
        # PyYAML reads 1e-2 as a string; it is still the number 0.01
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG.replace("epsilon: 1.0e-2", "epsilon: 1e-2"))
        assert load_config(cfg).model["epsilon"] == 0.01

    def test_train_block_validated_by_train_config(self, tmp_path):
        cfg = write(tmp_path, "bad.yaml", TINY_CONFIG.replace("pairs_per_epoch: 2048",
                                                              "pairs_per_epoch: 0"))
        with pytest.raises(ConfigError, match=r"bad\.yaml: pairs_per_epoch must be >= 1"):
            load_config(cfg)

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG)
        main(["gen-data", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["gen-data", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "99"])
        assert (tmp_path / "a" / "dataset.csv").read_bytes() != \
            (tmp_path / "b" / "dataset.csv").read_bytes()

    @pytest.mark.parametrize("command, old, new, flags, message", [
        pytest.param("gen-data", "  seed: 3\n", "  seed: -1\n", [],
                     "[task] seed must be >= 0", id="task-seed"),
        pytest.param("train-eval", "  seed: 100\n", "  seed: -4\n", [],
                     "[train] seed must be >= 0", id="train-seed"),
        pytest.param("train-eval", "  seed: 7\n", "  seed: -2\n", [],
                     "[eval] seed must be >= 0", id="eval-seed"),
        pytest.param("rate-sweep", "seeds: [0, 1, 2]", "seeds: [0, -1, 2]", [],
                     "[eval] seeds entries must be >= 0", id="eval-seeds"),
        pytest.param("gen-data", "", "", ["--seed", "-7"], "seed must be >= 0, got -7",
                     id="gen-data-flag"),
        pytest.param("metric-lab", "", "", ["--seed", "-3"], "seed must be >= 0, got -3",
                     id="metric-lab-flag"),
    ])
    def test_negative_seeds_exit_two(self, tmp_path, capsys, command, old, new, flags, message):
        args = [command, "--out", str(tmp_path / "o"), *flags]
        if command != "metric-lab":
            args += ["--config", write(tmp_path, "c.yaml", SWEEP_CONFIG.replace(old, new))]
        assert exit_code(args) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_a_schedule_is_an_unknown_model_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.yaml", TINY_CONFIG.replace(
            "  a: 0.1\n", "  a: 0.1\n  a_schedule: [0.5, 0.2]\n"))
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION
        assert "[model] unknown key 'a_schedule'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        pytest.param("{start: 3.0}", id="no-decay"),
        pytest.param("{start: 3.0, decay: 0.8, floor: 0.1}", id="extra-key"),
        pytest.param("{start: 0, decay: 0.8}", id="zero-start"),
        pytest.param("{start: 3.0, decay: 0}", id="zero-decay"),
        pytest.param("{start: 3.0, decay: 1.5}", id="growing"),
        pytest.param("null", id="null"),
        pytest.param("[3.0, 0.8]", id="list"),
    ])
    def test_a_malformed_anneal_exits_two_before_out(self, tmp_path, capsys, value):
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG.replace(
            "a_anneal: {start: 3.0, decay: 0.8}", f"a_anneal: {value}"))
        out = tmp_path / "o"
        assert main(["train-eval", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "a_anneal" in err and "Traceback" not in err
        assert not out.exists()

    def test_jobs_below_one_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.yaml", SWEEP_CONFIG)
        assert main(["rate-sweep", "--config", cfg, "--jobs", "0",
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # every "key: value" line of TINY_CONFIG, and the values put in its place
    FUZZ_LINES = [i for i, line in enumerate(TINY_CONFIG.splitlines()) if line.startswith("  ")]
    FUZZ_VALUES = ["-1", "0", "2.5", '"abc"', "[]", "{}", "null", "true", ".nan", ".inf"]

    @settings(max_examples=200, deadline=None)
    @given(line=st.sampled_from(FUZZ_LINES), value=st.sampled_from(FUZZ_VALUES))
    def test_one_bad_value_exits_zero_or_two(self, line, value):
        lines = TINY_CONFIG.splitlines()
        lines[line] = f"{lines[line].split(':')[0]}: {value}"
        assert gen_data_exit(lines) in (EXIT_OK, EXIT_VALIDATION)

    # every block's keys and every family's parameters, any of which may be
    # put in any block
    FUZZ_KEYS = sorted({key for keys in _KEYS.values() for key in keys}
                       | {key for family in MODEL_FAMILIES for key in family_parameters(family)})

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(sorted(MODEL_FAMILIES)), edit=st.one_of(
        st.tuples(st.sampled_from(sorted(_KEYS)), st.sampled_from(FUZZ_KEYS),
                  st.sampled_from(["1", "2", "0.05", "0.3"])),
        st.sampled_from(FUZZ_LINES)))
    def test_one_added_or_dropped_key_exits_zero_or_two(self, family, edit):
        lines = TINY_CONFIG.replace("family: linear", f"family: {family}").splitlines()
        if isinstance(edit, tuple):
            block, key, value = edit
            lines.insert(lines.index(f"{block}:") + 1, f"  {key}: {value}")
        else:
            del lines[edit]
        assert gen_data_exit(lines) in (EXIT_OK, EXIT_VALIDATION)

    @pytest.mark.parametrize("command", ["gen-data", "train-eval", "rate-sweep"])
    @pytest.mark.parametrize("old, new, message", [
        pytest.param("  family: linear\n", "  family: linear\n  A: 0.3\n",
                     "[task] unknown key 'A' (allowed: ['family', 'p', 'seed'])",
                     id="linear-with-A"),
        # the label count has one declaration, [model] m
        pytest.param("  family: linear\n", "  family: linear\n  m: 2\n",
                     "[task] unknown key 'm' (allowed: ['family', 'p', 'seed'])",
                     id="linear-with-m"),
        pytest.param("  family: linear\n  p: 1\n", "  family: cosine\n  p: 2\n",
                     "[task] cosine family: cosine_model() missing 3 required positional "
                     "arguments: 'A', 'k', and 'r'", id="cosine-without-A-k-r"),
    ])
    def test_a_misfit_task_block_exits_two_before_out(self, tmp_path, capsys, command, old,
                                                      new, message):
        cfg = write(tmp_path, "bad.yaml", SWEEP_CONFIG.replace(old, new))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"bad.yaml: {message}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train-eval", "rate-sweep"])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_a_model_m_other_than_the_label_count_exits_two_before_out(self, tmp_path, capsys,
                                                                       command, m):
        # the net has one sub-network per label: linear has 2
        cfg = write(tmp_path, "bad.yaml", SWEEP_CONFIG.replace("  m: 2\n", f"  m: {m}\n"))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"bad.yaml: [model] m={m} but family 'linear' has 2 labels" in err
        assert "Traceback" not in err and not out.exists()

    def test_width_is_refused_at_depth_one(self, tmp_path, capsys):
        # a depth-1 sub-network has no hidden layer, so a width would be ignored
        text = TINY_CONFIG.replace("  depth: 2\n", "  depth: 1\n").replace("epochs: 25",
                                                                           "epochs: 2")
        cfg = write(tmp_path, "bad.yaml", text)
        assert main(["train-eval", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION
        assert "bad.yaml: [model] width has no effect at depth 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        cfg = write(tmp_path, "c.yaml", text.replace("  width: 4\n", ""))
        assert main(["train-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        net = load_manifest(tmp_path / "o" / "model")
        assert [len(h.layers) for h in net.subnets] == [1, 1]

    def test_pairs_per_epoch_under_all_pairs_exits_two_before_out(self, tmp_path, capsys):
        # all-pairs training ignores a pair count, so a config giving one is refused
        cfg = write(tmp_path, "c.yaml", TINY_CONFIG.replace("pair_strategy: uniform-subsample",
                                                            "pair_strategy: all-pairs"))
        out = tmp_path / "o"
        assert main(["train-eval", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        assert "pairs_per_epoch applies only to pair_strategy uniform-subsample" \
            in capsys.readouterr().err
        assert not out.exists()

    ALL_PAIRS = [("pair_strategy: uniform-subsample\n  pairs_per_epoch: 2048",
                  "pair_strategy: all-pairs")]

    @pytest.mark.parametrize("command, edits, message", [
        pytest.param("gen-data", [("n: 64", "n: 10000001")],
                     "[train] n must lie in [2, 10,000,000], got 10000001", id="n"),
        pytest.param("rate-sweep", [("[16, 32, 64, 128]", "[16, 32, 64, 20000000]")],
                     "[eval] n_list entry must lie in [2, 10,000,000], got 20000000",
                     id="n-list-entry"),
        pytest.param("train-eval", [("pairs_per_epoch: 2048", "pairs_per_epoch: 10000001")],
                     "[train] pairs_per_epoch asks for 10,000,001 pairs, more than the cap of "
                     "10,000,000", id="pairs-per-epoch"),
        pytest.param("train-eval", ALL_PAIRS + [("n: 64", "n: 100000")],
                     "[train] n=100000 gives an all-pairs epoch of 4,999,950,000 pairs, more than "
                     "the cap of 10,000,000", id="all-pairs-n"),
        pytest.param("rate-sweep",
                     ALL_PAIRS + [("[16, 32, 64, 128]", "[1000, 2000, 4000, 8000]")],
                     "[eval] n_list: n=8000 gives an all-pairs epoch of 31,996,000 pairs, more "
                     "than the cap of 10,000,000", id="all-pairs-n-list"),
    ])
    def test_a_count_past_the_cap_exits_two_before_out(self, tmp_path, capsys, command, edits,
                                                       message):
        # each count sizes an array drawn whole: refused before it is allocated
        import yaml  # noqa: F401  (load_config's first-use import is not what is measured)

        text = SWEEP_CONFIG
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        cfg = write(tmp_path, "c.yaml", text)
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main([command, "--config", cfg, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"c.yaml: {message}" in err and "Traceback" not in err
        assert not out.exists()
        assert peak < 2**20

    def test_the_train_seed_reaches_train_config_only_through_the_commands(self, tmp_path):
        # both commands derive the training seed from [train] seed
        # (cli._effective_seeds); the config's TrainConfig keeps the default
        config = load_config(write(tmp_path, "c.yaml", TINY_CONFIG))
        assert config.train["seed"] == 100
        assert config.build_train_config().seed == TrainConfig().seed


class TestEveryConfigLoads:
    """The configs the lab ships and the ones the benchmark writes all load,
    so a loader change cannot break the benchmark with Tier-1 green."""

    @pytest.mark.parametrize("name", ["quickstart.yaml", "sweep.yaml"])
    def test_shipped_config(self, name):
        load_config(BENCH.parent / "configs" / name)

    WORKLOADS = bench_module("workloads").WORKLOADS

    @pytest.mark.parametrize("size", ["full", "tiny"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_benchmark_inputs(self, tmp_path, name, size):
        # the workload's command line parses, and the config it names loads
        argv = self.WORKLOADS[name].write_inputs(1, size, str(tmp_path))
        args = build_parser().parse_args([*argv, "--out", str(tmp_path / "o")])
        if args.command != "metric-lab":
            load_config(args.config)

    @pytest.mark.parametrize("size", ["full", "tiny"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_the_setup_probe_runs(self, tmp_path, name, size):
        # the benchmark's setup_s comes from this probe, which calls
        # load_config, build_task and make_structured_net (or validates every
        # loss): a change to those calls must fail here, not only in a bench run
        argv = self.WORKLOADS[name].write_inputs(1, size, str(tmp_path))
        args = build_parser().parse_args([*argv, "--out", str(tmp_path / "o")])
        target = "--losses" if args.command == "metric-lab" else args.config
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(metriclab.__file__)),
               "PYTHONDONTWRITEBYTECODE": "1"}
        before = sorted(BENCH.rglob("*"))
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), target],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) > 0.0
        assert sorted(BENCH.rglob("*")) == before
