"""Experiment driver CLI.

Subcommands: verify-gadgets, metric-lab, gen-data, train-eval, rate-sweep.
Every run is deterministic under a fixed config + seed; all CSV
outputs carry a provenance comment (version, config hash, effective seed)
and a header row.  Wall-clock timings go to a separate timings.csv, which
is the one file excluded from the byte-identity contract.

Exit codes: 0 success, 2 validation error, 3 property/certificate failure,
4 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .errors import ExecutionError, PropertyFailure, PropertyViolation, ValidationFailure
from .gadgets import build_product_gadget, build_sign_approx, product_depth, sawtooth_depth_for
from .losses import (
    LOSSES,
    ORACLE_SLACK,
    check_bias_shift,
    check_monotone,
    check_self_distance,
    continuous_label_degeneracy,
    get_loss,
    self_distance_etas,
    tstar_batch,
)
from .risk import MC_PAIRS, NOISE_MC_PAIRS, rate_sweep, risk_report
from .structured import aggregate_complexity, make_structured_net, pdim_bound, save_manifest
from .synthetic import sample_dataset
from .erm import train

EXIT_OK, EXIT_VALIDATION, EXIT_PROPERTY, EXIT_RUNTIME = 0, 2, 3, 4

ETA_SWEEP = np.round(np.arange(0.05, 0.951, 0.05), 10)
# metric-lab's peak memory grows by about 300 bytes per grid point or random
# pair; larger counts exit 2 instead of running the machine out of memory
LAB_MAX_COUNT = 100_000
# the bias-shift check: every eta in {0.1, ..., 0.9} under each shift b in {0.5, 1}
BIAS_ETAS = np.round(np.arange(0.1, 0.91, 0.1), 10)
BIAS_SHIFTS = np.array([[0.5], [1.0]])


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows, comments=()) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _provenance(seed, config: ExperimentConfig | None = None, extra: str = "") -> list:
    line = f"version={__version__} seed={seed}"
    if config is not None:
        line += f" config_sha256={config.sha256}"
    if extra:
        line += f" {extra}"
    return [line]


def _args_digest(*values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def _make_out_dir(path) -> None:
    """Create the --out directory before any work; failing to is a validation error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ValidationFailure(f"cannot use --out {path}: {err.strerror or err}") from err


# ---------------------------------------------------------------------------
# verify-gadgets
# ---------------------------------------------------------------------------

def cmd_verify_gadgets(args) -> int:
    eps_list = [float(e) for e in args.epsilons]
    a_list = [float(a) for a in args.a_values]
    # all or nothing: every value is checked before any gadget is built or printed
    for eps in eps_list:
        product_depth(eps)
    signs = [build_sign_approx(a) for a in a_list]
    if args.out:
        _make_out_dir(args.out)
    rows, failures = [], []

    for eps in eps_list:
        gadget = build_product_gadget(eps)
        err, comp = gadget.certified_sup_error, gadget.complexity
        c_depth = comp.depth / math.log(1.0 / eps)
        # each gadget against its own depth law, whatever order the epsilons come in
        ok = err <= eps and comp.depth == sawtooth_depth_for(eps) + 2
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures.append(f"phi eps={eps}")
        print(f"{status} phi eps={eps:g} sup_error={err:.3e} "
              f"s={gadget.sawtooth_depth} L={comp.depth} W={comp.nonzero_weights} "
              f"U={comp.units} C_depth={c_depth:.3f}")
        rows.append(["phi", eps, err, gadget.sawtooth_depth,
                     comp.depth, comp.nonzero_weights, comp.units, c_depth])

    grid = np.linspace(-5.0, 5.0, 10_001)
    for a, fa in zip(a_list, signs):
        # the network against value_and_slope, the closed form pair evaluation uses
        err = float(np.max(np.abs(fa(grid) - fa.value_and_slope(grid)[0])))
        comp = fa.complexity
        ok = err <= 1e-12
        if not ok:
            failures.append(f"F_a a={a}")
        print(f"{'PASS' if ok else 'FAIL'} F_a a={a:g} max_error={err:.3e} "
              f"L={comp.depth} W={comp.nonzero_weights} U={comp.units}")
        rows.append(["sign", a, err, "", comp.depth, comp.nonzero_weights, comp.units, ""])

    if args.out:
        write_csv(
            os.path.join(args.out, "gadget_certificates.csv"),
            ["component", "parameter", "certified_error", "sawtooth_depth", "L", "W", "U", "C_depth"],
            rows,
            _provenance(args.seed, extra=f"args_digest={_args_digest(eps_list, a_list)}"),
        )
    if failures:
        raise PropertyViolation(f"gadget certification failed: {failures}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# metric-lab
# ---------------------------------------------------------------------------

def _lab_check(summary, name, ok, detail="") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f" {detail}" if detail else "")
    summary.append(line)
    print(line)


def _ask_once(loss, questions: dict) -> dict:
    """Answer every (eta, b) question about one loss with one batched t*
    solve; each answer keeps its question's broadcast shape."""
    asked = [np.broadcast_arrays(np.asarray(eta, dtype=np.float64),
                                 np.asarray(b, dtype=np.float64)) for eta, b in questions.values()]
    flat = tstar_batch(loss, *(np.concatenate([q[i].ravel() for q in asked]) for i in (0, 1)))
    ends = np.cumsum([eta.size for eta, _ in asked], dtype=int)
    return {key: flat[end - eta.size:end].reshape(eta.shape)
            for key, end, (eta, _) in zip(questions, ends, asked)}


def cmd_metric_lab(args) -> int:
    loss_names = args.losses or sorted(LOSSES)
    for name in loss_names:
        if name not in LOSSES:
            raise ValidationFailure(f"unknown loss {name!r}; registered: {sorted(LOSSES)}")
    if len(set(loss_names)) < len(loss_names):
        raise ValidationFailure(f"--losses names a loss more than once: {loss_names}")
    if not (1 <= args.eta_points <= LAB_MAX_COUNT and 0 <= args.pairs <= LAB_MAX_COUNT):
        raise ValidationFailure(f"--eta-points must lie in [1, {LAB_MAX_COUNT}] and --pairs in "
                                f"[0, {LAB_MAX_COUNT}], got {args.eta_points} and {args.pairs}")
    _make_out_dir(args.out)
    digest = _args_digest(loss_names, args.eta_points, args.pairs)
    comments = _provenance(args.seed, extra=f"args_digest={digest}")
    # rounded so the midpoint is exactly 1/2 (hinge's convention point)
    eta_grid = np.round(np.linspace(0.005, 0.995, args.eta_points), 12)
    cx_etas = self_distance_etas([0.6, 0.2, 0.2], [1.0, 0.0, 0.0])
    # row i holds pair i's P_x then P_x', in the order one draw at a time gives
    draws = np.random.default_rng(args.seed).dirichlet(np.ones(3), size=(args.pairs, 2))
    sweep_etas = self_distance_etas(draws[:, 0], draws[:, 1])

    # one batched solve per loss answers every check's questions; the
    # self-distance checks ask the hinge whether or not --losses names it
    tstar = {}
    for name in dict.fromkeys([*loss_names, "hinge"]):
        questions = {"profile": (eta_grid, 0), "shifted": (BIAS_ETAS, BIAS_SHIFTS),
                     "base": (BIAS_ETAS, 0), "degenerate": (0, 0)} if name in loss_names else {}
        if name == "hinge":
            questions.update(counterexample=(cx_etas, 0), sweep=(sweep_etas, 0))
        tstar[name] = _ask_once(get_loss(name), questions)

    summary = []
    for name in loss_names:
        loss = get_loss(name)
        loss.validate()
        try:
            profile = check_monotone(loss, eta_grid, tstar[name]["profile"])
            _lab_check(summary, f"monotonicity {name}", True)
        except PropertyViolation as err:
            _lab_check(summary, f"monotonicity {name}", False, str(err))
            continue
        write_csv(
            os.path.join(args.out, f"profile_{name}.csv"),
            ["eta", "tstar_oracle", "tstar_analytic", "q_min"],
            [(e, t, a, q) for e, t, a, q in zip(
                profile.eta_grid, profile.tstar, profile.analytic, profile.q_min)],
            comments,
        )
        if loss.analytic_tstar is not None:
            devs = []
            for e in ETA_SWEEP:
                idx = int(np.argmin(np.abs(profile.eta_grid - e)))
                devs.append(abs(profile.tstar[idx] - profile.analytic[idx]))
            _lab_check(summary, f"oracle_vs_analytic {name}", max(devs) <= ORACLE_SLACK,
                       f"(max dev {max(devs):.2e})")
        if name == "hinge":
            target = 2.0 * np.minimum(profile.eta_grid, 1.0 - profile.eta_grid)
            dev = float(np.max(np.abs(profile.q_min - target)))
            _lab_check(summary, "hinge_bayes_value", dev <= 1e-9, f"(max dev {dev:.2e})")

    for name in loss_names:
        rep = check_bias_shift(BIAS_ETAS, BIAS_SHIFTS, tstar[name]["shifted"], tstar[name]["base"])
        _lab_check(summary, f"bias_shift {name}", bool(np.all(rep.passed)),
                   f"(max dev {float(np.max(rep.deviation)):.2e})")

    cx = check_self_distance(cx_etas, tstar["hinge"]["counterexample"])
    ok = (abs(cx.eta_self_x - 0.44) < 1e-12 and abs(cx.eta_cross - 0.6) < 1e-12
          and cx.d_self_x == 1.0 and cx.d_cross == -1.0
          and not cx.precondition_holds and not cx.conclusion_holds)
    _lab_check(summary, "self_distance_counterexample", ok,
               f"(eta_self={cx.eta_self_x:.4g} eta_cross={cx.eta_cross:.4g} "
               f"d_self={cx.d_self_x:g} d_cross={cx.d_cross:g})")

    rep = check_self_distance(sweep_etas, tstar["hinge"]["sweep"])
    held = int(np.sum(rep.precondition_holds))
    violations = int(np.sum(rep.is_counterexample))
    _lab_check(summary, "self_distance_random_sweep", violations == 0,
               f"(precondition held {held}/{args.pairs}, violations {violations})")

    degen = {name: continuous_label_degeneracy(tstar[name]["degenerate"]) for name in loss_names}
    ok = all(degen[n] == 1.0 for n in ("hinge", "modified_least_squares") if n in degen) \
        and all(math.isinf(degen[n]) for n in ("exponential", "logistic") if n in degen)
    _lab_check(summary, "continuous_label_degeneracy", ok,
               "(" + " ".join(f"{k}={v:g}" for k, v in degen.items()) + ")")

    with open(os.path.join(args.out, "checks_summary.txt"), "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("\n".join(summary) + "\n")
    if any(line.startswith("FAIL") for line in summary):
        raise PropertyViolation("metric-lab checks failed (see checks_summary.txt)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# config-driven commands
# ---------------------------------------------------------------------------

def _effective_seeds(config: ExperimentConfig, override: int | None):
    """Task / train / eval seeds, overridden coherently by --seed."""
    if override is None:
        return (config.task.get("seed", 0), config.train.get("seed", 0),
                config.eval.get("seed", 0))
    return override, override + 1, override + 2


def _train_n(config: ExperimentConfig, command: str) -> int:
    """[train] n, which both commands that sample the training set need."""
    if "n" not in config.train:
        raise ValidationFailure(f"{config.source_path}: [train] needs 'n' for {command}")
    return config.train["n"]


def cmd_gen_data(args) -> int:
    config = load_config(args.config)
    task_seed, _, _ = _effective_seeds(config, args.seed)
    task = config.build_task(seed_override=task_seed)
    n = _train_n(config, args.command)
    _make_out_dir(args.out)
    X, y = sample_dataset(task, n)
    path = os.path.join(args.out, "dataset.csv")
    write_csv(path, [f"x_{j + 1}" for j in range(X.shape[1])] + ["y"],
              ([*row, label] for row, label in zip(X, y)), _provenance(task_seed, config))
    print(f"wrote {path}: n={n}, p={task.p}, labels={len(np.unique(y))}")
    return EXIT_OK


def cmd_train_eval(args) -> int:
    config = load_config(args.config)
    task_seed, train_seed, eval_seed = _effective_seeds(config, args.seed)
    task = config.build_task(seed_override=task_seed)
    n = _train_n(config, args.command)
    train_cfg = config.build_train_config()
    init_ss, shuffle_ss = np.random.SeedSequence(train_seed).spawn(2)
    train_cfg.seed = int(shuffle_ss.generate_state(1)[0])
    _make_out_dir(args.out)

    data = sample_dataset(task, n)
    net = make_structured_net(p=task.p, seed=init_ss, **config.model_spec(task))
    trained, report = train(net, data, train_cfg, get_loss("hinge"))

    comments = _provenance(f"{task_seed}/{train_seed}/{eval_seed}", config)
    manifest_path = save_manifest(trained, os.path.join(args.out, "model"))
    write_csv(os.path.join(args.out, "train_report.csv"),
              ["epoch", "risk", "grad_norm", "active_fraction", "a"],
              list(report.rows()), comments)

    rep = risk_report(trained, task, config.eval.get("mc_pairs", MC_PAIRS), eval_seed)
    write_csv(os.path.join(args.out, "risk_report.csv"),
              ["risk", "risk_se", "bayes", "bayes_se", "excess_direct", "excess_direct_se",
               "excess_identity", "excess_identity_se", "mc_pairs", "seed"],
              [[rep.risk, rep.risk_se, rep.bayes, rep.bayes_se, rep.excess_direct,
                rep.excess_direct_se, rep.excess_identity, rep.excess_identity_se,
                rep.mc_pairs, rep.seed]], comments)

    agg = aggregate_complexity(trained)
    print(f"trained: final risk {report.final_risk:.4f} (best epoch {report.best_epoch})")
    print(f"complexity: L={agg.depth} W={agg.nonzero_weights} U={agg.units} "
          f"pdim_bound={pdim_bound(agg):.1f}")
    print(f"excess_direct={rep.excess_direct:.5f}+-{rep.excess_direct_se:.5f} "
          f"excess_identity={rep.excess_identity:.5f}+-{rep.excess_identity_se:.5f} "
          f"consistent={rep.consistent()}")
    print(f"model manifest: {manifest_path}")
    if not rep.consistent():
        raise PropertyViolation("excess-risk identity check failed on the trained model")
    return EXIT_OK


def _plot_rows(n_values, medians, slope, intercept, ref_exponent):
    log10 = math.log(10.0)
    rows = []
    n0, m0 = n_values[0], medians[0]
    for n, med in zip(n_values, medians):
        fit = (intercept + slope * math.log(n)) / log10
        ref = math.log10(m0) + ref_exponent * (math.log10(n) - math.log10(n0))
        rows.append([math.log10(n), math.log10(med), fit, ref])
    return rows


def cmd_rate_sweep(args) -> int:
    config = load_config(args.config)
    task_seed, train_seed, eval_seed = _effective_seeds(config, args.seed)
    task = config.build_task(seed_override=task_seed)
    ev = config.eval
    if "n_list" not in ev or "seeds" not in ev:
        raise ValidationFailure(f"{config.source_path}: [eval] needs n_list and seeds")
    train_cfg = config.build_train_config()
    train_cfg.seed = train_seed
    if args.jobs < 1:  # before --out is made: a bad flag writes nothing
        raise ValidationFailure(f"jobs must be >= 1, got {args.jobs}")
    _make_out_dir(args.out)

    result = rate_sweep(
        task,
        n_list=ev["n_list"],
        seeds=ev["seeds"],
        train_config=train_cfg,
        model=config.model_spec(task),
        mc_pairs=ev.get("mc_pairs", MC_PAIRS),
        noise_t_grid=np.asarray(ev["t_grid"], dtype=np.float64) if "t_grid" in ev else None,
        noise_mc_pairs=ev.get("noise_mc_pairs", NOISE_MC_PAIRS),
        jobs=args.jobs,
    )

    comments = _provenance(f"{task_seed}/{train_seed}/{eval_seed}", config)
    write_csv(os.path.join(args.out, "sweep_rows.csv"),
              ["n", "seed", "excess", "stderr", "epochs", "subnet_depth", "subnet_width",
               "agg_L", "agg_W", "agg_U", "diverged"],
              [[r.n, r.seed, r.excess, r.stderr, r.epochs, r.subnet_depth, r.subnet_width,
                r.agg_L, r.agg_W, r.agg_U, r.diverged] for r in result.rows], comments)
    write_csv(os.path.join(args.out, "sweep_fit.csv"),
              ["slope", "intercept", "slope_se", "slope_upper95", "ref_exponent",
               "theta_hat", "monotone_within_noise"],
              [[result.slope, result.intercept, result.slope_se, result.slope_upper95,
                result.ref_exponent, result.theta_hat, result.monotone_within_noise()]],
              comments)
    write_csv(os.path.join(args.out, "plot_data.csv"),
              ["log10_n", "log10_median_excess", "fit_line", "reference_line"],
              _plot_rows(result.n_values, result.medians, result.slope,
                         result.intercept, result.ref_exponent), comments)
    # wall times are non-deterministic by nature; kept out of the contract
    write_csv(os.path.join(args.out, "timings.csv"),
              ["n", "seed", "wall_time_s"],
              [[r.n, r.seed, r.wall_time] for r in result.rows], comments)

    print(f"theta_hat={result.theta_hat:.3f} slope={result.slope:.3f} "
          f"(upper95 {result.slope_upper95:.3f}) reference={result.ref_exponent:.3f}")
    print(f"medians: {dict(zip(result.n_values.astype(int).tolist(), np.round(result.medians, 6).tolist()))}")
    print(f"monotone within noise: {result.monotone_within_noise()}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """argparse type for --seed: numpy seeds must be non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metriclab",
        description="Similarity-metric learning laboratory: gadget certification, "
                    "true-metric studies, pair training, risk evaluation and sweeps.",
        epilog="CSV formats are documented in FORMATS.md; every output carries a "
               "provenance comment line (version, config hash, seed).",
    )
    parser.add_argument("--version", action="version", version=f"metriclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-gadgets", help="build and certify product/sign gadgets")
    p.add_argument("--epsilons", nargs="+", type=float, default=[1e-2, 1e-3],
                   help="product-gadget accuracies to certify")
    p.add_argument("--a-values", nargs="+", type=float, default=[0.05, 0.2, 1.0],
                   help="sign-approximator widths to certify")
    p.add_argument("--out", default="", help="optional output directory for the certificate CSV")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_verify_gadgets)

    p = sub.add_parser("metric-lab", help="general-loss true-metric property study")
    p.add_argument("--losses", nargs="*", default=None,
                   help=f"losses to study (default: all of {sorted(LOSSES)})")
    p.add_argument("--eta-points", type=int, default=101, help="profile grid size")
    p.add_argument("--pairs", type=int, default=1000, help="random simplex pairs for the sweep")
    p.add_argument("--out", default="metric_lab_out")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_metric_lab)

    for name, fn, needs_jobs in (("gen-data", cmd_gen_data, False),
                                 ("train-eval", cmd_train_eval, False),
                                 ("rate-sweep", cmd_rate_sweep, True)):
        p = sub.add_parser(name, help=f"{name} from an experiment config")
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", default=f"{name.replace('-', '_')}_out")
        p.add_argument("--seed", type=_seed, default=None, help="override all config seeds")
        if needs_jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The process ends when main returns, so the first call moves every object
    alive at that point, the import graph, into the collector's permanent
    generation. Collections during the run, and in a forked sweep pool, skip
    it, and so do the collections at interpreter exit: its reference cycles
    go back to the OS with the process instead of being freed object by
    object, which took longer than metric-lab's own work. Later calls in
    the same process leave the collector as it is.
    """
    if gc.get_freeze_count() == 0:
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except PropertyFailure as err:
        print(f"property failure: {err}", file=sys.stderr)
        return EXIT_PROPERTY
    except ExecutionError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
