"""Exact-distribution risk evaluation, the empirical pair risk and the
learning-curve sweep.

Labels are always integrated out analytically: the synthetic tasks expose
eta(x, x') exactly, so every Monte Carlo estimator below averages
conditional expectations over input pairs only.  This changes no expected
value and removes the label-sampling component of the Monte Carlo variance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, ExecutionError, ParameterError
from .erm import TrainConfig, train, triu_pairs
from .losses import LossFunction, hinge_loss
from .structured import (
    HypothesisBudget,
    StructuredMetricNet,
    aggregate_complexity,
    make_structured_net,
    pair_values,
)
from .synthetic import (
    MAX_STREAM_PAIRS,
    SyntheticTask,
    check_sample_size,
    estimate_noise_exponent,
    eta_pairs,
    hinge_metric_values,
    loglog_fit,
    make_task,
    pair_blocks,
    sample_dataset,
    sample_inputs,
    t_quantile,
)

D_SUP_TOL = 1e-9
# the default Monte Carlo stream lengths of a risk estimate and a noise fit
MC_PAIRS = 100_000
NOISE_MC_PAIRS = 200_000


def as_pair_fn(metric):
    """The metric as a batched pair function with float64 values."""
    if isinstance(metric, StructuredMetricNet):
        return lambda X, Xp: pair_values(metric, X, Xp)
    if callable(metric):
        return lambda X, Xp: np.asarray(metric(X, Xp), dtype=np.float64)
    raise ParameterError(f"cannot evaluate {type(metric).__name__} as a pair metric")


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def check_mc_pairs(mc_pairs: int) -> None:
    """Raise ParameterError unless a risk estimate gets 100 to MAX_STREAM_PAIRS pairs."""
    if mc_pairs < 100:
        raise ParameterError(f"mc_pairs must be >= 100, got {mc_pairs}")
    if mc_pairs > MAX_STREAM_PAIRS:
        raise ParameterError(f"mc_pairs must be <= {MAX_STREAM_PAIRS:,} "
                             f"(16 p + 8 bytes per pair), got {mc_pairs}")


def _integrate(task: SyntheticTask, mc_pairs: int, seed, integrand) -> list[tuple[float, float]]:
    """Mean and standard error of each array an integrand returns, over
    mc_pairs freshly drawn input pairs. The integrand is called as
    integrand(x, xp, eta) on one block of MC_BLOCK pairs at a time and
    returns a tuple of block-length arrays; each array fills one
    stream-long row.

    Memory per pair: 16 p bytes for the drawn inputs plus 8 per row; every
    other temporary is one block long, or outlives the inputs.
    """
    check_mc_pairs(mc_pairs)
    rng = np.random.default_rng(seed)
    X, Xp = sample_inputs(task, mc_pairs, rng), sample_inputs(task, mc_pairs, rng)
    vals = None
    for block in pair_blocks(mc_pairs):
        x, xp = X[block], Xp[block]
        parts = integrand(x, xp, eta_pairs(task, x, xp))
        if vals is None:
            vals = np.empty((len(parts), mc_pairs))
        for row, part in zip(vals, parts):
            row[block] = part
    del X, Xp, x, xp  # the standard error takes one more stream-long temporary
    return [_mean_se(row) for row in vals]


def bayes_risk_hinge(task: SyntheticTask, mc_pairs: int, seed) -> tuple[float, float]:
    """Monte Carlo estimate of E[2 min(eta, 1 - eta)] with its standard error.
    Memory: 16 p + 8 bytes per pair, plus one block of MC_BLOCK pairs."""
    return _integrate(task, mc_pairs, seed, lambda x, xp, e: (2.0 * np.minimum(e, 1.0 - e),))[0]


def generalization_risk(metric, task: SyntheticTask, loss: LossFunction,
                        mc_pairs: int, seed) -> tuple[float, float]:
    """Monte Carlo risk with labels integrated out:
    E[ eta*l(d) + (1 - eta)*l(-d) ] over input pairs.
    Memory: 16 p + 8 bytes per pair, plus one block of MC_BLOCK pairs."""
    fn = as_pair_fn(metric)

    def integrand(x, xp, e):
        d = fn(x, xp)
        return (e * loss.eval(d) + (1.0 - e) * loss.eval(-d),)

    return _integrate(task, mc_pairs, seed, integrand)[0]


def excess_risk_identity(metric, task: SyntheticTask, mc_pairs: int, seed) -> tuple[float, float]:
    """Monte Carlo estimate of E[ |2 eta - 1| * |d - sgn(1 - 2 eta)| ].

    Valid for the hinge loss and metrics bounded by 1 in sup norm; a metric
    leaving [-1, 1] on any block violates the identity's contract and is
    rejected. Memory: 16 p + 8 bytes per pair, plus one block of MC_BLOCK
    pairs.
    """
    fn = as_pair_fn(metric)

    def integrand(x, xp, e):
        d = fn(x, xp)
        if np.max(np.abs(d)) > 1.0 + D_SUP_TOL:
            raise ContractError("excess-risk identity requires sup|d| <= 1")
        return (np.abs(2.0 * e - 1.0) * np.abs(d - hinge_metric_values(e)),)

    return _integrate(task, mc_pairs, seed, integrand)[0]


def empirical_risk(metric, data, loss: LossFunction) -> float:
    """The empirical U-statistic pair risk
        E_S(d) = 1/(n(n-1)) * sum_{i != j} loss(tau(y_i, y_j) * d(x_i, x_j)).

    The metric may be a StructuredMetricNet or any batched pair function.
    Both orderings of a pair contribute the same term (tau and the metric
    are symmetric), so the average runs over the n(n-1)/2 unordered pairs,
    one block of MC_BLOCK of them at a time.
    """
    fn = as_pair_fn(metric)
    X, y = data
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = X.shape[0]
    check_sample_size(n)
    total_pairs = n * (n - 1) // 2
    total = 0.0
    for block in pair_blocks(total_pairs):
        i, j = triu_pairs(n, np.arange(block.start, block.stop))
        tau = np.where(y[i] == y[j], 1.0, -1.0)
        total += float(loss.eval(tau * fn(X[i], X[j])).sum())
    return total / total_pairs


@dataclass
class RiskReport:
    risk: float
    risk_se: float
    bayes: float
    bayes_se: float
    excess_direct: float
    excess_direct_se: float
    excess_identity: float
    excess_identity_se: float
    mc_pairs: int
    seed: int

    @property
    def identity_gap(self) -> float:
        return abs(self.excess_direct - self.excess_identity)

    @property
    def identity_gap_limit(self) -> float:
        return 3.0 * math.hypot(self.excess_direct_se, self.excess_identity_se)

    def consistent(self) -> bool:
        return (self.identity_gap <= self.identity_gap_limit
                and self.excess_direct >= -3.0 * self.excess_direct_se)


def risk_report(metric, task: SyntheticTask, mc_pairs: int, seed: int) -> RiskReport:
    """Hinge-loss excess risk, direct and by the identity, on independent
    MC streams: the Bayes term and the identity are the hinge's."""
    streams = [np.random.SeedSequence(seed, spawn_key=(k,)) for k in range(3)]
    risk, risk_se = generalization_risk(metric, task, hinge_loss(), mc_pairs, streams[0])
    bayes, bayes_se = bayes_risk_hinge(task, mc_pairs, streams[1])
    ident, ident_se = excess_risk_identity(metric, task, mc_pairs, streams[2])
    return RiskReport(
        risk=risk, risk_se=risk_se, bayes=bayes, bayes_se=bayes_se,
        excess_direct=risk - bayes, excess_direct_se=math.hypot(risk_se, bayes_se),
        excess_identity=ident, excess_identity_se=ident_se,
        mc_pairs=mc_pairs, seed=seed,
    )


@dataclass
class VarianceExpectationRow:
    q_mean: float
    q_mean_se: float
    q_sq: float
    q_sq_se: float
    bound_rhs: float
    margin: float
    passed: bool


@dataclass
class VarianceExpectationReport:
    theta: float
    c_theta: float
    beta: float
    M: float
    rows: list
    pass_fraction: float


def variance_expectation_check(metrics, task: SyntheticTask, theta: float, c_theta: float,
                               mc_pairs: int, seed: int = 0) -> VarianceExpectationReport:
    """Check E[q^2] <= M * E[q]^beta for the shifted hinge-loss class,
    with beta = theta/(theta+1) and M = 2^(3/(theta+1)) * c_theta^(1/(theta+1)).

    One integrand returns q and q^2 for every metric, so the seeded stream
    of mc_pairs input pairs and its eta are drawn once per check, one block
    of MC_BLOCK pairs at a time. Memory per pair: 16 p bytes for the drawn
    inputs and 16 per metric for q and q^2, plus one block, and 8 more
    while a standard error is taken.
    """
    if theta <= 0.0 or c_theta <= 0.0:
        raise ParameterError("noise parameters must be positive")
    loss = hinge_loss()
    beta = theta / (theta + 1.0)
    M = 2.0 ** (3.0 / (theta + 1.0)) * c_theta ** (1.0 / (theta + 1.0))
    fns = [as_pair_fn(metric) for metric in metrics]

    def integrand(x, xp, e):
        d_rho = hinge_metric_values(e)
        l_pos, l_neg = loss.eval(d_rho), loss.eval(-d_rho)
        parts = []
        for fn in fns:
            d = fn(x, xp)
            dl_pos, dl_neg = loss.eval(d) - l_pos, loss.eval(-d) - l_neg
            parts += [e * dl_pos + (1.0 - e) * dl_neg, e * dl_pos**2 + (1.0 - e) * dl_neg**2]
        return parts

    stats = _integrate(task, mc_pairs, seed, integrand)
    rows = []
    for (q_mean, q_se), (q_sq, q2_se) in zip(stats[0::2], stats[1::2]):
        if q_mean < -3.0 * q_se:
            raise ContractError(
                f"E[q] = {q_mean:.4g} negative beyond noise; d_rho must be optimal"
            )
        rhs = M * max(q_mean, 0.0) ** beta
        rows.append(VarianceExpectationRow(
            q_mean, q_se, q_sq, q2_se, rhs, rhs - q_sq, q_sq <= rhs
        ))
    frac = float(np.mean([r.passed for r in rows])) if rows else math.nan
    return VarianceExpectationReport(theta, c_theta, beta, M, rows, frac)


# ---------------------------------------------------------------------------
# learning-curve sweep
# ---------------------------------------------------------------------------

def reference_exponent(p: int, r: int, theta: float) -> float:
    """The target rate exponent -(theta+1) r / (p + (theta+2) r)."""
    return -(theta + 1.0) * r / (p + (theta + 2.0) * r)


def theorem_budget(n: int, p: int, r: int, theta: float) -> HypothesisBudget:
    """Budget recipe with unit constants: depth from the displayed formula,
    W = U = ceil(exp(L))."""
    if n < 3:
        raise ParameterError("budget recipe needs n >= 3")
    L = max(1, math.ceil(p / (p + (theta + 2.0) * r) * math.log(n / math.log(n))))
    W = math.ceil(math.exp(L))
    return HypothesisBudget(L_max=L, W_max=W, U_max=W)


def subnet_shape_for_budget(budget: HypothesisBudget) -> tuple[int, int]:
    """Map a (tiny, unit-constant) budget onto trainable sub-network sizes.

    At desk scale the recipe's W is smaller than the fixed gadgets alone, so
    the budget sizes the trainable part: depth = L, width ~ sqrt(W) with a
    floor of 4 (narrower nets get trapped on dead-unit plateaus).  The full
    aggregate complexity is reported per sweep row.
    """
    return budget.L_max, max(4, math.ceil(math.sqrt(budget.W_max)))


@dataclass
class SweepRow:
    n: int
    seed: int
    excess: float
    stderr: float
    epochs: int
    subnet_depth: int
    subnet_width: int
    agg_L: int
    agg_W: int
    agg_U: int
    diverged: bool = False
    wall_time: float = 0.0  # excluded from the deterministic CSV contract


@dataclass
class SweepResult:
    """A sweep's rows and the log-log fit of its per-n medians against n.

    slope_upper95 is the one-sided 95% upper confidence bound on the slope,
    slope + t_0.95 * slope_se, with Student's t on dof = (fitted points) - 2,
    one point per sample size that kept a surviving run.
    """

    rows: list
    n_values: np.ndarray
    medians: np.ndarray
    median_stderr: np.ndarray
    slope: float
    intercept: float
    slope_se: float
    slope_upper95: float
    ref_exponent: float
    theta_hat: float
    adjacent_non_increasing: list = field(default_factory=list)

    def monotone_within_noise(self) -> bool:
        return all(self.adjacent_non_increasing)


@dataclass(frozen=True)
class _SweepJob:
    task_spec: dict
    n: int
    seed_index: int
    train: TrainConfig  # its seed is the sweep's base seed
    model: dict  # make_structured_net keywords besides p and seed
    mc_pairs: int


def _run_sweep_job(job: _SweepJob) -> SweepRow:
    t0 = time.perf_counter()
    task = make_task(**job.task_spec)
    ss = np.random.SeedSequence(job.train.seed, spawn_key=(job.n, job.seed_index))
    data_seed, init_seed, train_seed, eval_seed = ss.spawn(4)
    data = sample_dataset(task, job.n, seed=data_seed)
    net = make_structured_net(p=task.p, seed=init_seed, **job.model)
    cfg = replace(job.train, seed=int(train_seed.generate_state(1)[0]))
    agg = None
    try:
        trained, _ = train(net, data, cfg, hinge_loss())
        agg = aggregate_complexity(trained)
        excess, se = excess_risk_identity(trained, task, job.mc_pairs, eval_seed)
        diverged = False
    except ExecutionError:
        excess, se, diverged = math.nan, math.nan, True
    if agg is None:
        agg = aggregate_complexity(net)
    # the shape of the net built: a depth-1 sub-network has no hidden layer
    layers = net.subnets[0].layers
    return SweepRow(
        n=job.n, seed=job.seed_index, excess=excess, stderr=se, epochs=job.train.epochs,
        subnet_depth=len(layers), subnet_width=layers[0].out_width if len(layers) > 1 else 0,
        agg_L=agg.depth, agg_W=agg.nonzero_weights, agg_U=agg.units,
        diverged=diverged, wall_time=time.perf_counter() - t0,
    )


def median_of_seeds(items, key=None):
    """The median-of-seeds rule: the upper median, an actual element of
    items (for an even count, the larger of the two middle values)."""
    ordered = sorted(items, key=key)
    return ordered[len(ordered) // 2]


def sweep_sizes(n_list) -> list:
    """The sweep's distinct sample sizes, ascending: at least 4, each >= 8 and
    within check_sample_size, spanning a factor of 8 or more (256..2048, say)."""
    sizes = sorted(set(int(n) for n in n_list))
    if len(sizes) < 4 or sizes[0] < 8 or sizes[-1] < 8 * sizes[0]:
        raise ParameterError(f"n_list needs >= 4 distinct sizes >= 8 spanning at least "
                             f"a factor of 8, got {sizes}")
    check_sample_size(sizes[-1], "n_list entry")
    return sizes


def sweep_seeds(seeds) -> list:
    """The sweep's seeds: at least 3, distinct (a repeat is one run counted
    twice) and >= 0."""
    seeds = list(seeds)
    if len(seeds) < 3:
        raise ParameterError(f"seeds needs at least 3 entries, got {seeds}")
    if len(set(seeds)) != len(seeds):
        raise ParameterError(f"seeds must be distinct, got {seeds}")
    if min(seeds) < 0:
        raise ParameterError(f"seeds entries must be >= 0, got {seeds}")
    return seeds


def rate_sweep(task: SyntheticTask, n_list, seeds, train_config: TrainConfig, model: dict,
               mc_pairs: int = MC_PAIRS, theta: float | None = None, noise_t_grid=None,
               noise_mc_pairs: int = NOISE_MC_PAIRS, jobs: int = 1) -> SweepResult:
    """Train-and-evaluate ladder over sample sizes with a log-log slope fit.

    model holds make_structured_net's keywords besides p and seed; each n's
    unit-constant budget recipe sets its depth and width. Every (n, seed) job
    is independently and deterministically seeded, so results do not depend
    on the number of workers. SweepResult describes the slope's 95% bound.
    """
    n_list, seeds = sweep_sizes(n_list), sweep_seeds(seeds)
    if task.spec is None:
        raise ParameterError("rate_sweep needs a task built by make_task (picklable spec)")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")

    if theta is None:
        grid = noise_t_grid if noise_t_grid is not None else np.geomspace(0.02, 0.3, 8)
        fit = estimate_noise_exponent(task, noise_mc_pairs, grid, seed=task.seed + 7919)
        theta = fit.theta_hat
    if not math.isfinite(theta) or theta <= 0.0:
        raise ExecutionError(f"unusable noise exponent {theta} for the budget recipe")

    jobs_list = []
    for n in n_list:
        depth, width = subnet_shape_for_budget(theorem_budget(n, task.p, task.model.r, theta))
        spec = {**model, "depth": depth, "width": width}
        jobs_list += [_SweepJob(task.spec, n, si, train_config, spec, mc_pairs) for si in seeds]

    # a pool starts all its workers at once: never more than there are jobs
    workers = min(jobs, len(jobs_list))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only the pool needs it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_job, jobs_list))
    else:
        rows = [_run_sweep_job(j) for j in jobs_list]
    rows.sort(key=lambda r: (r.n, r.seed))

    surviving = {}
    for row in rows:
        if not row.diverged:
            surviving.setdefault(row.n, []).append(row)
    if len(surviving) < 4:
        raise ExecutionError(f"only {len(surviving)} sample sizes survived training")

    n_vals, medians, med_se = [], [], []
    for n in sorted(surviving):
        group = sorted(surviving[n], key=lambda r: r.excess)
        med_row = median_of_seeds(group, key=lambda r: r.excess)
        n_vals.append(n)
        medians.append(max(med_row.excess, 1e-12))
        # the median-of-seeds statistic carries Monte Carlo noise AND
        # seed-to-seed training spread; 1.2533 * sd / sqrt(k) is the
        # normal-approximation standard error of a sample median
        spread = float(np.std([r.excess for r in group], ddof=1)) if len(group) > 1 else 0.0
        med_se.append(math.hypot(med_row.stderr, 1.2533 * spread / math.sqrt(len(group))))
    n_vals = np.array(n_vals, dtype=np.float64)
    medians = np.array(medians)
    med_se = np.array(med_se)

    fit = loglog_fit(n_vals, medians)
    tcrit = t_quantile(0.95, fit.dof)

    adjacent = []
    for k in range(len(n_vals) - 1):
        limit = math.hypot(med_se[k], med_se[k + 1])
        adjacent.append(bool(medians[k + 1] <= medians[k] + limit))

    return SweepResult(
        rows=rows, n_values=n_vals, medians=medians, median_stderr=med_se,
        slope=fit.slope, intercept=fit.intercept, slope_se=fit.slope_se,
        slope_upper95=fit.slope + tcrit * fit.slope_se,
        ref_exponent=reference_exponent(task.p, task.model.r, theta),
        theta_hat=theta, adjacent_non_increasing=adjacent,
    )
