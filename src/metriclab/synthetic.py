"""Synthetic similarity tasks with analytically known label posteriors.

Every task exposes the conditional label-distribution vector P_x exactly, so
the pair-agreement probability eta(x, x') = <P_x, P_x'>, the hinge-loss true
metric sgn(1 - 2*eta), and the Bayes risk are all computable without
estimation error.  Inputs live on [0, 1]^p; the marginal is uniform unless a
task supplies its own sampler.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ExecutionError, ParameterError
from .relu_net import _unit_cube_batch

_SIMPLEX_TOL = 1e-12
# pairs per Monte Carlo block: past a few thousand pairs numpy's per-call
# overhead is amortized, and each block's temporaries stay near 1 MB
MC_BLOCK = 8192
# the most pairs one Monte Carlo stream may draw: it holds 16 p + 8 bytes per
# pair for the whole estimate, 160 MB at p = 1
MAX_STREAM_PAIRS = 10_000_000


@dataclass
class ConditionalModel:
    """Deterministic map x -> P_x plus its declared smoothness budget."""

    m: int
    prob: callable  # (n, p) array -> (n, m) array of simplex rows
    r: int
    sobolev_budget: float
    name: str = "custom"

    def __post_init__(self):
        if self.m < 2:
            raise ParameterError(f"need at least 2 labels, got m={self.m}")
        if self.r < 1:
            raise ParameterError(f"smoothness tag must be >= 1, got r={self.r}")
        if self.sobolev_budget > 1.0 + 1e-12:
            raise ParameterError(
                f"claimed Sobolev budget {self.sobolev_budget} exceeds the allowed bound 1"
            )


@dataclass
class SyntheticTask:
    p: int
    model: ConditionalModel
    seed: int = 0
    marginal: callable | None = None  # (rng, n) -> (n, p); uniform when None
    spec: dict | None = None  # make_task() kwargs, kept for picklable rebuilds


def conditional_probs(task: SyntheticTask, X) -> np.ndarray:
    """P_x rows for a batch of inputs, validated against the simplex."""
    Xb = _unit_cube_batch(X, task.p)
    P = np.asarray(task.model.prob(Xb), dtype=np.float64)
    if P.shape != (Xb.shape[0], task.model.m):
        raise ParameterError(
            f"model returned shape {P.shape}, expected {(Xb.shape[0], task.model.m)}"
        )
    if np.any(P < -_SIMPLEX_TOL):
        raise ParameterError(f"model {task.model.name} produced negative probabilities")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > _SIMPLEX_TOL:
        raise ParameterError(f"model {task.model.name} rows do not sum to 1")
    return P


def sample_inputs(task: SyntheticTask, n: int, rng: np.random.Generator) -> np.ndarray:
    if task.marginal is not None:
        X = np.asarray(task.marginal(rng, n), dtype=np.float64)
        return _unit_cube_batch(X, task.p)
    return rng.random((n, task.p))


def eta(task: SyntheticTask, x, xp) -> float:
    """Pair-agreement probability <P_x, P_x'>; symmetric in its arguments."""
    px = conditional_probs(task, x)[0]
    pxp = conditional_probs(task, xp)[0]
    return float(px @ pxp)


def eta_pairs(task: SyntheticTask, X, Xp) -> np.ndarray:
    """Vectorized eta over row-aligned batches of pairs."""
    P = conditional_probs(task, X)
    Pp = conditional_probs(task, Xp)
    return np.einsum("ij,ij->i", P, Pp)


def pair_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most MC_BLOCK pairs covering range(n): the
    blocks every Monte Carlo stream and the all-pairs empirical risk
    evaluate their pairs in."""
    return [slice(lo, min(lo + MC_BLOCK, n)) for lo in range(0, n, MC_BLOCK)]


def hinge_metric_values(etas: np.ndarray) -> np.ndarray:
    """The hinge-loss true metric sgn(1 - 2*eta), in the theorem's form
    sgn(0) = 0 at eta = 1/2."""
    return np.sign(1.0 - 2.0 * np.asarray(etas, dtype=np.float64))


def true_metric_hinge(task: SyntheticTask, x, xp) -> float:
    return float(hinge_metric_values(np.array([eta(task, x, xp)]))[0])


def sample_dataset(task: SyntheticTask, n: int, seed: int | None = None):
    """n i.i.d. draws (x, y); y sampled from the categorical law P_x."""
    if n < 2:
        raise ParameterError(f"need n >= 2 samples, got {n}")
    rng = np.random.default_rng(
        seed if seed is not None else np.random.SeedSequence(task.seed, spawn_key=(0,)))
    X = sample_inputs(task, n, rng)
    P = conditional_probs(task, X)
    u = rng.random(n)
    y = (u[:, None] > np.cumsum(P, axis=1)).sum(axis=1)
    return X, y.astype(np.int64)


class LogLogFit(NamedTuple):
    slope: float
    intercept: float
    slope_se: float
    intercept_se: float
    residuals: np.ndarray
    r_squared: float
    dof: int


def loglog_fit(u, v) -> LogLogFit:
    """Ordinary least squares of log v on log u, with standard errors.
    Raises ExecutionError when log u has no spread (every u equal)."""
    x, y = np.log(u), np.log(v)
    if not np.ptp(x) > 0.0:
        raise ExecutionError("log-log fit needs at least two distinct u values")
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(x.size - 2, 1)
    sigma2 = float(resid @ resid) / dof
    sst = float(np.sum((y - ybar) ** 2))
    return LogLogFit(
        slope=slope,
        intercept=intercept,
        slope_se=math.sqrt(sigma2 / sxx),
        intercept_se=math.sqrt(sigma2 * (1.0 / x.size + xbar**2 / sxx)),
        residuals=resid,
        r_squared=1.0 - float(resid @ resid) / sst if sst > 0 else 1.0,
        dof=dof,
    )


def _t_two_tail(t: float, dof: int) -> float:
    """P(|T| > t) for t >= 0 and Student's T with integer dof: 1 minus the
    finite series of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even
    dof), with the leading 1 - sin(theta) and pi/2 - theta taken in closed
    form, so that dof 1 and 2 keep every digit far into the tail."""
    root = math.sqrt(dof)
    h = math.hypot(root, t)
    s, c = t / h, root / h  # sin and cos of theta = atan(t / sqrt(dof))
    c2 = c * c
    term, rest = 1.0, 0.0
    if dof % 2 == 0:
        for k in range(1, dof // 2):
            term *= c2 * (2 * k - 1) / (2 * k)
            rest += term
        return c2 / (1.0 + s) - s * rest  # 1 - s = c^2 / (1 + s)
    for k in range(1, (dof - 1) // 2):
        term *= c2 * (2 * k) / (2 * k + 1)
        rest += term
    lead = 0.0 if dof == 1 else s * c * (1.0 + rest)
    return (math.atan2(root, t) - lead) * (2.0 / math.pi)  # pi/2 - theta = atan2(root, t)


def t_quantile(p: float, dof: int) -> float:
    """The p-quantile of Student's t with integer dof >= 1.

    Bisects over floats to the first t >= 0 whose two-sided tail
    P(|T| > t) falls to 2 min(p, 1 - p), a target that floats hold exactly
    for every p in (0, 1), and gives it the sign of p - 1/2. Agrees with
    scipy.special.stdtrit within 1e-13 relative for dof 1..300 at p in
    {0.9, 0.95, 0.975, 0.99}. For dof >= 3 the series terms cancel in the
    far tails, so the error grows there: 4e-11 relative at p = 1e-6 and
    9e-6 at p = 1e-12 (dof <= 300).
    """
    try:
        dof = operator.index(dof)
    except TypeError:
        raise ParameterError(f"dof must be an integer, got {dof!r}") from None
    if dof < 1:
        raise ParameterError(f"dof must be >= 1, got {dof}")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    target = 2.0 * min(p, 1.0 - p)
    lo, hi = 0.0, 1.0
    while _t_two_tail(hi, dof) > target:  # stops at inf for dof 1, whose tail there is 0
        lo, hi = hi, 2.0 * hi
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return math.copysign(hi, p - 0.5)
        if _t_two_tail(mid, dof) > target:
            lo = mid
        else:
            hi = mid


@dataclass
class NoiseExponentFit:
    theta_hat: float
    c_theta_hat: float
    theta_se: float
    log_c_se: float
    theta_lower: float
    theta_upper: float
    c_theta_upper: float
    t_used: np.ndarray
    f_values: np.ndarray
    residuals: np.ndarray
    r_squared: float
    mc_pairs: int
    hard_margin: bool = False


def noise_t_grid(t_grid) -> np.ndarray:
    """The distinct values of t_grid, ascending: at least 4, all in (0, 1/2)."""
    t_grid = np.asarray(sorted(set(t_grid)), dtype=np.float64)
    if t_grid.size < 4 or not np.all((t_grid > 0.0) & (t_grid < 0.5)):
        raise ParameterError(f"t_grid needs >= 4 distinct values in (0, 1/2), "
                             f"got {t_grid.tolist()}")
    return t_grid


def check_noise_pairs(mc_pairs: int) -> None:
    """Raise ParameterError unless the noise fit gets 1e4 to MAX_STREAM_PAIRS pairs."""
    if mc_pairs < 10_000:
        raise ParameterError(f"noise_mc_pairs must be >= 1e4, got {mc_pairs}")
    if mc_pairs > MAX_STREAM_PAIRS:
        raise ParameterError(f"noise_mc_pairs must be <= {MAX_STREAM_PAIRS:,} "
                             f"(16 p + 8 bytes per pair), got {mc_pairs}")


def estimate_noise_exponent(task: SyntheticTask, mc_pairs: int, t_grid,
                            seed) -> NoiseExponentFit:
    """Fit Prob{|eta - 1/2| <= t} ~ C * t^theta by log-log least squares.

    The fit uses each distinct grid value once. A task whose margin mass
    never reaches the grid (all F(t) = 0) is reported with the hard-margin
    sentinel theta = inf. The pairs are drawn whole (16 p bytes each) and
    counted one block of MC_BLOCK pairs at a time, so the stream holds no
    other per-pair array.
    """
    t_grid = noise_t_grid(t_grid)
    check_noise_pairs(mc_pairs)

    rng = np.random.default_rng(seed)
    X, Xp = sample_inputs(task, mc_pairs, rng), sample_inputs(task, mc_pairs, rng)
    # counts[k] = #{t_grid[k-1] < |eta - 1/2| <= t_grid[k]}, exact integers
    counts = np.zeros(t_grid.size + 1, dtype=np.int64)
    for block in pair_blocks(mc_pairs):
        margins = np.abs(eta_pairs(task, X[block], Xp[block]) - 0.5)
        counts += np.bincount(np.searchsorted(t_grid, margins, side="left"),
                              minlength=t_grid.size + 1)
    F = np.cumsum(counts[:-1]) / mc_pairs

    usable = F > 0.0
    if not usable.any():
        return NoiseExponentFit(
            math.inf, math.nan, math.nan, math.nan, math.inf, math.inf, math.nan,
            t_grid, F, np.array([]), math.nan, mc_pairs, hard_margin=True,
        )
    if usable.sum() < 2:
        raise ExecutionError("too few grid points with positive margin mass to fit")

    fit = loglog_fit(t_grid[usable], F[usable])
    return NoiseExponentFit(
        theta_hat=fit.slope,
        c_theta_hat=math.exp(fit.intercept),
        theta_se=fit.slope_se,
        log_c_se=fit.intercept_se,
        theta_lower=fit.slope - 1.96 * fit.slope_se,
        theta_upper=fit.slope + 1.96 * fit.slope_se,
        c_theta_upper=math.exp(fit.intercept + 1.96 * fit.intercept_se),
        t_used=t_grid[usable],
        f_values=F,
        residuals=fit.residuals,
        r_squared=fit.r_squared,
        mc_pairs=mc_pairs,
    )


# ---------------------------------------------------------------------------
# built-in model families
# ---------------------------------------------------------------------------

def cosine_model(p: int, A: float, k: int, r: int) -> ConditionalModel:
    """Two labels, p1(x) = 1/2 + A * prod_j cos(2 pi k x_j).

    Validity of the smoothness budget is enforced analytically:
    every order-<=r partial derivative is bounded by A * (2 pi k)^r,
    which must not exceed 1/2.
    """
    if not 0.0 < A <= 0.5:
        raise ParameterError(f"amplitude A must lie in (0, 1/2], got {A}")
    if k < 1:
        raise ParameterError(f"frequency k must be >= 1, got {k}")
    if A * (2.0 * math.pi * k) ** r > 0.5 + 1e-12:
        raise ParameterError(
            f"A*(2 pi k)^r = {A * (2.0 * math.pi * k) ** r:.4g} exceeds 1/2; "
            "smoothness budget not certifiable"
        )

    def prob(X):
        p1 = 0.5 + A * np.cos(2.0 * math.pi * k * X).prod(axis=1)
        return np.column_stack([p1, 1.0 - p1])

    return ConditionalModel(2, prob, r, sobolev_budget=max(0.5 + A, A * (2 * math.pi * k) ** r),
                            name=f"cosine(A={A},k={k})")


def linear_model() -> ConditionalModel:
    """Two labels on p = 1: p1(x) = x.  Sobolev norm exactly 1 at r = 1."""

    def prob(X):
        p1 = X[:, 0]
        return np.column_stack([p1, 1.0 - p1])

    return ConditionalModel(2, prob, r=1, sobolev_budget=1.0, name="linear")


def three_label_ramp_model(beta: float = 0.8, rho: float = 0.05) -> ConditionalModel:
    """Three labels on p = 1 with P_x = [s(x), beta - s(x), 1 - beta].

    s(x) ramps linearly around the root s0 of 2 s^2 - 2 beta s + c = 0
    (c = beta^2 + (1-beta)^2 - 1/2), which centers eta at exactly 1/2, so
    eta - 1/2 = lambda (w + w') + 2 w w' with lambda = 2 s0 - beta and
    w uniform on [-rho, rho].  For rho << |lambda| the margin density is
    triangular, hence approximately uniform near zero (noise exponent ~ 1).
    """
    if not 0.5 < beta < 1.0:
        raise ParameterError(f"beta must lie in (1/2, 1), got {beta}")
    c = beta**2 + (1.0 - beta) ** 2 - 0.5
    disc = beta**2 - 2.0 * c
    if disc <= 0.0:
        raise ParameterError(f"beta={beta} admits no centering root")
    s0 = (beta - math.sqrt(disc)) / 2.0
    if not (rho > 0.0 and s0 - rho >= 0.0 and s0 + rho <= beta):
        raise ParameterError(f"ramp halfwidth rho={rho} leaves the simplex for beta={beta}")
    if 2.0 * rho > 1.0:
        raise ParameterError("ramp slope exceeds the smoothness budget")

    def prob(X):
        s = s0 + rho * (2.0 * X[:, 0] - 1.0)
        return np.column_stack([s, beta - s, np.full(X.shape[0], 1.0 - beta)])

    return ConditionalModel(3, prob, r=1, sobolev_budget=1.0,
                            name=f"three_label_ramp(beta={beta},rho={rho})")


def counterexample_model() -> ConditionalModel:
    """Three labels on p = 1 reproducing the self-similarity counterexample:
    P_x = [3/5, 1/5, 1/5] on [0, 1/2), [1, 0, 0] on [1/2, 1]."""
    va = np.array([0.6, 0.2, 0.2])
    vb = np.array([1.0, 0.0, 0.0])

    def prob(X):
        return np.where(X[:, :1] < 0.5, va, vb)

    return ConditionalModel(3, prob, r=1, sobolev_budget=1.0, name="counterexample")


def two_value_model(p1_left: float = 0.9, p1_right: float = 0.1) -> ConditionalModel:
    """Two labels on p = 1 with piecewise-constant p1 switching at x = 1/2."""
    for v in (p1_left, p1_right):
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"piece value {v} outside [0, 1]")

    def prob(X):
        p1 = np.where(X[:, 0] < 0.5, p1_left, p1_right)
        return np.column_stack([p1, 1.0 - p1])

    return ConditionalModel(2, prob, r=1, sobolev_budget=1.0,
                            name=f"two_value({p1_left},{p1_right})")


MODEL_FAMILIES = {
    "cosine": cosine_model,
    "linear": linear_model,
    "three_label_ramp": three_label_ramp_model,
    "counterexample": counterexample_model,
    "two_value": two_value_model,
}


def family_parameters(family: str) -> dict:
    """The keywords a built-in family's builder takes, each with its type,
    read from the builder's signature; p, the input dimension, is among them
    only for a family defined on every p."""
    if family not in MODEL_FAMILIES:
        raise ParameterError(f"unknown task family {family!r}; known: {sorted(MODEL_FAMILIES)}")
    return {name: param.annotation for name, param in
            inspect.signature(MODEL_FAMILIES[family], eval_str=True).parameters.items()}


def make_task(family: str, p: int = 1, seed: int = 0, **params) -> SyntheticTask:
    """Instantiate a built-in family by name. A parameter its builder does
    not take, or a missing one, is a ParameterError."""
    takes_p = "p" in family_parameters(family)
    if p < 1:
        raise ParameterError(f"input dimension p must be >= 1, got {p}")
    if not takes_p and p != 1:
        raise ParameterError(f"{family} family is defined on p = 1")
    try:
        model = MODEL_FAMILIES[family](**({"p": p} if takes_p else {}), **params)
    except TypeError as err:
        raise ParameterError(f"{family} family: {err}") from None
    spec = {"family": family, "p": p, "seed": seed, **params}
    return SyntheticTask(p=p, model=model, seed=seed, spec=spec)
