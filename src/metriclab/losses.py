"""Convex pair losses and the true-metric minimizer laboratory.

For a loss l and conditional probability eta, the pointwise objective is
    Q(eta, t) = eta * l(t) + (1 - eta) * l(-t),
and the true metric value at a pair is the infimum of argmin_t Q(eta, t).

Q(eta, .) is convex, so that infimum is the smallest t whose right
derivative is >= 0; the oracle bisects for it over the exact-float lattice
t = k * 2**-40.  The kinks of the piecewise-linear losses (+-1, b +- 1 for
dyadic b) are lattice points, so flat argmin sets resolve exactly; strictly
convex minimizers are found to within half a lattice step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PropertyViolation, RangeTooSmallError

T_RANGE = (-20.0, 20.0)
LATTICE_STEP = 2.0 ** -40
ORACLE_SLACK = 2e-6


@dataclass
class LossFunction:
    """Loss with evaluation, subgradient and the Assumption-style flags."""

    name: str
    eval: callable
    subgradient: callable
    convex: bool = True
    non_decreasing: bool = True
    non_negative: bool = True
    analytic_tstar: callable | None = None

    def __post_init__(self):
        if not (self.convex and self.non_decreasing and self.non_negative):
            raise ParameterError(f"loss {self.name}: all three loss flags must be true")

    def validate(self, probe_grid=None) -> None:
        """Spot-check nonnegativity, monotonicity, convexity and the subgradient."""
        t = np.linspace(-10.0, 10.0, 2001) if probe_grid is None else np.asarray(probe_grid)
        v = self.eval(t)
        if np.any(v < -1e-12):
            raise PropertyViolation(f"loss {self.name} is negative on the probe grid")
        if np.any(np.diff(v) < -1e-9):
            raise PropertyViolation(f"loss {self.name} is decreasing on the probe grid")
        mid = self.eval((t[:-1] + t[1:]) / 2.0)
        if np.any(mid > (v[:-1] + v[1:]) / 2.0 + 1e-9):
            raise PropertyViolation(f"loss {self.name} fails midpoint convexity")
        g = np.broadcast_to(self.subgradient(t), t.shape)
        secant = np.diff(v) / np.diff(t)
        tol = 1e-9 * np.maximum(1.0, np.abs(secant))
        if np.any(np.diff(g) < -tol):
            raise PropertyViolation(f"loss {self.name}: subgradient decreases on the probe grid")
        if np.any(g[:-1] > secant + tol) or np.any(secant > g[1:] + tol):
            raise PropertyViolation(f"loss {self.name}: subgradient is not bracketed "
                                    "by the secant slopes")


def _hinge_analytic(eta: float, convention: str = "infimum") -> float:
    if eta < 0.5:
        return 1.0
    if eta > 0.5:
        return -1.0
    return -1.0 if convention == "infimum" else 0.0


def hinge_loss() -> LossFunction:
    return LossFunction(
        name="hinge",
        eval=lambda t: np.maximum(1.0 + t, 0.0),
        subgradient=lambda t: np.where(1.0 + t > 0.0, 1.0, 0.0),
        analytic_tstar=_hinge_analytic,
    )


def modified_least_squares_loss() -> LossFunction:
    return LossFunction(
        name="modified_least_squares",
        eval=lambda t: np.maximum(1.0 + t, 0.0) ** 2,
        subgradient=lambda t: 2.0 * np.maximum(1.0 + t, 0.0),
        analytic_tstar=lambda eta: 1.0 - 2.0 * eta,
    )


def _log_ratio(eta: float) -> float:
    if eta <= 0.0:
        return math.inf
    if eta >= 1.0:
        return -math.inf
    return math.log((1.0 - eta) / eta)


def _expit(t):
    """The logistic sigmoid 1 / (1 + exp(-t)), overflow-safe and warning-free:
    math.exp on scalars (the oracle's case), numpy on arrays."""
    if np.ndim(t) == 0:
        try:
            return 1.0 / (1.0 + math.exp(-float(t)))
        except OverflowError:
            return 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=np.float64)))


def logistic_loss() -> LossFunction:
    return LossFunction(
        name="logistic",
        eval=lambda t: np.logaddexp(0.0, t),
        subgradient=_expit,
        analytic_tstar=_log_ratio,
    )


def exponential_loss() -> LossFunction:
    return LossFunction(
        name="exponential",
        eval=np.exp,
        subgradient=np.exp,
        analytic_tstar=lambda eta: 0.5 * _log_ratio(eta),
    )


LOSSES = {
    "hinge": hinge_loss,
    "modified_least_squares": modified_least_squares_loss,
    "logistic": logistic_loss,
    "exponential": exponential_loss,
}


def get_loss(name: str) -> LossFunction:
    if name not in LOSSES:
        raise ParameterError(f"unknown loss {name!r}; registered: {sorted(LOSSES)}")
    return LOSSES[name]()


def q_value(loss: LossFunction, eta: float, t):
    """Q(eta, t) = eta*l(t) + (1-eta)*l(-t)."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")
    t = np.asarray(t, dtype=np.float64)
    return eta * loss.eval(t) + (1.0 - eta) * loss.eval(-t)


def _grid_infimum_minimize(slope, t_range=T_RANGE) -> float:
    """Smallest lattice point t in t_range with slope(t + LATTICE_STEP/2) >= 0.

    Half a step to the right of a lattice point, the derivative of a convex
    objective is its right derivative there, when its kinks are lattice
    points.  Raises RangeTooSmallError when the result is not inside t_range.
    """
    t_lo, t_hi = t_range
    lo = math.ceil(t_lo / LATTICE_STEP)
    hi = math.floor(t_hi / LATTICE_STEP)
    if hi <= lo:
        raise ParameterError(f"invalid search range {t_range}")

    def rising(k: int) -> bool:
        return bool(slope((k + 0.5) * LATTICE_STEP) >= 0.0)

    if rising(lo):
        raise RangeTooSmallError(f"minimizer at or below the lower bound {t_lo}", side="lower")
    if not rising(hi):
        raise RangeTooSmallError(f"minimizer beyond the upper bound {t_hi}", side="upper")
    # invariant: slope < 0 at lo, >= 0 at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rising(mid):
            hi = mid
        else:
            lo = mid
    return hi * LATTICE_STEP


def tstar_oracle(loss: LossFunction, eta: float, t_range=T_RANGE) -> float:
    """Infimum of argmin_t Q(eta, t), located by bisection on its slope."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")
    return _grid_infimum_minimize(
        lambda t: eta * loss.subgradient(t) - (1.0 - eta) * loss.subgradient(-t), t_range)


def tstar_analytic(loss: LossFunction, eta: float, hinge_convention: str = "infimum"):
    """Closed-form minimizer where one is registered; None otherwise."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")
    if loss.analytic_tstar is None:
        return None
    if loss.name == "hinge":
        return loss.analytic_tstar(eta, hinge_convention)
    return loss.analytic_tstar(eta)


@dataclass
class MinimizerProfile:
    eta_grid: np.ndarray
    tstar: np.ndarray
    q_min: np.ndarray
    analytic: np.ndarray  # NaN where no closed form
    t_range: tuple
    loss_name: str = ""


def check_monotone(loss: LossFunction, eta_grid, t_range=T_RANGE,
                   slack: float = ORACLE_SLACK) -> MinimizerProfile:
    """Profile t*(eta) over a sorted grid and assert it never increases."""
    eta_grid = np.asarray(eta_grid, dtype=np.float64)
    if np.any(np.diff(eta_grid) < 0.0):
        raise ParameterError("eta_grid must be sorted ascending")
    tstars, qmins, analytic = [], [], []
    for eta in eta_grid:
        t = tstar_oracle(loss, float(eta), t_range)
        tstars.append(t)
        qmins.append(float(q_value(loss, float(eta), t)))
        a = tstar_analytic(loss, float(eta))
        analytic.append(np.nan if a is None else a)
    tstars = np.array(tstars)
    rises = np.nonzero(np.diff(tstars) > slack)[0]
    if rises.size:
        raise PropertyViolation(
            f"t* increases for loss {loss.name} at eta indices {rises.tolist()}"
        )
    return MinimizerProfile(
        eta_grid, tstars, np.array(qmins), np.array(analytic), t_range, loss.name
    )


def _check_simplex(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ParameterError(f"{what} must be a probability vector")
    if np.any(v < -1e-12) or abs(float(v.sum()) - 1.0) > 1e-9:
        raise ParameterError(f"{what} is not on the probability simplex")
    return v


@dataclass
class SelfDistanceReport:
    eta_cross: float
    eta_self_x: float
    eta_self_xp: float
    d_cross: float
    d_self_x: float
    d_self_xp: float
    precondition_holds: bool
    conclusion_holds: bool

    @property
    def is_counterexample(self) -> bool:
        return self.precondition_holds and not self.conclusion_holds


def _tstar_or_sentinel(loss: LossFunction, eta: float, t_range=T_RANGE) -> float:
    """t*(eta), with argmin sets beyond t_range mapped to signed infinity."""
    try:
        return tstar_oracle(loss, eta, t_range)
    except RangeTooSmallError as err:
        return -math.inf if err.side == "lower" else math.inf


def check_self_distance(loss: LossFunction, p_x, p_xp) -> SelfDistanceReport:
    """Test whether self-distances stay below the cross distance.

    The guarantee only applies when eta(x,x') <= min(eta(x,x), eta(x',x'));
    outside that precondition the report records whether the conclusion
    fails too (counterexample detection).  Deterministic label vectors give
    eta = 1, whose infimum minimizer is -inf; the sentinel keeps the
    comparisons meaningful.
    """
    p_x = _check_simplex(p_x, "P_x")
    p_xp = _check_simplex(p_xp, "P_x'")
    eta_cross = float(p_x @ p_xp)
    eta_x = float(p_x @ p_x)
    eta_xp = float(p_xp @ p_xp)
    d_cross = _tstar_or_sentinel(loss, eta_cross)
    d_x = _tstar_or_sentinel(loss, eta_x)
    d_xp = _tstar_or_sentinel(loss, eta_xp)
    pre = eta_cross <= min(eta_x, eta_xp) + 1e-12
    concl = max(d_x, d_xp) <= d_cross + ORACLE_SLACK
    return SelfDistanceReport(eta_cross, eta_x, eta_xp, d_cross, d_x, d_xp, pre, concl)


@dataclass
class BiasShiftReport:
    eta: float
    b: float
    shifted_tstar: float
    expected: float
    deviation: float
    passed: bool


def check_bias_shift(loss: LossFunction, eta: float, b: float,
                     t_range=T_RANGE, tol: float = ORACLE_SLACK) -> BiasShiftReport:
    """Verify argmin_t eta*l(t-b) + (1-eta)*l(b-t) = b + t*(eta)."""
    if not 0.0 < eta < 1.0:
        raise ParameterError(f"eta must lie in (0, 1), got {eta}")

    def shifted_slope(t):
        return eta * loss.subgradient(t - b) - (1.0 - eta) * loss.subgradient(b - t)

    got = _grid_infimum_minimize(shifted_slope, t_range)
    expected = b + tstar_oracle(loss, eta, t_range)
    dev = abs(got - expected)
    return BiasShiftReport(eta, b, got, expected, dev, dev <= tol)


def continuous_label_degeneracy(loss: LossFunction, t_range=T_RANGE) -> float:
    """The constant the true metric collapses to under continuous labels.

    Equals the infimum of argmin_t l(-t); +inf when that argmin is empty
    (strictly decreasing l(-t), e.g. the exponential loss).
    """
    return _tstar_or_sentinel(loss, 0.0, t_range)
