"""Convex pair losses and the true-metric minimizer laboratory.

For a loss l and conditional probability eta, the pointwise objective is
    Q(eta, t) = eta * l(t) + (1 - eta) * l(-t),
and the true metric value at a pair is the infimum of argmin_t Q(eta, t).

Q(eta, .) is convex, so that infimum is the smallest t whose right
derivative is >= 0; the oracle bisects for it over the exact-float lattice
t = k * 2**-40.  The kinks of the piecewise-linear losses (+-1, b +- 1 for
dyadic b) are lattice points, so flat argmin sets resolve exactly; strictly
convex minimizers are found to within half a lattice step.  The oracle
solves a whole array of problems at once, each of its 48 steps one numpy
call over all of them, and `metric-lab` asks each loss once: `tstar_batch`
answers every (eta, b) question of every check in one solve, and the checks
judge the answers they are handed.
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
    """A nonnegative, non-decreasing convex loss: evaluation, subgradient
    and the closed-form minimizer of Q(eta, .). validate() checks the three
    properties."""

    name: str
    eval: callable
    subgradient: callable
    analytic_tstar: callable

    def validate(self) -> None:
        """Spot-check nonnegativity, monotonicity, convexity and the
        subgradient on 2001 points of [-10, 10]."""
        t = np.linspace(-10.0, 10.0, 2001)
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


def _hinge_analytic(eta: float) -> float:
    """The infimum of the hinge argmin: -1 from eta = 1/2 on."""
    return 1.0 if eta < 0.5 else -1.0


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
    """The logistic sigmoid 1 / (1 + exp(-t)), overflow-safe and warning-free."""
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


def _check_eta(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=np.float64)
    if not np.all((0.0 <= eta) & (eta <= 1.0)):
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")
    return eta


def q_value(loss: LossFunction, eta, t):
    """Q(eta, t) = eta*l(t) + (1-eta)*l(-t), for eta and t broadcast together."""
    _check_eta(eta)
    t = np.asarray(t, dtype=np.float64)
    return eta * loss.eval(t) + (1.0 - eta) * loss.eval(-t)


def _grid_infimum_minimize(slope, size: int) -> np.ndarray:
    """For each of `size` problems, the smallest lattice point t in T_RANGE
    with slope(t + LATTICE_STEP/2) >= 0; slope maps an array of one point per
    problem to the problems' slopes there.

    Half a step to the right of a lattice point, the derivative of a convex
    objective is its right derivative there, when its kinks are lattice
    points.  Where the result is not inside T_RANGE it is -inf (at or below
    the lower bound) or +inf (beyond the upper bound).
    """
    k_lo, k_hi = math.ceil(T_RANGE[0] / LATTICE_STEP), math.floor(T_RANGE[1] / LATTICE_STEP)
    lo, hi = np.full(size, k_lo, dtype=np.int64), np.full(size, k_hi, dtype=np.int64)

    def rising(k):
        return slope((k + 0.5) * LATTICE_STEP) >= 0.0

    below, above = rising(lo), ~rising(hi)
    # invariant where neither: slope < 0 at lo, >= 0 at hi.  A halving takes
    # a gap of at most 2**j to at most 2**(j-1), so as many halvings as the
    # first gap has bits bring every gap to 1, where a halving changes nothing.
    for _ in range((k_hi - k_lo).bit_length()):
        mid = (lo + hi) // 2
        up = rising(mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return np.where(below, -np.inf, np.where(above, np.inf, hi * LATTICE_STEP))


def tstar_batch(loss: LossFunction, eta, b=0.0) -> np.ndarray:
    """Infimum of argmin_t eta*l(t - b) + (1 - eta)*l(b - t) for every entry
    of eta and b broadcast together, in one batched solve; -inf/+inf where it
    lies outside T_RANGE.  At b = 0 the slope is Q(eta, .)'s bit for bit, and
    each problem's answer is the same whatever else the batch holds."""
    eta, b = np.broadcast_arrays(_check_eta(eta), np.asarray(b, dtype=np.float64))
    e, s = eta.ravel(), b.ravel()
    return _grid_infimum_minimize(
        lambda t: e * loss.subgradient(t - s) - (1.0 - e) * loss.subgradient(s - t),
        e.size).reshape(eta.shape)


def _answers(t, shape) -> np.ndarray:
    """t* values as float64, once they have the shape of their questions."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != shape:
        raise ParameterError(f"expected t* values of shape {shape}, got {t.shape}")
    return t


def _inside(t: np.ndarray) -> np.ndarray:
    """t, once every entry lies inside T_RANGE; RangeTooSmallError otherwise."""
    if np.any(t == -np.inf):
        raise RangeTooSmallError(f"minimizer at or below the lower bound {T_RANGE[0]}",
                                 side="lower")
    if np.any(t == np.inf):
        raise RangeTooSmallError(f"minimizer beyond the upper bound {T_RANGE[1]}", side="upper")
    return t


def tstar_analytic(loss: LossFunction, eta: float) -> float:
    """The loss's closed-form minimizer at eta."""
    _check_eta(eta)
    return loss.analytic_tstar(eta)


@dataclass
class MinimizerProfile:
    eta_grid: np.ndarray
    tstar: np.ndarray
    q_min: np.ndarray
    analytic: np.ndarray


def check_monotone(loss: LossFunction, eta_grid, tstar) -> MinimizerProfile:
    """Profile t* over a sorted eta grid, given its t* values, and assert it
    never increases by more than ORACLE_SLACK."""
    eta_grid = np.asarray(eta_grid, dtype=np.float64)
    if np.any(np.diff(eta_grid) < 0.0):
        raise ParameterError("eta_grid must be sorted ascending")
    tstars = _inside(_answers(tstar, _check_eta(eta_grid).shape))
    analytic = [loss.analytic_tstar(eta) for eta in eta_grid.tolist()]
    rises = np.nonzero(np.diff(tstars) > ORACLE_SLACK)[0]
    if rises.size:
        raise PropertyViolation(
            f"t* increases for loss {loss.name} at eta indices {rises.tolist()}"
        )
    return MinimizerProfile(eta_grid, tstars, q_value(loss, eta_grid, tstars), np.array(analytic))


def _check_simplex(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] < 2:
        raise ParameterError(f"{what} must be a probability vector or a stack of them")
    if np.any(v < -1e-12) or np.any(np.abs(v.sum(axis=-1) - 1.0) > 1e-9):
        raise ParameterError(f"{what} is not on the probability simplex")
    return v


@dataclass
class SelfDistanceReport:
    """One entry per pair checked (scalars for a single pair)."""

    eta_cross: np.ndarray
    eta_self_x: np.ndarray
    d_cross: np.ndarray
    d_self_x: np.ndarray
    precondition_holds: np.ndarray
    conclusion_holds: np.ndarray

    @property
    def is_counterexample(self) -> np.ndarray:
        return self.precondition_holds & ~self.conclusion_holds


def self_distance_etas(p_x, p_xp) -> np.ndarray:
    """Rows eta(x,x'), eta(x,x), eta(x',x') for one pair of label vectors or
    for two stacks of them (row i with row i)."""
    p_x = _check_simplex(p_x, "P_x")
    p_xp = _check_simplex(p_xp, "P_x'")
    if p_x.shape != p_xp.shape:
        raise ParameterError(f"P_x and P_x' differ in shape: {p_x.shape} vs {p_xp.shape}")

    def dot(u, v):  # row by row through `@`, rounded as a single pair's dot product
        return (u[..., None, :] @ v[..., :, None])[..., 0, 0]

    return np.stack([dot(p_x, p_xp), dot(p_x, p_x), dot(p_xp, p_xp)])


def check_self_distance(etas, tstar) -> SelfDistanceReport:
    """Test whether self-distances stay below the cross distance, given
    self_distance_etas' rows and their t* values.

    The guarantee only applies when eta(x,x') <= min(eta(x,x), eta(x',x'));
    outside that precondition the report records whether the conclusion
    fails too (counterexample detection).  Deterministic label vectors give
    eta = 1, whose infimum minimizer is -inf; the sentinel keeps the
    comparisons meaningful.
    """
    etas = np.asarray(etas, dtype=np.float64)
    if etas.ndim not in (1, 2) or etas.shape[0] != 3:
        raise ParameterError(f"etas must stack 3 rows of self_distance_etas, got {etas.shape}")
    eta_cross, eta_x, eta_xp = etas
    d_cross, d_x, d_xp = _answers(tstar, etas.shape)
    pre = eta_cross <= np.minimum(eta_x, eta_xp) + 1e-12
    concl = np.maximum(d_x, d_xp) <= d_cross + ORACLE_SLACK
    return SelfDistanceReport(eta_cross, eta_x, d_cross, d_x, pre, concl)


@dataclass
class BiasShiftReport:
    """One entry per (eta, b) checked, in their broadcast shape."""

    shifted_tstar: np.ndarray
    deviation: np.ndarray
    passed: np.ndarray


def check_bias_shift(eta, b, shifted, base) -> BiasShiftReport:
    """Verify argmin_t eta*l(t-b) + (1-eta)*l(b-t) = b + t*(eta) to within
    ORACLE_SLACK for eta and b broadcast together, given t* at (eta, b) in
    their broadcast shape (`shifted`) and at (eta, 0) in eta's (`base`)."""
    base_shape = np.shape(eta)
    eta, b = np.broadcast_arrays(np.asarray(eta, dtype=np.float64),
                                 np.asarray(b, dtype=np.float64))
    if not np.all((0.0 < eta) & (eta < 1.0)):
        raise ParameterError(f"eta must lie in (0, 1), got {eta}")
    got = _inside(_answers(shifted, eta.shape))
    expected = b + _inside(_answers(base, base_shape))
    dev = np.abs(got - expected)
    return BiasShiftReport(got, dev, dev <= ORACLE_SLACK)


def continuous_label_degeneracy(tstar_at_zero) -> float:
    """The constant the true metric collapses to under continuous labels:
    t* at eta = 0, the infimum of argmin_t l(-t); +inf when that argmin is
    empty (strictly decreasing l(-t), e.g. the exponential loss)."""
    return float(_answers(tstar_at_zero, ()))
