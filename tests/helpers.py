"""Fixtures the tests build their exact cases from; the program never calls
them: constant label laws and sub-networks, atom marginals, the true metric
as a pair function, reverse-mode gradients of a whole ReLU network, a
one-problem-at-a-time reference for the batched t* oracle, the
metric-lab checks run on one loss with their own solves, and the
benchmark's modules loaded in memory."""

from __future__ import annotations

import math
import sys
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metriclab.errors import InputShapeError, ParameterError, RangeTooSmallError
from metriclab.losses import (
    LATTICE_STEP,
    T_RANGE,
    check_bias_shift,
    check_monotone,
    check_self_distance,
    self_distance_etas,
    tstar_batch,
)
from metriclab.relu_net import DenseLayer, ReluNetwork, _as_batch, _backprop, _forward_trace
from metriclab.synthetic import ConditionalModel, eta_pairs, hinge_metric_values

_SIMPLEX_TOL = 1e-12
BENCH = Path(__file__).resolve().parents[1] / "bench"


def constant_model(p_vec) -> ConditionalModel:
    """Location-independent P_x; useful for exact-value checks."""
    p_vec = np.asarray(p_vec, dtype=np.float64)
    if np.any(p_vec < 0.0) or abs(float(p_vec.sum()) - 1.0) > _SIMPLEX_TOL:
        raise ParameterError("constant model needs a simplex vector")

    def prob(X):
        return np.tile(p_vec, (X.shape[0], 1))

    return ConditionalModel(max(2, p_vec.size), prob, r=1, sobolev_budget=1.0,
                            name="constant")


def atom_marginal(atoms, weights=None):
    """Discrete marginal over fixed input atoms (rows of `atoms`)."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
    if weights is None:
        weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])

    def sampler(rng, n):
        idx = rng.choice(atoms.shape[0], size=n, p=weights)
        return atoms[idx]

    return sampler


def true_metric_fn(task):
    """The true metric as a batched pair function, for risk evaluation."""

    def metric(X, Xp):
        return hinge_metric_values(eta_pairs(task, X, Xp))

    return metric


def constant_subnet(p: int, value: float, depth: int = 1) -> ReluNetwork:
    """Sub-network that outputs a constant regardless of the input."""
    layers = [DenseLayer(np.zeros((1, p)), np.array([float(value)]))]
    for _ in range(depth - 1):
        layers.append(DenseLayer(np.array([[1.0]]), np.array([0.0])))
    return ReluNetwork(layers, input_dim=p)


@dataclass
class GradientRecord:
    """Reverse-mode derivatives of forward() w.r.t. parameters and input."""

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_grad: np.ndarray


def backward(net: ReluNetwork, x, upstream) -> GradientRecord:
    """Reverse-mode gradients with the subgradient convention sigma'(0) = 0.

    ``upstream`` is d(objective)/d(output); batched inputs get batched
    upstreams and the parameter gradients are summed over the batch.
    """
    xb, squeeze = _as_batch(x, net.input_dim)
    ub, usq = _as_batch(upstream, net.output_dim, "upstream")
    if squeeze != usq or xb.shape[0] != ub.shape[0]:
        raise InputShapeError("input and upstream batch shapes disagree")
    acts = _forward_trace(net, xb.T)
    wgrads, bgrads, ginput = _backprop(net, acts, ub.T)
    return GradientRecord(wgrads, bgrads, ginput[:, 0] if squeeze else ginput.T)


def scalar_grid_infimum_minimize(slope) -> float:
    """Smallest lattice point t in T_RANGE with slope(t + LATTICE_STEP/2) >= 0,
    for one problem, by a bisection that stops at gap 1; slope takes and
    returns scalars.  Raises RangeTooSmallError when the result is not
    inside T_RANGE."""
    t_lo, t_hi = T_RANGE
    lo = math.ceil(t_lo / LATTICE_STEP)
    hi = math.floor(t_hi / LATTICE_STEP)

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


def monotone(loss, eta_grid):
    """check_monotone on the loss's t* over eta_grid."""
    return check_monotone(loss, eta_grid, tstar_batch(loss, eta_grid))


def bias_shift(loss, eta, b):
    """check_bias_shift on the loss's t* at (eta, b) and at (eta, 0)."""
    return check_bias_shift(eta, b, tstar_batch(loss, eta, b), tstar_batch(loss, eta))


def self_distance(loss, p_x, p_xp):
    """check_self_distance on the loss's t* at the pairs' three etas."""
    etas = self_distance_etas(p_x, p_xp)
    return check_self_distance(etas, tstar_batch(loss, etas))


def bench_module(name: str) -> types.ModuleType:
    """bench/<name>.py, read and executed in memory, so nothing is written
    under bench/ (no bytecode cache). It is registered in sys.modules, where
    dataclasses look its globals up."""
    path = BENCH / f"{name}.py"
    module = sys.modules[f"bench_{name}"] = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module
