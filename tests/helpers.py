"""Fixtures the tests build their exact cases from; the program never calls
them: constant label laws and sub-networks, atom marginals, the true metric
as a pair function, and reverse-mode gradients of a whole ReLU network."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from metriclab.errors import InputShapeError, ParameterError
from metriclab.relu_net import DenseLayer, ReluNetwork, _as_batch, _backprop, _forward_trace
from metriclab.synthetic import ConditionalModel, eta_pairs, hinge_metric_values

_SIMPLEX_TOL = 1e-12


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


def true_metric_fn(task, convention: str = "theorem"):
    """The true metric as a batched pair function, for risk evaluation."""

    def metric(X, Xp):
        return hinge_metric_values(eta_pairs(task, X, Xp), convention)

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
