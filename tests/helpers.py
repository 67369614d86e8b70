"""Fixtures the tests build their exact cases from; the program never calls
them: constant label laws and sub-networks, atom marginals, the true metric
as a pair function, reverse-mode gradients of a whole ReLU network, the
one-network-at-a-time trace, pair passes and trainer that the stacked ones
must equal bit for bit, a one-problem-at-a-time reference for the batched
t* oracle, the metric-lab checks run on one loss with their own solves, and
the benchmark's modules loaded in memory."""

from __future__ import annotations

import math
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from metriclab.erm import TrainReport, _sample_ordered_pairs, epoch_pairs, triu_pairs
from metriclab.errors import DivergenceError, InputShapeError, ParameterError, RangeTooSmallError
from metriclab.gadgets import PRODUCT_DOMAIN, build_sign_approx
from metriclab.losses import (
    LATTICE_STEP,
    T_RANGE,
    check_bias_shift,
    check_monotone,
    check_self_distance,
    self_distance_etas,
    tstar_batch,
)
from metriclab.relu_net import (
    DenseLayer,
    ReluNetwork,
    _as_batch,
    _as_stack,
    _stack_backprop,
    _stack_trace,
    _unit_cube_batch,
)
from metriclab.structured import _select_points
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
    weights, biases = _as_stack(net)
    wgrads, bgrads = [np.empty_like(w) for w in weights], [np.empty_like(b) for b in biases]
    acts = _stack_trace(weights, biases, xb.T)
    ginput = _stack_backprop(weights, acts, ub.T[None], (wgrads, bgrads), input_grad=True)[0]
    return GradientRecord([w[0] for w in wgrads], [b[0] for b in bgrads],
                          ginput[:, 0] if squeeze else ginput.T)


# ---------------------------------------------------------------------------
# one network at a time: the trace, pair passes and trainer as they were
# before the sub-networks were stacked, kept verbatim as the reference the
# stacked ones must equal bit for bit
# ---------------------------------------------------------------------------

def forward_trace(net: ReluNetwork, h: np.ndarray) -> list[np.ndarray]:
    """Post-activation values per layer, index 0 being the input.

    Activations are feature-major, shape (width, batch), so the bias add and
    the batch sums of the reverse pass run over contiguous rows.  Each layer
    is an explicit multiply-accumulate over its input rows, not a matmul:
    elementwise operations round every column alike, so a column's values
    do not depend on its position in the batch or on the memory layout,
    while a BLAS matmul rounds the last columns of a block differently.
    """
    acts = [h]
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        w = layer.weights
        x, h = h, w[:, :1] * h[0]
        for c in range(1, layer.in_width):
            h += w[:, c:c + 1] * x[c]
        h += layer.bias[:, None]
        if k < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def backprop(net: ReluNetwork, acts: list[np.ndarray], upstream: np.ndarray):
    """Reverse pass over a feature-major trace; upstream shape (out, batch).

    Returns the batch-summed weight and bias gradients and the input
    gradient, shape (input_dim, batch).
    """
    g = upstream
    wgrads: list = [None] * len(net.layers)
    bgrads: list = [None] * len(net.layers)
    last = len(net.layers) - 1
    for k in range(last, -1, -1):
        if k < last:
            g = g * (acts[k + 1] > 0.0)  # sigma'(0) := 0
        wgrads[k] = g @ acts[k].T
        bgrads[k] = g.sum(axis=1)
        g = net.layers[k].weights.T @ g
    return wgrads, bgrads, g


@dataclass
class ReferenceTrace:
    index: np.ndarray
    subnet_traces: list  # per subnet: its layers at each point, raw h_i last
    slopes: np.ndarray
    t_pre: np.ndarray
    sign_slope: np.ndarray
    d: np.ndarray


def reference_pair_forward(net, i, j, points) -> ReferenceTrace:
    """pair_forward, one sub-network at a time."""
    points, index = _select_points(points, i, j)
    batch = index.size // 2
    ix, ixp = index[:batch], index[batch:]

    subnet_traces, clamped, sums = [], [], []
    for h in net.subnets:
        trace = forward_trace(h, points)
        v = trace[-1][0]
        c = np.clip(v, *PRODUCT_DOMAIN) if net.clamp_subnet_output else v
        subnet_traces.append(trace)
        clamped.append(c)
        sums.append(c[ix] + c[ixp])
    sq, slopes = net.product.table(np.concatenate(clamped + sums))

    k = points.shape[1]
    sq_sums = sq[net.m * k:].reshape(net.m, batch)
    phi_sum = np.zeros(batch)
    for r in range(net.m):
        sq_c = sq[r * k:(r + 1) * k]
        phi_sum += sq_sums[r] - (sq_c[ix] + sq_c[ixp])

    t_pre = 1.0 - 2.0 * phi_sum
    d, sign_slope = net.sign.value_and_slope(t_pre)
    return ReferenceTrace(index, subnet_traces, slopes, t_pre, sign_slope, d)


def reference_pair_backward(net, trace: ReferenceTrace, upstream: np.ndarray):
    """pair_backward, one sub-network at a time: per sub-network
    (weight_grads, bias_grads)."""
    m, batch, index = net.m, trace.d.size, trace.index
    k = trace.subnet_traces[0][0].shape[1]
    g_t = np.asarray(upstream, dtype=np.float64) * trace.sign_slope
    g_phi = -2.0 * g_t  # t = 1 - 2 * sum_i phi_i
    # phi_i = S(s_i) - (S(c_i)[x] + S(c_i)[x']): both sides of a pair carry -g_phi
    g_sq_c = -np.bincount(index, weights=np.concatenate([g_phi, g_phi]), minlength=k)
    g_sq = np.concatenate([g_sq_c] * m + [g_phi] * m)
    g_u = g_sq * trace.slopes
    # s_i = c_i[x] + c_i[x']: scatter each pair's sum gradient onto both sides' points
    g_s = g_u[m * k:].reshape(m, batch)
    g_c = g_u[:m * k] + np.bincount(
        (index[None, :] + (np.arange(m) * k)[:, None]).ravel(),
        weights=np.concatenate([g_s, g_s], axis=1).ravel(), minlength=m * k)

    grads = []
    for i, h in enumerate(net.subnets):
        g = g_c[i * k:(i + 1) * k]
        if net.clamp_subnet_output:
            v = trace.subnet_traces[i][-1][0]
            g = g * ((v > PRODUCT_DOMAIN[0]) & (v < PRODUCT_DOMAIN[1]))
        wg, bg, _ = backprop(h, trace.subnet_traces[i], g[None, :])
        grads.append((wg, bg))
    return grads


def per_subnet(grads):
    """pair_backward's per-layer (weight_grads, bias_grads) as one
    (weight_grads, bias_grads) per sub-network, as reference_pair_backward
    gives them."""
    weight_grads, bias_grads = grads
    return [([w[i] for w in weight_grads], [b[i] for b in bias_grads])
            for i in range(len(bias_grads[0]))]


def _reference_epoch_batches(config, rng, n: int):
    k = epoch_pairs(config, n)
    if config.pair_strategy == "uniform-subsample":
        i_stream, j_stream = _sample_ordered_pairs(rng, n, k)
        for lo in range(0, k, config.pair_batch):
            yield i_stream[lo:lo + config.pair_batch], j_stream[lo:lo + config.pair_batch]
        return
    order = rng.permutation(k)
    for lo in range(0, order.size, config.pair_batch):
        yield triu_pairs(n, order[lo:lo + config.pair_batch])


def reference_train(net, data, config, loss) -> tuple[Any, TrainReport]:
    """erm.train, one sub-network at a time: a frozen copy of the trainer
    that looped over the sub-networks for the gradient norm and the update."""
    X, y = data
    X = _unit_cube_batch(X, net.input_dim)
    y = np.asarray(y)
    n = X.shape[0]
    data = np.ascontiguousarray(X.T)

    work = net.copy()
    target_a = net.sign.a
    rng = np.random.default_rng(config.seed)

    risks, gnorms, actives, a_vals = [], [], [], []
    best = (math.inf, None, -1)
    anneal = config.a_anneal
    for epoch in range(config.epochs):
        a_now = target_a if anneal is None else max(
            target_a, anneal["start"] * anneal["decay"]**epoch)
        if a_now != work.sign.a:
            work.sign = build_sign_approx(a_now)
        lr = config.lr_init * config.lr_decay**epoch

        batch_risks, batch_sizes, batch_gnorms, batch_active = [], [], [], []
        for iu, ju in _reference_epoch_batches(config, rng, n):
            trace = reference_pair_forward(work, iu, ju, data)
            tau = np.where(y[iu] == y[ju], 1.0, -1.0)
            margin = tau * trace.d
            obj = float(loss.eval(margin).mean())
            if not math.isfinite(obj):
                raise DivergenceError(f"non-finite objective at epoch {epoch}", epoch=epoch)
            upstream = tau * np.asarray(loss.subgradient(margin)) / iu.size
            grads = reference_pair_backward(work, trace, upstream)
            gsq = 0.0
            for wg, bg in grads:
                for gw, gb in zip(wg, bg):
                    gsq += float((gw * gw).sum() + (gb * gb).sum())
            if not math.isfinite(gsq) and not all(
                    np.isfinite(g).all() for wg, bg in grads for g in wg + bg):
                raise DivergenceError(f"non-finite gradient at epoch {epoch}", epoch=epoch)
            if lr != 0.0:
                for h, (wg, bg) in zip(work.subnets, grads):
                    for layer, gw, gb in zip(h.layers, wg, bg):
                        layer.weights -= lr * gw
                        layer.bias -= lr * gb
            batch_risks.append(obj)
            batch_sizes.append(iu.size)
            batch_gnorms.append(math.sqrt(gsq))
            batch_active.append(np.count_nonzero(trace.sign_slope) / iu.size)

        risks.append(float(np.average(batch_risks, weights=batch_sizes)))
        gnorms.append(float(np.mean(batch_gnorms)))
        actives.append(float(np.average(batch_active, weights=batch_sizes)))
        a_vals.append(a_now)
        if risks[-1] < best[0]:
            best = (risks[-1], work.copy(), epoch)

    trained = best[1]
    trained.sign = net.sign
    report = TrainReport(
        risk=np.array(risks),
        grad_norm=np.array(gnorms),
        active_fraction=np.array(actives),
        a_values=np.array(a_vals),
        final_risk=best[0],
        best_epoch=best[2],
    )
    return trained, report


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
