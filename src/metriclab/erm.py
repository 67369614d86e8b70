"""Subgradient training of the sub-networks on the pairwise empirical risk.

The empirical objective is the U-statistic
    E_S(d) = 1/(n(n-1)) * sum_{i != j} loss(tau(y_i, y_j) * d(x_i, x_j));
the metric and the reducing function are both symmetric, so each unordered
pair carries both ordered terms (risk.empirical_risk evaluates it).

Training is plain subgradient descent on the sub-network parameters only;
the product and sign gadgets stay fixed, except that an optional anneal
widens the sign band a early, so gradients stay alive where the output
would saturate at +-1.  It returns a copy of the best iterate (lowest
epoch risk): a trained proxy for the empirical minimizer, not a certified one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputShapeError, ParameterError
from .gadgets import build_sign_approx
from .losses import LossFunction
from .relu_net import _unit_cube_batch
from .structured import (
    StructuredMetricNet,
    pair_backward,
    pair_forward,
    pair_values,  # unused here; kept importable as bench/spans.py traces erm.pair_values
)
from .synthetic import MAX_STREAM_PAIRS, check_sample_size

PAIR_STRATEGIES = ("all-pairs", "uniform-subsample")


@dataclass
class TrainConfig:
    epochs: int = 100
    pair_batch: int = 512
    lr_init: float = 0.5
    lr_decay: float = 1.0
    a_anneal: dict | None = None  # {start, decay}: epoch e uses max(a, start * decay**e)
    seed: int = 0
    pair_strategy: str = "all-pairs"
    pairs_per_epoch: int | None = None  # uniform-subsample only

    def __post_init__(self):
        if self.epochs < 1 or self.pair_batch < 1:
            raise ParameterError("epochs and pair_batch must be >= 1")
        if self.pairs_per_epoch is not None and self.pairs_per_epoch < 1:
            raise ParameterError("pairs_per_epoch must be >= 1")
        if self.pairs_per_epoch is not None and self.pair_strategy == "all-pairs":
            raise ParameterError("pairs_per_epoch applies only to pair_strategy "
                                 "uniform-subsample; all-pairs trains on every pair")
        if self.lr_init < 0.0 or self.lr_decay <= 0.0:
            raise ParameterError("learning-rate schedule must be positive")
        if self.pair_strategy not in PAIR_STRATEGIES:
            raise ParameterError(f"pair_strategy must be one of {PAIR_STRATEGIES}")
        spec = self.a_anneal
        if spec is not None and not (isinstance(spec, dict) and set(spec) == {"start", "decay"}
                                     and 0.0 < spec["start"] < math.inf
                                     and 0.0 < spec["decay"] <= 1.0):
            raise ParameterError("a_anneal must be exactly {start: finite > 0, "
                                 f"decay: in (0, 1]}}, got {spec!r}")


@dataclass
class TrainReport:
    risk: np.ndarray
    grad_norm: np.ndarray
    active_fraction: np.ndarray
    a_values: np.ndarray
    final_risk: float
    best_epoch: int

    def rows(self):
        for e in range(self.risk.size):
            yield (e, self.risk[e], self.grad_norm[e], self.active_fraction[e], self.a_values[e])


def _sample_ordered_pairs(rng, n, k):
    i = rng.integers(n, size=k)
    j = rng.integers(n, size=k)
    clash = i == j
    while clash.any():
        j[clash] = rng.integers(n, size=int(clash.sum()))
        clash = i == j
    return i, j


def triu_pairs(n: int, k: np.ndarray):
    """The pairs (i, j), i < j, at positions k of np.triu_indices(n, k=1)'s
    row-major order."""
    rows = np.arange(n - 1)
    row_start = rows * (2 * n - rows - 1) // 2  # position of the pair (i, i + 1)
    i = np.searchsorted(row_start, k, side="right") - 1
    return i, k - row_start[i] + i + 1


def epoch_pairs(config: TrainConfig, n: int) -> int:
    """The pairs an epoch on n points draws before its first batch, at most
    MAX_STREAM_PAIRS: pairs_per_epoch (default 16,384) under uniform-subsample,
    16 bytes each, and all n(n-1)/2 under all-pairs, 8 bytes each."""
    if config.pair_strategy == "uniform-subsample":
        k, what = config.pairs_per_epoch or 16384, "pairs_per_epoch asks for"
    else:
        k, what = n * (n - 1) // 2, f"n={n} gives an all-pairs epoch of"
    if k > MAX_STREAM_PAIRS:
        raise ParameterError(f"{what} {k:,} pairs, more than the cap of {MAX_STREAM_PAIRS:,}")
    return k


def _epoch_batches(config: TrainConfig, rng, n: int):
    """One epoch's pair batches (i, j); the epoch's pairs are drawn from rng
    before its first batch."""
    k = epoch_pairs(config, n)
    if config.pair_strategy == "uniform-subsample":
        i_stream, j_stream = _sample_ordered_pairs(rng, n, k)
        for lo in range(0, k, config.pair_batch):
            yield i_stream[lo:lo + config.pair_batch], j_stream[lo:lo + config.pair_batch]
        return
    # a shuffle of the positions of the unordered pairs, each batch mapped
    # back to its pairs, so only the permutation is n(n-1)/2 long; unordered
    # pairs carry both ordered terms of the U-statistic
    order = rng.permutation(k)
    for lo in range(0, order.size, config.pair_batch):
        yield triu_pairs(n, order[lo:lo + config.pair_batch])


def train(net: StructuredMetricNet, data, config: TrainConfig,
          loss: LossFunction) -> tuple[StructuredMetricNet, TrainReport]:
    """Subgradient descent on the sub-networks; returns the best iterate.

    Deterministic for a fixed config seed.  The inputs are checked once,
    before the first epoch: X must be n points of [0, 1]^p and y must have
    shape (n,).  Each batch is then traced from its pairs' row indices with
    pair_forward(net, i, j, data), data being X feature-major, so each row
    a batch uses runs through the sub-networks once.
    Raises DivergenceError (with the epoch index) on non-finite losses or
    gradients.
    """
    X, y = data
    X = _unit_cube_batch(X, net.input_dim)
    y = np.asarray(y)
    n = X.shape[0]
    check_sample_size(n)
    if y.shape != (n,):
        raise InputShapeError(f"labels must have shape ({n},), got {y.shape}")
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
        for iu, ju in _epoch_batches(config, rng, n):
            trace = pair_forward(work, iu, ju, data)
            tau = np.where(y[iu] == y[ju], 1.0, -1.0)
            margin = tau * trace.d
            obj = float(loss.eval(margin).mean())
            if not math.isfinite(obj):
                raise DivergenceError(f"non-finite objective at epoch {epoch}", epoch=epoch)
            upstream = tau * np.asarray(loss.subgradient(margin)) / iu.size
            grads = pair_backward(work, trace, upstream)
            gsq = 0.0
            for wg, bg in grads:
                for gw, gb in zip(wg, bg):
                    gsq += float((gw * gw).sum() + (gb * gb).sum())
            # a finite sum of squares has finite terms; an infinite one may
            # only have overflowed
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

        # pair-weighted epoch risk: invariant to the shuffle when lr = 0
        risks.append(float(np.average(batch_risks, weights=batch_sizes)))
        gnorms.append(float(np.mean(batch_gnorms)))
        actives.append(float(np.average(batch_active, weights=batch_sizes)))
        a_vals.append(a_now)
        if risks[-1] < best[0]:
            best = (risks[-1], work.copy(), epoch)

    trained = best[1]  # every epoch's risk is finite, so the first one sets best
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
