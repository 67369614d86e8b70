"""The structured pair metric: sign(1 - 2 * sum_i product(h_i(x), h_i(x'))).

A StructuredMetricNet bundles m trainable sub-networks h_i with two fixed
gadgets: a certified product approximator and the two-layer sign
approximator F_a.  Sub-network outputs are clamped to [-1, 2] (the region
where the product gadget is certified) before entering the product, and the
final output always lies in [-1, 1].

Evaluation works per distinct point: the metric depends on a pair only
through the scalars h_i(x), so each sub-network runs once per distinct input
row, and the product gadget runs in its factored form
phi(u, v) = S(u+v) - (S(u) + S(v)) with its squaring branch S applied once
per point and once per pair sum.

Exact symmetry holds by construction, not by an argument sort: u+v and
S(u) + S(v) are commutative in floating point, so pair_values(X, X') and
pair_values(X', X) are bit-identical.

Complexity accounting (documented here because the hand counts in the test
suite rely on it).  Realized as one monolithic ReLU network, the assembly
adds the following "glue" on top of the sub-network, product and sign
counts:
  * each of the 2m clamp streams costs two ReLU layers
    (u = relu(v + 1), w = relu(3 - u)): 2 units and 4 nonzero entries;
  * the clamp read-out (2 - w) folds into the product gadget's first layer
    and turns its 6 zero biases nonzero: +6 entries per product copy;
  * the aggregation t = 1 - 2 * sum(phi_i) folds into the sign net's first
    layer, widening its scalar fan-in (2 entries) to 2m: +(2m - 2) entries.
So with clamping on, c_W = 16m - 2 and c_U = 4m and the depth grows by 2;
with clamping off, c_W = 2m - 2 and c_U = 0.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, InputShapeError, ParameterError
from .gadgets import (
    PRODUCT_DOMAIN,
    ProductGadget,
    SignApprox,
    build_product_gadget,
    build_sign_approx,
    certify_product,
    check_depth,
)
from .relu_net import (
    DenseLayer,
    NetworkComplexity,
    ReluNetwork,
    complexity,
    load_model,
    same_network,
    save_model,
)
from .relu_net import _backprop, _forward_trace, _input_grad, _unit_cube_batch

# pair_values runs pair_forward on at most this many pairs at a time, for two
# reasons: every activation of the squaring branch stays cache-sized (4 rows
# of at most 3m * 2048 values, 12,288 at m = 2), and no matmul grows to the
# size at which OpenBLAS hands work to a second thread, which then spins.
_EVAL_BLOCK = 2048


@dataclass
class HypothesisBudget:
    L_max: int
    W_max: int
    U_max: int

    def admits(self, c: NetworkComplexity) -> bool:
        return c.depth <= self.L_max and c.nonzero_weights <= self.W_max and c.units <= self.U_max


@dataclass
class StructuredMetricNet:
    subnets: list[ReluNetwork]
    product: ProductGadget
    sign: SignApprox
    clamp_subnet_output: bool = True

    def __post_init__(self):
        if not self.subnets:
            raise ParameterError("need at least one sub-network")
        depths = {len(h.layers) for h in self.subnets}
        if len(depths) != 1:
            raise ParameterError(f"sub-networks must share one depth, got {sorted(depths)}")
        dims = {h.input_dim for h in self.subnets}
        if len(dims) != 1:
            raise ParameterError("sub-networks must share one input dimension")
        for h in self.subnets:
            if h.output_dim != 1:
                raise InputShapeError("sub-networks must be scalar-valued")
        if self.product.net.input_dim != 2 or self.product.net.output_dim != 1:
            raise InputShapeError("product gadget must map pairs to scalars")

    @property
    def m(self) -> int:
        return len(self.subnets)

    @property
    def input_dim(self) -> int:
        return self.subnets[0].input_dim

    def copy(self) -> "StructuredMetricNet":
        return StructuredMetricNet(
            [h.copy() for h in self.subnets], self.product, self.sign, self.clamp_subnet_output
        )


@dataclass
class PairTrace:
    """Everything the reverse pass needs, traced once per distinct point.

    ``index`` maps the stacked pair sides (pair j's at j and batch + j) to
    the distinct input rows, over which each sub-network is traced.  The
    product gadget's squaring branch S is traced once over the stacked
    inputs [c_1, ..., c_m, s_1, ..., s_m]: c_i holds the clamped h_i per
    distinct row, s_i the per-pair sums c_i[x] + c_i[x'].
    """

    index: np.ndarray
    values: list  # per subnet: raw h_i at each distinct point
    subnet_traces: list
    branch_trace: list
    t_pre: np.ndarray
    sign_trace: list
    d: np.ndarray


def _distinct_rows(sides: np.ndarray):
    """Distinct rows, feature-major (p, k), and each row's index among them."""
    if sides.shape[1] == 1:
        points, index = np.unique(sides[:, 0], return_inverse=True)
        return points[None, :], index
    points, index = np.unique(sides, axis=0, return_inverse=True)
    return points.T, index.reshape(-1)


def _pair_batches(net: StructuredMetricNet, X, Xp):
    """Both sides as checked (batch, p) arrays of one shape."""
    X = _unit_cube_batch(X, net.input_dim)
    Xp = _unit_cube_batch(Xp, net.input_dim)
    if X.shape != Xp.shape:
        raise InputShapeError("pair batches must have matching shapes")
    return X, Xp


def pair_forward(net: StructuredMetricNet, X, Xp) -> PairTrace:
    X, Xp = _pair_batches(net, X, Xp)
    batch = X.shape[0]
    points, index = _distinct_rows(np.concatenate([X, Xp]))
    ix, ixp = index[:batch], index[batch:]

    values, subnet_traces, clamped, sums = [], [], [], []
    for h in net.subnets:
        trace = _forward_trace(h, points)
        v = trace[-1][0]
        c = np.clip(v, *PRODUCT_DOMAIN) if net.clamp_subnet_output else v
        values.append(v)
        subnet_traces.append(trace)
        clamped.append(c)
        sums.append(c[ix] + c[ixp])
    branch_trace = _forward_trace(net.product.branch, np.concatenate(clamped + sums)[None, :])
    sq = branch_trace[-1][0]

    k = points.shape[1]
    sq_sums = sq[net.m * k:].reshape(net.m, batch)
    phi_sum = np.zeros(batch)
    for i in range(net.m):
        sq_c = sq[i * k:(i + 1) * k]
        phi_sum += sq_sums[i] - (sq_c[ix] + sq_c[ixp])

    t_pre = 1.0 - 2.0 * phi_sum
    sign_trace = _forward_trace(net.sign.net, t_pre[None, :])
    d = np.clip(sign_trace[-1][0], -1.0, 1.0)
    return PairTrace(index, values, subnet_traces, branch_trace, t_pre, sign_trace, d)


def pair_values(net: StructuredMetricNet, X, Xp) -> np.ndarray:
    """Batched metric values in [-1, 1].

    The inputs are checked once, then evaluated in blocks of _EVAL_BLOCK =
    2048 pairs, keeping only each block's d: a large Monte Carlo stream
    neither holds every layer's trace at once nor runs matmuls big enough to
    start a second BLAS thread, which would oversubscribe the CPUs under
    rate-sweep's worker pool.
    """
    X, Xp = _pair_batches(net, X, Xp)
    if X.shape[0] <= _EVAL_BLOCK:
        return pair_forward(net, X, Xp).d
    return np.concatenate([pair_forward(net, X[lo:lo + _EVAL_BLOCK], Xp[lo:lo + _EVAL_BLOCK]).d
                           for lo in range(0, X.shape[0], _EVAL_BLOCK)])


def pair_backward(net: StructuredMetricNet, trace: PairTrace, upstream: np.ndarray):
    """Gradients of sum(upstream * d) w.r.t. sub-network parameters.

    Returns a list over sub-networks of (weight_grads, bias_grads), each
    summed over the batch and over both pair sides.  The product and sign
    gadgets are fixed: only input gradients flow through them.  Per-side
    gradients are summed onto the distinct points, so each sub-network is
    backpropagated once.
    """
    m, batch, index = net.m, trace.d.size, trace.index
    k = trace.values[0].size
    g_t = _input_grad(net.sign.net, trace.sign_trace,
                      np.asarray(upstream, dtype=np.float64)[None, :])[0]
    g_phi = -2.0 * g_t  # t = 1 - 2 * sum_i phi_i
    # phi_i = S(s_i) - (S(c_i)[x] + S(c_i)[x']): both sides of a pair carry -g_phi
    g_sq_c = -np.bincount(index, weights=np.concatenate([g_phi, g_phi]), minlength=k)
    g_sq = np.concatenate([np.tile(g_sq_c, m), np.tile(g_phi, m)])
    g_u = _input_grad(net.product.branch, trace.branch_trace, g_sq[None, :])[0]
    # s_i = c_i[x] + c_i[x']: scatter each pair's sum gradient onto both sides' points
    g_s = g_u[m * k:].reshape(m, batch)
    g_c = g_u[:m * k] + np.bincount(
        (index[None, :] + (np.arange(m) * k)[:, None]).ravel(),
        weights=np.concatenate([g_s, g_s], axis=1).ravel(), minlength=m * k)

    grads = []
    for i, h in enumerate(net.subnets):
        g = g_c[i * k:(i + 1) * k]
        if net.clamp_subnet_output:
            v = trace.values[i]
            g = g * ((v > PRODUCT_DOMAIN[0]) & (v < PRODUCT_DOMAIN[1]))
        wg, bg, _ = _backprop(h, trace.subnet_traces[i], g[None, :])
        grads.append((wg, bg))
    return grads


def glue_constants(net: StructuredMetricNet) -> dict:
    """The exact wiring cost added by the assembly (see module docstring)."""
    m = net.m
    if net.clamp_subnet_output:
        return {"c_W": 16 * m - 2, "c_U": 4 * m, "extra_depth": 2,
                "clamp_weights": 8 * m, "clamp_units": 4 * m,
                "product_bias_fill": 6 * m, "aggregation_fan_in": 2 * m - 2}
    return {"c_W": 2 * m - 2, "c_U": 0, "extra_depth": 0,
            "clamp_weights": 0, "clamp_units": 0,
            "product_bias_fill": 0, "aggregation_fan_in": 2 * m - 2}


def aggregate_complexity(net: StructuredMetricNet) -> NetworkComplexity:
    """Total (L, W, U) of the assembled metric network.

    L adds the shared sub-network depth, the clamp stage when present, and
    the product and sign depths; W and U charge every sub-network twice
    (both pair sides), the product gadget m times, the sign net once, and
    the exact glue constants.
    """
    sub = [complexity(h) for h in net.subnets]
    prod = complexity(net.product.net)
    sign = complexity(net.sign.net)
    glue = glue_constants(net)
    L = sub[0].depth + glue["extra_depth"] + prod.depth + sign.depth
    W = 2 * sum(c.nonzero_weights for c in sub) + net.m * prod.nonzero_weights \
        + sign.nonzero_weights + glue["c_W"]
    U = 2 * sum(c.units for c in sub) + net.m * prod.units + sign.units + glue["c_U"]
    return NetworkComplexity(L, W, U)


def pdim_bound(c: NetworkComplexity, scale_constant: float = 1.0) -> float:
    """Pseudo-dimension surrogate: scale * L * W * log2(U)."""
    if c.units < 2:
        raise ParameterError(f"pseudo-dimension bound needs U >= 2, got U={c.units}")
    return scale_constant * c.depth * c.nonzero_weights * math.log2(c.units)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def random_subnet(p: int, depth: int, width: int, rng: np.random.Generator,
                  init_scale: float = 1.0) -> ReluNetwork:
    """Sub-network with symmetric uniform init scaled by 1/sqrt(fan_in)."""
    if depth < 1 or width < 1:
        raise ParameterError("subnet depth and width must be >= 1")
    sizes = [p] + [width] * (depth - 1) + [1]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = init_scale / math.sqrt(fan_in)
        layers.append(DenseLayer(rng.uniform(-bound, bound, size=(fan_out, fan_in)),
                                 rng.uniform(-bound, bound, size=fan_out)))
    return ReluNetwork(layers, input_dim=p, apply_final_relu=False)


def constant_subnet(p: int, value: float, depth: int = 1) -> ReluNetwork:
    """Sub-network that outputs a constant regardless of the input."""
    layers = [DenseLayer(np.zeros((1, p)), np.array([float(value)]))]
    for _ in range(depth - 1):
        layers.append(DenseLayer(np.array([[1.0]]), np.array([0.0])))
    return ReluNetwork(layers, input_dim=p, apply_final_relu=False)


def make_structured_net(p: int, m: int, depth: int, width: int, epsilon: float,
                        a: float, clamp: bool = True, seed: int = 0,
                        init_scale: float = 1.0,
                        product: ProductGadget | None = None,
                        sign: SignApprox | None = None) -> StructuredMetricNet:
    rng = np.random.default_rng(seed)
    subnets = [random_subnet(p, depth, width, rng, init_scale) for _ in range(m)]
    return StructuredMetricNet(
        subnets,
        product if product is not None else build_product_gadget(epsilon),
        sign if sign is not None else build_sign_approx(a),
        clamp_subnet_output=clamp,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _recorded_counts(net: StructuredMetricNet) -> dict:
    """The counts a manifest records, as recomputed from the nets."""
    agg = aggregate_complexity(net)
    return {"aggregated_complexity": {"L": agg.depth, "W": agg.nonzero_weights, "U": agg.units},
            "glue_constants": glue_constants(net)}


def save_manifest(net: StructuredMetricNet, out_dir) -> str:
    """Write the composite as a manifest plus one model file per component."""
    os.makedirs(out_dir, exist_ok=True)
    subnet_files = []
    for i, h in enumerate(net.subnets):
        fname = f"subnet_{i}.json"
        save_model(h, os.path.join(out_dir, fname))
        subnet_files.append(fname)
    save_model(net.product.net, os.path.join(out_dir, "product.json"))
    save_model(net.sign.net, os.path.join(out_dir, "sign.json"))
    manifest = {
        "m": net.m,
        "a": net.sign.a,
        "epsilon": net.product.epsilon,
        "sawtooth_depth": net.product.sawtooth_depth,
        "certified_grid_error": net.product.certified_grid_error,
        "clamp_subnet_output": net.clamp_subnet_output,
        **_recorded_counts(net),
        "subnets": subnet_files,
        "product": "product.json",
        "sign": "sign.json",
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return path


def load_manifest(out_dir) -> StructuredMetricNet:
    """Load a saved composite and check it instead of trusting it.

    The product net must be the one its sawtooth depth determines and pass
    certification again, the sign net must be F_a for the recorded a, and
    the recorded complexity and glue constants must equal the recomputed
    ones; otherwise CertificationError.  A file with a missing key or a
    malformed network raises a ValidationFailure.
    """
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        subnets = [load_model(os.path.join(out_dir, f)) for f in manifest["subnets"]]
        # before ProductGadget builds a branch as deep as the recorded depth
        check_depth(manifest["epsilon"], manifest["sawtooth_depth"])
        product = ProductGadget(
            net=load_model(os.path.join(out_dir, manifest["product"])),
            epsilon=manifest["epsilon"],
            sawtooth_depth=manifest["sawtooth_depth"],
            certified_grid_error=manifest["certified_grid_error"],
        )
        product.certified_grid_error, _ = certify_product(product)
        sign = build_sign_approx(manifest["a"])
        if not same_network(load_model(os.path.join(out_dir, manifest["sign"])), sign.net):
            raise CertificationError(f"{manifest['sign']} is not the sign net F_a for "
                                     f"a={sign.a!r}")
        net = StructuredMetricNet(subnets, product, sign, manifest["clamp_subnet_output"])
        for key, value in _recorded_counts(net).items():
            if manifest[key] != value:
                raise CertificationError(f"manifest records {key}={manifest[key]!r}, "
                                         f"the loaded nets give {value!r}")
    except (KeyError, TypeError, json.JSONDecodeError) as err:
        raise ParameterError(f"malformed manifest in {out_dir}: {err!r}") from err
    return net
