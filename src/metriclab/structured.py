"""The structured pair metric: sign(1 - 2 * sum_i product(h_i(x), h_i(x'))).

A StructuredMetricNet bundles m trainable sub-networks h_i with two fixed
gadgets: a certified product approximator and the two-layer sign
approximator F_a.  Sub-network outputs are clamped to [-1, 2] (the region
where the product gadget is certified) before entering the product, and the
final output always lies in [-1, 1].

Evaluation works per point: the metric depends on a pair only through the
scalars h_i(x), so a trace takes checked points and the two row indices of
each pair (pair_forward), the sub-networks run once per point a batch uses
(a dataset row in training, a pair side in pair_values), and the product
gadget runs in its factored form phi(u, v) = S(u+v) - (S(u) + S(v)) with
its squaring branch S applied once per point and once per pair sum.  S and its
subgradient come from the gadget's certified knot table
(gadgets.KnotTable), F_a and its slope from the closed form
clip(t/a, -1, 1) (SignApprox.value_and_slope), and the sub-network layers
are elementwise multiply-accumulates (relu_net._stack_trace), so a pair's
value does not depend on where in a batch it sits.

The m sub-networks are stored as one stack per layer
(StructuredMetricNet.weights and .biases) and run as one: the forward
pass does one multiply-accumulate per input column for all of them, the
reverse pass one batched matmul per layer into gradients shaped as those
stacks, and each sub-network's values and gradients are bit for bit the
ones it would get on its own.  A saved model is those stacks and the
gadgets' parameters in one JSON file (save_manifest, load_manifest).

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

import copy
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
    check_depth,
)
from .relu_net import DenseLayer, NetworkComplexity, ReluNetwork, complexity
from .relu_net import _stack_backprop, _stack_trace, _unit_cube_batch

# pair_values runs pair_forward on at most this many pairs at a time so that
# every per-value array stays cache-sized (at most 3m * 2048 values of the
# product gadget, 12,288 at m = 2) and a long Monte Carlo stream never holds
# all its traces at once; the block size changes no value.
_EVAL_BLOCK = 2048


@dataclass
class HypothesisBudget:
    L_max: int
    W_max: int
    U_max: int

    def admits(self, c: NetworkComplexity) -> bool:
        return c.depth <= self.L_max and c.nonzero_weights <= self.W_max and c.units <= self.U_max


class StructuredMetricNet:
    """m scalar sub-networks h_i of one shape and the two fixed gadgets.

    The sub-network parameters are stored once, per layer: layer k's
    weights of all m sub-networks are the (m, out, in) array ``weights[k]``,
    its biases the (m, out) array ``biases[k]``.  m, input_dim and subnets
    are read from them; ``subnets[i].layers[k]`` holds the views
    ``weights[k][i]`` and ``biases[k][i]``, so an in-place edit there edits
    the net (rebinding an attribute does not).  The constructor copies the
    parameters it is given, and copy() the arrays.
    """

    def __init__(self, subnets: list[ReluNetwork], product: ProductGadget, sign: SignApprox,
                 clamp_subnet_output: bool = True):
        if not subnets:
            raise ParameterError("need at least one sub-network")
        for h in subnets:
            if h.output_dim != 1:
                raise InputShapeError("sub-networks must be scalar-valued")
        # one stack holds them all: one depth, one input dimension, one width per layer
        shapes = {tuple(layer.weights.shape for layer in h.layers) for h in subnets}
        if len(shapes) != 1:
            raise ParameterError(f"sub-networks must share one layer shape, got {sorted(shapes)}")
        stacked = list(zip(*(h.layers for h in subnets)))
        self.weights = [np.stack([layer.weights for layer in layers]) for layers in stacked]
        self.biases = [np.stack([layer.bias for layer in layers]) for layers in stacked]
        self.product, self.sign, self.clamp_subnet_output = product, sign, clamp_subnet_output

    @property
    def m(self) -> int:
        return self.biases[0].shape[0]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[2]

    @property
    def subnets(self) -> list[ReluNetwork]:
        return [ReluNetwork([DenseLayer(w[i], b[i]) for w, b in zip(self.weights, self.biases)],
                            self.input_dim) for i in range(self.m)]

    def copy(self) -> "StructuredMetricNet":
        twin = copy.copy(self)
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        return twin


@dataclass
class PairTrace:
    """Everything the reverse pass needs, traced once per point.

    ``index`` maps the stacked pair sides (pair j's at j and batch + j) to
    the points over which the sub-networks are traced; ``acts`` is that
    trace, all m at once (relu_net._stack_trace): the points, then each
    layer's (m, out, points) values, raw h_i last.  The product gadget's
    squaring branch S is evaluated once over the stacked inputs
    [c_1, ..., c_m, s_1, ..., s_m]: c_i holds the clamped h_i per point,
    s_i the per-pair sums c_i[x] + c_i[x'].  Its reverse pass needs only S'
    at each of them, ``slopes``.  The sign gadget's needs only F_a' at its
    input ``t_pre`` = 1 - 2 * sum_i phi_i, ``sign_slope``.
    """

    index: np.ndarray
    acts: list
    slopes: np.ndarray
    t_pre: np.ndarray
    sign_slope: np.ndarray
    d: np.ndarray


def _select_points(data: np.ndarray, i: np.ndarray, j: np.ndarray):
    """The rows of data (feature-major, (p, n)) that the stacked sides
    i, j use, each once, and the sides' index among them.  Flagging the
    used rows and ranking them costs one pass over all n rows per call:
    cheaper than sorting the sides' ids up to about 131,072 rows for
    1,024-pair batches (numpy 2.4, 2-vCPU Xeon VM)."""
    sides = np.concatenate([i, j])
    n = data.shape[1]
    used = np.zeros(n, dtype=bool)
    used[sides] = True
    ids = np.flatnonzero(used)
    rank = np.empty(n, dtype=np.intp)
    rank[ids] = np.arange(ids.size)
    return data[:, ids], rank[sides]


def pair_forward(net: StructuredMetricNet, i, j, points) -> PairTrace:
    """Trace of the pairs (points[:, i[k]], points[:, j[k]]) for pair_backward.

    points is a checked, feature-major (p, n) array of points of [0, 1]^p,
    not checked again; i, j are row indices into it, and each row the batch
    uses is traced once (_select_points).
    """
    points, index = _select_points(points, i, j)
    m, k, batch = net.m, points.shape[1], index.size // 2

    acts = _stack_trace(net.weights, net.biases, points)
    v = acts[-1][:, 0]
    u = np.empty(m * (k + batch))  # the knot table's input [c_1, ..., c_m, s_1, ..., s_m]
    c = u[:m * k].reshape(m, k)
    if net.clamp_subnet_output:
        np.clip(v, *PRODUCT_DOMAIN, out=c)
    else:
        c[...] = v
    sides = c.take(index, axis=1)
    np.add(sides[:, :batch], sides[:, batch:], out=u[m * k:].reshape(m, batch))
    sq, slopes = net.product.table(u)

    sq_sides = sq[:m * k].reshape(m, k).take(index, axis=1)
    phi = sq[m * k:].reshape(m, batch) - (sq_sides[:, :batch] + sq_sides[:, batch:])
    phi_sum = np.zeros(batch)
    for r in range(m):
        phi_sum += phi[r]

    t_pre = 1.0 - 2.0 * phi_sum
    d, sign_slope = net.sign.value_and_slope(t_pre)
    return PairTrace(index, acts, slopes, t_pre, sign_slope, d)


def pair_values(net: StructuredMetricNet, X, Xp) -> np.ndarray:
    """Batched metric values in [-1, 1].

    Both sides are checked once, up front; the pairs are then traced in
    blocks of _EVAL_BLOCK = 2048, keeping only each block's d, so a large
    Monte Carlo stream never holds every layer's trace at once.  A pair's
    value does not depend on the block it falls in.
    """
    X, Xp = np.asarray(X, dtype=np.float64), np.asarray(Xp, dtype=np.float64)
    if X.shape != Xp.shape:
        raise InputShapeError("pair batches must have matching shapes")
    X, Xp = _unit_cube_batch(X, net.input_dim), _unit_cube_batch(Xp, net.input_dim)
    d = [np.empty(0)]
    for lo in range(0, X.shape[0], _EVAL_BLOCK):
        side = np.arange(min(_EVAL_BLOCK, X.shape[0] - lo))
        points = np.concatenate([X[lo:lo + side.size].T, Xp[lo:lo + side.size].T], axis=1)
        d.append(pair_forward(net, side, side.size + side, points).d)
    return np.concatenate(d)


def pair_backward(net: StructuredMetricNet, trace: PairTrace, upstream: np.ndarray):
    """Gradients of sum(upstream * d) w.r.t. sub-network parameters.

    Returns (weight_grads, bias_grads), lists of arrays shaped as
    net.weights and net.biases, each summed over the batch and over both
    pair sides.  The product and sign gadgets are fixed: only input
    gradients flow through them.  Per-side gradients are summed onto the
    traced points, so the sub-networks are backpropagated once, all m in
    one reverse pass.
    """
    m, batch, index = net.m, trace.d.size, trace.index
    k = trace.acts[0].shape[1]
    g_t = np.asarray(upstream, dtype=np.float64) * trace.sign_slope
    g_phi = -2.0 * g_t  # t = 1 - 2 * sum_i phi_i
    # phi_i = S(s_i) - (S(c_i)[x] + S(c_i)[x']): both sides of a pair carry -g_phi
    g_sq_c = -np.bincount(index, weights=np.concatenate([g_phi, g_phi]), minlength=k)
    g_s = g_phi * trace.slopes[m * k:].reshape(m, batch)
    # s_i = c_i[x] + c_i[x']: scatter each pair's sum gradient onto both sides' points
    g = g_sq_c * trace.slopes[:m * k].reshape(m, k) + np.bincount(
        (index + np.arange(0, m * k, k)[:, None]).ravel(),
        weights=np.concatenate([g_s, g_s], axis=1).ravel(), minlength=m * k).reshape(m, k)
    if net.clamp_subnet_output:
        v = trace.acts[-1][:, 0]
        g *= (v > PRODUCT_DOMAIN[0]) & (v < PRODUCT_DOMAIN[1])
    grads = [np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases]
    _stack_backprop(net.weights, trace.acts, g[:, None], grads)
    return grads


def glue_constants(net: StructuredMetricNet) -> dict:
    """The exact wiring cost added by the assembly (see module docstring)."""
    m, clamp = net.m, int(net.clamp_subnet_output)  # the clamp stage as a 0/1 factor
    clamp_w, clamp_u, fill, fan_in = 8 * m * clamp, 4 * m * clamp, 6 * m * clamp, 2 * m - 2
    return {"c_W": clamp_w + fill + fan_in, "c_U": clamp_u, "extra_depth": 2 * clamp,
            "clamp_weights": clamp_w, "clamp_units": clamp_u,
            "product_bias_fill": fill, "aggregation_fan_in": fan_in}


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


def pdim_bound(c: NetworkComplexity) -> float:
    """Pseudo-dimension surrogate: L * W * log2(U)."""
    if c.units < 2:
        raise ParameterError(f"pseudo-dimension bound needs U >= 2, got U={c.units}")
    return c.depth * c.nonzero_weights * math.log2(c.units)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def random_subnet(p: int, depth: int, width: int, rng: np.random.Generator,
                  init_scale: float) -> ReluNetwork:
    """Sub-network with symmetric uniform init scaled by 1/sqrt(fan_in)."""
    if depth < 1 or width < 1:
        raise ParameterError("subnet depth and width must be >= 1")
    sizes = [p] + [width] * (depth - 1) + [1]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = init_scale / math.sqrt(fan_in)
        layers.append(DenseLayer(rng.uniform(-bound, bound, size=(fan_out, fan_in)),
                                 rng.uniform(-bound, bound, size=fan_out)))
    return ReluNetwork(layers, input_dim=p)


def make_structured_net(p: int, m: int, depth: int = 2, width: int = 4, epsilon: float = 1e-2,
                        a: float = 0.1, clamp: bool = True, seed: int = 0,
                        init_scale: float = 1.0) -> StructuredMetricNet:
    """Random sub-networks with the gadgets epsilon and a fix: phi and F_a.
    Its defaults are the [model] block's: a config passes only what it sets."""
    rng = np.random.default_rng(seed)
    subnets = [random_subnet(p, depth, width, rng, init_scale) for _ in range(m)]
    return StructuredMetricNet(subnets, build_product_gadget(epsilon), build_sign_approx(a),
                               clamp_subnet_output=clamp)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _manifest(net: StructuredMetricNet) -> dict:
    """The manifest of net, every value recomputed from the net."""
    agg = aggregate_complexity(net)
    return {
        "m": net.m,
        "a": net.sign.a,
        "epsilon": net.product.epsilon,
        "sawtooth_depth": net.product.sawtooth_depth,
        "certified_sup_error": net.product.certified_sup_error,
        "clamp_subnet_output": net.clamp_subnet_output,
        "aggregated_complexity": {"L": agg.depth, "W": agg.nonzero_weights, "U": agg.units},
        "glue_constants": glue_constants(net),
        "layers": [{"weights": w.tolist(), "biases": b.tolist()}
                   for w, b in zip(net.weights, net.biases)],
    }


def _number_stack(value, ndim: int, where: str) -> np.ndarray:
    """value, a JSON array nested ndim deep with only numbers in it, as float64."""
    stack = np.array(value, dtype=object)
    if stack.ndim != ndim or not all(type(v) in (int, float) for v in stack.flat):
        raise ParameterError(f"manifest {where} is not an array of numbers nested {ndim} deep")
    return stack.astype(np.float64)


def save_manifest(net: StructuredMetricNet, out_dir) -> str:
    """Write the composite as one file, out_dir/manifest.json: the
    sub-network stacks, one weights and one biases array per layer, and the
    assembly parameters.

    The gadgets are not written: phi is fixed by epsilon and F_a by a, and
    load_manifest rebuilds both from the manifest.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_manifest(net), fh, indent=1)
        fh.write("\n")
    return path


def load_manifest(out_dir) -> StructuredMetricNet:
    """Load a saved composite and check it instead of trusting it.

    phi is rebuilt and certified from the recorded epsilon, F_a from the
    recorded a, and every recorded value (m, sawtooth depth, sup error,
    complexity, glue constants, the stacks) must equal the one the rebuilt
    model gives; otherwise CertificationError.  A file with a missing key, a
    value of the wrong JSON type, a layer entry with keys other than weights
    and biases, stacks that are ragged, misnested, hold anything but numbers
    or disagree on the sub-network count, or layers that do not chain
    raises a ValidationFailure.
    """
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        # exact JSON types: Python takes true for the number 1
        for key in ("m", "a", "epsilon", "clamp_subnet_output"):
            kind = "boolean" if key == "clamp_subnet_output" else "number"
            if type(manifest[key]) not in ((bool,) if kind == "boolean" else (int, float)):
                raise ParameterError(f"manifest records {key}={manifest[key]!r}, "
                                     f"not a JSON {kind}")
        # before build_product_gadget builds a branch as deep as epsilon asks
        # and evaluates its 2^depth + 1 knots
        check_depth(manifest["epsilon"], manifest["sawtooth_depth"])
        stacks = []
        for k, layer in enumerate(manifest["layers"]):
            if sorted(layer) != ["biases", "weights"]:
                raise ParameterError(f"manifest layer {k} has keys {sorted(layer)}, not biases "
                                     f"and weights")
            stacks.append((_number_stack(layer["weights"], 3, f"layer {k} weights"),
                           _number_stack(layer["biases"], 2, f"layer {k} biases")))
        counts = {stack.shape[0] for layer in stacks for stack in layer}
        if len(counts) != 1:
            raise ParameterError(f"manifest layers stack {sorted(counts)} sub-networks, "
                                 f"not one count m={manifest['m']} for all")
        subnets = [ReluNetwork([DenseLayer(w[i], b[i]) for w, b in stacks], stacks[0][0].shape[2])
                   for i in range(counts.pop())]
        net = StructuredMetricNet(subnets, build_product_gadget(manifest["epsilon"]),
                                  build_sign_approx(manifest["a"]),
                                  manifest["clamp_subnet_output"])
        for key, value in _manifest(net).items():
            if manifest[key] != value:
                raise CertificationError(f"manifest records {key}={manifest[key]!r}, "
                                         f"the rebuilt model gives {value!r}")
    # OverflowError: a JSON integer too large for a float
    except (KeyError, TypeError, OverflowError, json.JSONDecodeError) as err:
        raise ParameterError(f"malformed manifest in {out_dir}: {err!r}") from err
    return net
