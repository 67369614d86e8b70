"""Dense feedforward ReLU networks with exact complexity accounting.

A network is an ordered list of dense layers.  ReLU is applied after every
layer but the last, which is an affine read-out: the sub-networks, the
absolute value and the product and sign gadgets all combine ReLU units
affinely.

Complexity conventions, used everywhere downstream:
  L = number of layers,
  W = number of nonzero stored weight and bias entries,
  U = total number of computation units (sum of layer output widths).
Exact zeros stored in a matrix do not count toward W.

The forward and reverse passes (_stack_trace, _stack_backprop) run a stack
of m networks of one shape side by side, layer k's weights as one
(m, out, in) array, and round each network's values as if it ran alone; a
single ReluNetwork is the stack of one (_as_stack).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputShapeError, ParameterError


@dataclass
class DenseLayer:
    """One affine map: weights (out_width x in_width) and bias (out_width)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise InputShapeError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weights.shape[0]:
            raise InputShapeError(
                f"bias shape {self.bias.shape} inconsistent with weights {self.weights.shape}"
            )
        if self.out_width < 1 or self.in_width < 1:
            raise InputShapeError("layer widths must be >= 1")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise DomainError("layer parameters must be finite")

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class NetworkComplexity:
    """(L, W, U) triple: depth, nonzero weights, computation units."""

    depth: int
    nonzero_weights: int
    units: int

    def __post_init__(self):
        if min(self.depth, self.nonzero_weights, self.units) < 0:
            raise ParameterError("complexity components must be nonnegative")
        if self.units < self.depth:
            raise ParameterError("units < depth impossible (each layer has width >= 1)")


@dataclass
class ReluNetwork:
    """Feedforward ReLU network with an affine read-out.  Its layers may be
    views of larger arrays: a StructuredMetricNet's sub-networks slice its
    per-layer stacks, which training updates in place."""

    layers: list[DenseLayer]
    input_dim: int

    def __post_init__(self):
        if not self.layers:
            raise InputShapeError("network needs at least one layer")
        width = self.input_dim
        for k, layer in enumerate(self.layers):
            if layer.in_width != width:
                raise InputShapeError(
                    f"layer {k} expects input width {layer.in_width}, chain provides {width}"
                )
            width = layer.out_width

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_width

    def __call__(self, x):
        return forward(self, x)


def _as_batch(x, dim: int, what: str = "input"):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise InputShapeError(f"{what} must have dimension {dim}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError(f"{what} contains non-finite entries")
    return x, squeeze


def _unit_cube_batch(x, dim: int) -> np.ndarray:
    """Inputs as a (batch, dim) array of points of [0, 1]^dim; a vector is
    one point.  The one check on the input domain of tasks and metrics."""
    x, _ = _as_batch(x, dim)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError(f"input must lie in [0, 1]^{dim}")
    return x


def forward(net: ReluNetwork, x):
    """Evaluate the network; accepts a vector or a (batch, input_dim) array."""
    xb, squeeze = _as_batch(x, net.input_dim)
    out = _stack_trace(*_as_stack(net), xb.T)[-1][0].T
    return out[0] if squeeze else out


def _as_stack(net: ReluNetwork):
    """The network as a stack of one: per layer, its weights as a (1, out,
    in) view and its bias as a (1, out) view."""
    return [layer.weights[None] for layer in net.layers], [layer.bias[None] for layer in net.layers]


def _stack_trace(weights: list, biases: list, h: np.ndarray) -> list[np.ndarray]:
    """Post-activation values per layer of m networks of one shape, run side
    by side on one input; index 0 is the input.

    weights[k] holds layer k of every network, shape (m, out, in), and
    biases[k] its biases, shape (m, out).  The input is feature-major,
    (input_dim, batch), and layer k's values are (m, out, batch), so the
    bias add and the batch sums of the reverse pass run over contiguous
    rows.  Each layer is one explicit multiply-accumulate over its input
    rows for all m networks at once, not a matmul: elementwise operations
    round every column alike, so a column's values do not depend on its
    position in the batch, on the memory layout or on m, while a BLAS
    matmul rounds the last columns of a block differently.
    """
    acts = [h]
    h = h[None]
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        x, h = h, w[:, :, :1] * h[:, :1]
        for c in range(1, w.shape[2]):
            h += w[:, :, c:c + 1] * x[:, c:c + 1]
        h += b[:, :, None]
        if k < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def _stack_backprop(weights: list, acts: list[np.ndarray], upstream: np.ndarray, grads=None,
                    input_grad: bool = False):
    """Reverse pass over a _stack_trace trace; upstream shape (m, out, batch).

    With grads = (weight_grads, bias_grads), arrays shaped as weights and
    biases, writes the batch-summed parameter gradients into them: network
    i's are one matmul and one row sum per layer, the ones it would get on
    its own.  Returns the input gradient, shape (m, input_dim, batch), when
    input_grad is set; otherwise the first layer's is not formed and None
    is returned.
    """
    g = upstream
    last = len(weights) - 1
    for k in range(last, -1, -1):
        if k < last:
            g *= acts[k + 1] > 0.0  # sigma'(0) := 0; g is this pass's own array here
        if grads is not None:
            np.matmul(g, np.swapaxes(acts[k], -1, -2), out=grads[0][k])
            g.sum(axis=-1, out=grads[1][k])
        if k or input_grad:
            g = np.swapaxes(weights[k], -1, -2) @ g
    return g if input_grad else None


def complexity(net: ReluNetwork) -> NetworkComplexity:
    """Exact (L, W, U); stored zeros never count toward W."""
    depth = len(net.layers)
    nnz = sum(
        int(np.count_nonzero(layer.weights)) + int(np.count_nonzero(layer.bias))
        for layer in net.layers
    )
    units = sum(layer.out_width for layer in net.layers)
    return NetworkComplexity(depth, nnz, units)
