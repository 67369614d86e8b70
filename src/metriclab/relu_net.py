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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputShapeError, ParameterError, ValidationFailure

MODEL_FORMAT_VERSION = 2


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

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy())


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
    """Feedforward ReLU network with an affine read-out; immutable by
    convention after construction."""

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

    def copy(self) -> "ReluNetwork":
        return ReluNetwork([layer.copy() for layer in self.layers], self.input_dim)

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
    out = _forward_trace(net, xb.T)[-1].T
    return out[0] if squeeze else out


def _forward_trace(net: ReluNetwork, h: np.ndarray) -> list[np.ndarray]:
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


def _backprop(net: ReluNetwork, acts: list[np.ndarray], upstream: np.ndarray):
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


def complexity(net: ReluNetwork) -> NetworkComplexity:
    """Exact (L, W, U); stored zeros never count toward W."""
    depth = len(net.layers)
    nnz = sum(
        int(np.count_nonzero(layer.weights)) + int(np.count_nonzero(layer.bias))
        for layer in net.layers
    )
    units = sum(layer.out_width for layer in net.layers)
    return NetworkComplexity(depth, nnz, units)


def save_model(net: ReluNetwork, path) -> None:
    """Write the versioned model file (JSON; floats at full repr precision)."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "input_dim": net.input_dim,
        "layers": [
            {
                "out_width": layer.out_width,
                "in_width": layer.in_width,
                "weights_row_major": [float(v) for v in layer.weights.ravel(order="C")],
                "bias": [float(v) for v in layer.bias],
            }
            for layer in net.layers
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> ReluNetwork:
    """Read a model file; a malformed one raises a ValidationFailure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ParameterError(f"unsupported model format version "
                                 f"{doc.get('format_version')!r}; this version reads "
                                 f"format {MODEL_FORMAT_VERSION}")
        if sorted(doc) != ["format_version", "input_dim", "layers"]:
            raise ParameterError(f"model file {path} has keys {sorted(doc)}; format "
                                 f"{MODEL_FORMAT_VERSION} has format_version, input_dim, layers")
        layers = []
        for spec in doc["layers"]:
            w = np.array(spec["weights_row_major"], dtype=np.float64).reshape(
                spec["out_width"], spec["in_width"]
            )
            layers.append(DenseLayer(w, np.array(spec["bias"], dtype=np.float64)))
        return ReluNetwork(layers, doc["input_dim"])
    except ValidationFailure:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ParameterError(f"malformed model file {path}: {err!r}") from err
