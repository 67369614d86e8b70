"""Constructive ReLU gadgets: sawtooth, squaring, product and sign networks.

The product network realizes the polarization identity
    x*y = 2*M^2 * ( sq(|x+y|/2M) - sq(|x|/2M) - sq(|y|/2M) ),  M = 2,
where sq is the sawtooth-based squaring approximant
    sq_s(u) = u - sum_{k=1..s} g_k(u) / 2^(2k)   on [0, 1],
and g_k is the k-fold composition of the hat g(u) = 2s(u) - 4s(u-1/2) + 2s(u-1)
(s = ReLU).  With M = 2 every squaring input stays in [0, 1] on the working
square [-1, 2]^2, |sq_s - u^2| <= 2^(-2s-2), and the three-term combination
is exactly zero whenever x = 0 or y = 0 because the two nonzero branches
cancel bit-for-bit.  All constant coefficients are exact binary fractions.

The three squaring branches are copies of one 4-wide network S on a scalar
input, fed x+y, x and y; the product is evaluated in that factored form,
phi(x, y) = S(x+y) - (S(x) + S(y)), and certified in the same form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, ParameterError
from .relu_net import (DenseLayer, NetworkComplexity, ReluNetwork, complexity, forward,
                       same_network)

PRODUCT_DOMAIN = (-1.0, 2.0)
CERT_GRID_POINTS = 401
_M = 2.0  # rescale factor: squaring inputs are |.| / (2M) with M = 2


def _square_entry_layer() -> DenseLayer:
    # hat triple for stage 1 plus a carry unit holding A_0 = u (u >= 0 on [0,1])
    return DenseLayer(
        np.array([[1.0], [1.0], [1.0], [1.0]]),
        np.array([0.0, -0.5, -1.0, 0.0]),
    )


def _square_stage_layer(stage: int) -> DenseLayer:
    """Stage >= 2: next hat triple plus carry A_{l-1} = A_{l-2} - g_{l-1}/4^(l-1)."""
    c = 4.0 ** -(stage - 1)
    w = np.array(
        [
            [2.0, -4.0, 2.0, 0.0],
            [2.0, -4.0, 2.0, 0.0],
            [2.0, -4.0, 2.0, 0.0],
            [-2.0 * c, 4.0 * c, -2.0 * c, 1.0],
        ]
    )
    return DenseLayer(w, np.array([0.0, -0.5, -1.0, 0.0]))


def build_square_gadget(s: int) -> ReluNetwork:
    """Squaring approximant on [0, 1]: |sq_s(u) - u^2| <= 2^(-2s-2),
    with sq_s(0) = 0 and sq_s(1) = 1 exactly."""
    if s < 1:
        raise ParameterError(f"square gadget needs s >= 1, got {s}")
    layers = [_square_entry_layer()]
    layers += [_square_stage_layer(l) for l in range(2, s + 1)]
    # sq_s = A_{s-1} - g_s/4^s, from the final (hat triple, carry) block
    c = 4.0 ** -s
    layers.append(DenseLayer(np.array([[-2.0 * c, 4.0 * c, -2.0 * c, 1.0]]), np.array([0.0])))
    return ReluNetwork(layers, input_dim=1, apply_final_relu=False)


@dataclass
class ProductGadget:
    """Certified product approximator on [-1, 2]^2.

    ``net`` is the realized polarization network: three copies of one
    squaring branch S, fed x+y, x and y, read out as S(x+y) - S(x) - S(y).
    S is fixed by ``sawtooth_depth`` alone, and ``net`` must equal the
    network that S determines bit for bit, or construction raises
    CertificationError.  Calls evaluate the factored form with ``branch`` =
    S.  Since x+y and S(x)+S(y) are commutative in floating point, phi(x, y)
    and phi(y, x) are bit-identical by construction, and S(0) = 0 makes phi
    exactly zero on the axes.
    """

    net: ReluNetwork
    epsilon: float
    sawtooth_depth: int
    certified_grid_error: float
    metadata: dict = field(default_factory=dict)
    branch: ReluNetwork = field(init=False, repr=False)

    def __post_init__(self):
        self.branch = _squaring_branch(self.sawtooth_depth)
        if not same_network(self.net, _polarization_net(self.branch)):
            raise CertificationError(
                f"product network is not the depth-{self.sawtooth_depth} polarization net: "
                "three copies of one squaring branch read out as S(x+y) - S(x) - S(y)")

    def __call__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        scalar = x.ndim == 0 and y.ndim == 0
        x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
        n = x.size
        sq = forward(self.branch, np.concatenate([x + y, x, y])[:, None])[:, 0]
        out = sq[:n] - (sq[n:2 * n] + sq[2 * n:])
        return float(out[0]) if scalar else out

    @property
    def complexity(self) -> NetworkComplexity:
        return complexity(self.net)


def sawtooth_depth_for(epsilon: float) -> int:
    """Smallest s with 3 * 2M^2 * 2^(-2s-2) folded under epsilon (safety 2x)."""
    return max(1, math.ceil((math.log2(48.0 / epsilon) - 2.0) / 2.0))


def _squaring_branch(s: int) -> ReluNetwork:
    """S(v) = 2M^2 * sq_s(|v| / 2M) on a scalar v: one branch of phi.

    Built from the square gadget: a two-unit layer computes s(v / 2M) and
    s(-v / 2M), the gadget's entry layer reads their sum |v| / 2M, and its
    read-out is scaled by 2M^2.
    """
    entry, *stages, readout = build_square_gadget(s).layers
    q = 1.0 / (2.0 * _M)
    abs_layer = DenseLayer(np.array([[q], [-q]]), np.zeros(2))
    layers = [abs_layer, DenseLayer(entry.weights @ np.ones((1, 2)), entry.bias), *stages,
              DenseLayer(2.0 * _M * _M * readout.weights, readout.bias)]
    return ReluNetwork(layers, input_dim=1, apply_final_relu=False)


def _polarization_net(branch: ReluNetwork) -> ReluNetwork:
    """The realized product network: branch copies on x+y, x and y side by
    side, read out as S(x+y) - S(x) - S(y)."""
    first, *middle, readout = branch.layers
    k = first.out_width
    w = np.zeros((3 * k, 2))
    w[:k, 0] = w[:k, 1] = w[k:2 * k, 0] = w[2 * k:, 1] = first.weights[:, 0]
    layers = [DenseLayer(w, np.tile(first.bias, 3))]
    for layer in middle:
        out_w, in_w = layer.weights.shape
        wl = np.zeros((3 * out_w, 3 * in_w))
        for j in range(3):
            wl[j * out_w:(j + 1) * out_w, j * in_w:(j + 1) * in_w] = layer.weights
        layers.append(DenseLayer(wl, np.tile(layer.bias, 3)))
    row = readout.weights
    layers.append(DenseLayer(np.concatenate([row, -row, -row], axis=1), np.zeros(1)))
    return ReluNetwork(layers, input_dim=2, apply_final_relu=False)


def _product_net(s: int) -> ReluNetwork:
    return _polarization_net(_squaring_branch(s))


def certification_grid(n: int = CERT_GRID_POINTS) -> np.ndarray:
    return np.linspace(PRODUCT_DOMAIN[0], PRODUCT_DOMAIN[1], n)


def check_depth(epsilon: float, sawtooth_depth: int) -> None:
    """Raise CertificationError unless epsilon lies in (0, 1/2) and
    sawtooth_depth is the one it asks for.  Cheap, so a saved gadget can be
    checked before its branch, whose size grows with the depth, is built."""
    if not (0.0 < epsilon < 0.5):
        raise CertificationError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if sawtooth_depth != sawtooth_depth_for(epsilon):
        raise CertificationError(f"sawtooth depth {sawtooth_depth} disagrees with "
                                 f"epsilon {epsilon:g}")


def certify_product(gadget: ProductGadget) -> tuple[float, float]:
    """Certify the phi that calls evaluate; returns (grid error, axis error).

    Checks that epsilon lies in (0, 1/2), that sawtooth_depth is the one
    epsilon asks for (and the one the net's own metadata records, when it
    does), that the grid error on [-1, 2]^2 is at most epsilon and that phi
    is exactly zero on both axes.  Raises CertificationError on any failure.
    """
    eps, s = gadget.epsilon, gadget.sawtooth_depth
    check_depth(eps, s)
    for key, value in (("epsilon", eps), ("sawtooth_depth", s)):
        if gadget.net.metadata.get(key, value) != value:
            raise CertificationError(f"product net records {key}="
                                     f"{gadget.net.metadata[key]!r}, expected {value!r}")

    # phi(x, y) = S(x+y) - (S(x) + S(y)), with S run once per distinct value
    g = certification_grid()
    sums, at = np.unique(np.add.outer(g, g), return_inverse=True)
    s_sums = forward(gadget.branch, sums[:, None])[:, 0]
    s_grid = forward(gadget.branch, g[:, None])[:, 0]
    approx = s_sums[at.reshape(g.size, g.size)] - (s_grid[:, None] + s_grid[None, :])
    err = float(np.max(np.abs(approx - np.multiply.outer(g, g))))
    if not err <= eps:
        raise CertificationError(
            f"product gadget failed certification: grid error {err:.3e} > {eps:.3e}"
        )
    zeros = np.zeros_like(g)
    axis_err = max(
        float(np.max(np.abs(gadget(g, zeros)))),
        float(np.max(np.abs(gadget(zeros, g)))),
    )
    if axis_err != 0.0:
        raise CertificationError(f"zero-on-axes violated: |phi| up to {axis_err:.3e}")
    return err, axis_err


def build_product_gadget(epsilon: float) -> ProductGadget:
    """Build and certify phi with sup-grid error <= epsilon on [-1, 2]^2."""
    if not (0.0 < epsilon < 0.5):
        raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    s = sawtooth_depth_for(epsilon)
    gadget = ProductGadget(_product_net(s), epsilon, s, certified_grid_error=np.nan)
    err, axis_err = certify_product(gadget)

    gadget.certified_grid_error = err
    comp = gadget.complexity
    log_inv_eps = math.log(1.0 / epsilon)
    gadget.metadata = {
        "epsilon": epsilon,
        "sawtooth_depth": s,
        "certified_grid_error": err,
        "axis_error": axis_err,
        "complexity": {"L": comp.depth, "W": comp.nonzero_weights, "U": comp.units},
        "log_law_constants": {
            "depth": comp.depth / log_inv_eps,
            "weights": comp.nonzero_weights / log_inv_eps,
            "units": comp.units / log_inv_eps,
        },
    }
    gadget.net.metadata = dict(gadget.metadata)
    return gadget


@dataclass
class SignApprox:
    """Two-layer ReLU realization of F_a: sign outside [-a, a], t/a inside."""

    a: float
    net: ReluNetwork

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        # the exact F_a never leaves [-1, 1]; clip removes float overshoot only
        out = np.clip(forward(self.net, t.reshape(-1, 1))[:, 0], -1.0, 1.0)
        return float(out[0]) if t.ndim == 0 else out

    @property
    def complexity(self) -> NetworkComplexity:
        return complexity(self.net)


def build_sign_approx(a: float) -> SignApprox:
    if not a > 0.0:
        raise ParameterError(f"sign approximator needs a > 0, got {a}")
    layers = [
        DenseLayer(np.array([[1.0], [1.0]]), np.array([a, -a])),
        DenseLayer(np.array([[1.0 / a, -1.0 / a]]), np.array([-1.0])),
    ]
    net = ReluNetwork(layers, input_dim=1, apply_final_relu=False, metadata={"a": a})
    return SignApprox(a, net)
