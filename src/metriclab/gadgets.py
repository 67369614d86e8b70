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
phi(x, y) = S(x+y) - (S(x) + S(y)).  S is piecewise linear with kinks only
at its knots k*h, h = 4/2^s, and interpolates v^2/2 there, which gives the
exact sup of |phi - xy|.  certify_product evaluates the network at the
knots of [0, 4] and checks them; the values and subgradients it finds are
the gadget's KnotTable, from which every call evaluates S and S' with one
gather and one multiply-add per value instead of running the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, ParameterError
from .relu_net import DenseLayer, NetworkComplexity, ReluNetwork, complexity, forward
from .relu_net import _backprop, _forward_trace

PRODUCT_DOMAIN = (-1.0, 2.0)
# certification evaluates S and its subgradient at the 2^s + 1 knots of
# [0, 4] and keeps three tables of that length: at s = 20, 1.05M knots in
# 0.75 s, 25.2 MB of tables and a 39 MB traced peak (2-vCPU Xeon VM, numpy 2.4)
MAX_SAWTOOTH_DEPTH = 20
_KNOT_BLOCK = 16_384
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


@dataclass(frozen=True, eq=False)
class KnotTable:
    """The squaring branch S at its knots k*h of [0, 4], k = 0 .. 2^s, as
    certification evaluated it, and S evaluated from them.

    ``values[k]`` is S(k*h) and ``knot_slopes[k]`` the network's own
    subgradient there (sigma'(0) = 0).  ``slopes[k]`` = (values[k+1] -
    values[k]) / h is S' on (k*h, (k+1)*h), exact for dyadic knot values;
    ``slopes[2^s]`` = 2 is S' beyond 4, where every hat has vanished and
    S(v) = 2|v|.  ``sup_error`` is the certified sup of |phi - xy|.
    """

    h: float
    values: np.ndarray
    slopes: np.ndarray
    knot_slopes: np.ndarray
    sup_error: float

    def __call__(self, v: np.ndarray):
        """S(v) and S'(v), elementwise: for a = |v| and k = min(floor(a/h),
        2^s), S = values[k] + (a - k*h) * slopes[k], and S' = sign(v) *
        slopes[k] between knots, sign(v) * knot_slopes[k] at a knot.  S(-v)
        == S(v) bit for bit, as the network's abs layer gives, and S'(0) = 0.
        """
        a = np.abs(v)
        k = np.fmin(a * (1.0 / self.h), self.values.size - 1).astype(np.intp)  # floor, a >= 0
        r = a - k * self.h  # exact for a <= 4 (Sterbenz, or k = 0)
        slope = self.slopes[k]
        sq = self.values[k] + r * slope
        return sq, np.copysign(np.where(r == 0.0, self.knot_slopes[k], slope), v)


@dataclass
class ProductGadget:
    """Product approximator on [-1, 2]^2, a value of (epsilon, sawtooth_depth).

    The depth s fixes everything else: ``branch`` is the squaring branch S
    and ``net`` the realized polarization network, three copies of S fed
    x+y, x and y and read out as S(x+y) - S(x) - S(y).  Both stay networks,
    for (L, W, U) accounting and as what certify_product certifies; calls
    evaluate the factored form from ``table``, the KnotTable certification
    keeps (certify_product runs on first use).  Since x+y and S(x)+S(y) are
    commutative in floating point, phi(x, y) and phi(y, x) are bit-identical
    by construction, and S(0) = 0 makes phi exactly zero on the axes.
    """

    epsilon: float
    sawtooth_depth: int
    branch: ReluNetwork = field(init=False, repr=False, compare=False)
    net: ReluNetwork = field(init=False, repr=False, compare=False)
    _table: KnotTable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.branch = _squaring_branch(self.sawtooth_depth)
        self.net = _polarization_net(self.branch)

    @property
    def table(self) -> KnotTable:
        if self._table is None:
            certify_product(self)
        return self._table

    @property
    def certified_sup_error(self) -> float:
        return self.table.sup_error

    def __call__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        scalar = x.ndim == 0 and y.ndim == 0
        x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
        S = self.table
        out = S(x + y)[0] - (S(x)[0] + S(y)[0])
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


def check_depth(epsilon: float, sawtooth_depth: int) -> None:
    """Raise CertificationError unless product_depth accepts epsilon and
    sawtooth_depth is the depth it gives.  Cheap, so a saved gadget can be
    checked before its branch and its knots, whose number grows as 2^depth,
    are built."""
    try:
        s = product_depth(epsilon)
    except ParameterError as err:
        raise CertificationError(str(err)) from err
    if sawtooth_depth != s:
        raise CertificationError(f"sawtooth depth {sawtooth_depth} disagrees with "
                                 f"epsilon {epsilon:g}")


def _knot_table(branch: ReluNetwork, s: int) -> KnotTable:
    """Evaluate the depth-s branch S and its subgradient at the knots of
    [0, 4], _KNOT_BLOCK at a time, and bound sup |phi - xy| on [-1, 2]^2.

    S is piecewise linear with kinks only at the knots v = k*h, h = 4/2^s,
    and even (its abs layer gives S(-v) == S(v) bit for bit), so the knots
    of [0, 4] fix it on [-4, 4], where x+y and both factors live.  Where it
    matches v^2/2 at every knot it is the linear interpolant of v^2/2, so E
    = S - v^2/2 lies in [0, h^2/8]; phi - xy = E(x+y) - E(x) - E(y) then has
    sup exactly h^2/4, attained at x = y = h/2.  S interpolates the knot
    values it does have, so adding three times their largest deviation from
    v^2/2 keeps the value a bound should a knot ever round.
    """
    h = 4.0 / 2.0 ** s
    size = 2 ** s + 1
    values, knot_slopes = np.empty(size), np.empty(size)
    dev = 0.0
    for lo in range(0, size, _KNOT_BLOCK):
        v = np.arange(lo, min(lo + _KNOT_BLOCK, size)) * h
        trace = _forward_trace(branch, v[None, :])
        values[lo:lo + v.size] = trace[-1][0]
        knot_slopes[lo:lo + v.size] = _backprop(branch, trace, np.ones((1, v.size)))[2][0]
        dev = max(dev, float(np.max(np.abs(trace[-1][0] - v * v / 2.0))))
    slopes = np.empty(size)
    np.subtract(values[1:], values[:-1], out=slopes[:-1])
    slopes[:-1] /= h
    slopes[-1] = 2.0
    return KnotTable(h, values, slopes, knot_slopes, h * h / 4.0 + 3.0 * dev)


def certify_product(gadget: ProductGadget) -> float:
    """Certify gadget.branch and keep its knot table; returns the sup error
    of the phi built on it.

    Checks the depth first (check_depth), then evaluates the knots
    (_knot_table), checks that S(0) == 0 exactly, which makes phi exactly
    zero on both axes, and that the sup error is at most epsilon.  Raises
    CertificationError on any failure; only a table that passes becomes
    gadget.table, from which every later call evaluates phi.
    """
    eps, s = gadget.epsilon, gadget.sawtooth_depth
    check_depth(eps, s)
    table = _knot_table(gadget.branch, s)
    if table.values[0] != 0.0:
        raise CertificationError("zero-on-axes violated: the squaring branch gives S(0) != 0")
    if not table.sup_error <= eps:
        raise CertificationError(f"product gadget failed certification: sup error "
                                 f"{table.sup_error:.3e} > {eps:.3e}")
    gadget._table = table
    return table.sup_error


def product_depth(epsilon: float) -> int:
    """The sawtooth depth build_product_gadget uses for epsilon; raises
    ParameterError unless epsilon lies in (0, 1/2) and that depth is at most
    MAX_SAWTOOTH_DEPTH.  Cheap: it builds and evaluates nothing."""
    if not (0.0 < epsilon < 0.5):
        raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    s = sawtooth_depth_for(epsilon)
    if s > MAX_SAWTOOTH_DEPTH:
        raise ParameterError(f"epsilon {epsilon:g} asks for sawtooth depth {s}; the knot check "
                             f"certifies depths up to {MAX_SAWTOOTH_DEPTH} (epsilon >= 48 * 2^-42)")
    return s


def build_product_gadget(epsilon: float) -> ProductGadget:
    """Build phi for epsilon and certify sup |phi - xy| <= epsilon on [-1, 2]^2."""
    gadget = ProductGadget(epsilon, product_depth(epsilon))
    gadget.certified_sup_error  # certify now: a gadget that fails never leaves here
    return gadget


@dataclass
class SignApprox:
    """F_a, a value of the band half-width a: sign outside [-a, a], t/a inside.

    ``net`` is the two-layer realization s(t + a)/a - s(t - a)/a - 1, built
    from a; it is what __call__ evaluates, what verification certifies and
    what (L, W, U) counts.  Pair evaluation uses the closed form instead
    (value_and_slope), which the network equals to within 4 ulps of 1.
    """

    a: float
    net: ReluNetwork = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = self.a
        if not (math.isfinite(a) and a > 0.0):
            raise ParameterError(f"sign approximator needs a finite a > 0, got {a}")
        self.net = ReluNetwork([DenseLayer(np.array([[1.0], [1.0]]), np.array([a, -a])),
                                DenseLayer(np.array([[1.0 / a, -1.0 / a]]), np.array([-1.0]))],
                               input_dim=1, apply_final_relu=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        # the exact F_a never leaves [-1, 1]; clip removes float overshoot only
        out = np.clip(forward(self.net, t.reshape(-1, 1))[:, 0], -1.0, 1.0)
        return float(out[0]) if t.ndim == 0 else out

    def value_and_slope(self, t: np.ndarray):
        """F_a(t) = clip(t/a, -1, 1) and F_a'(t), elementwise: 1/a on (-a, a]
        and 0 elsewhere, the subgradient the network gives with sigma'(0) = 0.
        upstream * slope is the network's input gradient bit for bit, up to
        the sign of a zero; a value lies within 4 ulps of 1 of the network's,
        which rounds 1/a, t + a and their product."""
        a = self.a
        slope = np.where((t > -a) & (t <= a), 1.0 / a, 0.0)
        return np.clip(t / a, -1.0, 1.0), slope

    @property
    def complexity(self) -> NetworkComplexity:
        return complexity(self.net)


def build_sign_approx(a: float) -> SignApprox:
    return SignApprox(a)
