import dataclasses
import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.errors import (
    CertificationError,
    DomainError,
    InputShapeError,
    ParameterError,
    ValidationFailure,
)
from metriclab.gadgets import PRODUCT_DOMAIN, build_product_gadget, build_sign_approx
from metriclab.relu_net import (
    DenseLayer,
    NetworkComplexity,
    ReluNetwork,
    _backprop,
    _forward_trace,
    complexity,
    forward,
)
from metriclab.risk import excess_risk_identity
from metriclab.structured import (
    HypothesisBudget,
    StructuredMetricNet,
    aggregate_complexity,
    glue_constants,
    load_manifest,
    make_structured_net,
    pair_backward,
    pair_forward,
    pair_values,
    pdim_bound,
    save_manifest,
)
from metriclab import structured
from metriclab.structured import _EVAL_BLOCK, _select_points
from metriclab.synthetic import (
    SyntheticTask,
    eta_pairs,
    make_task,
    two_value_model,
)

from helpers import atom_marginal, backward, constant_subnet


@pytest.fixture(scope="module")
def phi():
    return build_product_gadget(1e-3)


@pytest.fixture(scope="module")
def sign():
    return build_sign_approx(0.1)


def ramp_subnet(lo_value, hi_value, k=8.0):
    """Piecewise-linear h: lo_value for x <= 1/2 - 1/(2k), hi_value beyond."""
    span = hi_value - lo_value
    layers = [
        DenseLayer(np.array([[-k], [-k]]), np.array([0.5 * k + 0.5, 0.5 * k - 0.5])),
        DenseLayer(np.array([[-span, span]]), np.array([lo_value + span])),
    ]
    return ReluNetwork(layers, input_dim=1)


class TestEvaluate:
    def test_zero_subnets_give_plus_one(self, phi, sign):
        net = StructuredMetricNet([constant_subnet(1, 0.0), constant_subnet(1, 0.0)], phi, sign)
        # phi vanishes on the axes, so the sign net sees exactly 1
        assert pair_values(net, [0.3], [0.8])[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_one_subnet_saturates_negative(self, phi, sign):
        net = StructuredMetricNet([constant_subnet(1, 1.0)], phi, sign)
        # phi(1,1) within eps of 1, so F_a(-1 +- 2eps) = -1 for a = 0.1
        assert pair_values(net, [0.3], [0.8])[0] == -1.0

    def test_symmetry_bit_exact(self):
        net = make_structured_net(p=3, m=2, depth=2, width=5, epsilon=1e-2, a=0.3,
                                  seed=5, init_scale=2.0)
        rng = np.random.default_rng(1)
        X, Xp = rng.random((100, 3)), rng.random((100, 3))
        assert np.array_equal(pair_values(net, X, Xp), pair_values(net, Xp, X))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 3),
           picks=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1,
                          max_size=30))
    def test_symmetry_bit_exact_with_repeated_points(self, seed, p, picks):
        net = make_structured_net(p=p, m=2, depth=2, width=5, epsilon=1e-2, a=0.3,
                                  seed=seed, init_scale=2.0)
        points = np.random.default_rng(seed).random((8, p))
        i, j = np.array(picks).T
        assert np.array_equal(pair_values(net, points[i], points[j]),
                              pair_values(net, points[j], points[i]))

    def test_range_on_random_pairs(self):
        net = make_structured_net(p=2, m=3, depth=2, width=6, epsilon=1e-2, a=0.2,
                                  seed=8, init_scale=3.0)
        rng = np.random.default_rng(2)
        d = pair_values(net, rng.random((10_000, 2)), rng.random((10_000, 2)))
        assert np.all(d >= -1.0) and np.all(d <= 1.0)

    def test_domain_error(self, phi, sign):
        net = StructuredMetricNet([constant_subnet(1, 0.0)], phi, sign)
        with pytest.raises(DomainError):
            pair_values(net, [1.4], [0.5])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 3), batch=st.integers(1, 6),
           fault=st.sampled_from(["nan", "below", "above", "width"]), first=st.booleans())
    def test_one_domain_check_for_tasks_and_metrics(self, seed, p, batch, fault, first):
        rng = np.random.default_rng(seed)
        good = rng.random((batch, p))
        bad = rng.random((batch, p + 1 if fault == "width" else p))
        row, col = rng.integers(batch), rng.integers(p)
        bad[row, col] = {"nan": np.nan, "below": -1e-12, "above": 1.0 + 1e-12,
                         "width": 0.5}[fault]
        expected = InputShapeError if fault == "width" else DomainError
        assert issubclass(expected, ValidationFailure)
        pair = (bad, good) if first else (good, bad)
        task = make_task("cosine", p=p, A=0.05, k=1, r=1)
        net = make_structured_net(p=p, m=1, depth=1, width=2, epsilon=1e-3, a=0.1, seed=seed)
        with pytest.raises(expected):
            eta_pairs(task, *pair)
        with pytest.raises(expected):
            pair_values(net, *pair)

    def test_equal_depth_required(self, phi, sign):
        with pytest.raises(ParameterError):
            StructuredMetricNet(
                [constant_subnet(1, 0.0, depth=1), constant_subnet(1, 0.0, depth=2)],
                phi, sign,
            )


def stacked(X, Xp):
    """A pair batch as pair_forward's (i, j, points): each side its own point."""
    side = np.arange(len(X))
    return side, len(X) + side, np.concatenate([X.T, Xp.T], axis=1)


def dyadic_net(p):
    """A metric net on which every sum is exact in floating point.

    Sub-network weights lie on a 1/8 grid, epsilon = 0.1 gives a sawtooth
    depth of 4 and a = 2 makes 1/a exact.  On inputs from a 1/256 grid no
    value then depends on how BLAS orders or fuses a sum, so comparing two
    evaluations checks only which pairs meet which points.  (On float
    weights, OpenBLAS reads the last n mod 4 columns of a one-row matmul
    through another kernel, so one pass and a blocked pass can differ in
    the last bit.)  With a = 2 most pairs fall in F_a's linear band, so d
    takes thousands of distinct values.
    """
    net = make_structured_net(p=p, m=2, depth=2, width=4, epsilon=0.1, a=2.0, seed=p,
                              init_scale=2.0)
    for h in net.subnets:
        for layer in h.layers:
            layer.weights = np.round(8.0 * layer.weights) / 8.0
            layer.bias = np.round(8.0 * layer.bias) / 8.0
    return net


class TestBlockedEvaluation:
    B = _EVAL_BLOCK

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5])
    def test_blocks_match_one_pass_bit_for_bit(self, p, n):
        net = dyadic_net(p)
        X, Xp = np.random.default_rng(n).integers(0, 257, (2, n, p)) / 256.0
        d = pair_values(net, X, Xp)
        assert d.shape == (n,)
        assert np.array_equal(d, pair_forward(net, *stacked(X, Xp)).d)

    def test_dyadic_net_values_vary(self):
        # guards the test above against a net that saturates every pair
        X, Xp = np.random.default_rng(0).integers(0, 257, (2, 3 * self.B, 3)) / 256.0
        d = pair_values(dyadic_net(3), X, Xp)
        assert np.unique(d).size > 1000 and np.mean(np.abs(d) < 1.0) > 0.3

    @pytest.mark.parametrize("p", [1, 3])
    def test_blocks_match_one_pass_on_float_weights(self, p):
        net = make_structured_net(p=p, m=2, depth=3, width=6, epsilon=1e-2, a=0.1, seed=p,
                                  init_scale=2.0)
        X, Xp = np.random.default_rng(p).random((2, 3 * self.B + 5, p))
        assert np.array_equal(pair_values(net, X, Xp), pair_forward(net, *stacked(X, Xp)).d)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 3), depth=st.integers(2, 4),
           width=st.integers(1, 16), n=st.integers(1, 200), data=st.data())
    def test_any_block_split_matches_the_whole_bit_for_bit(self, seed, p, depth, width, n,
                                                           data):
        # float weights, both stacked sides (pair_values' form) and dataset
        # rows (train's)
        net = make_structured_net(p=p, m=2, depth=depth, width=width, epsilon=1e-2, a=0.1,
                                  seed=seed, init_scale=2.0)
        rng = np.random.default_rng(seed)
        D = rng.random((n, p))
        i, j = rng.integers(n, size=(2, n))
        X, Xp = D[i], D[j]
        whole = pair_forward(net, *stacked(X, Xp))
        cuts = data.draw(st.lists(st.integers(1, n), max_size=8))
        bounds = sorted({0, n, *cuts})
        blocks = list(zip(bounds[:-1], bounds[1:]))
        sides = [pair_forward(net, *stacked(X[lo:hi], Xp[lo:hi])) for lo, hi in blocks]
        indexed = [pair_forward(net, i[lo:hi], j[lo:hi], np.ascontiguousarray(D.T))
                   for lo, hi in blocks]
        for traces in (sides, indexed):
            assert np.array_equal(np.concatenate([t.t_pre for t in traces]), whole.t_pre)
            assert np.array_equal(np.concatenate([t.d for t in traces]), whole.d)
        with mock.patch.object(structured, "_EVAL_BLOCK", data.draw(st.integers(1, n))):
            assert np.array_equal(pair_values(net, X, Xp), whole.d)

    def test_memory_stays_flat_in_the_number_of_pairs(self):
        net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2, a=0.1, seed=0)
        X, Xp = np.random.default_rng(0).random((2, 100_000, 1))
        tracemalloc.start()
        try:
            pair_values(net, X, Xp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
    def test_a_bad_value_in_a_later_block_is_rejected(self, bad):
        # the stream is checked before its first block is traced
        net = make_structured_net(p=2, m=1, depth=1, width=2, epsilon=1e-1, a=0.1, seed=0)
        X, Xp = np.random.default_rng(0).random((2, 2 * self.B + 7, 2))
        Xp[2 * self.B + 3, 1] = bad
        with mock.patch.object(structured, "pair_forward",
                               wraps=structured.pair_forward) as traced:
            with pytest.raises(DomainError):
                pair_values(net, X, Xp)
        assert traced.call_count == 0

    def test_a_stream_is_checked_once(self):
        net = make_structured_net(p=2, m=1, depth=1, width=2, epsilon=1e-1, a=0.1, seed=0)
        X, Xp = np.random.default_rng(0).random((2, 2 * self.B + 7, 2))
        with mock.patch.object(structured, "_unit_cube_batch",
                               wraps=structured._unit_cube_batch) as check, \
                mock.patch.object(structured, "pair_forward",
                                  wraps=structured.pair_forward) as traced:
            assert pair_values(net, X, Xp).shape == (2 * self.B + 7,)
        assert traced.call_count == 3
        assert check.call_count == 2

    @pytest.mark.parametrize("n", [10, B + 10])
    def test_mismatched_shapes_still_rejected(self, n):
        net = make_structured_net(p=2, m=1, depth=1, width=2, epsilon=1e-1, a=0.1, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(InputShapeError):
            pair_values(net, rng.random((n, 2)), rng.random((n - 1, 2)))
        with pytest.raises(InputShapeError):
            pair_values(net, rng.random((n, 2)), rng.random((n, 3)))


def reference_subnet_grads(net, X, Xp, upstream):
    """Sub-network gradients of sum(upstream * d) from relu_net.backward on
    every pair side, through the realized product and sign networks."""
    sides = [(forward(h, X)[:, 0], forward(h, Xp)[:, 0]) for h in net.subnets]
    pairs = [np.clip(np.column_stack(ab), -1.0, 2.0) for ab in sides]
    t = 1.0 - 2.0 * sum(forward(net.product.net, pair)[:, 0] for pair in pairs)
    g_t = backward(net.sign.net, t[:, None], upstream[:, None]).input_grad[:, 0]
    grads = []
    for h, (a, b), pair in zip(net.subnets, sides, pairs):
        g_pair = backward(net.product.net, pair, -2.0 * g_t[:, None]).input_grad
        g_a = g_pair[:, 0] * ((a > -1.0) & (a < 2.0))
        g_b = g_pair[:, 1] * ((b > -1.0) & (b < 2.0))
        rx, rxp = backward(h, X, g_a[:, None]), backward(h, Xp, g_b[:, None])
        grads.append(([w + wp for w, wp in zip(rx.weight_grads, rxp.weight_grads)],
                      [c + cp for c, cp in zip(rx.bias_grads, rxp.bias_grads)]))
    return grads


def branch_reference(net, X, Xp, upstream):
    """d and the sub-network gradients of sum(upstream * d), per pair side,
    with S and S' from the realized squaring branch network."""
    branch, lo, hi = net.product.branch, *PRODUCT_DOMAIN
    raw = [(forward(h, X)[:, 0], forward(h, Xp)[:, 0]) for h in net.subnets]
    clamped = [(np.clip(a, lo, hi), np.clip(b, lo, hi)) if net.clamp_subnet_output else (a, b)
               for a, b in raw]
    traces = [_forward_trace(branch, np.concatenate([a + b, a, b])[None, :])
              for a, b in clamped]
    n = X.shape[0]
    phi = [tr[-1][0][:n] - (tr[-1][0][n:2 * n] + tr[-1][0][2 * n:]) for tr in traces]
    t = 1.0 - 2.0 * sum(phi)
    d = np.clip(forward(net.sign.net, t[:, None])[:, 0], -1.0, 1.0)
    g_phi = -2.0 * backward(net.sign.net, t[:, None], upstream[:, None]).input_grad[:, 0]
    grads = []
    for h, (a, b), tr in zip(net.subnets, raw, traces):
        g = _backprop(branch, tr, np.concatenate([g_phi, -g_phi, -g_phi])[None, :])[2][0]
        g_a, g_b = g[:n] + g[n:2 * n], g[:n] + g[2 * n:]
        if net.clamp_subnet_output:
            g_a, g_b = g_a * ((a > lo) & (a < hi)), g_b * ((b > lo) & (b < hi))
        rx, rxp = backward(h, X, g_a[:, None]), backward(h, Xp, g_b[:, None])
        grads.append(([w + wp for w, wp in zip(rx.weight_grads, rxp.weight_grads)],
                      [c + cp for c, cp in zip(rx.bias_grads, rxp.bias_grads)]))
    return d, grads


class TestPairBackward:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 3), clamp=st.booleans(),
           batch=st.integers(1, 50))
    def test_matches_the_realized_branch(self, seed, p, clamp, batch):
        # init_scale 3 drives sub-network outputs past [-1, 2] and, clamp off,
        # pair sums past 4, where S = 2|v|
        net = make_structured_net(p=p, m=2, depth=3, width=5, epsilon=1e-2, a=1.5,
                                  clamp=clamp, seed=seed, init_scale=3.0)
        rng = np.random.default_rng(seed)
        X, Xp = rng.random((2, batch, p))
        upstream = rng.standard_normal(batch)
        trace = pair_forward(net, *stacked(X, Xp))
        d, want = branch_reference(net, X, Xp, upstream)
        assert np.max(np.abs(trace.d - d)) <= 1e-12
        for (gw, gb), (rw, rb) in zip(pair_backward(net, trace, upstream), want):
            for ours, ref in zip(gw + gb, rw + rb):
                assert np.max(np.abs(ours - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 3), distinct=st.integers(1, 12),
           data=st.data())
    def test_repeated_points_match_per_row_backward(self, seed, p, distinct, data):
        net = make_structured_net(p=p, m=2, depth=3, width=5, epsilon=1e-2, a=1.5,
                                  seed=seed, init_scale=1.5)
        rng = np.random.default_rng(seed)
        points = rng.random((distinct, p))
        pick = st.lists(st.integers(0, distinct - 1), min_size=1, max_size=40)
        i = np.array(data.draw(pick))
        j = np.array(data.draw(st.lists(st.integers(0, distinct - 1),
                                        min_size=i.size, max_size=i.size)))
        X, Xp = points[i], points[j]
        upstream = rng.standard_normal(i.size)
        got = pair_backward(net, pair_forward(net, *stacked(X, Xp)), upstream)
        want = reference_subnet_grads(net, X, Xp, upstream)
        for (gw, gb), (rw, rb) in zip(got, want):
            for ours, ref in zip(gw + gb, rw + rb):
                tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(ours - ref)) <= tol

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(min_value=0.05, max_value=3.0),
           batch=st.integers(1, 50))
    def test_closed_form_sign_gives_the_sign_network_gradients(self, seed, a, batch):
        # pair_backward depends on upstream only through g_t = upstream * F_a':
        # feeding it the network's input gradient with a slope of one must
        # reproduce its gradients bit for bit
        net = make_structured_net(p=2, m=2, depth=3, width=5, epsilon=1e-2, a=a,
                                  seed=seed, init_scale=3.0)
        rng = np.random.default_rng(seed)
        X, Xp = rng.random((2, batch, 2))
        upstream = rng.standard_normal(batch)
        trace = pair_forward(net, *stacked(X, Xp))
        got = pair_backward(net, trace, upstream)
        sign_net = net.sign.net
        g_t = _backprop(sign_net, _forward_trace(sign_net, trace.t_pre[None, :]),
                        upstream[None, :])[2][0]
        unit_slope = dataclasses.replace(trace, sign_slope=np.ones_like(trace.sign_slope))
        want = pair_backward(net, unit_slope, g_t)
        for (gw, gb), (rw, rb) in zip(got, want):
            for ours, ref in zip(gw + gb, rw + rb):
                assert ours.tobytes() == ref.tobytes()

    def test_raw_values_per_side(self):
        net = make_structured_net(p=2, m=3, depth=2, width=4, epsilon=1e-2, a=0.2, seed=1)
        rng = np.random.default_rng(4)
        points = rng.random((5, 2))
        i, j = np.array([0, 1, 1, 4]), np.array([4, 4, 0, 1])
        X, Xp = points[i], points[j]
        trace = pair_forward(net, i, j, np.ascontiguousarray(points.T))
        values = [t[-1][0] for t in trace.subnet_traces]
        raw_x = [v[trace.index[:len(X)]] for v in values]
        raw_xp = [v[trace.index[len(X):]] for v in values]
        for h, rx, rxp in zip(net.subnets, raw_x, raw_xp):
            assert np.allclose(rx, forward(h, X)[:, 0], rtol=0, atol=1e-15)
            assert np.allclose(rxp, forward(h, Xp)[:, 0], rtol=0, atol=1e-15)


class TestIndexPath:
    """train's path: trace each batch from row indices into a feature-major dataset."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 3), distinct=st.integers(1, 12),
           n=st.integers(2, 40), batch=st.integers(1, 60))
    def test_matches_stacked_sides_bit_for_bit(self, seed, p, distinct, n, batch):
        net = make_structured_net(p=p, m=2, depth=3, width=5, epsilon=1e-2, a=1.5,
                                  seed=seed, init_scale=1.5)
        rng = np.random.default_rng(seed)
        X = rng.random((distinct, p))[rng.integers(distinct, size=n)]  # repeated rows
        iu, ju = rng.integers(n, size=(2, batch))
        got = pair_forward(net, iu, ju, np.ascontiguousarray(X.T))
        sides = np.concatenate([X[iu].T, X[ju].T], axis=1)
        for h, trace in zip(net.subnets, got.subnet_traces):
            assert np.array_equal(trace[-1][0][got.index], _forward_trace(h, sides)[-1][0])
        assert np.array_equal(got.t_pre, pair_forward(net, *stacked(X[iu], X[ju])).t_pre)
        assert np.array_equal(got.d, pair_values(net, X[iu], X[ju]))
        # gradients sum each row's sides in another order than per side
        upstream = rng.standard_normal(batch)
        for (gw, gb), (rw, rb) in zip(pair_backward(net, got, upstream),
                                      reference_subnet_grads(net, X[iu], X[ju], upstream)):
            for ours, ref in zip(gw + gb, rw + rb):
                tol = 1e-12 * max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(ours - ref)) <= tol

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 3), large=st.booleans(),
           batch=st.integers(1, 8))
    def test_selects_each_used_row_once(self, seed, p, large, batch):
        # the flag scan over a dataset about as large as the batch, and over
        # one with far more rows than the batch's sides
        n = 64 * 2 * batch + 1 if large else 2 * batch
        rng = np.random.default_rng(seed)
        data = rng.random((p, n))
        iu, ju = rng.integers(n, size=(2, batch))
        sides = np.concatenate([iu, ju])
        points, index = _select_points(data, iu, ju)
        assert np.array_equal(points, data[:, np.unique(sides)])
        assert np.array_equal(points[:, index], data[:, sides])


class TestAggregateComplexity:
    def test_depth_is_component_sum(self, phi, sign):
        # depth formula: L_h + L_phi + L_Fa (no clamp stage here)
        net = StructuredMetricNet([constant_subnet(1, 0.0, depth=2)], phi, sign,
                                  clamp_subnet_output=False)
        agg = aggregate_complexity(net)
        assert agg.depth == 2 + complexity(phi.net).depth + complexity(sign.net).depth

    def test_doubling_m_doubles_subnet_and_product_terms(self, phi, sign):
        def w_total(m):
            net = StructuredMetricNet([constant_subnet(1, 0.5) for _ in range(m)],
                                      phi, sign, clamp_subnet_output=False)
            return aggregate_complexity(net).nonzero_weights
        w_phi = complexity(phi.net).nonzero_weights
        w_fa = complexity(sign.net).nonzero_weights
        # W(m) = 2m*W_h + m*W_phi + W_Fa + (2m - 2) with W_h = 1 here
        for m in (1, 2, 4):
            assert w_total(m) == 2 * m * 1 + m * w_phi + w_fa + 2 * m - 2

    def test_tiny_composite_hand_count(self):
        """Documented hand count for the m=2 composite with s=1 product.

        Components: subnet = single layer [[1]], b=[0.5]: (L,W,U) = (1,2,1).
        Product gadget s=1: abs layer 8 weights; squaring stage 24 weights +
        6 biases; read-out 12 weights -> (3, 50, 19).  Sign net: layer one
        2 weights + 2 biases, read-out 2 weights + 1 bias -> (2, 7, 3).
        Clamp off: L = 1+3+2 = 6; W = 2*(2+2) + 2*50 + 7 + (2*2-2) = 117;
        U = 2*(1+1) + 2*19 + 3 = 45.
        Clamp on adds 2 layers, 16m-2 = 30 vs 2m-2 = 2 extra weights
        (+8m clamp, +6m bias fill), and 4m = 8 units.
        """
        from metriclab.gadgets import ProductGadget

        # s=1 instance built directly: too coarse to certify, fine to count
        phi1 = ProductGadget(0.4, 1)
        assert (complexity(phi1.net).depth, complexity(phi1.net).nonzero_weights,
                complexity(phi1.net).units) == (3, 50, 19)
        sign = build_sign_approx(0.1)
        subnet = lambda: ReluNetwork([DenseLayer(np.array([[1.0]]), np.array([0.5]))],
                                     input_dim=1)
        net_off = StructuredMetricNet([subnet(), subnet()], phi1, sign,
                                      clamp_subnet_output=False)
        agg = aggregate_complexity(net_off)
        assert (agg.depth, agg.nonzero_weights, agg.units) == (6, 117, 45)

        net_on = StructuredMetricNet([subnet(), subnet()], phi1, sign,
                                     clamp_subnet_output=True)
        agg_on = aggregate_complexity(net_on)
        assert (agg_on.depth, agg_on.nonzero_weights, agg_on.units) == (8, 117 + 28, 45 + 8)
        assert glue_constants(net_on)["c_W"] == 30
        assert glue_constants(net_off)["c_W"] == 2

    def test_monotone_under_adding_weight(self, phi, sign):
        base = constant_subnet(1, 0.0)  # zero weights and zero bias: W_h = 0
        before = aggregate_complexity(StructuredMetricNet([base], phi, sign))
        one_weight = ReluNetwork([DenseLayer(np.array([[0.7]]), np.array([0.0]))],
                                 input_dim=1)
        mid = aggregate_complexity(StructuredMetricNet([one_weight], phi, sign))
        assert mid.nonzero_weights == before.nonzero_weights + 2  # charged twice
        weight_and_bias = ReluNetwork([DenseLayer(np.array([[0.7]]), np.array([0.2]))],
                                      input_dim=1)
        full = aggregate_complexity(StructuredMetricNet([weight_and_bias], phi, sign))
        assert full.nonzero_weights == before.nonzero_weights + 4

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_the_builder_defaults_are_the_model_blocks(self, seed):
        # a config passes make_structured_net only the [model] keys it sets
        net = make_structured_net(p=1, m=2, seed=seed)
        spelled = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2, a=0.1,
                                      clamp=True, seed=seed, init_scale=1.0)
        layers = [(layer, twin) for h, g in zip(net.subnets, spelled.subnets, strict=True)
                  for layer, twin in zip(h.layers, g.layers, strict=True)]
        assert len(layers) == 4
        for layer, twin in layers:
            assert layer.weights.tobytes() == twin.weights.tobytes()
            assert layer.bias.tobytes() == twin.bias.tobytes()
        assert structured._manifest(net, []) == structured._manifest(spelled, [])
        agg = aggregate_complexity(net)
        assert (agg.depth, agg.nonzero_weights, agg.units) == (14, 639, 189)


class TestPdimBound:
    def test_arithmetic_example(self):
        assert pdim_bound(NetworkComplexity(4, 100, 16)) == pytest.approx(1600.0)

    def test_linear_in_w(self):
        c1 = NetworkComplexity(3, 50, 8)
        c2 = NetworkComplexity(3, 100, 8)
        assert pdim_bound(c2) == pytest.approx(2 * pdim_bound(c1))

    def test_log_base_two(self):
        assert pdim_bound(NetworkComplexity(1, 1, 2)) == pytest.approx(1.0)

    def test_unit_floor(self):
        with pytest.raises(ParameterError):
            pdim_bound(NetworkComplexity(1, 1, 1))


class TestBudget:
    def test_admissibility(self, phi, sign):
        net = StructuredMetricNet([constant_subnet(1, 0.5)], phi, sign)
        agg = aggregate_complexity(net)
        budget = HypothesisBudget(agg.depth, agg.nonzero_weights, agg.units)
        assert budget.admits(agg)
        assert not HypothesisBudget(agg.depth - 1, agg.nonzero_weights, agg.units).admits(agg)


class TestApproximationSanity:
    def test_hand_built_net_has_zero_excess(self):
        """Two-valued p1 on two atoms: exact sub-networks give exactly zero
        excess hinge risk (the margin clears the sign band everywhere)."""
        task = SyntheticTask(p=1, model=two_value_model(0.9, 0.1), seed=0,
                             marginal=atom_marginal([[0.25], [0.75]]))
        h1 = ramp_subnet(0.9, 0.1)
        h2 = ramp_subnet(0.1, 0.9)
        assert forward(h1, np.array([0.25]))[0] == pytest.approx(0.9, abs=1e-12)
        assert forward(h1, np.array([0.75]))[0] == pytest.approx(0.1, abs=1e-12)
        net = StructuredMetricNet([h1, h2], build_product_gadget(1e-3),
                                  build_sign_approx(0.1))
        excess, se = excess_risk_identity(net, task, 20_000, seed=3)
        # every sampled pair clears the sign band, so the integrand vanishes
        # pointwise; positive saturation leaves one float rounding (~2e-16)
        assert abs(excess) <= 1e-14
        assert se <= 1e-14


class TestPersistence:
    def test_manifest_round_trip_bit_identical(self, tmp_path):
        net = make_structured_net(p=2, m=2, depth=2, width=4, epsilon=1e-2, a=0.2,
                                  seed=3, init_scale=2.0)
        save_manifest(net, tmp_path / "model")
        loaded = load_manifest(tmp_path / "model")
        rng = np.random.default_rng(0)
        X, Xp = rng.random((1000, 2)), rng.random((1000, 2))
        assert np.array_equal(pair_values(net, X, Xp), pair_values(loaded, X, Xp))
        assert loaded.sign.a == net.sign.a
        assert loaded.product.epsilon == net.product.epsilon

    def test_load_rejects_a_manifest_epsilon_the_net_does_not_meet(self, tmp_path):
        net = make_structured_net(p=1, m=1, depth=2, width=4, epsilon=1e-2, a=0.2, seed=3)
        save_manifest(net, tmp_path / "model")
        path = tmp_path / "model" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["epsilon"] = 1e-3
        path.write_text(json.dumps(manifest))
        with pytest.raises(CertificationError):
            load_manifest(tmp_path / "model")

    @staticmethod
    def saved(tmp_path):
        net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2, a=0.2, seed=3)
        save_manifest(net, tmp_path / "model")
        return tmp_path / "model"

    @staticmethod
    def tamper(path, *keys, value=None):
        """Set one nested entry of a JSON file, or delete it when value is None."""
        doc = json.loads(path.read_text())
        *parents, last = keys
        node = doc
        for key in parents:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("key,field", [("aggregated_complexity", "W"),
                                           ("glue_constants", "c_U")])
    def test_load_rejects_recorded_counts_the_nets_do_not_have(self, tmp_path, key, field):
        model = self.saved(tmp_path)
        self.tamper(model / "manifest.json", key, field, value=10**6)
        with pytest.raises(CertificationError, match=key):
            load_manifest(model)

    @pytest.mark.parametrize("key,value", [("certified_sup_error", 1e-9), ("m", 3)])
    def test_load_rejects_a_recorded_value_the_rebuild_does_not_give(self, tmp_path, key, value):
        model = self.saved(tmp_path)
        self.tamper(model / "manifest.json", key, value=value)
        with pytest.raises(CertificationError, match=key):
            load_manifest(model)

    def test_saves_only_the_manifest_and_the_subnets(self, tmp_path):
        model = self.saved(tmp_path)
        assert sorted(os.listdir(model)) == ["manifest.json", "subnet_0.json", "subnet_1.json"]
        manifest = json.loads((model / "manifest.json").read_text())
        assert "product" not in manifest and "sign" not in manifest

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_load_rejects_a_subnet_file_outside_the_model_directory(self, tmp_path, where):
        model = self.saved(tmp_path)
        os.makedirs(tmp_path / "elsewhere")
        os.replace(model / "subnet_1.json", tmp_path / "elsewhere" / "subnet_1.json")
        entry = (str(tmp_path / "elsewhere" / "subnet_1.json") if where == "absolute"
                 else os.path.join("..", "elsewhere", "subnet_1.json"))
        self.tamper(model / "manifest.json", "subnets", 1, value=entry)
        with pytest.raises(CertificationError, match="subnet_0.json ... subnet_<m-1>.json"):
            load_manifest(model)

    def test_load_rejects_a_manifest_with_a_missing_key(self, tmp_path):
        model = self.saved(tmp_path)
        self.tamper(model / "manifest.json", "sawtooth_depth")
        with pytest.raises(ValidationFailure, match="sawtooth_depth"):
            load_manifest(model)

    def test_load_checks_the_depth_before_building_it(self, tmp_path):
        model = self.saved(tmp_path)
        self.tamper(model / "manifest.json", "sawtooth_depth", value=20_000)
        tracemalloc.start()
        try:
            with pytest.raises(CertificationError, match="sawtooth depth 20000 disagrees"):
                load_manifest(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak

    def test_load_rejects_an_epsilon_deeper_than_the_knot_check_certifies(self, tmp_path):
        model = self.saved(tmp_path)
        self.tamper(model / "manifest.json", "epsilon", value=1e-12)
        self.tamper(model / "manifest.json", "sawtooth_depth", value=22)
        with pytest.raises(CertificationError, match="certifies depths up to 20"):
            load_manifest(model)

    def test_load_rejects_the_grid_error_key_of_older_manifests(self, tmp_path):
        model = self.saved(tmp_path)
        path = model / "manifest.json"
        doc = json.loads(path.read_text())
        doc["certified_grid_error"] = doc.pop("certified_sup_error")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationFailure, match="certified_sup_error"):
            load_manifest(model)

    def test_load_rejects_an_epsilon_outside_the_open_half_interval(self, tmp_path):
        model = self.saved(tmp_path)
        self.tamper(model / "manifest.json", "epsilon", value=0.5)
        with pytest.raises(CertificationError, match="epsilon must lie in"):
            load_manifest(model)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 3), p=st.integers(1, 2), depth=st.integers(1, 3),
           width=st.integers(1, 5), epsilon=st.sampled_from([1e-1, 1e-2]),
           a=st.floats(0.01, 2.0), clamp=st.booleans(), seed=st.integers(0, 2**16))
    def test_manifest_round_trip_property(self, m, p, depth, width, epsilon, a, clamp, seed):
        net = make_structured_net(p=p, m=m, depth=depth, width=width, epsilon=epsilon, a=a,
                                  clamp=clamp, seed=seed, init_scale=2.0)
        X, Xp = np.random.default_rng(seed).random((2, 500, p))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
            save_manifest(net, first)
            loaded = load_manifest(first)
            assert np.array_equal(pair_values(loaded, X, Xp), pair_values(net, X, Xp))
            save_manifest(loaded, second)
            names = sorted(os.listdir(first))
            assert names == sorted(os.listdir(second))
            for name in names:
                with open(os.path.join(first, name), "rb") as a_fh, \
                        open(os.path.join(second, name), "rb") as b_fh:
                    assert a_fh.read() == b_fh.read(), name

    def test_load_rejects_a_model_file_with_wrongly_shaped_layers(self, tmp_path):
        model = self.saved(tmp_path)
        self.tamper(model / "subnet_0.json", "layers", 1, "in_width", value=5)
        with pytest.raises(ValidationFailure, match="subnet_0.json"):
            load_manifest(model)
