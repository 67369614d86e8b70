import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.errors import DomainError, InputShapeError
from metriclab.relu_net import (
    DenseLayer,
    ReluNetwork,
    complexity,
    forward,
)

from helpers import backward


def single_layer(w, b):
    """One layer, which is the affine read-out."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    return ReluNetwork([DenseLayer(w, np.asarray(b, dtype=float))], input_dim=w.shape[1])


def relu_layer(w, b):
    """relu(w x + b), read out by an identity layer."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    out = w.shape[0]
    return ReluNetwork([DenseLayer(w, np.asarray(b, dtype=float)),
                        DenseLayer(np.eye(out), np.zeros(out))], input_dim=w.shape[1])


def abs_net():
    # |t| = relu(t) + relu(-t), affine read-out
    return ReluNetwork(
        [DenseLayer(np.array([[1.0], [-1.0]]), np.zeros(2)),
         DenseLayer(np.array([[1.0, 1.0]]), np.zeros(1))],
        input_dim=1,
    )


def random_net(rng, sizes):
    layers = [DenseLayer(rng.standard_normal((o, i)), rng.standard_normal(o))
              for i, o in zip(sizes[:-1], sizes[1:])]
    return ReluNetwork(layers, input_dim=sizes[0])


class TestForward:
    def test_relu_kills_negative(self):
        net = relu_layer([[1.0]], [0.0])
        assert forward(net, np.array([-2.0])) == pytest.approx([0.0])

    def test_identity_on_positive(self):
        net = relu_layer([[1.0]], [0.0])
        assert forward(net, np.array([3.0])) == pytest.approx([3.0])

    def test_read_out_is_affine(self):
        assert forward(single_layer([[1.0]], [0.0]), np.array([-2.0])) == pytest.approx([-2.0])

    @pytest.mark.parametrize("t,expected", [(-2.0, 2.0), (0.0, 0.0), (5.0, 5.0)])
    def test_absolute_value_composition(self, t, expected):
        assert forward(abs_net(), np.array([t]))[0] == pytest.approx(expected)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000),
           sizes=st.lists(st.integers(1, 16), min_size=2, max_size=5),
           batch=st.integers(1, 40))
    def test_batched_matches_single(self, seed, sizes, batch):
        # a row's output depends neither on its position in the batch nor
        # on the memory layout the batch arrives in
        rng = np.random.default_rng(seed)
        net = random_net(rng, sizes)
        X = rng.standard_normal((batch, sizes[0]))
        for layout in (np.ascontiguousarray(X), np.asfortranarray(X)):
            batched = forward(net, layout)
            for k in range(batch):
                assert np.array_equal(batched[k], forward(net, X[k]))

    def test_shape_error(self):
        net = single_layer([[1.0]], [0.0])
        with pytest.raises(InputShapeError):
            forward(net, np.array([1.0, 2.0]))

    def test_nonfinite_error(self):
        net = single_layer([[1.0]], [0.0])
        with pytest.raises(DomainError):
            forward(net, np.array([np.nan]))

    def test_width_chain_validation(self):
        with pytest.raises(InputShapeError):
            ReluNetwork(
                [DenseLayer(np.ones((2, 1)), np.zeros(2)),
                 DenseLayer(np.ones((1, 3)), np.zeros(1))],
                input_dim=1,
            )


class TestBackward:
    def test_active_unit_chain_rule(self):
        net = relu_layer([[2.0]], [0.0])
        rec = backward(net, np.array([3.0]), np.array([1.0]))
        assert np.allclose(rec.weight_grads[0], [[3.0]])
        assert np.allclose(rec.bias_grads[0], [1.0])
        assert np.allclose(rec.input_grad, [2.0])

    def test_inactive_unit_zero_grads(self):
        net = relu_layer([[2.0]], [0.0])
        rec = backward(net, np.array([-3.0]), np.array([1.0]))
        assert np.all(rec.weight_grads[0] == 0.0)
        assert np.all(rec.bias_grads[0] == 0.0)
        assert np.all(rec.input_grad == 0.0)

    @pytest.mark.parametrize("extra_hidden", [False, True])
    def test_matches_central_differences(self, extra_hidden):
        rng = np.random.default_rng(42)
        net = random_net(rng, [4, 8, 6, 3] if extra_hidden else [4, 8, 3])
        x = rng.standard_normal(4)
        upstream = rng.standard_normal(3)
        rec = backward(net, x, upstream)
        h = 1e-5
        for k, layer in enumerate(net.layers):
            it = np.nditer(layer.weights, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = layer.weights[idx]
                layer.weights[idx] = orig + h
                up = float(upstream @ forward(net, x))
                layer.weights[idx] = orig - h
                dn = float(upstream @ forward(net, x))
                layer.weights[idx] = orig
                fd = (up - dn) / (2 * h)
                an = rec.weight_grads[k][idx]
                assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an), 1e-3)

    def test_positive_homogeneity_first_layer(self):
        # scaling first-layer parameters by c > 0 scales its activations by c
        rng = np.random.default_rng(3)
        net = random_net(rng, [2, 4, 1])
        x = rng.standard_normal(2)
        h1 = np.maximum(net.layers[0].weights @ x + net.layers[0].bias, 0.0)
        scaled = ReluNetwork(
            [DenseLayer(3.0 * net.layers[0].weights, 3.0 * net.layers[0].bias)]
            + net.layers[1:],
            input_dim=2,
        )
        h1s = np.maximum(scaled.layers[0].weights @ x + scaled.layers[0].bias, 0.0)
        assert np.allclose(h1s, 3.0 * h1)


class TestComplexity:
    def test_counts_nonzeros_only(self):
        net = single_layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        c = complexity(net)
        assert (c.depth, c.nonzero_weights, c.units) == (1, 2, 2)

    def test_abs_gadget_hand_count(self):
        c = complexity(abs_net())
        assert (c.depth, c.nonzero_weights, c.units) == (2, 4, 3)

    def test_dense_ones(self):
        net = single_layer(np.ones((3, 3)), np.zeros(3))
        c = complexity(net)
        assert (c.depth, c.nonzero_weights, c.units) == (1, 9, 3)


class TestPiecewiseLinearity:
    def test_segment_interpolation_without_pattern_change(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, [3, 6, 2])

        def pattern(x):
            pats = []
            h = x
            for k, layer in enumerate(net.layers):
                z = layer.weights @ h + layer.bias
                pats.append(z > 0)
                h = np.maximum(z, 0.0) if k < len(net.layers) - 1 else z
            return pats

        found = 0
        for _ in range(200):
            x = rng.standard_normal(3)
            xp = x + 0.05 * rng.standard_normal(3)
            if all(np.array_equal(a, b) for a, b in zip(pattern(x), pattern(xp))):
                lam = 0.3
                mid = forward(net, lam * x + (1 - lam) * xp)
                interp = lam * forward(net, x) + (1 - lam) * forward(net, xp)
                assert np.allclose(mid, interp, atol=1e-10)
                found += 1
        assert found > 50

