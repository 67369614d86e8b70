import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.errors import CertificationError, ParameterError
from metriclab.gadgets import (
    MAX_SAWTOOTH_DEPTH,
    PRODUCT_DOMAIN,
    ProductGadget,
    SignApprox,
    _knot_table,
    _squaring_branch,
    build_product_gadget,
    build_sign_approx,
    build_square_gadget,
    certify_product,
    check_depth,
    sawtooth_depth_for,
)
from metriclab import gadgets
from metriclab.relu_net import DenseLayer, ReluNetwork, _backprop, _forward_trace, complexity, \
    forward

SQUARE = st.floats(min_value=PRODUCT_DOMAIN[0], max_value=PRODUCT_DOMAIN[1])
PHIS = {eps: build_product_gadget(eps) for eps in (1e-1, 1e-2, 1e-3)}
BRANCHES = {s: _squaring_branch(s) for s in range(1, 9)}
TABLES = {s: (_squaring_branch(s), _knot_table(_squaring_branch(s), s)) for s in range(1, 13)}


def square_grid(n):
    return np.linspace(PRODUCT_DOMAIN[0], PRODUCT_DOMAIN[1], n)


def eps_for_depth(s):
    """The smallest epsilon whose sawtooth depth is s (s >= 3 for epsilon < 1/2)."""
    return 12.0 * 4.0 ** -s


class TestSquareGadget:
    @pytest.mark.parametrize("s", [1, 2, 4, 6])
    def test_exact_at_endpoints(self, s):
        sq = build_square_gadget(s)
        assert forward(sq, [0.0])[0] == 0.0
        assert forward(sq, [1.0])[0] == 1.0

    def test_error_bound_s4(self):
        sq = build_square_gadget(4)
        u = np.linspace(0.0, 1.0, 10_000)
        err = np.max(np.abs(forward(sq, u[:, None])[:, 0] - u * u))
        assert err <= 2.0**-10

    def test_accuracy_monotone_in_s(self):
        u = np.linspace(0.0, 1.0, 5000)
        errs = []
        for s in range(1, 7):
            sq = build_square_gadget(s)
            errs.append(np.max(np.abs(forward(sq, u[:, None])[:, 0] - u * u)))
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("s", [1, 3, 5])
    def test_analytic_error_bound(self, s):
        sq = build_square_gadget(s)
        u = np.linspace(0.0, 1.0, 20_001)
        assert np.max(np.abs(forward(sq, u[:, None])[:, 0] - u * u)) <= 2.0 ** (-2 * s - 2) + 1e-15

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            build_square_gadget(0)


class TestProductGadget:
    def test_zero_on_axes_exact(self):
        phi = build_product_gadget(1e-2)
        for y in (-1.0, 0.37, 2.0):
            assert phi(0.0, y) == 0.0
            assert phi(y, 0.0) == 0.0

    def test_example_value(self):
        phi = build_product_gadget(1e-2)
        assert abs(phi(0.5, 0.5) - 0.25) <= phi.epsilon

    def test_certificate(self):
        phi = build_product_gadget(1e-3)
        assert phi.certified_sup_error <= 1e-3
        assert phi.complexity.depth == phi.sawtooth_depth + 2

    def test_symmetry_bit_exact(self):
        phi = build_product_gadget(1e-2)
        g = square_grid(101)
        xx, yy = np.meshgrid(g, g)
        a = phi(xx.ravel(), yy.ravel())
        b = phi(yy.ravel(), xx.ravel())
        assert np.array_equal(a, b)

    def test_boundedness(self):
        phi = build_product_gadget(1e-2)
        g = square_grid(201)
        xx, yy = np.meshgrid(g, g)
        assert np.max(np.abs(phi(xx.ravel(), yy.ravel()))) <= 4.0 + phi.epsilon

    def test_depth_log_law(self):
        eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
        depths = [complexity(build_product_gadget(e).net).depth for e in eps_list]
        # halving epsilon adds a bounded number of layers; per decade <= 2
        increments = np.diff(depths)
        assert np.all(increments >= 0)
        assert np.all(increments <= 2)

    def test_sawtooth_depth_formula(self):
        for eps in (1e-1, 1e-2, 1e-3):
            s = sawtooth_depth_for(eps)
            assert 3 * 8.0 * 2.0 ** (-2 * s - 2) <= eps
            # minimal up to the factor-2 safety margin
            assert 3 * 8.0 * 2.0 ** (-2 * (s - 1) - 2) > eps / 2

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.7, -1e-3])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ParameterError):
            build_product_gadget(eps)

    def test_is_a_value_of_epsilon_and_depth(self):
        phi = ProductGadget(1e-2, 6)
        assert phi == build_product_gadget(1e-2) and phi != ProductGadget(1e-2, 5)
        assert phi.complexity.depth == 6 + 2


class TestSupCertificate:
    """certify_product returns the exact sup of |phi - xy| on [-1, 2]^2,
    4^(1-s), from the 1.5 * 2^s + 1 knots of S."""

    @pytest.mark.parametrize("eps,sup", [(1e-1, 1.5625e-2), (1e-2, 9.765625e-4),
                                         (1e-3, 2.44140625e-4)])
    def test_certificate_values(self, eps, sup):
        assert build_product_gadget(eps).certified_sup_error == sup

    @pytest.mark.parametrize("s", range(1, 17))
    def test_closed_form(self, s):
        assert _knot_table(_squaring_branch(s), s).sup_error == 4.0 ** (1 - s)
        if s >= 3:  # shallower depths belong to no epsilon in (0, 1/2)
            assert certify_product(ProductGadget(eps_for_depth(s), s)) == 4.0 ** (1 - s)

    @settings(max_examples=300, deadline=None)
    @given(eps=st.sampled_from(sorted(PHIS)), x=SQUARE, y=SQUARE)
    def test_bounds_the_error_at_random_points(self, eps, x, y):
        phi = PHIS[eps]
        assert abs(phi(x, y) - x * y) <= phi.certified_sup_error + 1e-14

    @pytest.mark.parametrize("eps", sorted(PHIS))
    def test_attained_at_half_a_knot_step(self, eps):
        phi = PHIS[eps]
        c = 2.0 / 2.0 ** phi.sawtooth_depth  # h/2
        assert abs(abs(phi(c, c) - c * c) - phi.certified_sup_error) <= 1e-15

    def test_stays_a_bound_when_the_knots_move(self):
        # a read-out off by one part in 2^20 moves every knot; the certificate
        # grows by three times the largest move and still bounds the error
        phi = ProductGadget(1e-2, 6)
        *hidden, readout = phi.branch.layers
        phi.branch = ReluNetwork([*hidden, DenseLayer((1 + 2.0**-20) * readout.weights,
                                                      readout.bias)],
                                 input_dim=1, apply_final_relu=False)
        sup = certify_product(phi)
        assert sup > 4.0 ** (1 - 6)
        g = square_grid(301)
        xx, yy = np.meshgrid(g, g)
        assert np.max(np.abs(phi(xx.ravel(), yy.ravel()) - xx.ravel() * yy.ravel())) <= sup

    def test_rejects_a_depth_beyond_the_cap_before_any_knot(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="sawtooth depth 22"):
                build_product_gadget(1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(CertificationError, match="sawtooth depth 22"):
            check_depth(1e-12, sawtooth_depth_for(1e-12))
        assert sawtooth_depth_for(0.999 * eps_for_depth(MAX_SAWTOOTH_DEPTH)) \
            == MAX_SAWTOOTH_DEPTH + 1

    def test_certifies_the_deepest_depth_in_flat_memory(self):
        eps = eps_for_depth(MAX_SAWTOOTH_DEPTH)
        tracemalloc.start()
        try:
            phi = build_product_gadget(eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.sawtooth_depth == MAX_SAWTOOTH_DEPTH
        assert phi.certified_sup_error == 4.0 ** (1 - MAX_SAWTOOTH_DEPTH)
        assert peak < 64 << 20


class TestFactoredProduct:
    """phi is evaluated as S(x+y) - (S(x) + S(y)) with the squaring branch S
    its depth determines; these pin it to the realized network."""

    @settings(max_examples=200, deadline=None)
    @given(eps=st.sampled_from(sorted(PHIS)), x=SQUARE, y=SQUARE)
    def test_matches_realized_network(self, eps, x, y):
        phi = PHIS[eps]
        assert abs(phi(x, y) - forward(phi.net, np.array([x, y]))[0]) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(eps=st.sampled_from(sorted(PHIS)), x=SQUARE, y=SQUARE)
    def test_zero_on_axes_and_symmetric(self, eps, x, y):
        phi = PHIS[eps]
        assert phi(0.0, y) == 0.0
        assert phi(x, 0.0) == 0.0
        assert phi(x, y) == phi(y, x)

    @settings(max_examples=300, deadline=None)
    @given(s=st.sampled_from(sorted(BRANCHES)), v=st.floats(min_value=-4.0, max_value=4.0))
    def test_branch_error_within_analytic_bound(self, s, v):
        # S(v) = 8 sq_s(|v|/4) and |sq_s(u) - u^2| <= 2^(-2s-2), so the bound is 2^(1-2s)
        got = forward(BRANCHES[s], [v])[0]
        assert abs(got - v * v / 2.0) <= 2.0 ** (1 - 2 * s) + 1e-15

    @settings(max_examples=200, deadline=None)
    @given(s=st.sampled_from(sorted(BRANCHES)),
           v=st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: abs(v) > 2.0 ** -900))
    def test_branch_is_the_scaled_square_gadget(self, s, v):
        # the abs fold and the read-out scale by 8 = 2M^2 are exact in binary,
        # away from subnormal products
        sq = forward(build_square_gadget(s), [abs(v) / 4.0])[0]
        assert forward(BRANCHES[s], [v])[0] == 8.0 * sq

    @settings(max_examples=300, deadline=None)
    @given(eps=st.sampled_from(sorted(PHIS)), x=SQUARE, y=SQUARE)
    def test_product_error_within_analytic_bound(self, eps, x, y):
        phi = PHIS[eps]
        assert abs(phi(x, y) - x * y) <= 6.0 * 2.0 ** (-2 * phi.sawtooth_depth)

    def test_branch_is_four_wide(self):
        phi = PHIS[1e-2]
        assert phi.branch.input_dim == 1
        assert [layer.out_width for layer in phi.branch.layers[1:-1]] == \
            [4] * phi.sawtooth_depth

    def test_certification_catches_a_scaled_branch(self):
        # the knot check guards the branch that calls run
        gadget = build_product_gadget(1e-2)
        *hidden, readout = gadget.branch.layers
        gadget.branch = ReluNetwork([*hidden, DenseLayer(3.0 * readout.weights, readout.bias)],
                                    input_dim=1, apply_final_relu=False)
        with pytest.raises(CertificationError, match="sup error"):
            certify_product(gadget)

    def test_certification_checks_depth_against_epsilon(self):
        gadget = ProductGadget(1e-2, 3)
        with pytest.raises(CertificationError, match="sawtooth depth"):
            certify_product(gadget)

    def test_certification_checks_the_branch_at_zero(self):
        gadget = ProductGadget(1e-2, 6)
        *hidden, readout = gadget.branch.layers
        gadget.branch = ReluNetwork([*hidden, DenseLayer(readout.weights, readout.bias + 1e-300)],
                                    input_dim=1, apply_final_relu=False)
        with pytest.raises(CertificationError, match="zero-on-axes"):
            certify_product(gadget)


def branch_values_and_slopes(branch, v):
    """S and its subgradient from the realized branch network."""
    trace = _forward_trace(branch, v[None, :])
    return trace[-1][0], _backprop(branch, trace, np.ones((1, v.size)))[2][0]


class TestKnotTable:
    """Calls evaluate S and S' from the certified knot table; these pin the
    table to the realized branch network it was read from."""

    @settings(max_examples=300, deadline=None)
    @given(s=st.sampled_from(sorted(TABLES)),
           v=st.lists(st.floats(min_value=-6.0, max_value=6.0)
                      .filter(lambda v: v == 0.0 or abs(v) > 2.0 ** -1000),
                      min_size=1, max_size=20))
    def test_matches_the_network_at_random_points(self, s, v):
        # away from subnormals, whose quarter the network's abs layer rounds
        # (to zero for 2^-1074 and 2^-1073)
        branch, table = TABLES[s]
        v = np.array(v)
        sq, slope = table(v)
        net_sq, net_slope = branch_values_and_slopes(branch, v)
        # values within 4 ulps of S(4) = 8 (of 2|v| beyond 4); slopes bit for bit
        assert np.all(np.abs(sq - net_sq) <= 4 * np.spacing(np.maximum(8.0, np.abs(net_sq))))
        assert np.array_equal(slope, net_slope)

    @pytest.mark.parametrize("s", sorted(TABLES))
    def test_slopes_match_the_network_at_every_knot(self, s):
        branch, table = TABLES[s]
        v = np.arange(-2 ** s, 2 ** s + 1) * (4.0 / 2 ** s)
        sq, slope = table(v)
        net_sq, net_slope = branch_values_and_slopes(branch, v)
        assert np.array_equal(sq, net_sq) and np.array_equal(sq, v * v / 2.0)
        assert np.array_equal(slope, net_slope)

    @settings(max_examples=200, deadline=None)
    @given(s=st.sampled_from(sorted(TABLES)), v=st.floats(min_value=-1e6, max_value=1e6))
    def test_even_zero_at_zero_and_two_abs_beyond_four(self, s, v):
        _, table = TABLES[s]
        sq, slope = table(np.array([0.0, v, -v]))
        assert sq[0] == 0.0 and slope[0] == 0.0
        assert sq[1] == sq[2] and slope[1] == -slope[2]
        if abs(v) > 4.0:
            assert abs(sq[1] - 2.0 * abs(v)) <= np.spacing(2.0 * abs(v))
            assert slope[1] == np.copysign(2.0, v)

    @settings(max_examples=100, deadline=None)
    @given(eps=st.sampled_from(sorted(PHIS)),
           x=st.lists(SQUARE, min_size=1, max_size=40), data=st.data())
    def test_a_value_does_not_depend_on_its_position(self, eps, x, data):
        phi = PHIS[eps]
        x = np.array(x)
        y = np.array(data.draw(st.lists(SQUARE, min_size=x.size, max_size=x.size)))
        cut = sorted(data.draw(st.lists(st.integers(0, x.size), max_size=4)))
        sq, slope = phi.table(x)
        whole = phi(x, y)
        alone = [phi.table(x[i:i + 1]) for i in range(x.size)]
        assert np.array_equal(sq, np.concatenate([a[0] for a in alone]))
        assert np.array_equal(slope, np.concatenate([a[1] for a in alone]))
        assert np.array_equal(whole, [phi(x[i], y[i]) for i in range(x.size)])
        bounds = [0, *cut, x.size]
        blocks = [phi(x[lo:hi], y[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(whole, np.concatenate(blocks))
        table_blocks = [phi.table(x[lo:hi])[0] for lo, hi in zip(bounds, bounds[1:])]
        assert np.array_equal(sq, np.concatenate(table_blocks))

    def test_certification_reads_every_knot_once(self, monkeypatch):
        evaluated = []
        knot_table = gadgets._knot_table

        def counted(branch, s):
            evaluated.append(s)
            return knot_table(branch, s)

        monkeypatch.setattr(gadgets, "_knot_table", counted)
        phi = build_product_gadget(1e-2)
        phi(0.3, 0.7), phi.certified_sup_error, phi.table
        assert evaluated == [6]
        assert phi.table.values.size == 2 ** 6 + 1


class TestSignApprox:
    def test_paper_saturation_values(self):
        fa = build_sign_approx(0.1)
        assert fa(0.5) == pytest.approx(1.0, abs=1e-12)
        assert fa(-0.5) == pytest.approx(-1.0, abs=1e-12)

    def test_odd_at_zero(self):
        for a in (0.05, 0.2, 1.0):
            assert build_sign_approx(a)(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_linear_segment(self):
        fa = build_sign_approx(0.2)
        assert fa(0.1) == pytest.approx(0.5, abs=1e-13)

    def test_exactness_grid(self):
        grid = np.linspace(-5.0, 5.0, 10_001)
        for a in (0.05, 0.2, 1.0):
            fa = build_sign_approx(a)
            expected = np.where(grid >= a, 1.0, np.where(grid <= -a, -1.0, grid / a))
            assert np.max(np.abs(fa(grid) - expected)) <= 1e-12

    def test_lipschitz_odd_nondecreasing(self):
        a = 0.3
        fa = build_sign_approx(a)
        grid = np.linspace(-2.0, 2.0, 4001)
        vals = fa(grid)
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-15)
        assert np.max(np.abs(diffs)) <= (grid[1] - grid[0]) / a + 1e-12
        assert np.max(np.abs(vals + fa(-grid))) <= 1e-12
        assert np.all(np.abs(vals) <= 1.0)

    def test_rejects_nonpositive_a(self):
        for a in (0.0, -0.3, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                build_sign_approx(a)
            with pytest.raises(ParameterError):
                SignApprox(a)

    def test_the_network_is_built_from_a(self):
        with pytest.raises(TypeError):
            SignApprox(0.1, build_sign_approx(0.2).net)
        w = [layer.weights for layer in SignApprox(0.25).net.layers]
        assert np.array_equal(w[1], [[4.0, -4.0]])

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(min_value=1e-3, max_value=10.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_matches_the_network(self, a, seed):
        rng = np.random.default_rng(seed)
        edges = [a, -a, np.nextafter(a, 0.0), np.nextafter(a, np.inf),
                 np.nextafter(-a, 0.0), np.nextafter(-a, -np.inf), 0.0]
        t = np.concatenate([edges, rng.uniform(-3.0 * a, 3.0 * a, 200)])
        upstream = rng.standard_normal(t.size)
        fa = SignApprox(a)
        value, slope = fa.value_and_slope(t)
        # the net rounds 1/a, t + a, their product (<= 2) and the - 1, the
        # closed form t/a: under 4 ulps of 1 in all; 2 is the most seen
        assert np.max(np.abs(value - fa(t))) <= 4.0 * np.finfo(float).eps
        assert np.all(np.abs(value) <= 1.0)
        assert np.array_equal(slope, np.where((t > -a) & (t <= a), 1.0 / a, 0.0))
        g_net = _backprop(fa.net, _forward_trace(fa.net, t[None, :]), upstream[None, :])[2][0]
        # equal as floats: bit for bit except the sign of a zero
        assert np.array_equal(upstream * slope, g_net)

    @settings(max_examples=100, deadline=None)
    @given(t=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=40),
           data=st.data())
    def test_closed_form_does_not_depend_on_its_position(self, t, data):
        fa = SignApprox(0.3)
        t = np.array(t)
        cut = sorted(data.draw(st.lists(st.integers(0, t.size), max_size=4)))
        bounds = [0, *cut, t.size]
        whole = fa.value_and_slope(t)
        blocks = [fa.value_and_slope(t[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        for k in range(2):
            assert whole[k].tobytes() == np.concatenate([b[k] for b in blocks]).tobytes()
