import math

import numpy as np
import pytest

from metriclab.errors import DomainError, ExecutionError, ParameterError
from metriclab.risk import bayes_risk_hinge
from metriclab.synthetic import (
    SyntheticTask,
    conditional_probs,
    cosine_model,
    counterexample_model,
    estimate_noise_exponent,
    eta,
    eta_pairs,
    family_parameters,
    hinge_metric_values,
    loglog_fit,
    make_task,
    sample_dataset,
    sample_inputs,
    t_quantile,
    true_metric_hinge,
    two_value_model,
)

from helpers import atom_marginal, constant_model


def constant_task(p_vec, seed=0):
    return SyntheticTask(p=1, model=constant_model(np.asarray(p_vec)), seed=seed)


class TestEta:
    def test_paper_cross_example(self):
        # <[3/5,1/5,1/5], [1,0,0]> = 3/5
        task = make_task("counterexample", seed=0)
        assert eta(task, [0.2], [0.8]) == pytest.approx(0.6, abs=1e-15)

    def test_paper_self_example(self):
        # <[3/5,1/5,1/5], same> = 11/25
        task = make_task("counterexample", seed=0)
        assert eta(task, [0.2], [0.2]) == pytest.approx(11.0 / 25.0, abs=1e-15)

    def test_unit_vector_inner_product(self):
        task = constant_task([1.0, 0.0])
        other = constant_task([0.3, 0.7])
        # eta = q for P_x=[1,0], P_x'=[q, 1-q]; emulate by mixing models
        px = conditional_probs(task, np.array([[0.5]]))[0]
        pq = conditional_probs(other, np.array([[0.5]]))[0]
        assert float(px @ pq) == pytest.approx(0.3)

    def test_symmetry_bitwise(self):
        task = make_task("cosine", p=2, seed=1, A=0.05, k=1, r=1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, xp = rng.random(2), rng.random(2)
            assert eta(task, x, xp) == eta(task, xp, x)

    def test_range_and_simplex_at_many_points(self):
        for family, kwargs in [("linear", {}), ("three_label_ramp", {}),
                               ("counterexample", {}), ("two_value", {})]:
            task = make_task(family, seed=0, **kwargs)
            rng = np.random.default_rng(2)
            X = sample_inputs(task, 100_000, rng)
            P = conditional_probs(task, X)  # validates rows internally
            e = eta_pairs(task, X, X[::-1])
            assert np.all(e >= 0.0) and np.all(e <= 1.0)
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12

    def test_duplicated_conditional_laws(self):
        task = make_task("two_value", seed=0)
        # x' and x'' on the same side share the conditional law
        assert eta(task, [0.1], [0.6]) == eta(task, [0.1], [0.9])

    def test_domain_error(self):
        task = make_task("linear", seed=0)
        with pytest.raises(DomainError):
            eta(task, [1.5], [0.5])


class TestTrueMetric:
    def test_paper_sign_values(self):
        task = make_task("counterexample", seed=0)
        assert true_metric_hinge(task, [0.2], [0.8]) == -1.0  # eta = 3/5
        assert true_metric_hinge(task, [0.2], [0.2]) == 1.0   # eta = 11/25

    def test_conventions_at_half(self):
        assert hinge_metric_values(np.array([0.5]))[0] == 0.0

    def test_self_distance_violation_regression(self):
        # the three-label model makes self-similarity non-minimal by design
        task = make_task("counterexample", seed=0)
        d_self = true_metric_hinge(task, [0.2], [0.2])
        d_cross = true_metric_hinge(task, [0.2], [0.8])
        assert d_self > d_cross


class TestBayesRisk:
    def test_separable_constant(self):
        est, se = bayes_risk_hinge(constant_task([1.0, 0.0]), 1000, seed=1)
        assert est == 0.0 and se == 0.0

    def test_maximal_noise_constant(self):
        est, se = bayes_risk_hinge(constant_task([0.5, 0.5]), 1000, seed=1)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_linear_family_vs_quadrature_oracle(self):
        # midpoint quadrature of E[2 min(eta, 1-eta)], eta = xx' + (1-x)(1-x')
        n = 4000
        g = (np.arange(n) + 0.5) / n
        xx, yy = np.meshgrid(g, g)
        e = xx * yy + (1 - xx) * (1 - yy)
        oracle = float(np.mean(2 * np.minimum(e, 1 - e)))
        assert oracle == pytest.approx(0.75, abs=1e-3)
        est, se = bayes_risk_hinge(make_task("linear", seed=9), 100_000, seed=3)
        assert abs(est - oracle) <= 3 * se

    def test_minimum_pairs(self):
        # the floor every Monte Carlo risk estimate shares
        with pytest.raises(ParameterError, match="mc_pairs must be >= 100, got 99"):
            bayes_risk_hinge(make_task("linear", seed=0), 99, seed=0)


class TestSampling:
    def test_degenerate_categorical(self):
        X, y = sample_dataset(constant_task([1.0, 0.0]), 500)
        assert np.all(y == 0)

    def test_binomial_frequency(self):
        X, y = sample_dataset(constant_task([0.3, 0.7], seed=5), 100_000)
        freq = float(np.mean(y == 0))
        stderr = math.sqrt(0.3 * 0.7 / 100_000)
        assert abs(freq - 0.3) <= 3 * stderr

    def test_seed_determinism(self):
        task = make_task("linear", seed=44)
        X1, y1 = sample_dataset(task, 200)
        X2, y2 = sample_dataset(task, 200)
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)

    def test_minimum_size(self):
        with pytest.raises(ParameterError):
            sample_dataset(make_task("linear", seed=0), 1)

    def test_atom_marginal_stays_on_atoms(self):
        task = SyntheticTask(p=1, model=two_value_model(), seed=0,
                             marginal=atom_marginal([[0.25], [0.75]]))
        rng = np.random.default_rng(1)
        X = sample_inputs(task, 1000, rng)
        assert set(np.unique(X)) <= {0.25, 0.75}


class TestNoiseExponent:
    def test_hard_margin_sentinel(self):
        # eta constant at 0.82: every |eta - 1/2| = 0.32 > max(t_grid)
        fit = estimate_noise_exponent(constant_task([0.9, 0.1]), 20_000,
                                      [0.05, 0.1, 0.2, 0.3], seed=0)
        assert fit.hard_margin
        assert fit.theta_hat == math.inf

    def test_ramp_family_theta_near_one(self):
        # margin density is triangular, approximately uniform near zero
        task = make_task("three_label_ramp", seed=2)
        fit = estimate_noise_exponent(task, 1_000_000, np.geomspace(0.003, 0.02, 8), seed=11)
        assert abs(fit.theta_hat - 1.0) <= 0.15
        assert fit.r_squared > 0.99

    @pytest.mark.parametrize("seed", [0, 1])
    def test_linear_task_matches_its_closed_form(self, seed):
        # x, x' uniform with p1(x) = x: |eta - 1/2| = |2x - 1| |2x' - 1| / 2, a
        # product of two uniforms on [0, 1] over 2, so F(t) = 2t (1 - ln 2t)
        t_grid = np.array([0.02, 0.035, 0.06, 0.1, 0.17, 0.3])
        mc_pairs = 1_000_000
        exact = 2.0 * t_grid * (1.0 - np.log(2.0 * t_grid))
        exact_slope = loglog_fit(t_grid, exact).slope
        assert exact_slope == pytest.approx(0.62682, abs=5e-6)
        fit = estimate_noise_exponent(make_task("linear", seed=0), mc_pairs, t_grid, seed=seed)
        binomial_se = np.sqrt(exact * (1.0 - exact) / mc_pairs)
        assert np.all(np.abs(fit.f_values - exact) <= 4.0 * binomial_se)
        assert abs(fit.theta_hat - exact_slope) <= 0.005

    def test_doubling_stability(self):
        task = make_task("three_label_ramp", seed=2)
        grid = np.geomspace(0.003, 0.02, 8)
        f1 = estimate_noise_exponent(task, 500_000, grid, seed=11)
        f2 = estimate_noise_exponent(task, 1_000_000, grid, seed=12)
        assert abs(f1.theta_hat - f2.theta_hat) <= 2 * (f1.theta_se + f2.theta_se)

    def test_grid_validation(self):
        task = make_task("linear", seed=0)
        with pytest.raises(ParameterError):
            estimate_noise_exponent(task, 20_000, [0.1, 0.2, 0.6, 0.3], seed=0)
        with pytest.raises(ParameterError):
            estimate_noise_exponent(task, 20_000, [0.1, 0.2, 0.3], seed=0)
        with pytest.raises(ParameterError):  # NaN compares false with both ends
            estimate_noise_exponent(task, 20_000, [0.1, np.nan, 0.2, 0.3], seed=0)
        with pytest.raises(ParameterError):
            estimate_noise_exponent(task, 100, [0.05, 0.1, 0.2, 0.3], seed=0)

    def test_a_grid_without_spread_is_an_execution_error(self):
        # one distinct value: nothing to fit a slope to
        with pytest.raises(ExecutionError, match="distinct"):
            loglog_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("grid", [[0.1, 0.1, 0.2, 0.3], [0.1] * 4])
    def test_fewer_than_four_distinct_grid_points_rejected(self, grid):
        task = make_task("linear", seed=0)
        with pytest.raises(ParameterError, match="4 distinct"):
            estimate_noise_exponent(task, 20_000, grid, seed=0)

    def test_a_repeated_grid_value_counts_once(self):
        task = make_task("linear", seed=0)
        repeated = estimate_noise_exponent(task, 20_000, [0.1, 0.1, 0.2, 0.3, 0.4], seed=0)
        distinct = estimate_noise_exponent(task, 20_000, [0.1, 0.2, 0.3, 0.4], seed=0)
        for name, value in vars(distinct).items():
            assert np.array_equal(getattr(repeated, name), value), name


class TestTQuantile:
    NORMAL_95 = 1.6448536269514722  # the p = 0.95 quantile of N(0, 1)

    def test_closed_forms_within_four_ulps(self):
        # dof 1: tan(pi (p - 1/2)); dof 2: (2p - 1) / sqrt(2 p (1 - p))
        for got, want in [(t_quantile(0.95, 1), math.tan(0.45 * math.pi)),
                          (t_quantile(0.95, 2), 0.9 / math.sqrt(0.095))]:
            assert abs(got - want) <= 4 * math.ulp(want), (got, want)

    def test_agrees_with_scipy_stdtrit(self):
        stdtrit = pytest.importorskip("scipy.special").stdtrit
        worst = 0.0
        for p in (0.9, 0.95, 0.975, 0.99):
            for dof in range(1, 301):
                want = float(stdtrit(dof, p))
                worst = max(worst, abs(t_quantile(p, dof) - want) / want)
        assert worst <= 1e-13

    def test_decreases_in_dof_toward_the_normal_quantile(self):
        values = [t_quantile(0.95, dof) for dof in range(1, 301)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > self.NORMAL_95

    def test_symmetric_about_one_half(self):
        assert t_quantile(0.5, 3) == 0.0
        for p in (0.75, 0.95):  # 1 - p is exact for p >= 1/2
            for dof in (1, 2, 7):
                assert t_quantile(1.0 - p, dof) == -t_quantile(p, dof)

    def test_a_quantile_beyond_the_largest_float_is_infinite(self):
        # dof 1: -cot(pi p) ~ -1 / (pi p) = -6e322 at the smallest subnormal p
        assert t_quantile(5e-324, 1) == -math.inf
        assert math.isfinite(t_quantile(5e-324, 2))

    @pytest.mark.parametrize("p, dof", [(0.95, 0), (0.95, -3), (0.95, 2.5), (0.95, 3.0),
                                        (0.0, 3), (1.0, 3), (-0.1, 3), (1.5, 3),
                                        (math.nan, 3)])
    def test_bad_arguments_rejected(self, p, dof):
        with pytest.raises(ParameterError):
            t_quantile(p, dof)


class TestFamilies:
    def test_cosine_smoothness_validation(self):
        with pytest.raises(ParameterError):
            cosine_model(p=1, A=0.4, k=1, r=1)  # 0.4 * 2pi > 1/2
        model = cosine_model(p=1, A=0.05, k=1, r=1)
        assert model.sobolev_budget <= 1.0

    def test_cosine_probabilities_valid(self):
        task = make_task("cosine", p=3, seed=1, A=0.07, k=1, r=1)
        rng = np.random.default_rng(0)
        conditional_probs(task, sample_inputs(task, 10_000, rng))

    def test_counterexample_values(self):
        model = counterexample_model()
        P = model.prob(np.array([[0.1], [0.9]]))
        assert np.allclose(P[0], [0.6, 0.2, 0.2])
        assert np.allclose(P[1], [1.0, 0.0, 0.0])

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            make_task("gaussian", seed=0)

    def test_linear_requires_p1(self):
        with pytest.raises(ParameterError):
            make_task("linear", p=2, seed=0)

    @pytest.mark.parametrize("family, p, params, message", [
        pytest.param("linear", 1, {"A": 0.3}, "unexpected keyword argument 'A'", id="extra"),
        pytest.param("cosine", 2, {}, "'A', 'k', and 'r'", id="missing"),
    ])
    def test_a_parameter_the_builder_does_not_take_or_lacks(self, family, p, params, message):
        with pytest.raises(ParameterError, match=f"{family} family: .*{message}"):
            make_task(family, p=p, seed=0, **params)

    def test_family_parameters_are_the_builders_keywords(self):
        assert family_parameters("cosine") == {"p": int, "A": float, "k": int, "r": int}
        assert family_parameters("three_label_ramp") == {"beta": float, "rho": float}
        assert family_parameters("linear") == {}
        with pytest.raises(ParameterError, match="unknown task family 'gaussian'"):
            family_parameters("gaussian")

    @pytest.mark.parametrize("p", [0, -1])
    def test_input_dimension_below_one_rejected(self, p):
        # p = 0 would give inputs of shape (n, 0); p = -1 a bare numpy error
        with pytest.raises(ParameterError, match=f"p must be >= 1, got {p}"):
            make_task("cosine", p=p, seed=0, A=0.05, k=1, r=1)
