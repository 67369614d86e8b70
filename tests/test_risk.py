import math

import numpy as np
import pytest

from metriclab import gadgets, risk
from metriclab.erm import TrainConfig
from metriclab.errors import ContractError, ParameterError
from metriclab.losses import get_loss
from metriclab.risk import (
    bayes_risk_hinge,
    excess_risk_identity,
    generalization_risk,
    rate_sweep,
    reference_exponent,
    risk_report,
    subnet_shape_for_budget,
    theorem_budget,
    variance_expectation_check,
)
from metriclab.structured import make_structured_net
from metriclab.synthetic import (
    SyntheticTask,
    atom_marginal,
    constant_model,
    make_task,
    true_metric_fn,
    two_value_model,
)


# make_structured_net's keywords besides p and seed; the sweep sizes depth
# and width per n
MODEL = {"m": 2, "epsilon": 1e-2, "a": 0.1}


@pytest.fixture(scope="module")
def hinge():
    return get_loss("hinge")


@pytest.fixture(scope="module")
def linear_task():
    return make_task("linear", seed=3)


def eta_09_task():
    # <P, P> = 0.9 for the constant law [p, 1-p] with p = (1 + sqrt(0.8)) / 2
    p = (1.0 + math.sqrt(0.8)) / 2.0
    return SyntheticTask(p=1, model=constant_model([p, 1.0 - p]), seed=0)


class TestGeneralizationRisk:
    def test_constant_zero_metric_risk_one(self, hinge, linear_task):
        d0 = lambda X, Xp: np.zeros(X.shape[0])
        est, se = generalization_risk(d0, linear_task, hinge, 5000, seed=1)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_true_metric_matches_bayes(self, hinge, linear_task):
        est, se = generalization_risk(true_metric_fn(linear_task), linear_task,
                                      hinge, 100_000, seed=2)
        bayes, bse = bayes_risk_hinge(linear_task, 100_000, seed=3)
        assert abs(est - bayes) <= 3 * math.hypot(se, bse)

    def test_separable_task_zero_risk(self, hinge):
        task = SyntheticTask(p=1, model=two_value_model(1.0, 0.0), seed=0,
                             marginal=atom_marginal([[0.1], [0.9]]))
        est, se = generalization_risk(true_metric_fn(task), task, hinge, 2000, seed=4)
        assert est == 0.0 and se == 0.0

    def test_minimum_pairs(self, hinge, linear_task):
        with pytest.raises(ParameterError):
            generalization_risk(true_metric_fn(linear_task), linear_task, hinge, 50, seed=0)


class TestExcessIdentity:
    def test_true_metric_exact_zero(self, linear_task):
        est, se = excess_risk_identity(true_metric_fn(linear_task), linear_task,
                                       20_000, seed=5)
        assert est == 0.0 and se == 0.0

    def test_constant_eta_hand_value(self):
        d0 = lambda X, Xp: np.zeros(X.shape[0])
        est, se = excess_risk_identity(d0, eta_09_task(), 5000, seed=6)
        assert est == pytest.approx(0.8, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_agreement_with_direct_on_random_nets(self, hinge, linear_task):
        for seed in range(5):
            net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2,
                                      a=0.4, seed=seed, init_scale=2.0)
            rep = risk_report(net, linear_task, hinge, 30_000, seed=100 + seed)
            assert rep.consistent(), (rep.excess_direct, rep.excess_identity)

    def test_sup_norm_contract(self, linear_task):
        bad = lambda X, Xp: 1.5 * np.ones(X.shape[0])
        with pytest.raises(ContractError):
            excess_risk_identity(bad, linear_task, 1000, seed=0)


class TestVarianceExpectation:
    def test_true_metric_equality_case(self, linear_task):
        rep = variance_expectation_check([true_metric_fn(linear_task)], linear_task,
                                         theta=1.0, c_theta=1.0, mc_pairs=5000, seed=1)
        row = rep.rows[0]
        assert row.q_mean == 0.0 and row.q_sq == 0.0
        assert row.passed

    def test_constant_eta_closed_form(self):
        # E[q] = 0.8 and E[q^2] = E[(d - d_rho)^2] = 1 for d = 0 at eta = 0.9
        d0 = lambda X, Xp: np.zeros(X.shape[0])
        rep = variance_expectation_check([d0], eta_09_task(), theta=1.0, c_theta=1.0,
                                         mc_pairs=5000, seed=2)
        row = rep.rows[0]
        assert row.q_mean == pytest.approx(0.8, abs=1e-12)
        assert row.q_sq == pytest.approx(1.0, abs=1e-12)
        assert row.bound_rhs == pytest.approx(2.0**1.5 * 0.8**0.5, abs=1e-12)
        assert row.passed

    def test_random_nets_pass(self, linear_task):
        from metriclab.synthetic import estimate_noise_exponent

        fit = estimate_noise_exponent(linear_task, 200_000,
                                      np.geomspace(0.02, 0.3, 8), seed=3)
        nets = [make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2,
                                    a=0.2 + 0.1 * (k % 5), seed=k, init_scale=2.5)
                for k in range(10)]
        rep = variance_expectation_check(nets, linear_task, theta=fit.theta_hat,
                                         c_theta=fit.c_theta_upper,
                                         mc_pairs=50_000, seed=4)
        assert rep.pass_fraction >= 0.95

    def test_parameter_validation(self, linear_task):
        with pytest.raises(ParameterError):
            variance_expectation_check([], linear_task, theta=-0.2, c_theta=1.0,
                                       mc_pairs=1000)


class TestEstimatorConsistency:
    def test_stderr_scaling(self, hinge, linear_task):
        net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2,
                                  a=0.5, seed=1, init_scale=2.0)
        _, se1 = generalization_risk(net, linear_task, hinge, 40_000, seed=10)
        _, se2 = generalization_risk(net, linear_task, hinge, 80_000, seed=11)
        ratio = se2 / se1
        assert 0.7071 * 0.8 <= ratio <= 0.7071 * 1.2


class TestBudgetRecipe:
    def test_reference_exponent_example(self):
        assert reference_exponent(1, 1, 1.0) == pytest.approx(-0.5)

    def test_depth_formula(self):
        theta, p, r, n = 1.0, 1, 1, 4096
        want = max(1, math.ceil(p / (p + (theta + 2) * r) * math.log(n / math.log(n))))
        b = theorem_budget(n, p, r, theta)
        assert b.L_max == want
        assert b.W_max == b.U_max == math.ceil(math.exp(b.L_max))

    def test_budget_grows_with_n(self):
        l_values = [theorem_budget(n, 1, 1, 1.0).L_max for n in (64, 10_000, 10_000_000)]
        assert l_values == sorted(l_values)
        assert l_values[-1] > l_values[0]

    def test_subnet_shape_floor(self):
        depth, width = subnet_shape_for_budget(theorem_budget(256, 1, 1, 1.0))
        assert depth >= 1 and width >= 4


def mini_sweep(task, seed=100, jobs=1):
    cfg = TrainConfig(epochs=8, pair_batch=128, lr_init=0.5, lr_decay=0.97,
                      a_anneal={"start": 3.0, "decay": 0.8},
                      seed=seed, pair_strategy="uniform-subsample", pairs_per_epoch=512)
    return rate_sweep(task, [16, 32, 64, 128], [0, 1, 2], cfg, MODEL,
                      mc_pairs=2000, theta=1.0, jobs=jobs)


class TestRateSweep:
    def test_reproducible_rows(self, linear_task):
        r1 = mini_sweep(linear_task)
        r2 = mini_sweep(linear_task)
        for a, b in zip(r1.rows, r2.rows):
            assert (a.n, a.seed, a.excess, a.stderr) == (b.n, b.seed, b.excess, b.stderr)

    def test_worker_count_does_not_change_results(self, linear_task):
        seq = mini_sweep(linear_task)
        par = mini_sweep(linear_task, jobs=2)
        for a, b in zip(seq.rows, par.rows):
            assert (a.n, a.seed, a.excess) == (b.n, b.seed, b.excess)

    def test_certifies_the_product_gadget_once_per_sweep(self, linear_task, monkeypatch):
        calls = []
        certify = gadgets.certify_product

        def counted(gadget):
            calls.append(gadget.epsilon)
            return certify(gadget)

        monkeypatch.setattr(gadgets, "certify_product", counted)
        result = mini_sweep(linear_task)
        assert calls == [1e-2] and len(result.rows) == 12

    def test_pool_has_no_more_workers_than_jobs(self, linear_task, monkeypatch):
        # a serial stand-in records the pool size; no real pool is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(risk, "ProcessPoolExecutor", SerialPool)
        result = mini_sweep(linear_task, jobs=5000)
        assert sizes == [12] and len(result.rows) == 12

    def test_validation(self, linear_task):
        cfg = TrainConfig(epochs=1, pair_batch=64, lr_init=0.1, seed=0)
        with pytest.raises(ParameterError):
            rate_sweep(linear_task, [64, 128], [0, 1, 2], cfg, MODEL, theta=1.0)
        with pytest.raises(ParameterError):
            rate_sweep(linear_task, [16, 32, 64, 128], [0, 1], cfg, MODEL, theta=1.0)
        with pytest.raises(ParameterError):
            rate_sweep(linear_task, [16, 24, 48, 96], [0, 1, 2], cfg, MODEL, theta=1.0)

    def test_repeated_seeds_rejected(self, linear_task):
        # [5, 5, 5] would be one run counted three times
        cfg = TrainConfig(epochs=1, pair_batch=64, lr_init=0.1, seed=0)
        with pytest.raises(ParameterError, match="distinct"):
            rate_sweep(linear_task, [16, 32, 64, 128], [5, 5, 5], cfg, MODEL, theta=1.0)
        with pytest.raises(ParameterError, match="distinct"):
            rate_sweep(linear_task, [16, 32, 64, 128], [0, 1, 2, 1], cfg, MODEL, theta=1.0)

    def test_requires_task_spec(self):
        bare = SyntheticTask(p=1, model=two_value_model(), seed=0)
        cfg = TrainConfig(epochs=1, pair_batch=64, lr_init=0.1, seed=0)
        with pytest.raises(ParameterError):
            rate_sweep(bare, [16, 32, 64, 128], [0, 1, 2], cfg, MODEL, theta=1.0)
