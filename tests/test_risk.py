import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    MC_BLOCK,
    SyntheticTask,
    estimate_noise_exponent,
    eta_pairs,
    hinge_metric_values,
    make_task,
    sample_inputs,
    two_value_model,
)

from helpers import atom_marginal, constant_model, true_metric_fn


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

    def test_agreement_with_direct_on_random_nets(self, linear_task):
        for seed in range(5):
            net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2,
                                      a=0.4, seed=seed, init_scale=2.0)
            rep = risk_report(net, linear_task, 30_000, seed=100 + seed)
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

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_one_draw_serves_every_metric(self, linear_task, monkeypatch, count):
        # the stream is drawn once per check (X, then Xp), whatever the number
        # of metrics, and each row equals that metric's check on its own
        metrics = [make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2, a=0.3,
                                       seed=k, init_scale=2.0) for k in range(count - 1)]
        metrics.append(lambda X, Xp: np.cos(3.0 * X[:, 0] + Xp[:, -1]))
        draws = []

        def counted(task, n, rng):
            draws.append(n)
            return sample_inputs(task, n, rng)

        monkeypatch.setattr(risk, "sample_inputs", counted)
        check = dict(task=linear_task, theta=0.6, c_theta=2.4, mc_pairs=2 * MC_BLOCK + 5, seed=8)
        rows = variance_expectation_check(metrics, **check).rows
        assert draws == [2 * MC_BLOCK + 5] * 2
        assert rows == [variance_expectation_check([m], **check).rows[0] for m in metrics]


@pytest.mark.parametrize("mc_pairs", [1, 99])
@pytest.mark.parametrize("estimate", ["bayes", "risk", "identity", "variance"])
def test_every_estimate_needs_100_pairs(hinge, linear_task, estimate, mc_pairs):
    # one pair has no standard error, and a check on too few pairs passes on noise
    d0 = lambda X, Xp: np.zeros(X.shape[0])
    run = {
        "bayes": lambda: bayes_risk_hinge(linear_task, mc_pairs, seed=0),
        "risk": lambda: generalization_risk(d0, linear_task, hinge, mc_pairs, seed=0),
        "identity": lambda: excess_risk_identity(d0, linear_task, mc_pairs, seed=0),
        "variance": lambda: variance_expectation_check([d0], linear_task, theta=1.0,
                                                       c_theta=1.0, mc_pairs=mc_pairs),
    }[estimate]
    with pytest.raises(ParameterError):
        run()


class TestEstimatorConsistency:
    def test_stderr_scaling(self, hinge, linear_task):
        net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2,
                                  a=0.5, seed=1, init_scale=2.0)
        _, se1 = generalization_risk(net, linear_task, hinge, 40_000, seed=10)
        _, se2 = generalization_risk(net, linear_task, hinge, 80_000, seed=11)
        ratio = se2 / se1
        assert 0.7071 * 0.8 <= ratio <= 0.7071 * 1.2


B = MC_BLOCK
# stream lengths on and around the block edges; the noise fit needs 1e4 pairs
EDGE_PAIRS = [100, B - 1, B, B + 1, 3 * B + 17]
NOISE_EDGE_PAIRS = [2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 17]


def _unblocked_draw(task, mc_pairs, seed):
    """The whole stream at once: all of X, then all of Xp, from one generator."""
    rng = np.random.default_rng(seed)
    X, Xp = sample_inputs(task, mc_pairs, rng), sample_inputs(task, mc_pairs, rng)
    return X, Xp, eta_pairs(task, X, Xp)


def _unblocked_mean_se(vals):
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedStreams:
    """Every Monte Carlo estimate runs one block of MC_BLOCK pairs at a time;
    each must equal its unblocked computation on the same draws bit for bit."""

    TASKS = [make_task("linear", seed=3), make_task("cosine", p=2, seed=1, A=0.07, k=1, r=1)]

    @staticmethod
    def _metric(task, which, seed):
        if which == "net":
            return make_structured_net(p=task.p, m=2, depth=2, width=4, epsilon=1e-2,
                                       a=0.3, seed=seed, init_scale=2.0)
        return lambda X, Xp: np.cos(3.0 * X[:, 0] + Xp[:, -1])  # values in [-1, 1]

    @settings(max_examples=12, deadline=None)
    @given(mc_pairs=st.sampled_from(EDGE_PAIRS), task_k=st.integers(0, 1),
           which=st.sampled_from(["net", "fn"]), seed=st.integers(0, 2**32 - 1))
    def test_risk_estimates_match_the_unblocked_stream(self, mc_pairs, task_k, which, seed):
        task, hinge = self.TASKS[task_k], get_loss("hinge")
        metric = self._metric(task, which, seed % 97)
        X, Xp, e = _unblocked_draw(task, mc_pairs, seed)
        d = np.asarray(risk.as_pair_fn(metric)(X, Xp), dtype=np.float64)

        assert bayes_risk_hinge(task, mc_pairs, seed) == _unblocked_mean_se(
            2.0 * np.minimum(e, 1.0 - e))
        assert generalization_risk(metric, task, hinge, mc_pairs, seed) == _unblocked_mean_se(
            e * hinge.eval(d) + (1.0 - e) * hinge.eval(-d))
        assert excess_risk_identity(metric, task, mc_pairs, seed) == _unblocked_mean_se(
            np.abs(2.0 * e - 1.0) * np.abs(d - np.sign(1.0 - 2.0 * e)))

    @settings(max_examples=8, deadline=None)
    @given(mc_pairs=st.sampled_from(EDGE_PAIRS), seed=st.integers(0, 2**32 - 1))
    def test_variance_check_matches_the_unblocked_stream(self, mc_pairs, seed):
        task, hinge = self.TASKS[0], get_loss("hinge")
        metrics = [self._metric(task, "net", seed % 89), self._metric(task, "fn", 0)]
        rep = variance_expectation_check(metrics, task, theta=0.6, c_theta=2.4,
                                         mc_pairs=mc_pairs, seed=seed)
        X, Xp, e = _unblocked_draw(task, mc_pairs, seed)
        d_rho = hinge_metric_values(e)
        for metric, row in zip(metrics, rep.rows):
            d = np.asarray(risk.as_pair_fn(metric)(X, Xp), dtype=np.float64)
            dl_pos = hinge.eval(d) - hinge.eval(d_rho)
            dl_neg = hinge.eval(-d) - hinge.eval(-d_rho)
            assert (row.q_mean, row.q_mean_se) == _unblocked_mean_se(
                e * dl_pos + (1.0 - e) * dl_neg)
            assert (row.q_sq, row.q_sq_se) == _unblocked_mean_se(
                e * dl_pos**2 + (1.0 - e) * dl_neg**2)

    @settings(max_examples=8, deadline=None)
    @given(mc_pairs=st.sampled_from(NOISE_EDGE_PAIRS), task_k=st.integers(0, 1),
           seed=st.integers(0, 2**32 - 1))
    def test_noise_fit_counts_match_the_sorted_margins(self, mc_pairs, task_k, seed):
        task = self.TASKS[task_k]
        t_grid = np.geomspace(0.001, 0.3, 9)
        fit = estimate_noise_exponent(task, mc_pairs, t_grid, seed=seed)
        _, _, e = _unblocked_draw(task, mc_pairs, seed)
        margins = np.sort(np.abs(e - 0.5))
        want = np.searchsorted(margins, t_grid, side="right") / mc_pairs
        assert fit.f_values.tobytes() == want.tobytes()

    def test_a_late_block_leaving_the_unit_ball_is_rejected(self, linear_task):
        calls = []

        def late_bad(X, Xp):
            calls.append(X.shape[0])
            return np.full(X.shape[0], 1.5 if len(calls) == 3 else 0.0)

        with pytest.raises(ContractError):
            excess_risk_identity(late_bad, linear_task, 3 * B + 17, seed=0)
        assert calls == [B, B, B]

    @pytest.mark.parametrize("estimate", ["noise_fit", "identity"])
    def test_stream_memory_grows_by_at_most_32_bytes_per_pair(self, linear_task, estimate):
        net = self._metric(linear_task, "net", 0)
        grid = np.geomspace(0.02, 0.3, 8)
        run = {
            "noise_fit": lambda m: estimate_noise_exponent(linear_task, m, grid, seed=1),
            "identity": lambda m: excess_risk_identity(net, linear_task, m, seed=1),
        }[estimate]
        small, large = 100_000, 400_000
        per_pair = (_traced_peak(lambda: run(large)) - _traced_peak(lambda: run(small))) \
            / (large - small)
        assert per_pair <= 32.0, per_pair


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

    def test_each_job_certifies_one_gadget_at_the_configs_epsilon(self, linear_task,
                                                                  monkeypatch):
        # phi depends on epsilon alone, so each job builds its own from the model spec
        calls = []
        certify = gadgets.certify_product

        def counted(gadget):
            calls.append(gadget.epsilon)
            return certify(gadget)

        monkeypatch.setattr(gadgets, "certify_product", counted)
        result = mini_sweep(linear_task)
        assert calls == [MODEL["epsilon"]] * 12 and len(result.rows) == 12

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

        # rate_sweep imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        result = mini_sweep(linear_task, jobs=5000)
        assert sizes == [12] and len(result.rows) == 12

    def test_rows_record_the_shape_of_the_net_they_trained(self, linear_task):
        # at theta = 0.01 the recipe gives depth 1 up to n = 64 and depth 2 at
        # 128; a depth-1 sub-network has no hidden layer, so its width is 0
        cfg = TrainConfig(epochs=1, pair_batch=128, seed=0, pair_strategy="uniform-subsample",
                          pairs_per_epoch=128)
        result = rate_sweep(linear_task, [16, 32, 64, 128], [0, 1, 2], cfg, MODEL,
                            mc_pairs=1000, theta=0.01)
        assert {(r.n, r.subnet_depth, r.subnet_width) for r in result.rows} == {
            (16, 1, 0), (32, 1, 0), (64, 1, 0), (128, 2, 4)}

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
