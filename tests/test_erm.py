import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import erm, synthetic
from metriclab.erm import TrainConfig, train
from metriclab.errors import DivergenceError, DomainError, InputShapeError, ParameterError
from metriclab.gadgets import build_product_gadget, build_sign_approx
from metriclab.losses import get_loss
from metriclab.relu_net import DenseLayer, ReluNetwork
from metriclab.risk import empirical_risk
from metriclab.structured import (
    HypothesisBudget,
    StructuredMetricNet,
    aggregate_complexity,
    make_structured_net,
    pair_backward,
    pair_forward,
    pair_values,
)
from metriclab.synthetic import SyntheticTask, sample_dataset, two_value_model

from helpers import atom_marginal, constant_subnet, per_subnet, reference_train


@pytest.fixture(scope="module")
def hinge():
    return get_loss("hinge")


def toy_separable_data(n=40, seed=4):
    """Two point masses at 0.1 / 0.9 with deterministic distinct labels."""
    model = two_value_model(1.0, 0.0)
    task = SyntheticTask(p=1, model=model, seed=seed,
                         marginal=atom_marginal([[0.1], [0.9]]))
    return sample_dataset(task, n)


def small_net(seed=7, a=0.1, width=6):
    return make_structured_net(p=1, m=2, depth=2, width=width, epsilon=1e-2,
                               a=a, seed=seed)


class TestEmpiricalRisk:
    def test_constant_zero_metric(self, hinge):
        X = np.array([[0.1], [0.9]])
        y = np.array([0, 1])
        d0 = lambda Xa, Xb: np.zeros(Xa.shape[0])
        assert empirical_risk(d0, (X, y), hinge) == pytest.approx(1.0)

    def test_perfect_similar_score(self, hinge):
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([2, 2, 2])
        dneg = lambda Xa, Xb: -np.ones(Xa.shape[0])
        assert empirical_risk(dneg, (X, y), hinge) == pytest.approx(0.0)

    def test_matches_brute_force_over_ordered_pairs(self, hinge):
        rng = np.random.default_rng(0)
        X = rng.random((4, 1))
        y = np.array([0, 1, 0, 1])
        net = small_net()
        total = 0.0
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                tau = 1.0 if y[i] == y[j] else -1.0
                total += max(0.0, 1.0 + tau * pair_values(net, X[i:i + 1], X[j:j + 1])[0])
        assert empirical_risk(net, (X, y), hinge) == pytest.approx(total / 12.0, abs=1e-12)

    def test_permutation_invariance(self, hinge):
        rng = np.random.default_rng(1)
        X = rng.random((12, 1))
        y = rng.integers(0, 2, size=12)
        net = small_net()
        base = empirical_risk(net, (X, y), hinge)
        perm = rng.permutation(12)
        assert empirical_risk(net, (X[perm], y[perm]), hinge) == pytest.approx(base, abs=1e-12)

    def test_pair_swap_symmetry_exact(self, hinge):
        # l(tau(y,y') d(x,x')) = l(tau(y',y) d(x',x)) holds bitwise
        rng = np.random.default_rng(2)
        net = small_net()
        X, Xp = rng.random((50, 1)), rng.random((50, 1))
        y, yp = rng.integers(0, 2, 50), rng.integers(0, 2, 50)
        tau = np.where(y == yp, 1.0, -1.0)
        a = hinge.eval(tau * pair_values(net, X, Xp))
        b = hinge.eval(tau * pair_values(net, Xp, X))
        assert np.array_equal(a, b)

    def test_training_sampler_is_unbiased(self, hinge):
        # uniform-subsample training draws its ordered pairs with this sampler
        rng = np.random.default_rng(3)
        X = rng.random((12, 1))
        y = rng.integers(0, 2, size=12)
        net = small_net()
        exact = empirical_risk(net, (X, y), hinge)
        draws = []
        for k in range(200):
            i, j = erm._sample_ordered_pairs(np.random.default_rng(k), 12, 400)
            tau = np.where(y[i] == y[j], 1.0, -1.0)
            draws.append(float(hinge.eval(tau * pair_values(net, X[i], X[j])).mean()))
        se = np.std(draws, ddof=1) / np.sqrt(len(draws))
        assert abs(np.mean(draws) - exact) <= 3 * se

    def test_needs_two_samples(self, hinge):
        with pytest.raises(ParameterError):
            empirical_risk(small_net(), (np.array([[0.5]]), np.array([0])), hinge)

    def test_rejects_what_is_no_pair_metric(self, hinge):
        X, y = np.array([[0.1], [0.9]]), np.array([0, 1])
        with pytest.raises(ParameterError):
            empirical_risk(object(), (X, y), hinge)

    @pytest.mark.parametrize("chunk", [1, 7, 40, 1 << 17])
    def test_row_chunks_cover_every_pair_once(self, hinge, monkeypatch, chunk):
        rng = np.random.default_rng(5)
        X = rng.random((23, 1))
        y = rng.integers(0, 3, size=23)
        net = small_net()
        iu, ju = np.triu_indices(23, k=1)
        tau = np.where(y[iu] == y[ju], 1.0, -1.0)
        want = float(hinge.eval(tau * pair_values(net, X[iu], X[ju])).mean())
        monkeypatch.setattr(synthetic, "MC_BLOCK", chunk)
        assert empirical_risk(net, (X, y), hinge) == pytest.approx(want, rel=1e-12)

    def test_all_pairs_memory_does_not_grow_with_the_pair_count(self, hinge):
        # n = 4096 has 8.4M unordered pairs (134 MB of indices); each chunk
        # builds only its own rows' pairs
        X = np.random.default_rng(0).random((4096, 1))
        y = np.arange(4096) % 2
        tracemalloc.start()
        try:
            empirical_risk(lambda A, B: 1.0 - 2.0 * np.abs(A - B)[:, 0], (X, y), hinge)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak


class TestHingeSubgradient:
    """tau * l'(tau * d) for the hinge loss: the upstream factor train() uses."""

    def test_active_similar(self, hinge):
        tau, d = 1.0, 0.0
        assert tau * hinge.subgradient(tau * d) == 1.0

    def test_inactive(self, hinge):
        tau, d = 1.0, -2.0
        assert tau * hinge.subgradient(tau * d) == 0.0

    def test_dissimilar_active(self, hinge):
        tau, d = -1.0, 0.5
        assert tau * hinge.subgradient(tau * d) == -1.0

    def test_kink_convention(self, hinge):
        tau, d = 1.0, -1.0
        assert tau * hinge.subgradient(tau * d) == 0.0

    def test_vectorized(self, hinge):
        tau, d = np.array([1.0, -1.0]), np.array([0.0, 0.0])
        assert np.array_equal(tau * hinge.subgradient(tau * d), [1.0, -1.0])


class TestTrain:
    def test_zero_learning_rate_is_identity(self, hinge):
        data = toy_separable_data()
        net = small_net()
        cfg = TrainConfig(epochs=5, pair_batch=64, lr_init=0.0, seed=1)
        trained, report = train(net, data, cfg, hinge)
        for h0, h1 in zip(net.subnets, trained.subnets):
            for l0, l1 in zip(h0.layers, h1.layers):
                assert np.array_equal(l0.weights, l1.weights)
                assert np.array_equal(l0.bias, l1.bias)
        assert np.ptp(report.risk) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("lr_init", [0.0, 0.5])
    @pytest.mark.parametrize("anneal", [None, {"start": 3.0, "decay": 0.93}])
    @pytest.mark.parametrize("strategy", erm.PAIR_STRATEGIES)
    def test_equals_the_per_subnetwork_trainer_bit_for_bit(self, hinge, strategy, anneal,
                                                            lr_init, m):
        # the trainer as it was before the sub-networks were stacked
        rng = np.random.default_rng(m)
        X, y = rng.random((40, 2)), rng.integers(0, 3, 40)
        net = make_structured_net(p=2, m=m, depth=3, width=5, a=1.5, seed=m)
        cfg = TrainConfig(epochs=6, pair_batch=96, lr_init=lr_init, lr_decay=0.9, seed=5,
                          a_anneal=anneal, pair_strategy=strategy,
                          pairs_per_epoch=500 if strategy == "uniform-subsample" else None)
        trained, report = train(net, (X, y), cfg, hinge)
        frozen, want = reference_train(net, (X, y), cfg, hinge)
        for h, g in zip(trained.subnets, frozen.subnets, strict=True):
            for layer, twin in zip(h.layers, g.layers, strict=True):
                assert layer.weights.tobytes() == twin.weights.tobytes()
                assert layer.bias.tobytes() == twin.bias.tobytes()
        for name in ("risk", "grad_norm", "active_fraction", "a_values"):
            assert getattr(report, name).tobytes() == getattr(want, name).tobytes(), name
        assert (report.best_epoch, report.final_risk) == (want.best_epoch, want.final_risk)
        assert trained.sign is net.sign and report.grad_norm[0] > 0.0

    def test_active_fraction_counts_the_pairs_a_gradient_flows_through(self, hinge):
        # phi(1, 1) = 1 exactly, so every pair has t_pre = 1 - 2 = -a, where
        # F_a's slope is 0: the band is (-a, a]
        net = StructuredMetricNet([constant_subnet(1, 1.0)], build_product_gadget(1e-2),
                                  build_sign_approx(1.0))
        data = (np.array([[0.2], [0.5], [0.9]]), np.array([0, 1, 0]))
        _, report = train(net, data, TrainConfig(epochs=1, lr_init=0.0), hinge)
        assert report.grad_norm.tolist() == [0.0]
        assert report.active_fraction.tolist() == [0.0]

    def test_seed_determinism(self, hinge):
        data = toy_separable_data()
        cfg = TrainConfig(epochs=10, pair_batch=64, lr_init=0.3, seed=9)
        _, rep1 = train(small_net(), data, cfg, hinge)
        _, rep2 = train(small_net(), data, cfg, hinge)
        assert np.array_equal(rep1.risk, rep2.risk)
        assert np.array_equal(rep1.grad_norm, rep2.grad_norm)

    def test_feasibility_oracle_constructed_weights(self, hinge):
        """The toy task is realizable: hand weights reach (near-)zero risk."""
        data = toy_separable_data()
        step = ReluNetwork(
            [DenseLayer(np.array([[-8.0], [-8.0]]), np.array([4.5, 3.5])),
             DenseLayer(np.array([[1.0, -1.0]]), np.array([0.0]))],
            input_dim=1,
        )  # indicator of x < 1/2, exact at the atoms
        mirror = ReluNetwork(
            [DenseLayer(np.array([[8.0], [8.0]]), np.array([-3.5, -4.5])),
             DenseLayer(np.array([[1.0, -1.0]]), np.array([0.0]))],
            input_dim=1,
        )
        net = StructuredMetricNet([step, mirror], build_product_gadget(1e-2),
                                  build_sign_approx(0.1))
        assert empirical_risk(net, data, hinge) <= 1e-10

    def test_separable_task_trains_below_five_percent(self, hinge):
        data = toy_separable_data()
        net = small_net(seed=7)
        cfg = TrainConfig(epochs=200, pair_batch=256, lr_init=0.5, lr_decay=0.99,
                          a_anneal={"start": 3.0, "decay": 0.93}, seed=11)
        trained, report = train(net, data, cfg, hinge)
        assert empirical_risk(trained, data, hinge) <= 0.05

    def test_outputs_stay_bounded_during_training(self, hinge):
        data = toy_separable_data(n=20)
        net = small_net(seed=3)
        cfg = TrainConfig(epochs=20, pair_batch=64, lr_init=0.5, seed=2)
        trained, _ = train(net, data, cfg, hinge)
        X, y = data
        iu, ju = np.triu_indices(X.shape[0], k=1)
        d = pair_values(trained, X[iu], X[ju])
        assert np.all(np.abs(d) <= 1.0)
        tau = np.where(y[iu] == y[ju], 1.0, -1.0)
        assert np.all(hinge.eval(tau * d) <= 2.0)

    def test_subgradient_step_descends_batch_objective(self, hinge):
        # directional derivative along -grad is non-positive (checked by FD)
        data = toy_separable_data(n=16)
        X, y = data
        net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2,
                                  a=1.0, seed=5, init_scale=1.5)
        iu, ju = np.triu_indices(16, k=1)
        tau = np.where(y[iu] == y[ju], 1.0, -1.0)

        def objective():
            return float(hinge.eval(tau * pair_values(net, X[iu], X[ju])).mean())

        trace = pair_forward(net, iu, ju, np.ascontiguousarray(X.T))
        upstream = tau * np.asarray(hinge.subgradient(tau * trace.d)) / iu.size
        grads = pair_backward(net, trace, upstream)
        h = 1e-6

        def shift(sign):
            for sub, (wg, bg) in zip(net.subnets, per_subnet(grads)):
                for layer, gw, gb in zip(sub.layers, wg, bg):
                    layer.weights += sign * h * gw
                    layer.bias += sign * h * gb

        shift(-1.0)
        down = objective()
        shift(+2.0)
        up = objective()
        shift(-1.0)
        assert down <= up + 1e-12

    def test_subsample_memory_does_not_grow_with_all_pairs(self, hinge):
        # n = 4096 has 8.4M unordered pairs (134 MB of indices); the
        # subsample strategy must never build them
        rng = np.random.default_rng(0)
        X = rng.random((4096, 1))
        y = (X[:, 0] > 0.5).astype(int)
        net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2, a=0.1, seed=0)
        cfg = TrainConfig(epochs=1, pair_batch=1024, lr_init=0.1, seed=0,
                          pair_strategy="uniform-subsample", pairs_per_epoch=4096)
        tracemalloc.start()
        try:
            train(net, (X, y), cfg, hinge)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak

    def test_all_pairs_epoch_holds_one_pair_array(self, hinge):
        # the epoch's shuffle of the n(n-1)/2 pair positions (8 bytes each)
        # is the only full-length array; the pairs' two row indices are
        # made one batch at a time
        n = 2048
        rng = np.random.default_rng(1)
        X = rng.random((n, 1))
        y = (X[:, 0] > 0.5).astype(int)
        net = make_structured_net(p=1, m=2, depth=2, width=4, epsilon=1e-2, a=0.1, seed=0)
        cfg = TrainConfig(epochs=1, pair_batch=4096, lr_init=0.1, seed=0)
        tracemalloc.start()
        try:
            train(net, (X, y), cfg, hinge)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * n * (n - 1) // 2, peak

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 1000])
    def test_all_pairs_batches_follow_the_shuffled_triu_order(self, n):
        cfg = TrainConfig(pair_batch=97)
        iu, ju = np.triu_indices(n, k=1)
        order = np.random.default_rng(5).permutation(iu.size)
        batches = list(erm._epoch_batches(cfg, np.random.default_rng(5), np.arange(n) % 2))
        assert all(i.size <= 97 for i, _, _ in batches)
        np.testing.assert_array_equal(np.concatenate([i for i, _, _ in batches]), iu[order])
        np.testing.assert_array_equal(np.concatenate([j for _, j, _ in batches]), ju[order])
        np.testing.assert_array_equal(np.concatenate([tau for _, _, tau in batches]),
                                      np.where(iu[order] % 2 == ju[order] % 2, 1.0, -1.0))

    @pytest.mark.parametrize("config, n", [
        pytest.param(TrainConfig(), 4473, id="all-pairs"),
        pytest.param(TrainConfig(pair_strategy="uniform-subsample",
                                 pairs_per_epoch=synthetic.MAX_STREAM_PAIRS + 1), 64,
                     id="uniform-subsample"),
    ])
    def test_an_epoch_past_the_cap_is_refused_before_it_is_drawn(self, hinge, config, n):
        # 4473 points give 10,001,628 unordered pairs, past MAX_STREAM_PAIRS
        rng = np.random.default_rng(0)
        X, y = rng.random((n, 1)), np.arange(n) % 2
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="more than the cap of 10,000,000"):
                train(small_net(), (X, y), config, hinge)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_rejects_a_row_outside_the_cube_that_no_batch_samples(self, hinge):
        X, y = toy_separable_data(n=40)
        X = X.copy()
        X[0, 0] = 1.5
        # one epoch of two sampled pairs, none of which uses row 0
        cfg = TrainConfig(epochs=1, pair_batch=2, lr_init=0.1, seed=0,
                          pair_strategy="uniform-subsample", pairs_per_epoch=2)
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            train(small_net(), (X, y), cfg, hinge)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_rejects_labels_of_another_length(self, hinge, extra):
        X, y = toy_separable_data(n=40)
        y = np.resize(y, y.size + extra)
        cfg = TrainConfig(epochs=1, pair_batch=64, lr_init=0.1, seed=0)
        with pytest.raises(InputShapeError, match=r"labels must have shape \(40,\)"):
            train(small_net(), (X, y), cfg, hinge)

    def test_nan_gradient_raises_divergence_at_its_epoch(self, hinge):
        # h(x) = relu(1e308 x + 1e308) overflows to inf for x > ~0.8; the clamp
        # keeps the forward pass finite, but the weight gradient of the read-out
        # layer is 0 * inf = nan
        def overflowing():
            return ReluNetwork([DenseLayer(np.array([[1e308]]), np.array([1e308])),
                                DenseLayer(np.array([[1.0]]), np.array([0.0]))],
                               input_dim=1)

        net = StructuredMetricNet([overflowing(), overflowing()], build_product_gadget(1e-2),
                                  build_sign_approx(0.1))
        X, y = toy_separable_data(n=20)
        cfg = TrainConfig(epochs=3, pair_batch=64, lr_init=0.1, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.isfinite(pair_values(net, X[:10], X[10:])))
            with pytest.raises(DivergenceError, match="non-finite gradient") as err:
                train(net, (X, y), cfg, hinge)
        assert err.value.epoch == 0

    def test_budget_enforced(self):
        assert HypothesisBudget(1, 1, 1).admits(aggregate_complexity(small_net())) is False


@settings(max_examples=40, deadline=None)
@given(a=st.sampled_from([0.05, 0.1, 0.7]), start=st.floats(1e-3, 10.0),
       decay=st.floats(1e-3, 1.0), epochs=st.integers(1, 12))
def test_anneal_gives_each_epoch_its_rule_value_bit_for_bit(a, start, decay, epochs):
    # lr_init = 0 keeps the steps free: only the per-epoch a is under test
    cfg = TrainConfig(epochs=epochs, pair_batch=8, lr_init=0.0, seed=0,
                      a_anneal={"start": start, "decay": decay},
                      pair_strategy="uniform-subsample", pairs_per_epoch=8)
    trained, report = train(small_net(a=a), toy_separable_data(n=6), cfg, get_loss("hinge"))
    assert report.a_values.tolist() == [max(a, start * decay**e) for e in range(epochs)]
    assert trained.sign.a == a


class TestTrainConfigValidation:
    def test_epoch_pairs_counts_up_to_the_cap(self):
        # 4472 points give 9,997,156 unordered pairs; subsampling draws its own count
        assert erm.epoch_pairs(TrainConfig(), 4472) == 4472 * 4471 // 2
        assert erm.epoch_pairs(TrainConfig(pair_strategy="uniform-subsample"), 4473) == 16384
        assert erm.epoch_pairs(TrainConfig(pair_strategy="uniform-subsample",
                                           pairs_per_epoch=synthetic.MAX_STREAM_PAIRS),
                               2) == synthetic.MAX_STREAM_PAIRS

    def test_rejects_zero_pairs_per_epoch(self):
        with pytest.raises(ParameterError, match="pairs_per_epoch"):
            TrainConfig(pair_strategy="uniform-subsample", pairs_per_epoch=0)

    def test_rejects_negative_lr(self):
        with pytest.raises(ParameterError):
            TrainConfig(lr_init=-0.1)

    def test_rejects_bad_strategy(self):
        with pytest.raises(ParameterError):
            TrainConfig(pair_strategy="bootstrap")

    def test_rejects_increasing_a_schedule(self):
        with pytest.raises(ParameterError):
            TrainConfig(a_anneal={"start": 0.1, "decay": 5.0})

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ParameterError):
            TrainConfig(a_anneal={"start": 0.0, "decay": 0.5})
