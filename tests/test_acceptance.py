"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria 7 and 10 are Monte Carlo / training heavy and
dominate the runtime (a few minutes total, well inside their stated caps).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from metriclab.cli import EXIT_OK, main
from metriclab.erm import TrainConfig
from metriclab.gadgets import build_product_gadget, build_sign_approx
from metriclab.losses import (
    LOSSES,
    check_bias_shift,
    check_monotone,
    check_self_distance,
    get_loss,
    tstar_analytic,
)
from metriclab.relu_net import DenseLayer, ReluNetwork, complexity, forward
from metriclab.risk import rate_sweep, risk_report, variance_expectation_check
from metriclab.structured import (
    HypothesisBudget,
    NetworkComplexity,
    StructuredMetricNet,
    aggregate_complexity,
    load_manifest,
    make_structured_net,
    pair_backward,
    pair_forward,
    pair_values,
    pdim_bound,
    save_manifest,
)
from metriclab.synthetic import estimate_noise_exponent, eta, make_task, true_metric_hinge

ETA_GRID_101 = np.round(np.linspace(0.005, 0.995, 101), 12)
ORACLE_TOL = 2e-6


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description} ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def linear_task():
    return make_task("linear", seed=3)


@pytest.fixture(scope="module")
def shared_gadgets():
    return build_product_gadget(1e-2), build_sign_approx(0.1)


def random_net_batch(count, shared_product, p=1, m=2, depth=2, width=4):
    """Random structured nets with varied sign widths and init scales."""
    nets = []
    for k in range(count):
        a = (0.2, 0.35, 0.5, 0.75, 1.0)[k % 5]
        nets.append(make_structured_net(
            p=p, m=m, depth=depth, width=width, epsilon=1e-2, a=a, seed=k,
            init_scale=1.0 + 0.5 * (k % 4), product=shared_product,
        ))
    return nets


def test_criterion_01_product_gadget_certification():
    with criterion(1, "product gadget certified at eps in {1e-2, 1e-3}, "
                      "zero on axes, depth within one log law"):
        t0 = time.perf_counter()
        gadgets = {eps: build_product_gadget(eps) for eps in (1e-2, 1e-3)}
        for eps, g in gadgets.items():
            assert g.certified_sup_error <= eps
            grid = np.linspace(-1.0, 2.0, 401)
            zeros = np.zeros_like(grid)
            assert np.max(np.abs(g(grid, zeros))) <= 1e-12
            assert np.max(np.abs(g(zeros, grid))) <= 1e-12
        c_single = gadgets[1e-2].complexity.depth / math.log(1e2)
        assert gadgets[1e-3].complexity.depth <= c_single * math.log(1e3) + 1e-9
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_sign_approximator_exactness():
    with criterion(2, "F_a equals sign outside [-a, a] and t/a inside, to 1e-12"):
        grid = np.linspace(-5.0, 5.0, 10_000)
        for a in (0.05, 0.2, 1.0):
            fa = build_sign_approx(a)
            expected = np.where(grid >= a, 1.0, np.where(grid <= -a, -1.0, grid / a))
            assert np.max(np.abs(fa(grid) - expected)) <= 1e-12


def test_criterion_03_hinge_true_metric_identities():
    with criterion(3, "hinge t* = sgn(1-2eta) (infimum at 1/2) and "
                      "min Q = 2 min(eta, 1-eta) on the 101-point grid"):
        t0 = time.perf_counter()
        profile = check_monotone(get_loss("hinge"), ETA_GRID_101)
        expected = np.where(ETA_GRID_101 < 0.5, 1.0, -1.0)
        assert np.max(np.abs(profile.tstar - expected)) <= ORACLE_TOL
        bayes = 2.0 * np.minimum(ETA_GRID_101, 1.0 - ETA_GRID_101)
        assert np.max(np.abs(profile.q_min - bayes)) <= 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_04_monotonicity_and_analytic_forms():
    with criterion(4, "t*(eta) non-increasing for all four losses; "
                      "closed forms matched within 2e-6"):
        analytic_named = {"logistic", "exponential", "modified_least_squares"}
        for name in sorted(LOSSES):
            loss = get_loss(name)
            profile = check_monotone(loss, ETA_GRID_101)  # raises on violation
            assert np.all(np.diff(profile.tstar) <= ORACLE_TOL)
            if name in analytic_named:
                want = np.array([tstar_analytic(loss, float(e)) for e in ETA_GRID_101])
                assert np.max(np.abs(profile.tstar - want)) <= ORACLE_TOL


def test_criterion_05_counterexample_and_self_distance_sweep():
    with criterion(5, "11/25 self-similarity counterexample exact; "
                      "self-distance bound holds on 1e3 random simplex pairs"):
        task = make_task("counterexample", seed=0)
        x, xp = [0.2], [0.8]
        assert eta(task, x, x) == pytest.approx(11.0 / 25.0, abs=1e-15)
        assert eta(task, x, xp) == pytest.approx(3.0 / 5.0, abs=1e-15)
        assert true_metric_hinge(task, x, x) == 1.0
        assert true_metric_hinge(task, x, xp) == -1.0

        hinge = get_loss("hinge")
        rep = check_self_distance(hinge, [0.6, 0.2, 0.2], [1.0, 0.0, 0.0])
        assert rep.d_self_x == pytest.approx(1.0, abs=ORACLE_TOL)
        assert rep.d_cross == pytest.approx(-1.0, abs=ORACLE_TOL)
        assert not rep.precondition_holds and not rep.conclusion_holds

        rng = np.random.default_rng(17)
        held = violations = 0
        for _ in range(1000):
            r = check_self_distance(hinge, rng.dirichlet(np.ones(3)),
                                    rng.dirichlet(np.ones(3)))
            if r.precondition_holds:
                held += 1
                violations += not r.conclusion_holds
        assert held > 100  # the sweep genuinely exercises the bound
        assert violations == 0


def test_criterion_06_bias_removal():
    with criterion(6, "shifted minimizer equals b + t*(eta) within 2e-6 "
                      "for b in {0.5, 1}, eta in {0.1..0.9}, all losses"):
        for name in sorted(LOSSES):
            loss = get_loss(name)
            for b in (0.5, 1.0):
                for e in np.round(np.arange(0.1, 0.91, 0.1), 10):
                    rep = check_bias_shift(loss, float(e), b)
                    assert rep.deviation <= ORACLE_TOL, (name, b, e, rep.deviation)


def test_criterion_07_excess_risk_identity_agreement(linear_task, shared_gadgets):
    with criterion(7, "excess_direct vs excess_identity within 3 combined "
                      "stderr on 50 random admissible nets at 1e5 pairs"):
        t0 = time.perf_counter()
        product, _ = shared_gadgets
        nets = random_net_batch(50, product)
        budget = HypothesisBudget(L_max=20, W_max=2000, U_max=500)
        hinge = get_loss("hinge")
        for k, net in enumerate(nets):
            assert budget.admits(aggregate_complexity(net))
            rep = risk_report(net, linear_task, hinge, 100_000, seed=1000 + k)
            assert rep.identity_gap <= rep.identity_gap_limit, (k, rep)
            assert rep.excess_direct >= -3.0 * rep.excess_direct_se, (k, rep)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_08_variance_expectation_bound(linear_task, shared_gadgets):
    with criterion(8, "variance-expectation bound with fitted upper-confidence "
                      "(theta, C) holds for >= 95% of 20 random nets"):
        product, _ = shared_gadgets
        fit = estimate_noise_exponent(linear_task, 200_000,
                                      np.geomspace(0.02, 0.3, 8), seed=29)
        nets = random_net_batch(20, product)
        rep = variance_expectation_check(nets, linear_task, theta=fit.theta_hat,
                                         c_theta=fit.c_theta_upper,
                                         mc_pairs=100_000, seed=31)
        assert rep.pass_fraction >= 0.95, rep.pass_fraction


def _min_kink_margin(subnet_like, x):
    """Smallest |pre-activation| over the ReLU units of one network."""
    h = np.asarray(x, dtype=np.float64)
    margin = math.inf
    for layer in subnet_like.layers[:-1]:  # the read-out is affine
        z = layer.weights @ h + layer.bias
        margin = min(margin, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    return margin


def _pair_margin(net, x, xp):
    """Distance to the nearest nondifferentiability of d at (x, x')."""
    margin = math.inf
    for h in net.subnets:
        for point in (x, xp):
            margin = min(margin, _min_kink_margin(h, point))
    trace = pair_forward(net, [0], [1], np.column_stack([x, xp]))
    for i in range(net.m):
        a = float(forward(net.subnets[i], x)[0])
        b = float(forward(net.subnets[i], xp)[0])
        margin = min(margin, abs(a - b),              # argument-sort switch
                     abs(a + 1.0), abs(2.0 - a),      # clamp corners
                     abs(b + 1.0), abs(2.0 - b))
        lo, hi = min(a, b), max(a, b)
        lo, hi = np.clip(lo, -1, 2), np.clip(hi, -1, 2)
        margin = min(margin, _min_kink_margin(net.product.net, np.array([lo, hi])))
    t = float(trace.t_pre[0])
    margin = min(margin, abs(t + net.sign.a), abs(t - net.sign.a))
    return margin


def _constant_subnet_present(net, rng):
    probes = rng.random((16, net.input_dim))
    return any(float(np.ptp(forward(h, probes)[:, 0])) < 1e-9 for h in net.subnets)


def test_criterion_09_finite_difference_gradients():
    with criterion(9, "analytic gradients match central differences to 1e-5 "
                      "relative on 20 random structured nets away from kinks"):
        rng = np.random.default_rng(41)
        checked = 0
        done, seed = 0, 200
        while done < 20:
            seed += 1
            net = make_structured_net(p=2, m=2, depth=2, width=4, epsilon=1e-2,
                                      a=1.5, seed=seed, init_scale=1.0)
            if _constant_subnet_present(net, rng):
                continue  # a constant sub-network pins the pair to the sort tie
            k = done
            done += 1
            x = xp = None
            # the deepest sawtooth stage has teeth every 2^-s, so kink-free
            # margins top out near 1e-2; 3e-4 is still 30x the FD step scale
            for _ in range(500):
                cand_x, cand_xp = rng.random(2), rng.random(2)
                if _pair_margin(net, cand_x, cand_xp) > 3e-4:
                    x, xp = cand_x, cand_xp
                    break
            assert x is not None, "could not find a kink-free pair"
            trace = pair_forward(net, [0], [1], np.column_stack([x, xp]))
            grads = pair_backward(net, trace, np.ones(1))
            h = 1e-5
            for sub, (wg, bg) in zip(net.subnets, grads):
                for layer, gw in zip(sub.layers, wg):
                    it = np.nditer(layer.weights, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = layer.weights[idx]
                        layer.weights[idx] = orig + h
                        up = pair_values(net, x[None, :], xp[None, :])[0]
                        layer.weights[idx] = orig - h
                        dn = pair_values(net, x[None, :], xp[None, :])[0]
                        layer.weights[idx] = orig
                        fd = (up - dn) / (2 * h)
                        an = gw[idx]
                        scale = max(abs(fd), abs(an))
                        if scale > 1e-8:
                            assert abs(fd - an) <= 1e-5 * scale, (k, idx, fd, an)
                            checked += 1
        assert checked > 100  # the check must have exercised live gradients


@pytest.fixture(scope="module")
def sweep_result(linear_task):
    cfg = TrainConfig(epochs=200, pair_batch=1024, lr_init=0.5, lr_decay=0.97,
                      a_anneal={"start": 3.0, "decay": 0.93},
                      seed=100, pair_strategy="uniform-subsample",
                      pairs_per_epoch=16384)
    t0 = time.perf_counter()
    result = rate_sweep(linear_task, [256, 512, 1024, 2048, 4096], [0, 1, 2], cfg,
                        {"m": 2, "epsilon": 1e-2, "a": 0.1}, mc_pairs=100_000,
                        noise_t_grid=np.array([0.02, 0.035, 0.06, 0.1, 0.17, 0.3]),
                        jobs=2)
    result.wall_time = time.perf_counter() - t0
    return result


def test_criterion_10_learning_curve_shape(sweep_result):
    with criterion(10, "median excess non-increasing in n within noise and "
                       f"log-log slope negative at 95% confidence "
                       f"(sweep ran {sweep_result.wall_time:.0f}s)"):
        assert sweep_result.wall_time < 1800.0
        assert sweep_result.monotone_within_noise(), (
            sweep_result.medians, sweep_result.median_stderr)
        assert sweep_result.slope_upper95 < 0.0, (
            sweep_result.slope, sweep_result.slope_se)
        print(f"  slope={sweep_result.slope:.3f} "
              f"(upper95 {sweep_result.slope_upper95:.3f}); "
              f"reference exponent {sweep_result.ref_exponent:.3f} "
              f"at theta_hat={sweep_result.theta_hat:.3f} (no equality claimed)")


def test_criterion_11_complexity_accounting():
    with criterion(11, "aggregate complexity matches the documented hand count "
                       "and pdim bound reproduces L*W*log2(U)"):
        from metriclab.gadgets import ProductGadget

        phi1 = ProductGadget(0.4, 1)
        sign = build_sign_approx(0.1)
        subnet = lambda: ReluNetwork([DenseLayer(np.array([[1.0]]), np.array([0.5]))],
                                     input_dim=1)
        net = StructuredMetricNet([subnet(), subnet()], phi1, sign,
                                  clamp_subnet_output=False)
        agg = aggregate_complexity(net)
        # hand count: L = 1+3+2; W = 2*(2+2) + 2*50 + 7 + 2; U = 2*2 + 2*19 + 3
        assert (agg.depth, agg.nonzero_weights, agg.units) == (6, 117, 45)
        assert pdim_bound(NetworkComplexity(4, 100, 16)) == pytest.approx(1600.0)


def test_criterion_12_determinism_and_persistence(tmp_path):
    with criterion(12, "byte-identical CSVs under identical config+seed; "
                       "manifest round trip bit-identical on 1e3 inputs"):
        config = tmp_path / "config.yaml"
        config.write_text(
            "task: {family: linear, p: 1, seed: 3}\n"
            "model: {m: 2, depth: 2, width: 4, epsilon: 1.0e-2, a: 0.1,\n"
            "        a_anneal: {start: 3.0, decay: 0.8}}\n"
            "train: {n: 64, epochs: 20, pair_batch: 256, lr_init: 0.5,\n"
            "        pair_strategy: uniform-subsample, pairs_per_epoch: 2048,\n"
            "        seed: 100}\n"
            "eval: {mc_pairs: 20000, seed: 7}\n"
        )
        assert main(["train-eval", "--config", str(config),
                     "--out", str(tmp_path / "r1")]) == EXIT_OK
        assert main(["train-eval", "--config", str(config),
                     "--out", str(tmp_path / "r2")]) == EXIT_OK
        for name in ("risk_report.csv", "train_report.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()

        net = make_structured_net(p=2, m=2, depth=2, width=5, epsilon=1e-2,
                                  a=0.2, seed=9, init_scale=2.0)
        save_manifest(net, tmp_path / "model")
        loaded = load_manifest(tmp_path / "model")
        rng = np.random.default_rng(12)
        X, Xp = rng.random((1000, 2)), rng.random((1000, 2))
        assert np.array_equal(pair_values(net, X, Xp), pair_values(loaded, X, Xp))
