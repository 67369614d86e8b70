import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab.errors import ParameterError, PropertyViolation, RangeTooSmallError
from metriclab.losses import (
    LOSSES,
    LossFunction,
    ORACLE_SLACK,
    check_bias_shift,
    check_monotone,
    check_self_distance,
    continuous_label_degeneracy,
    get_loss,
    q_value,
    self_distance_etas,
    tstar_analytic,
    tstar_batch,
)

from helpers import bias_shift, monotone, scalar_grid_infimum_minimize, self_distance

ETA_SWEEP = np.round(np.arange(0.05, 0.951, 0.05), 10)
# keeps every analytic t* well inside T_RANGE (logistic: |log(1/eta - 1)| < 14)
ETAS = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@pytest.fixture(scope="module")
def hinge():
    return get_loss("hinge")


class TestQValue:
    def test_hinge_at_half(self, hinge):
        assert q_value(hinge, 0.5, 0.0) == pytest.approx(1.0)

    def test_hinge_hand_evaluation(self, hinge):
        # eta=0.7, t=-1: 0.7*(1-1)_+ ... = 0.7*0 + 0.3*2
        assert q_value(hinge, 0.7, -1.0) == pytest.approx(0.6)

    def test_degenerate_mixture(self):
        for name in LOSSES:
            loss = get_loss(name)
            t = 0.73
            assert q_value(loss, 0.0, t) == pytest.approx(float(loss.eval(-t)))

    def test_eta_domain(self, hinge):
        with pytest.raises(ParameterError):
            q_value(hinge, 1.2, 0.0)
        with pytest.raises(ParameterError):
            q_value(hinge, [0.3, 1.2], [0.0, 0.0])

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_arrays_match_one_eta_at_a_time(self, name):
        loss = get_loss(name)
        etas = np.linspace(0.0, 1.0, 13)
        ts = np.linspace(-3.0, 3.0, 13)
        want = [float(q_value(loss, float(e), float(t))) for e, t in zip(etas, ts)]
        assert q_value(loss, etas, ts).tolist() == want

    def test_symmetric_eta_same_problem(self, hinge):
        # eta built from (x, x') equals eta from (x', x): identical objectives
        p_x = np.array([0.5, 0.3, 0.2])
        p_xp = np.array([0.1, 0.6, 0.3])
        e1, e2 = float(p_x @ p_xp), float(p_xp @ p_x)
        assert e1 == e2
        ts = np.linspace(-2, 2, 101)
        assert np.array_equal(q_value(hinge, e1, ts), q_value(hinge, e2, ts))


class TestOracle:
    def test_hinge_high_eta(self, hinge):
        assert tstar_batch(hinge, 0.7) == pytest.approx(-1.0, abs=ORACLE_SLACK)

    def test_hinge_low_eta(self, hinge):
        assert tstar_batch(hinge, 0.3) == pytest.approx(1.0, abs=ORACLE_SLACK)

    def test_hinge_half_infimum_convention(self, hinge):
        # argmin set is [-1, 1]; the infimum convention picks -1
        assert tstar_batch(hinge, 0.5) == pytest.approx(-1.0, abs=ORACLE_SLACK)

    def test_logistic_example(self):
        got = tstar_batch(get_loss("logistic"), 0.9)
        assert got == pytest.approx(math.log(1.0 / 9.0), abs=ORACLE_SLACK)

    @pytest.mark.parametrize("name", ["logistic", "exponential", "modified_least_squares"])
    def test_oracle_matches_analytic(self, name):
        loss = get_loss(name)
        for eta in ETA_SWEEP:
            want = tstar_analytic(loss, float(eta))
            assert tstar_batch(loss, float(eta)) == pytest.approx(want, abs=ORACLE_SLACK)

    def test_exponential_boundary_error(self):
        exponential = get_loss("exponential")
        assert tstar_batch(exponential, 0.0) == math.inf
        with pytest.raises(RangeTooSmallError) as excinfo:
            check_monotone(exponential, [0.0], tstar_batch(exponential, [0.0]))
        assert excinfo.value.side == "upper"

    def test_unbounded_below_reports_lower_side(self, hinge):
        # eta = 1: Q = l(t) is flat on (-inf, -1]
        assert tstar_batch(hinge, 1.0) == -math.inf
        with pytest.raises(RangeTooSmallError) as excinfo:
            check_monotone(hinge, [1.0], tstar_batch(hinge, [1.0]))
        assert excinfo.value.side == "lower"

    def test_hinge_bayes_minimum(self, hinge):
        for eta in (0.0, 0.13, 0.5, 0.88, 1.0):
            if eta == 1.0:
                continue  # argmin unbounded below; handled by the sentinel path
            q_min = q_value(hinge, eta, tstar_batch(hinge, eta))
            assert q_min == pytest.approx(2 * min(eta, 1 - eta), abs=1e-9)


class TestOracleProperties:
    @pytest.mark.parametrize("name", ["logistic", "exponential", "modified_least_squares"])
    @settings(max_examples=60, deadline=None)
    @given(eta=ETAS)
    def test_matches_analytic_at_random_eta(self, name, eta):
        loss = get_loss(name)
        assert abs(tstar_batch(loss, eta) - tstar_analytic(loss, eta)) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(eta=ETAS)
    def test_hinge_is_exactly_plus_or_minus_one(self, eta):
        hinge = get_loss("hinge")
        assert tstar_batch(hinge, eta) == tstar_analytic(hinge, eta)
        assert tstar_batch(hinge, eta) in (1.0, -1.0)

    @pytest.mark.parametrize("name", sorted(LOSSES))
    @settings(max_examples=40, deadline=None)
    @given(e1=ETAS, e2=ETAS)
    def test_non_increasing_between_random_pairs(self, name, e1, e2):
        loss = get_loss(name)
        lo, hi = min(e1, e2), max(e1, e2)
        assert tstar_batch(loss, hi) <= tstar_batch(loss, lo)

    @pytest.mark.parametrize("name", sorted(LOSSES))
    @settings(max_examples=40, deadline=None)
    @given(eta=ETAS, b=st.floats(min_value=-3.0, max_value=3.0))
    def test_bias_shift_at_random_b(self, name, eta, b):
        assert bias_shift(get_loss(name), eta, b).deviation <= 1e-9


class TestBatchedOracle:
    """One batched bisection against the one-problem reference, entry by entry."""

    @pytest.mark.parametrize("name", sorted(LOSSES))
    @settings(max_examples=40, deadline=None)
    @given(problems=st.lists(
        st.tuples(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                  st.integers(-24, 24).map(lambda k: k / 8.0)),
        min_size=1, max_size=40))
    def test_matches_the_scalar_reference_bit_for_bit(self, name, problems):
        loss = get_loss(name)
        etas, shifts = (np.array(v) for v in zip(*problems))
        got = tstar_batch(loss, etas, shifts)
        assert got.shape == etas.shape
        for t, (eta, b) in zip(got, problems):
            try:
                want = scalar_grid_infimum_minimize(
                    lambda u: eta * loss.subgradient(u - b) - (1.0 - eta) * loss.subgradient(b - u))
            except RangeTooSmallError as err:
                want = -math.inf if err.side == "lower" else math.inf
            assert t == want, (eta, b)

    def test_an_empty_batch_solves_nothing(self, hinge):
        assert tstar_batch(hinge, np.array([])).shape == (0,)

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_unshifted_slope_is_the_shifted_one_at_zero(self, name):
        loss = get_loss(name)
        etas = np.linspace(0.01, 0.99, 23)
        want = [scalar_grid_infimum_minimize(
            lambda t: e * loss.subgradient(t) - (1.0 - e) * loss.subgradient(-t)) for e in etas]
        assert tstar_batch(loss, etas).tolist() == want


class TestAnalytic:
    def test_symmetry_at_half(self):
        assert tstar_analytic(get_loss("modified_least_squares"), 0.5) == pytest.approx(0.0)
        assert tstar_analytic(get_loss("logistic"), 0.5) == pytest.approx(0.0)
        assert tstar_analytic(get_loss("exponential"), 0.5) == pytest.approx(0.0)

    def test_infinity_sentinels(self):
        assert tstar_analytic(get_loss("logistic"), 0.0) == math.inf
        assert tstar_analytic(get_loss("exponential"), 1.0) == -math.inf

    def test_hinge_conventions(self, hinge):
        assert tstar_analytic(hinge, 0.5) == -1.0


class TestMonotone:
    def test_hinge_profile_endpoints(self, hinge):
        grid = np.round(np.linspace(0.005, 0.995, 21), 12)
        prof = monotone(hinge, grid)
        assert prof.tstar[0] == pytest.approx(1.0, abs=ORACLE_SLACK)
        assert prof.tstar[-1] == pytest.approx(-1.0, abs=ORACLE_SLACK)

    def test_modls_exact_line(self):
        grid = np.round(np.linspace(0.05, 0.95, 19), 12)
        prof = monotone(get_loss("modified_least_squares"), grid)
        assert np.allclose(prof.tstar, 1.0 - 2.0 * grid, atol=ORACLE_SLACK)

    def test_all_losses_monotone_101(self):
        grid = np.round(np.linspace(0.005, 0.995, 101), 12)
        for name in LOSSES:
            monotone(get_loss(name), grid)  # raises on violation

    def test_singleton_grid(self, hinge):
        prof = monotone(hinge, [0.3])
        assert prof.tstar.size == 1

    def test_a_rising_profile_is_a_violation_naming_its_indices(self, hinge):
        # rises of 1e-3 after index 0 and of twice the slack after index 2;
        # a rise of exactly the slack is allowed
        tstar = [1.0, 1.001, 0.5, 0.5 + 2 * ORACLE_SLACK, 0.5 + 3 * ORACLE_SLACK]
        with pytest.raises(PropertyViolation, match=r"hinge at eta indices \[0, 2\]"):
            check_monotone(hinge, [0.1, 0.2, 0.3, 0.4, 0.5], tstar)

    def test_answers_of_another_shape_rejected(self, hinge):
        with pytest.raises(ParameterError, match="shape"):
            check_monotone(hinge, [0.1, 0.2, 0.3], [1.0, 1.0])

    def test_an_answer_outside_the_range_raises_with_its_side(self, hinge):
        with pytest.raises(RangeTooSmallError) as excinfo:
            check_monotone(hinge, [0.5, 1.0], tstar_batch(hinge, [0.5, 1.0]))
        assert excinfo.value.side == "lower"


class TestSelfDistance:
    def test_counterexample_from_three_labels(self, hinge):
        rep = self_distance(hinge, [0.6, 0.2, 0.2], [1.0, 0.0, 0.0])
        assert rep.eta_self_x == pytest.approx(11.0 / 25.0)
        assert rep.eta_cross == pytest.approx(3.0 / 5.0)
        assert rep.d_self_x == pytest.approx(1.0, abs=ORACLE_SLACK)
        assert rep.d_cross == pytest.approx(-1.0, abs=ORACLE_SLACK)
        assert not rep.precondition_holds
        assert not rep.conclusion_holds
        assert not rep.is_counterexample  # precondition fails, so no violation

    def test_identical_points_equality(self, hinge):
        p = [0.5, 0.25, 0.25]
        rep = self_distance(hinge, p, p)
        assert rep.precondition_holds
        assert rep.conclusion_holds
        assert rep.eta_cross == rep.eta_self_x  # same point: equality throughout
        assert rep.d_self_x == rep.d_cross

    def test_random_sweep_no_violations(self, hinge):
        draws = np.random.default_rng(5).dirichlet(np.ones(3), size=(150, 2))
        rep = self_distance(hinge, draws[:, 0], draws[:, 1])
        assert rep.is_counterexample.shape == (150,)
        assert not rep.is_counterexample.any()

    def test_a_stack_matches_pair_by_pair(self, hinge):
        draws = np.random.default_rng(3).dirichlet(np.ones(3), size=(60, 2))
        draws[7] = [[0.6, 0.2, 0.2], [1.0, 0.0, 0.0]]  # the counterexample, with eta = 1
        stacked = self_distance(hinge, draws[:, 0], draws[:, 1])
        for i, (p_x, p_xp) in enumerate(draws):
            one = self_distance(hinge, p_x, p_xp)
            for field, value in vars(one).items():
                assert getattr(stacked, field)[i] == value, (i, field)

    def test_stacks_of_different_shapes_rejected(self, hinge):
        with pytest.raises(ParameterError, match="shape"):
            self_distance_etas([[0.5, 0.5], [1.0, 0.0]], [0.5, 0.5])

    def test_non_simplex_rejected(self, hinge):
        with pytest.raises(ParameterError):
            self_distance_etas([0.5, 0.6], [1.0, 0.0])

    def test_answers_of_another_shape_rejected(self, hinge):
        etas = self_distance_etas([[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ParameterError, match="shape"):
            check_self_distance(etas, tstar_batch(hinge, etas[:, :1]))
        with pytest.raises(ParameterError, match="3 rows"):
            check_self_distance(etas[:2], tstar_batch(hinge, etas[:2]))


class TestBiasShift:
    def test_hinge_example(self, hinge):
        rep = bias_shift(hinge, 0.7, 0.5)
        assert rep.shifted_tstar == pytest.approx(-0.5, abs=ORACLE_SLACK)
        assert rep.passed

    def test_zero_bias_reduces_to_oracle(self, hinge):
        rep = bias_shift(hinge, 0.3, 0.0)
        assert rep.shifted_tstar == pytest.approx(tstar_batch(hinge, 0.3), abs=1e-12)

    def test_modls_example(self):
        rep = bias_shift(get_loss("modified_least_squares"), 0.25, 1.0)
        assert rep.shifted_tstar == pytest.approx(1.5, abs=ORACLE_SLACK)
        assert rep.passed

    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_broadcast_matches_one_at_a_time(self, name):
        loss = get_loss(name)
        etas = np.round(np.arange(0.1, 0.91, 0.1), 10)
        shifts = np.array([[-1.25], [0.5], [1.0]])
        rep = bias_shift(loss, etas, shifts)
        assert rep.deviation.shape == (3, 9) and rep.passed.all()
        for i, b in enumerate(shifts[:, 0]):
            for j, e in enumerate(etas):
                one = bias_shift(loss, e, b)
                for field, value in vars(one).items():
                    assert getattr(rep, field)[i, j] == value, (b, e, field)

    def test_eta_outside_the_open_interval_rejected(self, hinge):
        with pytest.raises(ParameterError):
            bias_shift(hinge, [0.3, 1.0], 0.5)

    def test_a_shifted_answer_off_by_more_than_the_slack_fails(self, hinge):
        etas, shifts = [0.3, 0.7], [[0.5], [1.0]]
        shifted = tstar_batch(hinge, etas, shifts)
        shifted[1, 0] += 2 * ORACLE_SLACK
        rep = check_bias_shift(etas, shifts, shifted, tstar_batch(hinge, etas))
        assert rep.passed.tolist() == [[True, True], [False, True]]
        assert rep.deviation[1, 0] == pytest.approx(2 * ORACLE_SLACK)

    def test_the_base_answers_take_the_shape_of_eta(self, hinge):
        etas, shifts = [0.3, 0.7], [[0.5], [1.0]]
        shifted = tstar_batch(hinge, etas, shifts)
        with pytest.raises(ParameterError, match="shape"):
            check_bias_shift(etas, shifts, shifted, shifted)

    def test_an_unbounded_base_raises_with_its_side(self):
        with pytest.raises(RangeTooSmallError) as excinfo:
            check_bias_shift(0.5, 0.5, 0.5, math.inf)
        assert excinfo.value.side == "upper"


class TestDegeneracy:
    def test_values(self):
        def degeneracy(name):
            return continuous_label_degeneracy(tstar_batch(get_loss(name), 0.0))

        assert degeneracy("hinge") == pytest.approx(1.0, abs=ORACLE_SLACK)
        assert degeneracy("modified_least_squares") == pytest.approx(1.0, abs=ORACLE_SLACK)
        assert degeneracy("exponential") == math.inf
        assert degeneracy("logistic") == math.inf

    def test_only_a_scalar_answer_accepted(self, hinge):
        with pytest.raises(ParameterError, match="shape"):
            continuous_label_degeneracy(tstar_batch(hinge, [0.0]))


class TestLossContracts:
    def test_all_registered_validate(self):
        for name in LOSSES:
            get_loss(name).validate()

    @pytest.mark.parametrize("subgradient", [
        lambda t: np.where(1.0 + t > 0.0, 2.0, 0.0),   # twice the slope
        lambda t: np.where(1.0 + t > 0.0, 0.0, 1.0),   # decreasing
        lambda t: np.where(t > 0.0, 1.0, 0.0),         # kink in the wrong place
    ])
    def test_wrong_subgradient_rejected(self, subgradient):
        bad = LossFunction("bad_hinge", eval=lambda t: np.maximum(1.0 + t, 0.0),
                           subgradient=subgradient,
                           analytic_tstar=lambda eta: 1.0 if eta < 0.5 else -1.0)
        with pytest.raises(PropertyViolation, match="subgradient"):
            bad.validate()

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            get_loss("perceptron")
