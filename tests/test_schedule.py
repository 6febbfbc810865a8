import math

import pytest

from ogaprox.problem import ProblemConstants
from ogaprox.schedule import (
    ADAPTIVE_SIGMA0_FACTOR,
    AdaptiveSchedule,
    ConstantSchedule,
    LinearSchedule,
    StepSizeViolationError,
    advance_schedule,
    assumption_slacks,
    balanced_alpha,
    default_adaptive,
    default_constant,
    default_linear,
    make_schedule,
    sigma_tilde,
    theta_threshold,
)


def test_constant_schedule_frozen_example():
    # (c_alpha*l_yx*tau + 2*l_yy)*sigma = (2*1*0.3)*0.5 = 0.3 < 1
    # delta = min(1 - 1/2, 1 - 0.3) = 0.5
    constants = ProblemConstants(l_yx=1.0, l_yy=0.0)
    state = make_schedule(ConstantSchedule(tau=0.3, sigma=0.5, c_alpha=2.0), constants)
    assert state.theta == 1.0
    assert state.delta == pytest.approx(0.5, abs=1e-15)
    assert state.t == 1.0
    assert state.alpha == pytest.approx(2.0 * 0.3)


def test_constant_advance_only_counts():
    constants = ProblemConstants(l_yx=1.0, l_yy=0.0)
    kind = ConstantSchedule(tau=0.3, sigma=0.5, c_alpha=2.0)
    state = make_schedule(kind, constants)
    nxt = advance_schedule(state, kind, constants)
    assert (nxt.theta, nxt.tau, nxt.sigma, nxt.t) == (1.0, 0.3, 0.5, 1.0)
    # the run's totals live in the solver state, so there is nothing to rebuild
    assert nxt is state


def test_adaptive_first_step_frozen_example():
    # nu=1, tau0=sigma0=1: theta1 = 1/sqrt(2), tau1 = sqrt(2),
    # sigma1 = 1/sqrt(2), t1 = tau1/tau0 = sqrt(2)
    constants = ProblemConstants(l_yx=0.5, l_yy=0.0, nu=1.0)
    kind = AdaptiveSchedule(tau0=1.0, sigma0=1.0, c_alpha=0.7)
    state = make_schedule(kind, constants)
    nxt = advance_schedule(state, kind, constants)
    assert nxt.theta == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert nxt.tau == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert nxt.sigma == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert nxt.t == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert nxt.alpha == pytest.approx(0.7 * 1.0)


def test_adaptive_requires_strong_concavity():
    constants = ProblemConstants(l_yx=0.5, l_yy=0.0, nu=0.0)
    with pytest.raises(StepSizeViolationError, match="nu > 0"):
        make_schedule(AdaptiveSchedule(tau0=1.0, sigma0=1.0, c_alpha=0.7), constants)


def test_adaptive_sigma0_cap():
    constants = ProblemConstants(l_yx=0.0, l_yy=0.0, nu=2.0)
    cap = ADAPTIVE_SIGMA0_FACTOR / 2.0
    with pytest.raises(StepSizeViolationError, match="sigma0"):
        make_schedule(AdaptiveSchedule(tau0=1.0, sigma0=cap * 1.01, c_alpha=1.0), constants)
    make_schedule(AdaptiveSchedule(tau0=1.0, sigma0=cap, c_alpha=1.0), constants)


def test_product_condition_enforced():
    constants = ProblemConstants(l_yx=1.0, l_yy=0.0)
    with pytest.raises(StepSizeViolationError, match="sigma0"):
        make_schedule(ConstantSchedule(tau=1.0, sigma=0.5, c_alpha=2.0), constants)
    with pytest.raises(StepSizeViolationError, match="c_alpha"):
        make_schedule(ConstantSchedule(tau=0.1, sigma=0.1, c_alpha=0.9), constants)


def test_adaptive_invariants_over_horizon():
    constants = ProblemConstants(l_yx=0.5, l_yy=0.1, nu=1.0)
    kind = AdaptiveSchedule(tau0=1.0, sigma0=0.9 / (0.7 * 0.5 + 0.2), c_alpha=0.7)
    state = make_schedule(kind, constants)
    product0 = state.tau * state.sigma
    theta_log = 0.0
    for k in range(1, 2001):
        prev = state
        state = advance_schedule(state, kind, constants)
        theta_log += math.log(state.theta)
        assert state.tau > prev.tau
        assert state.sigma < prev.sigma
        assert abs(state.tau * state.sigma - product0) <= 1e-12 * product0
        assert state.sigma <= 3.0 / (constants.nu * k) * (1 + 1e-12)
        assert state.tau >= constants.nu * kind.tau0 * kind.sigma0 * k / 3.0 * (1 - 1e-12)
        # t_k tracked by recurrence equals tau_k/tau0 and the theta product
        assert abs(state.t - state.tau / state.tau0) <= 1e-12 * state.t
        assert abs(state.t - math.exp(-theta_log)) <= 1e-10 * state.t
        slack_tau, slack_sigma = assumption_slacks(state, kind, constants)
        assert slack_tau >= -1e-12
        assert slack_sigma >= -1e-12


def test_constant_slacks_nonnegative():
    constants = ProblemConstants(l_yx=1.0, l_yy=0.3)
    kind = default_constant(constants)
    state = make_schedule(kind, constants)
    for _ in range(50):
        slack_tau, slack_sigma = assumption_slacks(state, kind, constants)
        assert slack_tau >= -1e-12 and slack_sigma >= -1e-12
        state = advance_schedule(state, kind, constants)


def test_linear_threshold_balanced_alpha():
    constants = ProblemConstants(l_yx=1.0, l_yy=0.0, mu=1.0, nu=1.0)
    alpha = balanced_alpha(constants)
    assert alpha == pytest.approx(1.0, rel=1e-12)
    assert theta_threshold(alpha, constants) == pytest.approx(0.5, rel=1e-12)
    # the two branches are equal at the balanced weight
    first = constants.l_yx / (alpha * constants.mu + constants.l_yx)
    second = (alpha * constants.l_yx) / (constants.nu + alpha * constants.l_yx)
    assert first == pytest.approx(second, rel=1e-12)


def test_linear_theta_at_threshold_rejected():
    constants = ProblemConstants(l_yx=1.0, l_yy=0.0, mu=1.0, nu=1.0)
    with pytest.raises(StepSizeViolationError, match="theta"):
        make_schedule(LinearSchedule(theta=0.5, alpha=1.0), constants)
    state = make_schedule(LinearSchedule(theta=0.75, alpha=1.0), constants)
    assert state.tau == pytest.approx((1 - 0.75) / 0.75, rel=1e-12)
    assert state.sigma == pytest.approx((1 - 0.75) / 0.75, rel=1e-12)


def test_linear_requires_both_moduli():
    constants = ProblemConstants(l_yx=1.0, l_yy=0.0, mu=0.0, nu=1.0)
    with pytest.raises(StepSizeViolationError, match="mu > 0"):
        make_schedule(LinearSchedule(theta=0.9, alpha=1.0), constants)


def test_linear_t_growth_and_sigma_tilde():
    constants = ProblemConstants(l_yx=1.0, l_yy=0.0, mu=1.0, nu=1.0)
    kind = LinearSchedule(theta=0.8, alpha=1.0)
    state = make_schedule(kind, constants)
    for k in range(1, 30):
        state = advance_schedule(state, kind, constants)
        assert state.t == pytest.approx(0.8 ** -k, rel=1e-12)
    tilde = sigma_tilde(state, kind)
    expected = state.sigma / (1 - 0.8 * state.sigma * (1.0 * 1.0 + 0.0))
    assert tilde == pytest.approx(expected, rel=1e-12)


def test_default_builders_satisfy_conditions():
    for constants in (
        ProblemConstants(l_yx=2.0, l_yy=0.0),
        ProblemConstants(l_yx=0.0, l_yy=0.0),
        ProblemConstants(l_yx=37.0, l_yy=5.0, nu=0.5),
    ):
        make_schedule(default_constant(constants), constants)
        if constants.nu > 0:
            make_schedule(default_adaptive(constants), constants)
    sc_consts = ProblemConstants(l_yx=3.0, l_yy=0.5, mu=2.0, nu=0.7)
    kind = default_linear(sc_consts)
    state = make_schedule(kind, sc_consts)
    assert 0 < kind.theta < 1
    assert state.delta > 0


def test_default_constant_delta_margin():
    constants = ProblemConstants(l_yx=2.0, l_yy=0.0)
    kind = default_constant(constants)
    state = make_schedule(kind, constants)
    # sigma0 targets a 0.9 product, leaving delta = 0.1
    assert state.delta == pytest.approx(0.1, rel=1e-9)
