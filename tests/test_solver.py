import math

import numpy as np
import pytest

from ogaprox.problem import ProblemConstants, SaddleProblem
from ogaprox.problems import (
    BilinearProblem,
    QuadraticSaddleProblem,
    random_toy_problem,
)
from ogaprox.rng import make_rng
from ogaprox.schedule import (
    AdaptiveSchedule,
    ConstantSchedule,
    LinearSchedule,
    advance_schedule,
    balanced_alpha,
    default_adaptive,
    default_constant,
    make_schedule,
)
from ogaprox.solver import (
    NonFiniteIterateError,
    SolverState,
    gap_certificate,
    rate_certificates,
    run,
    step,
)


def _constant_for(problem, tau=None):
    return default_constant(problem.constants, tau0=tau)


def test_first_step_uses_plain_gradient():
    # with x_-1 = x_0, y_-1 = y_0 the extrapolation cancels: the dual
    # update sees exactly grad_y(x_0, y_0)
    rng = make_rng(40, 0)
    a = rng.standard_normal((4, 4))
    p = BilinearProblem(a, box=(-1.0, 1.0))
    kind = _constant_for(p)
    sched = make_schedule(kind, p.constants)
    x0 = rng.standard_normal(4)
    y0 = np.clip(rng.standard_normal(4), -1, 1)
    state = SolverState.initial(p, x0, y0)
    new = step(p, state, sched)
    v_expected = y0 + sched.sigma * p.grad_y(x0, y0)
    np.testing.assert_allclose(new.y, np.clip(v_expected, -1, 1), atol=1e-14)


def test_run_evaluates_grad_y_once_per_step_plus_the_start():
    # without a fused oracle, each step ends with grad_y at the new pair
    p = random_toy_problem(4, 6, 0.3, make_rng(40, 1))
    x0, y0 = p.sample_point(make_rng(40, 2))
    seen, grad_y = [], p.grad_y

    def counting(x, y):
        seen.append((x.copy(), y.copy()))
        return grad_y(x, y)

    p.grad_y = counting
    result = run(p, _constant_for(p), x0, y0, max_iter=25)
    assert len(seen) == 26
    np.testing.assert_array_equal(seen[-1][0], result.state.x)
    np.testing.assert_array_equal(seen[-1][1], result.state.y)


def test_pdhg_equivalence_on_bilinear():
    # independent primal-dual loop: x_bar = 2 x_k - x_{k-1},
    # y_{k+1} = clip(y_k + sigma A x_bar), x_{k+1} = x_k - tau A' y_{k+1}
    rng = make_rng(41, 0)
    n = 30
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    p = BilinearProblem(a, box=(-1.0, 1.0))
    norm_a = p.constants.l_yx
    tau = 0.5 / norm_a
    sigma = 0.5 / norm_a
    kind = ConstantSchedule(tau=tau, sigma=sigma, c_alpha=2.0 * norm_a)
    x0 = rng.standard_normal(n)
    y0 = np.clip(rng.standard_normal(n), -1, 1)

    result = run(p, kind, x0, y0, max_iter=100)

    x_cur, x_prev, y_cur = x0.copy(), x0.copy(), y0.copy()
    for _ in range(100):
        x_bar = 2.0 * x_cur - x_prev
        y_cur = np.clip(y_cur + sigma * (a @ x_bar), -1.0, 1.0)
        x_prev = x_cur
        x_cur = x_cur - tau * (a.T @ y_cur)

    assert np.max(np.abs(result.state.x - x_cur)) <= 1e-10
    assert np.max(np.abs(result.state.y - y_cur)) <= 1e-10


def test_fixed_point_at_toy_saddle():
    p = random_toy_problem(5, 8, 0.4, make_rng(42, 0))
    x_star, y_star = p.saddle_point()
    kind = _constant_for(p)
    sched = make_schedule(kind, p.constants)
    state = SolverState.initial(p, x_star, y_star)
    new = step(p, state, sched)
    assert np.linalg.norm(new.x - x_star) <= 1e-10
    assert np.linalg.norm(new.y - y_star) <= 1e-10


def test_fixed_point_at_quadratic_saddle():
    rng = make_rng(43, 0)
    a = rng.standard_normal((5, 5)) * 0.4
    p = QuadraticSaddleProblem(a, rng.standard_normal(5), rng.standard_normal(5),
                               mu=1.0, nu=1.0)
    saddle = p.saddle_point()
    kind = _constant_for(p)
    sched = make_schedule(kind, p.constants)
    state = SolverState.initial(p, *saddle)
    new = step(p, state, sched)
    assert np.linalg.norm(new.x - saddle[0]) <= 1e-10
    assert np.linalg.norm(new.y - saddle[1]) <= 1e-10


def test_run_zero_iterations_returns_initial_state():
    p = random_toy_problem(4, 6, 0.0, make_rng(44, 0))
    x0 = np.zeros(4)
    y0 = np.zeros(6)
    result = run(p, _constant_for(p), x0, y0, max_iter=0)
    np.testing.assert_array_equal(result.state.x, x0)
    np.testing.assert_array_equal(result.state.y, y0)
    assert result.report.records == [] and result.report.step_dx == []


def test_run_rejects_infeasible_start():
    p = random_toy_problem(4, 6, 0.0, make_rng(45, 0))
    y_bad = make_rng(45, 1).standard_normal(6) * 10
    if p.g_value(y_bad) == np.inf:
        with pytest.raises(ValueError):
            run(p, _constant_for(p), np.zeros(4), y_bad, max_iter=1)
    boxed = BilinearProblem(np.eye(3), box=(-1.0, 1.0))
    with pytest.raises(ValueError, match="dom g"):
        run(boxed, _constant_for(boxed), np.zeros(3), np.full(3, 5.0), max_iter=1)


class _PoisonedProblem(SaddleProblem):
    """Returns NaN from the x-prox after a few iterations."""

    def __init__(self):
        self.dim_x = 2
        self.dim_y = 2
        self.constants = ProblemConstants(l_yx=1.0, l_yy=0.0)
        self.calls = 0

    def grad_y(self, x, y):
        return x.copy()

    def prox_phi_x(self, tau, y, x):
        self.calls += 1
        if self.calls >= 3:
            return np.full(2, np.nan)
        return x - tau * y

    def prox_g(self, sigma, v):
        return v.copy()


def test_non_finite_iterate_carries_partial_report():
    p = _PoisonedProblem()
    with pytest.raises(NonFiniteIterateError) as info:
        run(p, ConstantSchedule(tau=0.1, sigma=0.1, c_alpha=2.0), np.ones(2),
            np.ones(2), max_iter=10)
    assert info.value.k == 3
    assert len(info.value.report.step_dx) == 2


def test_callbacks_record_metrics():
    p = random_toy_problem(4, 6, 0.0, make_rng(46, 0))
    seen = []
    ergodic = []

    def watch(k, state, sched):
        # the state after step k, whose totals cover the first k steps
        assert state.k == k
        seen.append(k)
        ergodic.append(state.ergodic())
        if k % 2 == 0:
            return {"dist_x": float(np.linalg.norm(state.x))}
        return None

    result = run(p, _constant_for(p), np.zeros(4), np.zeros(6), max_iter=6,
                 callbacks=(watch,))
    assert seen == [1, 2, 3, 4, 5, 6]
    assert [r.k for r in result.report.records] == [2, 4, 6]
    assert all(r.theta == 1.0 for r in result.report.records)
    for inside, final in zip(ergodic[-1], result.ergodic()):
        np.testing.assert_array_equal(inside, final)

    # on the adaptive law the parameters change every step: a record
    # carries the theta/tau/sigma used by its own step
    q = random_toy_problem(4, 6, 0.3, make_rng(46, 1))
    result = run(q, default_adaptive(q.constants), np.zeros(4), np.zeros(6), max_iter=6,
                 callbacks=(lambda k, state, sched: {"dist_y": float(np.linalg.norm(state.y))},))
    trace = result.report.schedule_trace
    assert len(set(trace["tau"])) == 6
    for rec in result.report.records:
        i = rec.k - 1
        assert (rec.theta, rec.tau, rec.sigma) == (
            trace["theta"][i], trace["tau"][i], trace["sigma"][i])


def test_ergodic_is_plain_average_for_constant_schedule():
    rng = make_rng(47, 0)
    a = rng.standard_normal((3, 3))
    p = BilinearProblem(a, box=(-1.0, 1.0))
    kind = _constant_for(p)
    iterates = []

    def collect(k, state, sched):
        iterates.append(state.x.copy())
        return None

    result = run(p, kind, rng.standard_normal(3), np.zeros(3), max_iter=25,
                 callbacks=(collect,))
    erg_x, _ = result.ergodic()
    np.testing.assert_allclose(erg_x, np.mean(iterates, axis=0), atol=1e-12)


def test_iterate_differences_decay_on_toy():
    p = random_toy_problem(10, 14, 0.0, make_rng(48, 0))
    rng = make_rng(48, 1)
    x0 = rng.uniform(-5, 5, 10)
    y0 = p.prox_g(1.0, rng.uniform(-5, 5, 14))
    result = run(p, _constant_for(p), x0, y0, max_iter=3000)
    head = np.mean(result.report.step_dx[:50]) + np.mean(result.report.step_dy[:50])
    tail = np.mean(result.report.step_dx[-50:]) + np.mean(result.report.step_dy[-50:])
    assert tail <= 1e-6 * max(1.0, head)


def test_gap_bound_constant_schedule_on_quadratic():
    rng = make_rng(49, 0)
    a = rng.standard_normal((6, 6)) * 0.3
    p = QuadraticSaddleProblem(a, rng.standard_normal(6), rng.standard_normal(6),
                               mu=0.7, nu=0.9)
    saddle = p.saddle_point()
    kind = _constant_for(p)
    x0 = rng.standard_normal(6)
    y0 = rng.standard_normal(6)
    for max_iter in (1, 5, 40, 200):
        result = run(p, kind, x0, y0, max_iter=max_iter)
        cert = gap_certificate(p, saddle, result.state, result.schedule, kind, x0, y0)
        assert cert.gap >= -1e-10
        assert cert.gap <= cert.bound + 1e-9


def test_gap_bound_adaptive_schedule_on_quadratic():
    rng = make_rng(50, 0)
    a = rng.standard_normal((6, 6)) * 0.3
    p = QuadraticSaddleProblem(a, rng.standard_normal(6), rng.standard_normal(6),
                               mu=0.7, nu=0.9)
    saddle = p.saddle_point()
    kind = default_adaptive(p.constants)
    x0 = rng.standard_normal(6)
    y0 = rng.standard_normal(6)
    result = run(p, kind, x0, y0, max_iter=300)
    cert = gap_certificate(p, saddle, result.state, result.schedule, kind, x0, y0)
    assert 0.0 <= cert.gap <= cert.bound + 1e-9
    certs = rate_certificates(kind, p.constants, make_schedule(kind, p.constants),
                              saddle, x0, y0)
    by_kind = {c.kind.value: c for c in certs}
    assert cert.gap <= by_kind["GapO1K2"].bound(300) + 1e-9
    dist_y = float(np.linalg.norm(result.state.y - saddle[1]))
    assert dist_y <= by_kind["IterateO1K"].bound(300) + 1e-9


def test_linear_certificate_full_inequality_short_horizon():
    rng = make_rng(51, 0)
    a = rng.standard_normal((5, 5))
    a *= 1.0 / np.linalg.svd(a, compute_uv=False)[0]
    p = QuadraticSaddleProblem(a, rng.standard_normal(5), rng.standard_normal(5),
                               mu=1.0, nu=1.0)
    saddle = p.saddle_point()
    alpha = balanced_alpha(p.constants)
    kind = LinearSchedule(theta=0.9, alpha=alpha)
    x0 = rng.standard_normal(5)
    y0 = rng.standard_normal(5)
    state = SolverState.initial(p, x0, y0)
    sched = make_schedule(kind, p.constants)
    for k in range(1, 101):
        state = step(p, state, sched)
        sched = advance_schedule(sched, kind, p.constants)
        cert = gap_certificate(p, saddle, state, sched, kind, x0, y0)
        assert cert.lhs >= -1e-12
        assert cert.lhs <= cert.bound * (1 + 1e-8) + 1e-12, k


@pytest.mark.parametrize("law", ["constant", "adaptive", "linear"])
def test_state_counts_steps_and_sums_weights(law):
    rng = make_rng(54, 0)
    a = rng.standard_normal((4, 4)) * 0.5
    p = QuadraticSaddleProblem(a, rng.standard_normal(4), rng.standard_normal(4),
                               mu=1.0, nu=1.0)
    kind = {"constant": _constant_for(p), "adaptive": default_adaptive(p.constants),
            "linear": LinearSchedule(theta=0.9, alpha=balanced_alpha(p.constants))}[law]
    x0, y0 = rng.standard_normal(4), rng.standard_normal(4)
    state = SolverState.initial(p, x0, y0)
    sched = make_schedule(kind, p.constants)
    assert (state.k, state.t_sum) == (0, 0.0)
    weights = []
    for k in range(1, 31):
        weights.append(sched.t)
        state = step(p, state, sched)
        sched = advance_schedule(sched, kind, p.constants)
        assert state.k == k
        assert state.t_sum == sum(weights)
    assert len(set(weights)) == (1 if law == "constant" else 30)
    result = run(p, kind, x0, y0, max_iter=30)
    assert (result.state.k, result.state.t_sum) == (state.k, state.t_sum)


def test_weight_rescale_keeps_ergodic_finite():
    rng = make_rng(52, 0)
    a = rng.standard_normal((2, 2)) * 0.5
    p = QuadraticSaddleProblem(a, rng.standard_normal(2), rng.standard_normal(2),
                               mu=1.0, nu=1.0)
    kind = LinearSchedule(theta=0.8, alpha=balanced_alpha(p.constants))
    # theta**-k overflows float64 near k ~ 2580 without the rescale guard
    result = run(p, kind, rng.standard_normal(2), rng.standard_normal(2),
                 max_iter=4000)
    erg_x, erg_y = result.ergodic()
    assert np.all(np.isfinite(erg_x)) and np.all(np.isfinite(erg_y))
    saddle = p.saddle_point()
    assert np.linalg.norm(result.state.x - saddle[0]) <= 1e-9
    np.testing.assert_allclose(erg_x, saddle[0], atol=1e-6)


def test_gap_certificate_requires_saddle_point():
    from ogaprox.problem import MissingSaddlePointError

    p = random_toy_problem(4, 6, 0.0, make_rng(53, 0))
    kind = _constant_for(p)
    result = run(p, kind, np.zeros(4), np.zeros(6), max_iter=3)
    with pytest.raises(MissingSaddlePointError):
        gap_certificate(p, None, result.state, result.schedule, kind,
                        np.zeros(4), np.zeros(6))


def test_rate_certificate_constants_match_formulas():
    constants = ProblemConstants(l_yx=0.5, l_yy=0.0, nu=0.8)
    kind = AdaptiveSchedule(tau0=1.0, sigma0=0.9, c_alpha=1.0)
    sched0 = make_schedule(kind, constants)
    saddle = (np.zeros(2), np.zeros(3))
    x0 = np.ones(2)
    y0 = np.ones(3)
    certs = {c.kind.value: c for c in rate_certificates(kind, constants, sched0,
                                                        saddle, x0, y0)}
    d0 = 2.0 / (2 * 1.0) + 3.0 / (2 * 0.9)
    assert certs["GapO1K2"].constant == pytest.approx(12.0 / (0.8 * 0.9))
    assert certs["IterateO1K"].constant == pytest.approx(
        math.sqrt(18.0 / (0.8**2 * 0.9 * sched0.delta)))
    assert certs["GapO1K2"].d0 == pytest.approx(d0)
    assert certs["GapO1K2"].bound(10) == pytest.approx(
        12.0 / (0.8 * 0.9) * d0 / 100.0)


def test_quadratic_saddle_inequalities_direct_psi():
    rng = make_rng(54, 0)
    a = rng.standard_normal((5, 4)) * 0.6
    p = QuadraticSaddleProblem(a, rng.standard_normal(4), rng.standard_normal(5),
                               mu=1.1, nu=0.7)
    x_star, y_star = p.saddle_point()
    psi_star = p.psi_value(x_star, y_star)
    for _ in range(500):
        x, y = p.sample_point(rng)
        assert p.psi_value(x_star, y) <= psi_star + 1e-9
        assert psi_star <= p.psi_value(x, y_star) + 1e-9


def test_readme_custom_problem_example():
    # mirrors the README "Library usage" snippet
    from ogaprox import ProblemConstants, SaddleProblem, default_adaptive

    class RidgeGame(SaddleProblem):
        def __init__(self, a, nu):
            self.a, self.nu = a, nu
            self.dim_y, self.dim_x = a.shape
            self.constants = ProblemConstants(
                l_yx=np.linalg.norm(a, 2), l_yy=0.0, mu=0.0, nu=nu)

        def grad_y(self, x, y):
            return self.a @ x

        def prox_phi_x(self, tau, y, x):
            return x - tau * (self.a.T @ y)

        def prox_g(self, sigma, v):
            return v / (1.0 + self.nu * sigma)

    problem = RidgeGame(np.random.default_rng(0).standard_normal((5, 4)), nu=0.5)
    result = run(problem, default_adaptive(problem.constants),
                 x0=np.ones(4), y0=np.zeros(5), max_iter=2000)
    x_bar, y_bar = result.ergodic()
    # saddle point of <y, Ax> - nu/2||y||^2 is (0, 0) for injective A'
    assert np.linalg.norm(result.state.y) <= 1e-3
    assert np.linalg.norm(y_bar) <= 1e-2
    assert np.all(np.isfinite(x_bar))
