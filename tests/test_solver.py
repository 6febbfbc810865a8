import math
import re
from pathlib import Path

import numpy as np
import pytest

from _oracles import ThreeCalls

from ogaprox import problems, prox
from ogaprox.problem import ProblemConstants, SaddleProblem
from ogaprox.problems import (
    FairnessProblem,
    MkSvmProblem,
    QuadraticSaddleProblem,
    random_toy_problem,
)
from ogaprox.rng import make_rng
from ogaprox.schedule import (
    AdaptiveSchedule,
    LinearSchedule,
    ScheduleState,
    StepSizeViolationError,
    adaptive_rates,
    advance_schedule,
    balanced_alpha,
    default_adaptive,
    default_linear,
    make_schedule,
    schedule_margin,
)
from ogaprox.solver import (
    NonFiniteIterateError,
    SolverState,
    gap_certificate,
    initial_distance,
    run,
    step,
)


def test_first_step_uses_plain_gradient():
    # with x_-1 = x_0, y_-1 = y_0 the extrapolation cancels: the dual
    # update sees exactly grad_y(x_0, y_0)
    rng = make_rng(40, 0)
    a = rng.standard_normal((4, 4))
    p = QuadraticSaddleProblem(a, box=(-1.0, 1.0))
    kind = default_adaptive(p.constants)
    sched = make_schedule(kind, p.constants)
    x0 = rng.standard_normal(4)
    y0 = np.clip(rng.standard_normal(4), -1, 1)
    state = SolverState.initial(p, x0, y0)
    new = step(p, state, sched)
    v_expected = y0 + sched.sigma * p.grad_y(x0, y0)
    np.testing.assert_allclose(new.y, np.clip(v_expected, -1, 1), atol=1e-14)


def test_run_evaluates_grad_y_once_per_step_plus_the_start():
    # without a fused oracle, each step ends with grad_y at the new pair
    p = QuadraticSaddleProblem(make_rng(40, 1).standard_normal((6, 4)), nu=0.3)
    x0, y0 = p.sample_point(make_rng(40, 2))
    seen, grad_y = [], p.grad_y

    def counting(x, y):
        seen.append((x.copy(), y.copy()))
        return grad_y(x, y)

    p.grad_y = counting
    state, _ = run(p, default_adaptive(p.constants), x0, y0, max_iter=25)
    assert len(seen) == 26
    np.testing.assert_array_equal(seen[-1][0], state.x)
    np.testing.assert_array_equal(seen[-1][1], state.y)


def _toy_start(nu):
    # the toy experiment's start, smaller: the first steps project and
    # have [x]_+ != 0, the later ones find x <= 0
    rng = make_rng(90, 0)
    p = random_toy_problem(20, 30, nu, rng)
    x0 = rng.uniform(-5.0, 5.0, p.dim_x)
    return p, x0, p.prox_g(1.0, rng.uniform(-5.0, 5.0, p.dim_y))


def _mksvm_start(mu, nu):
    rng = make_rng(91, 0)
    labels = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    factors = [rng.standard_normal((12, 5)) for _ in range(3)]
    p = MkSvmProblem([f @ f.T for f in factors], labels, box_c=1.0, mu=mu, nu=nu)
    return (p, *p.sample_point(rng))


_FUSED = {
    "toy-nu0": lambda: _toy_start(0.0),
    "toy-nu0.3": lambda: _toy_start(0.3),
    "mksvm-c1": lambda: _mksvm_start(0.0, 0.0),
    "mksvm-c2": lambda: _mksvm_start(1.0, 0.5),
}


def test_every_built_in_fused_problem_is_checked():
    default = SaddleProblem.prox_step
    fused = {name for name in problems.__all__
             if getattr(getattr(problems, name), "prox_step", default) is not default}
    assert fused == {"ToyProblem", "MkSvmProblem"}


_DEFAULT_PATH = {
    "fairness": lambda: FairnessProblem(
        np.vstack([make_rng(93, k).standard_normal((6, 3)) for k in range(2)]),
        np.where(np.arange(12) % 2 == 0, 1.0, -1.0), np.arange(12) // 6),
    "quadratic": lambda: QuadraticSaddleProblem(make_rng(94, 0).standard_normal((5, 4)), nu=0.3),
    "quadratic-boxed": lambda: QuadraticSaddleProblem(
        make_rng(95, 0).standard_normal((5, 4)), mu=0.6, box=(-1.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(_DEFAULT_PATH))
def test_default_prox_step_is_prox_g_then_prox_phi_x(name):
    p = _DEFAULT_PATH[name]()
    assert type(p).prox_step is SaddleProblem.prox_step
    rng = make_rng(96, 0)
    for tau in (0.04, 3.0):
        x, y = p.sample_point(rng)
        sigma, v = 2.0 * tau, 3.0 * y - 1.0  # v leaves a simplex or box
        y_next, x_next, grad = p.prox_step(sigma, v, tau, x)
        y_ref = p.prox_g(sigma, v)
        assert y_next.tobytes() == y_ref.tobytes()
        assert x_next.tobytes() == p.prox_phi_x(tau, y_ref, x).tobytes()
        assert grad is None


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_step_equals_the_three_call_step(name, monkeypatch):
    p, x0, y0 = _FUSED[name]()
    kind = default_adaptive(p.constants)
    sched = make_schedule(kind, p.constants)
    state = SolverState.initial(p, x0, y0)
    projections = []
    dual = prox.solve_polytope_dual
    monkeypatch.setattr(prox, "solve_polytope_dual",
                        lambda *args: projections.append(state.k) or dual(*args))
    positive = []
    for _ in range(60):
        fused, plain = step(p, state, sched), step(ThreeCalls(p), state, sched)
        for u, v in zip((fused.x, fused.y, fused.grad), (plain.x, plain.y, plain.grad)):
            np.testing.assert_array_equal(u, v)
        positive.append(bool(np.any(fused.x > 0.0)))
        state, sched = fused, advance_schedule(sched, kind, p.constants)
    if name.startswith("toy"):
        # both branches of the projection and of the positive part were taken
        assert projections[0] == 0 and len(set(projections)) < 60
        assert positive[0] and not all(positive)


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_no_oracle_output_aliases_its_input(name):
    # at nu = 0 the y-prox input is not divided, so only the projection copies
    p, x0, y0 = _FUSED[name]()
    toy = name.startswith("toy")
    # a point strictly inside the set, which the projection returns unmoved
    inside = np.linalg.pinv(p.a) @ np.ones(p.dim_x) if toy else y0.copy()
    if toy:
        assert (p.a @ inside > 0.0).all()
    for v in (inside, y0 + make_rng(92, 0).standard_normal(p.dim_y)):
        out = p.prox_g(0.5, v)
        assert not np.shares_memory(out, v)
        if p.constants.nu == 0.0:
            project = (prox.PolytopeProjector(p.a).project if toy
                       else lambda u: prox.project_box_hyperplane(p.y_set, u))
            np.testing.assert_array_equal(out, project(v / 1.0))
        for x in ((x0, -np.abs(x0)) if toy else (x0,)):
            for got in p.prox_step(0.5, v, 0.5, x):
                assert not np.shares_memory(got, v) and not np.shares_memory(got, x)


def test_pdhg_equivalence_on_bilinear():
    # independent primal-dual loop: x_bar = 2 x_k - x_{k-1},
    # y_{k+1} = clip(y_k + sigma A x_bar), x_{k+1} = x_k - tau A' y_{k+1}
    rng = make_rng(41, 0)
    n = 30
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    p = QuadraticSaddleProblem(a, box=(-1.0, 1.0))
    norm_a = p.constants.l_yx
    tau = 0.5 / norm_a
    sigma = 0.5 / norm_a
    kind = AdaptiveSchedule(tau0=tau, sigma0=sigma, c_alpha=2.0 * norm_a)
    x0 = rng.standard_normal(n)
    y0 = np.clip(rng.standard_normal(n), -1, 1)

    state, _ = run(p, kind, x0, y0, max_iter=100)

    x_cur, x_prev, y_cur = x0.copy(), x0.copy(), y0.copy()
    for _ in range(100):
        x_bar = 2.0 * x_cur - x_prev
        y_cur = np.clip(y_cur + sigma * (a @ x_bar), -1.0, 1.0)
        x_prev = x_cur
        x_cur = x_cur - tau * (a.T @ y_cur)

    assert np.max(np.abs(state.x - x_cur)) <= 1e-10
    assert np.max(np.abs(state.y - y_cur)) <= 1e-10


def test_fixed_point_at_toy_saddle():
    p = random_toy_problem(5, 8, 0.4, make_rng(42, 0))
    x_star, y_star = p.saddle_point()
    kind = default_adaptive(p.constants)
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
    kind = default_adaptive(p.constants)
    sched = make_schedule(kind, p.constants)
    state = SolverState.initial(p, *saddle)
    new = step(p, state, sched)
    assert np.linalg.norm(new.x - saddle[0]) <= 1e-10
    assert np.linalg.norm(new.y - saddle[1]) <= 1e-10


def test_run_zero_iterations_returns_initial_state():
    p = random_toy_problem(4, 6, 0.0, make_rng(44, 0))
    x0 = np.zeros(4)
    y0 = np.zeros(6)
    state, report = run(p, default_adaptive(p.constants), x0, y0, max_iter=0)
    np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(state.y, y0)
    assert report.records == [] and report.step_dx == []


def test_run_rejects_infeasible_start():
    p = random_toy_problem(4, 6, 0.0, make_rng(45, 0))
    y_bad = make_rng(45, 1).standard_normal(6) * 10
    if p.g_value(y_bad) == np.inf:
        with pytest.raises(ValueError):
            run(p, default_adaptive(p.constants), np.zeros(4), y_bad, max_iter=1)
    boxed = QuadraticSaddleProblem(np.eye(3), box=(-1.0, 1.0))
    with pytest.raises(ValueError, match="dom g"):
        run(boxed, default_adaptive(boxed.constants), np.zeros(3), np.full(3, 5.0),
            max_iter=1)


def _fairness_start():
    rng = make_rng(92, 0)
    labels = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)
    p = FairnessProblem(np.vstack([rng.standard_normal((6, 3)) for _ in range(2)]),
                        np.tile(labels, 2), np.arange(12) // 6)
    return p, np.zeros(p.dim_x), np.full(p.dim_y, 1.0 / p.dim_y)


_STARTS = {
    "toy": lambda: _toy_start(0.0),
    "quadratic": lambda: (QuadraticSaddleProblem(np.eye(3), np.ones(3), np.ones(3),
                                                 mu=1.0, nu=1.0), np.zeros(3), np.zeros(3)),
    "fairness": _fairness_start,
    "mksvm": lambda: _mksvm_start(0.0, 0.0),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["x0", "y0"])
@pytest.mark.parametrize("name", sorted(_STARTS))
def test_run_rejects_a_non_finite_start(name, which, value):
    p, x0, y0 = _STARTS[name]()
    start = {"x0": x0.copy(), "y0": y0.copy()}
    start[which][0] = value
    with pytest.raises(ValueError, match=f"{which} must be finite"):
        run(p, default_adaptive(p.constants), start["x0"], start["y0"], max_iter=3)


@pytest.mark.parametrize("which", ["x0", "y0"])
def test_run_rejects_a_start_of_the_wrong_shape(which):
    p, x0, y0 = _STARTS["quadratic"]()
    start = {"x0": x0, "y0": y0, which: np.zeros(4)}
    with pytest.raises(ValueError, match="starting point dimensions do not match the problem"):
        run(p, default_adaptive(p.constants), start["x0"], start["y0"], max_iter=1)


def test_run_rejects_negative_max_iter():
    p = QuadraticSaddleProblem(np.eye(2))
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        run(p, default_adaptive(p.constants), np.zeros(2), np.zeros(2), max_iter=-1)


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
        run(p, AdaptiveSchedule(tau0=0.1, sigma0=0.1, c_alpha=2.0), np.ones(2),
            np.ones(2), max_iter=10)
    assert info.value.k == 3
    assert len(info.value.report.step_dx) == 2


class _Poisoned(SaddleProblem):
    """A contraction whose x- or y-prox (``which``) puts ``value`` in one
    entry at the third step; its ``grad_y`` refuses a non-finite pair, and
    its fused ``prox_step`` takes the gradient without that check."""

    def __init__(self, value, which):
        self.dim_x = self.dim_y = 2
        self.constants = ProblemConstants(l_yx=1.0, l_yy=0.0)
        self.value, self.which, self.calls = value, which, {"x": 0, "y": 0}

    def _poison(self, which, u):
        self.calls[which] += 1
        if which == self.which and self.calls[which] == 3:
            u[0] = self.value
        return u

    def grad_y(self, x, y):
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise AssertionError("grad_y called at a non-finite pair")
        return x - 0.5 * y

    def prox_g(self, sigma, v):
        return self._poison("y", 0.5 * v)

    def prox_phi_x(self, tau, y, x):
        return self._poison("x", 0.5 * (x - tau * y))

    def prox_step(self, sigma, v, tau, x):
        y = self.prox_g(sigma, v)
        x_next = self.prox_phi_x(tau, y, x)
        return y, x_next, x_next - 0.5 * y


@pytest.mark.parametrize("which", ["x", "y"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "three-calls"])
def test_non_finite_iterate_raises_at_its_step_before_grad_y(fused, value, which):
    # the non-fused step raises before grad_y sees the pair, and the partial
    # report is the report of the run stopped one step earlier
    def problem():
        p = _Poisoned(value, which)
        return p if fused else ThreeCalls(p)

    kind = AdaptiveSchedule(tau0=0.1, sigma0=0.1, c_alpha=2.0)
    with pytest.raises(NonFiniteIterateError) as info:
        run(problem(), kind, np.ones(2), np.ones(2), max_iter=10)
    assert info.value.k == 3
    assert info.value.report == run(problem(), kind, np.ones(2), np.ones(2), max_iter=2)[1]


class _Jump(SaddleProblem):
    """Its first x-step moves each entry by 1e200: finite, though the
    squared step norm overflows."""

    def __init__(self):
        self.dim_x = self.dim_y = 2
        self.constants = ProblemConstants(l_yx=1.0, l_yy=0.0)
        self.calls = 0

    def grad_y(self, x, y):
        return np.zeros(2)

    def prox_g(self, sigma, v):
        return v.copy()

    def prox_phi_x(self, tau, y, x):
        self.calls += 1
        return x + 1e200 if self.calls == 1 else x.copy()


def test_finite_step_whose_squared_norm_overflows_is_kept():
    kind = AdaptiveSchedule(tau0=0.1, sigma0=0.1, c_alpha=2.0)
    state, report = run(_Jump(), kind, np.zeros(2), np.zeros(2), max_iter=3)
    assert report.step_dx == [np.inf, 0.0, 0.0]
    np.testing.assert_array_equal(state.x, np.full(2, 1e200))


def _bits(state: SolverState) -> list:
    arrays = (state.x, state.y, state.grad, state.grad_prev, state.erg_x, state.erg_y)
    scalars = np.array([state.t_sum, state.step_dx, state.step_dy])
    return [a.tobytes() for a in arrays] + [scalars.tobytes(), state.k]


@pytest.mark.parametrize("t", [1.0, 2.5])
@pytest.mark.parametrize("theta", [1.0, 0.7])
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "three-calls"])
@pytest.mark.parametrize("name", sorted(_FUSED))
def test_step_is_the_written_out_formula_bit_for_bit(name, fused, theta, t):
    from _oracles import step_formula

    p, x0, y0 = _FUSED[name]()
    problem = p if fused else ThreeCalls(p)
    kind = default_adaptive(p.constants)
    sched = make_schedule(kind, p.constants)
    state = SolverState.initial(p, x0, y0)
    for _ in range(3):
        state, sched = step(p, state, sched), advance_schedule(sched, kind, p.constants)
    # -0.0 in every fourth entry of the iterates, the gradients and the sums
    state = SolverState(*(np.where(np.arange(a.size) % 4 == 0, -0.0, a) for a in (
        state.x, state.y, state.grad, state.grad_prev, state.erg_x, state.erg_y)),
        state.t_sum, state.k)
    sched = ScheduleState(theta, sched.tau, sched.sigma, t)
    for _ in range(3):
        new = step(problem, state, sched)
        assert _bits(new) == _bits(step_formula(problem, state, sched))
        state = new


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

    state, report = run(p, default_adaptive(p.constants), np.zeros(4), np.zeros(6), max_iter=6,
                        callbacks=(watch,))
    assert seen == [1, 2, 3, 4, 5, 6]
    assert [r.k for r in report.records] == [2, 4, 6]
    assert all(r.theta == 1.0 for r in report.records)
    for inside, final in zip(ergodic[-1], state.ergodic()):
        np.testing.assert_array_equal(inside, final)

    # on the adaptive law the parameters change every step: a record
    # carries the theta/tau/sigma used by its own step
    q = random_toy_problem(4, 6, 0.3, make_rng(46, 1))
    _, report = run(q, default_adaptive(q.constants), np.zeros(4), np.zeros(6), max_iter=6,
                    callbacks=(lambda k, state, sched: {"dist_y": float(np.linalg.norm(state.y))},))
    trace = report.schedule_trace
    assert len(set(trace["tau"])) == 6
    for rec in report.records:
        i = rec.k - 1
        assert (rec.theta, rec.tau, rec.sigma) == (
            trace["theta"][i], trace["tau"][i], trace["sigma"][i])


def test_ergodic_is_plain_average_for_constant_schedule():
    rng = make_rng(47, 0)
    a = rng.standard_normal((3, 3))
    p = QuadraticSaddleProblem(a, box=(-1.0, 1.0))
    kind = default_adaptive(p.constants)
    iterates = []

    def collect(k, state, sched):
        iterates.append(state.x.copy())
        return None

    state, _ = run(p, kind, rng.standard_normal(3), np.zeros(3), max_iter=25,
                   callbacks=(collect,))
    erg_x, _ = state.ergodic()
    np.testing.assert_allclose(erg_x, np.mean(iterates, axis=0), atol=1e-12)


def test_iterate_differences_decay_on_toy():
    p = random_toy_problem(10, 14, 0.0, make_rng(48, 0))
    rng = make_rng(48, 1)
    x0 = rng.uniform(-5, 5, 10)
    y0 = p.prox_g(1.0, rng.uniform(-5, 5, 14))
    _, report = run(p, default_adaptive(p.constants), x0, y0, max_iter=3000)
    head = np.mean(report.step_dx[:50]) + np.mean(report.step_dy[:50])
    tail = np.mean(report.step_dx[-50:]) + np.mean(report.step_dy[-50:])
    assert tail <= 1e-6 * max(1.0, head)


def test_gap_bound_constant_schedule_on_toy():
    # at nu = 0 the adaptive law keeps (tau0, sigma0) and the bound is d0 / K
    rng = make_rng(49, 0)
    p = random_toy_problem(6, 9, 0.0, rng)
    saddle = p.saddle_point()
    kind = default_adaptive(p.constants)
    x0 = rng.uniform(-5.0, 5.0, 6)
    y0 = p.prox_g(1.0, rng.uniform(-5.0, 5.0, 9))
    sched0 = make_schedule(kind, p.constants)
    d0 = initial_distance(saddle, x0, y0, sched0.tau, sched0.sigma)
    for max_iter in (1, 5, 40, 200):
        state, _ = run(p, kind, x0, y0, max_iter=max_iter)
        cert = gap_certificate(p, saddle, state, kind, d0)
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
    sched0 = make_schedule(kind, p.constants)
    d0 = initial_distance(saddle, x0, y0, sched0.tau, sched0.sigma)
    state, _ = run(p, kind, x0, y0, max_iter=300)
    cert = gap_certificate(p, saddle, state, kind, d0)
    assert 0.0 <= cert.gap <= cert.bound + 1e-9
    c2, c1 = adaptive_rates(kind, p.constants)
    assert cert.gap <= c2 * d0 / 300**2 + 1e-9
    dist_y = float(np.linalg.norm(state.y - saddle[1]))
    assert dist_y <= c1 * math.sqrt(d0) / 300 + 1e-9


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
    d0 = initial_distance(saddle, x0, y0, sched.tau, sched.sigma)
    for k in range(1, 101):
        state = step(p, state, sched)
        sched = advance_schedule(sched, kind, p.constants)
        cert = gap_certificate(p, saddle, state, kind, d0)
        assert cert.lhs >= -1e-12
        assert cert.lhs <= cert.bound * (1 + 1e-8) + 1e-12, k


@pytest.mark.parametrize("law", ["constant", "adaptive", "linear"])
def test_state_counts_steps_and_sums_weights(law):
    rng = make_rng(54, 0)
    a = rng.standard_normal((4, 4)) * 0.5
    p = QuadraticSaddleProblem(a, rng.standard_normal(4), rng.standard_normal(4),
                               mu=1.0, nu=1.0)
    if law == "constant":
        p = QuadraticSaddleProblem(a)  # nu = 0: the adaptive law keeps its steps
    if law == "linear":
        kind = LinearSchedule(theta=0.9, alpha=balanced_alpha(p.constants))
    else:
        kind = default_adaptive(p.constants)
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
    final, _ = run(p, kind, x0, y0, max_iter=30)
    assert (final.k, final.t_sum) == (state.k, state.t_sum)


def test_weight_rescale_keeps_ergodic_finite():
    rng = make_rng(52, 0)
    a = rng.standard_normal((2, 2)) * 0.5
    p = QuadraticSaddleProblem(a, rng.standard_normal(2), rng.standard_normal(2),
                               mu=1.0, nu=1.0)
    kind = LinearSchedule(theta=0.8, alpha=balanced_alpha(p.constants))
    # theta**-k overflows float64 near k ~ 2580 without the rescale guard
    state, _ = run(p, kind, rng.standard_normal(2), rng.standard_normal(2),
                   max_iter=4000)
    erg_x, erg_y = state.ergodic()
    assert np.all(np.isfinite(erg_x)) and np.all(np.isfinite(erg_y))
    saddle = p.saddle_point()
    assert np.linalg.norm(state.x - saddle[0]) <= 1e-9
    np.testing.assert_allclose(erg_x, saddle[0], atol=1e-6)


def test_gap_certificate_requires_saddle_point():
    from ogaprox.problem import MissingSaddlePointError

    p = random_toy_problem(4, 6, 0.0, make_rng(53, 0))
    kind = default_adaptive(p.constants)
    state, _ = run(p, kind, np.zeros(4), np.zeros(6), max_iter=3)
    with pytest.raises(MissingSaddlePointError):
        gap_certificate(p, None, state, kind, d0=1.0)


def test_adaptive_rate_constants_match_formulas():
    constants = ProblemConstants(l_yx=0.5, l_yy=0.0, nu=0.8)
    kind = AdaptiveSchedule(tau0=1.0, sigma0=0.9, c_alpha=1.0)
    sched0 = make_schedule(kind, constants)
    saddle = (np.zeros(2), np.zeros(3))
    x0 = np.ones(2)
    y0 = np.ones(3)
    c2, c1 = adaptive_rates(kind, constants)
    d0 = 2.0 / (2 * 1.0) + 3.0 / (2 * 0.9)
    assert c2 == pytest.approx(12.0 / (0.8 * 0.9))
    delta = schedule_margin(kind, constants)
    assert c1 == pytest.approx(math.sqrt(18.0 / (0.8**2 * 0.9 * delta)))
    assert initial_distance(saddle, x0, y0, sched0.tau, sched0.sigma) == pytest.approx(d0)
    assert c2 * d0 / 10**2 == pytest.approx(12.0 / (0.8 * 0.9) * d0 / 100.0)


def test_adaptive_rates_reject_other_laws():
    constants = ProblemConstants(l_yx=0.5, l_yy=0.0, mu=1.0, nu=0.8)
    kind = default_linear(constants)
    with pytest.raises(TypeError):
        adaptive_rates(kind, constants)
    # at nu = 0 the law runs constant steps, and c2 = 12/(nu*sigma0) is undefined
    flat = ProblemConstants(l_yx=0.5, l_yy=0.0)
    kind = default_adaptive(flat)
    with pytest.raises(StepSizeViolationError, match="nu > 0"):
        adaptive_rates(kind, flat)
    # a kind that make_schedule rejects has no rates: here the product is 10
    with pytest.raises(StepSizeViolationError, match="sigma0"):
        adaptive_rates(AdaptiveSchedule(tau0=1.0, sigma0=5.0, c_alpha=2.0),
                       ProblemConstants(l_yx=1.0, l_yy=0.0, nu=1.0))


def test_gap_certificate_needs_a_completed_step():
    p = QuadraticSaddleProblem(np.eye(2), np.ones(2), np.ones(2), mu=1.0, nu=1.0)
    kind = default_adaptive(p.constants)
    x0, y0 = np.zeros(2), np.zeros(2)
    state, _ = run(p, kind, x0, y0, max_iter=0)
    saddle = p.saddle_point()
    d0 = initial_distance(saddle, x0, y0, kind.tau0, kind.sigma0)
    with pytest.raises(ValueError):
        gap_certificate(p, saddle, state, kind, d0)


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
    # runs the first python block of the README ("Library usage") as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    snippet = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    scope = {"__name__": "readme_snippet"}
    exec(compile(snippet, "README.md", "exec"), scope)
    state, x_bar, y_bar = scope["state"], scope["x_bar"], scope["y_bar"]
    # saddle point of <y, Ax> - nu/2||y||^2 is (0, 0) for injective A'
    assert np.linalg.norm(state.y) <= 1e-3
    assert np.linalg.norm(y_bar) <= 1e-2
    assert np.all(np.isfinite(x_bar))
