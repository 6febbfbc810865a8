"""Toy, bilinear and quadratic problems plus interface-level validation."""

import numpy as np
import pytest

from ogaprox.problem import (
    MissingSaddlePointError,
    ProblemConstants,
    PsiUndefinedError,
    SaddleProblem,
    validate_problem,
)
from ogaprox.problems import (
    QuadraticSaddleProblem,
    ToyProblem,
    random_toy_problem,
)
from ogaprox.problems.toy import _FEAS_TOL, _outside_cone
from ogaprox.prox import RankDeficientError
from ogaprox.qp import QpProblem, QpStatus, solve_qp
from ogaprox.rng import experiment_rng, make_rng
from ogaprox.schedule import default_adaptive
from ogaprox.solver import run

from _oracles import prox_oracle


def _toy(rng, d=6, n=9, nu=0.0):
    return random_toy_problem(d, n, nu, rng)


def test_toy_rejects_a_without_full_row_rank():
    rng = make_rng(23, 0)
    a = rng.uniform(-3, 3, (5, 3))
    with pytest.raises(ValueError) as info:
        ToyProblem(a)  # more rows than columns: rank 3 < 5
    assert not isinstance(info.value, RankDeficientError)
    with pytest.raises(ValueError) as info:
        random_toy_problem(5, 3, 0.0, rng)  # no redraw can help
    assert not isinstance(info.value, RankDeficientError)
    with pytest.raises(RankDeficientError):
        ToyProblem(np.vstack([a.T, a.T[1]]))  # a repeated row


# -- toy gradient and prox ---------------------------------------------------

def test_toy_grad_vanishes_on_nonpositive_x():
    p = _toy(make_rng(20, 0))
    x = -np.abs(make_rng(20, 1).standard_normal(p.dim_x))
    y = p.sample_point(make_rng(20, 2))[1]
    np.testing.assert_allclose(p.grad_y(x, y), np.zeros(p.dim_y), atol=0)


def test_toy_grad_basis_vector_gives_matrix_row():
    p = _toy(make_rng(21, 0))
    e1 = np.zeros(p.dim_x)
    e1[0] = 1.0
    np.testing.assert_allclose(p.grad_y(e1, np.zeros(p.dim_y)), p.a[0], atol=0)


def test_toy_grad_matches_finite_differences():
    p = _toy(make_rng(22, 0))
    rng = make_rng(22, 1)
    x, y = p.sample_point(rng)
    grad = p.grad_y(x, y)
    h = 1e-6
    for j in range(p.dim_y):
        e = np.zeros(p.dim_y)
        e[j] = h
        num = (p.phi_value(x, y + e) - p.phi_value(x, y - e)) / (2 * h)
        assert num == pytest.approx(grad[j], abs=1e-6 * max(1.0, abs(grad[j])))


def test_toy_prox_x_cases_and_identity_on_nonpositive():
    p = _toy(make_rng(23, 0))
    rng = make_rng(23, 1)
    _, y = p.sample_point(rng)
    x = -np.abs(rng.standard_normal(p.dim_x))
    np.testing.assert_allclose(p.prox_phi_x(0.7, y, x), x, atol=0)


def test_toy_prox_x_matches_oracle():
    p = _toy(make_rng(24, 0))
    rng = make_rng(24, 1)
    _, y = p.sample_point(rng)
    x = rng.standard_normal(p.dim_x) * 2
    tau = 0.9
    cand = p.prox_phi_x(tau, y, x)
    violation = prox_oracle(lambda u: tau * p.phi_value(u, y), x, cand,
                            trials=1000, seed=7)
    assert violation <= 1e-8


def test_toy_prox_x_rejects_infeasible_y():
    p = _toy(make_rng(25, 0))
    y_bad = make_rng(25, 1).standard_normal(p.dim_y) * 10
    if np.min(p.a @ y_bad) < -1e-6:
        with pytest.raises(ValueError):
            p.prox_phi_x(1.0, y_bad, np.zeros(p.dim_x))


@pytest.mark.parametrize("last, feasible", [(-5e-9, True), (-5e-7, False)])
def test_toy_prox_x_and_g_value_share_one_cone_test(last, feasible):
    p = random_toy_problem(4, 6, 0.3, make_rng(1, 0))
    y = np.linalg.pinv(p.a) @ np.array([1.0, 0.5, 0.2, last])
    x = make_rng(1, 1).standard_normal(4)
    assert (p.g_value(y) < np.inf) is feasible
    if feasible:
        p.check_start(x, y)
        w = np.maximum(p.a @ y, 0.0)
        np.testing.assert_array_equal(
            p.prox_phi_x(0.1, y, x),
            np.where(x <= 0.0, x, np.where(x <= 0.1 * w, 0.0, x - 0.1 * w)))
    else:
        with pytest.raises(ValueError, match="feasible y"):
            p.prox_phi_x(0.1, y, x)


@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_toy_fused_run_matches_the_three_call_run(nu):
    from _oracles import ThreeCalls

    p = random_toy_problem(20, 30, nu, make_rng(26, 0))
    x0, y0 = p.sample_point(make_rng(26, 1))
    kind = default_adaptive(p.constants)
    a = run(p, kind, x0, y0, max_iter=150)
    b = run(ThreeCalls(p), kind, x0, y0, max_iter=150)
    for u, v in zip((a.state.x, a.state.y, *a.ergodic()), (b.state.x, b.state.y, *b.ergodic())):
        np.testing.assert_array_equal(u, v)
    assert a.report.step_dx == b.report.step_dx
    assert a.report.step_dy == b.report.step_dy


def test_toy_empty_positive_part_is_exact():
    # at x <= 0 the oracles skip A: the results are those of the formulas
    p = _toy(make_rng(27, 0))
    rng = make_rng(27, 1)
    _, y = p.sample_point(rng)
    x = -np.abs(rng.standard_normal(p.dim_x))
    x[:2] = 0.0, -0.0
    np.testing.assert_array_equal(p.grad_y(x, y), p.a.T @ np.maximum(x, 0.0))
    out = p.prox_phi_x(0.7, y, x)
    np.testing.assert_array_equal(out, x)
    assert not np.shares_memory(out, x)
    y_next, x_next, grad = p.prox_step(0.5, y, 0.7, x)
    np.testing.assert_array_equal(x_next, x)
    np.testing.assert_array_equal(grad, np.zeros(p.dim_y))
    # a NaN entry is not an empty positive part
    x[2] = np.nan
    assert np.isnan(p.grad_y(x, y)).all()


def test_toy_prox_x_and_prox_step_reject_an_infeasible_image():
    p = random_toy_problem(4, 6, 0.3, make_rng(28, 0))
    y_bad = np.linalg.pinv(p.a) @ np.array([1.0, 0.5, 0.2, -1.0])
    p._projector.project_with_image = lambda v: (y_bad, p.a @ y_bad)
    for x in (-np.ones(4), make_rng(28, 1).standard_normal(4)):
        with pytest.raises(ValueError, match="feasible y"):
            p.prox_phi_x(0.1, y_bad, x)
        with pytest.raises(ValueError, match="feasible y"):
            p.prox_step(0.1, y_bad, 0.1, x)


def _slack_cases():
    cases = {"nan-positive": [np.nan, 1.0], "nan-negative": [-1.0, np.nan, 2.0],
             "zeros": [0.0, 0.0], "negative-zero": [-0.0, 1.0, -0.0], "positive": [3.0, 1e-300]}
    for scale in (1e-3, 1.0, 1e6):
        # the tolerance is relative to max(1, max|A y|)
        tol = _FEAS_TOL * max(1.0, scale)
        for factor in (0.5, 1.0, 2.0):
            cases[f"scale{scale:g}-{factor:g}tol"] = [scale, -factor * tol, 0.5 * scale]
        cases[f"scale{scale:g}-random"] = scale * make_rng(29, 0).standard_normal(40)
    return cases


_SLACKS = _slack_cases()


@pytest.mark.parametrize("name", sorted(_SLACKS))
def test_cone_test_matches_the_one_expression_formula(name):
    from _oracles import outside_cone_formula

    slack = np.asarray(_SLACKS[name], dtype=float)
    assert bool(_outside_cone(slack)) is outside_cone_formula(slack, _FEAS_TOL)


@pytest.mark.parametrize("nu", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["nan", "negative-zero", "mixed"])
def test_toy_prox_step_is_the_three_calls_bit_for_bit(kind, nu):
    from _oracles import ThreeCalls

    p = random_toy_problem(6, 9, nu, make_rng(30, 0))
    rng = make_rng(30, 1)
    x = {"nan": np.array([-1.0, np.nan, -2.0, 0.0, -0.5, -3.0]),
         "negative-zero": np.full(p.dim_x, -0.0),
         "mixed": rng.standard_normal(p.dim_x)}[kind]
    plain = ThreeCalls(p)
    for v in (3.0 * rng.standard_normal(p.dim_y), np.linalg.pinv(p.a) @ np.ones(p.dim_x)):
        y = plain.prox_g(0.4, v)
        x_next = plain.prox_phi_x(0.6, y, x)
        fused = p.prox_step(0.4, v, 0.6, x)
        for got, want in zip(fused, (y, x_next, plain.grad_y(x_next, y))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- toy saddle points -------------------------------------------------------

def test_toy_saddle_strongly_concave_case():
    p = _toy(make_rng(26, 0), nu=0.3)
    x_star, y_star = p.saddle_point()
    np.testing.assert_allclose(y_star, np.zeros(p.dim_y))
    assert np.all(x_star <= 0)


def test_toy_saddle_merely_concave_case():
    p = _toy(make_rng(27, 0))
    x_star, y_star = p.saddle_point()
    assert np.all(x_star <= 0)
    assert np.linalg.norm(y_star) == pytest.approx(1.0, rel=1e-9)
    assert np.min(p.a @ y_star) > 0  # strictly inside the cone


def _qp_saddle_y(p):
    """The dense QP route to the min-norm point of ``{A y >= e}``, normalized."""
    problem = QpProblem(q_matrix=np.eye(p.dim_y), q_vector=np.zeros(p.dim_y),
                        ineq_matrix=p.a, ineq_vector=np.ones(p.dim_x))
    start = p.a.T @ np.linalg.solve(p.a @ p.a.T, np.ones(p.dim_x))
    result = solve_qp(problem, tol=1e-10, start=start,
                      initial_active=tuple(range(p.dim_x)))
    assert result.status is QpStatus.OPTIMAL
    return result.x / np.linalg.norm(result.x)


@pytest.mark.parametrize("seed", [42, 43])
def test_toy_saddle_matches_qp_route_full_size(seed):
    p = random_toy_problem(250, 350, 0.0, make_rng(seed, 0))
    np.testing.assert_allclose(p.saddle_point()[1], _qp_saddle_y(p), atol=1e-9)


@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_toy_saddle_inequalities_against_random_points(nu):
    p = _toy(make_rng(28, 0), nu=nu)
    saddle = p.saddle_point()
    x_star, y_star = saddle
    psi_star = p.psi_value(x_star, y_star)
    rng = make_rng(28, 1)
    for _ in range(1000):
        x, y = p.sample_point(rng)
        assert p.psi_value(x_star, y) <= psi_star + 1e-9
        assert psi_star <= p.psi_value(x, y_star) + 1e-9


def test_toy_gap_zero_at_saddle_and_matches_direct_psi():
    p = _toy(make_rng(29, 0), nu=0.3)
    saddle = p.saddle_point()
    assert p.gap_value(saddle, saddle) == pytest.approx(0.0, abs=1e-12)
    rng = make_rng(29, 1)
    pair = p.sample_point(rng)
    stable = p.gap_value(saddle, pair)
    direct = p.psi_value(pair[0], saddle[1]) - p.psi_value(saddle[0], pair[1])
    assert stable == pytest.approx(direct, rel=1e-9, abs=1e-9)
    # with x* <= 0 and y* = 0 the gap reduces to nu/2 ||y||^2
    assert stable == pytest.approx(0.5 * 0.3 * float(pair[1] @ pair[1]), rel=1e-9)


def test_toy_gap_rejects_infeasible_y():
    p = _toy(make_rng(30, 0))
    saddle = p.saddle_point()
    y_bad = make_rng(30, 1).standard_normal(p.dim_y) * 10
    if p.g_value(y_bad) == np.inf:
        with pytest.raises(PsiUndefinedError):
            p.gap_value(saddle, (np.zeros(p.dim_x), y_bad))


def test_toy_lipschitz_constant_is_spectral_norm():
    p = _toy(make_rng(31, 0))
    exact = np.linalg.svd(p.a, compute_uv=False)[0]
    assert p.constants.l_yx == pytest.approx(1.001 * exact, rel=1e-9)
    assert p.constants.l_yy == 0.0


def test_toy_benchmark_instance_declares_an_upper_bound():
    # the toy-cone benchmark instance, where a power iteration stopped
    # 0.7% short of the norm
    p = random_toy_problem(250, 350, 0.0, experiment_rng(14, "toy", 0))
    exact = np.linalg.svd(p.a, compute_uv=False)[0]
    assert p.constants.l_yx >= exact


@pytest.mark.parametrize("make", [
    pytest.param(QuadraticSaddleProblem, id="bilinear"),
    lambda a: QuadraticSaddleProblem(a, np.zeros(30), np.zeros(30), mu=1.0, nu=1.0),
])
def test_square_coupling_declares_an_upper_bound(make):
    # the criterion-4 shape, where a power iteration stopped short of the norm
    a = make_rng(36, 41).standard_normal((30, 30)) / np.sqrt(30.0)
    p = make(a)
    exact = np.linalg.svd(a, compute_uv=False)[0]
    assert p.constants.l_yx == pytest.approx(1.001 * exact, rel=1e-12)
    assert p.constants.l_yx >= exact


# -- bilinear ---------------------------------------------------------------

def test_bilinear_prox_identity_exact():
    rng = make_rng(32, 0)
    a = rng.standard_normal((5, 4))
    p = QuadraticSaddleProblem(a)
    x = rng.standard_normal(4)
    y = rng.standard_normal(5)
    tau = 0.37
    np.testing.assert_array_equal(p.prox_phi_x(tau, y, x), x - tau * (a.T @ y))


# -- quadratic --------------------------------------------------------------

def test_quadratic_saddle_zero_data():
    rng = make_rng(33, 0)
    a = rng.standard_normal((4, 3))
    p = QuadraticSaddleProblem(a, np.zeros(3), np.zeros(4), mu=1.0, nu=1.0)
    x_star, y_star = p.saddle_point()
    np.testing.assert_allclose(x_star, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(y_star, np.zeros(4), atol=1e-12)


def test_quadratic_saddle_decoupled():
    b = np.array([1.0, -2.0])
    c = np.array([0.5, 0.0, -1.5])
    p = QuadraticSaddleProblem(np.zeros((3, 2)), b, c, mu=2.0, nu=0.5)
    x_star, y_star = p.saddle_point()
    np.testing.assert_allclose(x_star, -b / 2.0, atol=1e-12)
    np.testing.assert_allclose(y_star, -c / 0.5, atol=1e-12)


def test_quadratic_gap_identity_matches_direct_psi():
    rng = make_rng(34, 0)
    a = rng.standard_normal((5, 4)) * 0.5
    p = QuadraticSaddleProblem(a, rng.standard_normal(4), rng.standard_normal(5),
                               mu=1.3, nu=0.8)
    saddle = p.saddle_point()
    pair = (rng.standard_normal(4), rng.standard_normal(5))
    direct = p.psi_value(pair[0], saddle[1]) - p.psi_value(saddle[0], pair[1])
    assert p.gap_value(saddle, pair) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_quadratic_proxes_match_oracle():
    rng = make_rng(35, 0)
    a = rng.standard_normal((4, 4))
    p = QuadraticSaddleProblem(a, rng.standard_normal(4), rng.standard_normal(4),
                               mu=0.9, nu=1.4)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    tau, sigma = 0.8, 1.1
    cand_x = p.prox_phi_x(tau, y, x)
    assert prox_oracle(lambda u: tau * p.phi_value(u, y), x, cand_x,
                       trials=500, seed=8) <= 1e-8
    cand_y = p.prox_g(sigma, y)
    assert prox_oracle(lambda w: sigma * p.g_value(w), y, cand_y,
                       trials=500, seed=9) <= 1e-8


def _boxed_quadratic(seed):
    rng = make_rng(seed, 0)
    return QuadraticSaddleProblem(rng.standard_normal((5, 4)), rng.standard_normal(4),
                                  rng.standard_normal(5), mu=0.6, nu=0.4, box=(-1.0, 1.0))


def test_quadratic_with_box_has_no_closed_form_saddle():
    with pytest.raises(MissingSaddlePointError):
        _boxed_quadratic(42).saddle_point()


@pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones((3, 2)), np.array([[1.0, 2.0],
                                                                          [2.0, 4.0]])],
                         ids=["wide", "tall", "singular-square"])
def test_quadratic_singular_system_has_no_saddle_point(a):
    # at mu = nu = 0 the saddle system is singular unless A is square and invertible
    with pytest.raises(MissingSaddlePointError) as info:
        QuadraticSaddleProblem(a).saddle_point()
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_quadratic_with_box_gap_is_the_objective_difference():
    # the distance identity needs the unconstrained saddle point; with a box
    # the gap is Psi(x, y*) - Psi(x*, y) at any feasible reference pair
    p = _boxed_quadratic(43)
    rng = make_rng(43, 1)
    saddle, pair = p.sample_point(rng), p.sample_point(rng)
    direct = p.psi_value(pair[0], saddle[1]) - p.psi_value(saddle[0], pair[1])
    assert p.gap_value(saddle, pair) == direct
    dx, dy = pair[0] - saddle[0], pair[1] - saddle[1]
    assert direct != 0.5 * p.mu * (dx @ dx) + 0.5 * p.nu * (dy @ dy)  # the unboxed identity


@pytest.mark.parametrize("mu, nu", [(-0.1, 1.0), (1.0, -0.1), (np.inf, 1.0)])
def test_quadratic_rejects_negative_or_infinite_moduli(mu, nu):
    with pytest.raises(ValueError, match="nonnegative finite"):
        QuadraticSaddleProblem(np.eye(2), mu=mu, nu=nu)


def test_quadratic_later_writes_to_the_arguments_change_no_oracle_output():
    # a scaled caller's A once left grad_y 10x larger than the declared l_yx
    rng = make_rng(44, 0)
    a, b, c = rng.standard_normal((4, 3)), rng.standard_normal(3), rng.standard_normal(4)
    p = QuadraticSaddleProblem(a, b, c, mu=0.7, nu=0.4)
    x, y = rng.standard_normal(3), rng.standard_normal(4)

    def outputs():
        return [p.grad_y(x, y), p.prox_phi_x(0.3, y, x), p.prox_g(0.5, y),
                p.phi_value(x, y), p.g_value(y), *p.saddle_point()]

    before = outputs()
    for arr in (a, b, c):
        arr *= 10.0
    for old, new in zip(before, outputs()):
        np.testing.assert_array_equal(old, new)
    assert float(np.linalg.norm(p.a, 2)) <= p.constants.l_yx
    for arr in (p.a, p.b, p.c, QuadraticSaddleProblem(np.eye(2)).b):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


# -- interface validation ----------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: _toy(make_rng(36, 0), nu=0.0),
    lambda: _toy(make_rng(36, 1), nu=0.5),
    lambda: QuadraticSaddleProblem(make_rng(36, 2).standard_normal((4, 4)), box=(-1.0, 1.0)),
    lambda: QuadraticSaddleProblem(
        make_rng(36, 3).standard_normal((4, 3)),
        make_rng(36, 4).standard_normal(3),
        make_rng(36, 5).standard_normal(4), mu=1.0, nu=1.0),
])
def test_validate_problem_reports_no_violation(make):
    problem = make()
    report = validate_problem(problem, trials=60, seed=5)
    assert report.ok, (report.lipschitz_violation, report.prox_violation)


def test_validate_problem_identical_pairs_zero_violation():
    p = _toy(make_rng(37, 0))
    rng = make_rng(37, 1)
    x, y = p.sample_point(rng)
    lhs = np.linalg.norm(p.grad_y(x, y) - p.grad_y(x, y))
    assert lhs == 0.0


def test_validate_problem_rejects_zero_trials():
    p = _toy(make_rng(38, 0))
    with pytest.raises(ValueError):
        validate_problem(p, trials=0, seed=0)


def test_constants_reject_negative():
    with pytest.raises(ValueError):
        ProblemConstants(l_yx=-1.0, l_yy=0.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"a_matrix": np.ones(3)}, "a_matrix must be 2-d"),
    ({"a_matrix": np.ones((2, 3)), "b_lin": np.ones(2)}, "inconsistent dimensions"),
    ({"a_matrix": np.eye(2), "box": (1.0, 1.0)}, "lower < upper"),
], ids=["1-d", "b_lin", "box"])
def test_quadratic_rejects_bad_inputs(kwargs, message):
    with pytest.raises(ValueError, match=message):
        QuadraticSaddleProblem(**kwargs)


def test_validator_detects_understated_lipschitz_constant():
    p = _toy(make_rng(39, 0))
    true_l = p.constants.l_yx
    p.constants = ProblemConstants(l_yx=true_l / 50.0, l_yy=0.0)
    report = validate_problem(p, trials=200, seed=2)
    assert report.lipschitz_violation > 1e-8
    assert not report.ok


class _NoValues(SaddleProblem):
    """The README's ridge game with a sampler and no objective values."""

    def __init__(self, a, l_yx):
        self.a = a
        self.dim_y, self.dim_x = a.shape
        self.constants = ProblemConstants(l_yx=l_yx, l_yy=0.0, nu=0.5)

    def grad_y(self, x, y):
        return self.a @ x

    def prox_phi_x(self, tau, y, x):
        return x - tau * (self.a.T @ y)

    def prox_g(self, sigma, v):
        return v / (1.0 + 0.5 * sigma)

    def sample_point(self, rng):
        return rng.standard_normal(self.dim_x), rng.standard_normal(self.dim_y)


@pytest.mark.parametrize("scale, ok", [(1.001, True), (0.5, False)])
def test_validate_problem_without_values_checks_lipschitz_only(scale, ok):
    a = make_rng(45, 0).standard_normal((5, 4))
    report = validate_problem(_NoValues(a, scale * np.linalg.norm(a, 2)), trials=200, seed=1)
    assert report.prox_violation is None
    assert report.ok == ok
    assert (report.lipschitz_violation <= report.tolerance) == ok


def test_validate_problem_with_phi_value_only_skips_the_prox_check():
    class PhiOnly(_NoValues):
        def phi_value(self, x, y):
            return float(y @ (self.a @ x))

    a = make_rng(45, 1).standard_normal((3, 3))
    report = validate_problem(PhiOnly(a, 1.001 * np.linalg.norm(a, 2)), trials=20, seed=1)
    assert report.prox_violation is None
    assert report.ok


def test_validator_detects_wrong_prox():
    class Crooked(type(_toy(make_rng(39, 1)))):
        def prox_phi_x(self, tau, y, x):
            return super().prox_phi_x(tau, y, x) + 0.05

    base = _toy(make_rng(39, 2))
    crooked = Crooked(base.a, nu=0.0)
    report = validate_problem(crooked, trials=50, seed=3)
    assert report.prox_violation > 1e-8
    assert not report.ok


def test_toy_prox_x_componentwise_matches_scalar_prox():
    from _oracles import prox_positive_part_scaled

    p = _toy(make_rng(41, 0))
    rng = make_rng(41, 1)
    _, y = p.sample_point(rng)
    w = p.a @ y
    tau = 0.8
    # include the breakpoints 0 and tau*w explicitly
    x = np.concatenate([rng.standard_normal(p.dim_x - 2), [0.0, tau * w[-1]]])
    vectorized = p.prox_phi_x(tau, y, x)
    scalar = np.array([
        prox_positive_part_scaled(tau, max(wi, 0.0), xi) for wi, xi in zip(w, x)
    ])
    np.testing.assert_array_equal(vectorized, scalar)
