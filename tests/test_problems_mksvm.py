import numpy as np
import pytest

from ogaprox.problem import validate_problem
from ogaprox.problems import MkSvmProblem, mksvm_predict
from ogaprox.problems.mksvm import (
    conjugated_kernels,
    gaussian_kernel,
    linear_kernel,
    normalize_kernel,
    polynomial_kernel,
)
from ogaprox.prox import project_box_hyperplane, project_simplex
from ogaprox.rng import make_rng
from ogaprox.schedule import default_adaptive, default_linear
from ogaprox.solver import run

from _oracles import ThreeCalls, prox_oracle


def _synthetic_instance(rng, n_train=14, n_test=5, m_feat=3):
    total = n_train + n_test
    features = rng.standard_normal((total, m_feat))
    labels = np.where(rng.uniform(size=total) < 0.5, -1.0, 1.0)
    labels[0], labels[1] = 1.0, -1.0
    kernels = [
        normalize_kernel(polynomial_kernel(features)),
        normalize_kernel(gaussian_kernel(features)),
        normalize_kernel(linear_kernel(features)),
    ]
    train_idx = np.arange(n_train)
    test_idx = np.arange(n_train, total)
    mats = conjugated_kernels(kernels, train_idx, labels[train_idx])
    return kernels, train_idx, test_idx, labels, mats


def _problem(rng, mu=0.0, nu=0.0):
    _, train_idx, _, labels, mats = _synthetic_instance(rng)
    return MkSvmProblem(mats, labels[: len(train_idx)], box_c=1.0, mu=mu, nu=nu)


# (mu, nu) and schedule law of the three MKSVM variants c1, a and c2
_VARIANTS = [(0.0, 0.0, default_adaptive), (0.0, 0.5, default_adaptive),
             (1.0, 0.5, default_linear)]


def test_normalized_kernels_have_unit_diagonal_trace():
    rng = make_rng(60, 0)
    kernels, *_ = _synthetic_instance(rng)
    for k in kernels:
        np.testing.assert_allclose(np.diag(k), np.ones(len(k)), atol=1e-12)
        assert np.trace(k) == pytest.approx(len(k), rel=1e-12)


def test_conjugation_scale_matches_kernel_count():
    # with unit-diagonal kernels, c / r_i equals the number of kernels
    rng = make_rng(61, 0)
    kernels, train_idx, _, labels, mats = _synthetic_instance(rng)
    b = labels[train_idx]
    block = kernels[0][np.ix_(train_idx, train_idx)]
    np.testing.assert_allclose(mats[0], 3.0 * np.outer(b, b) * block, atol=1e-12)


def test_grad_at_zero_dual_is_all_ones():
    p = _problem(make_rng(62, 0))
    x = np.full(p.dim_x, 1.0 / p.dim_x)
    np.testing.assert_allclose(p.grad_y(x, np.zeros(p.dim_y)), np.ones(p.dim_y))


def test_grad_on_vertex_uses_single_kernel():
    p = _problem(make_rng(63, 0))
    rng = make_rng(63, 1)
    _, y = p.sample_point(rng)
    e1 = np.zeros(p.dim_x)
    e1[0] = 1.0
    np.testing.assert_allclose(p.grad_y(e1, y), 1.0 - p.m_stack[0] @ y, atol=1e-12)


def test_grad_matches_finite_differences():
    p = _problem(make_rng(64, 0))
    rng = make_rng(64, 1)
    x, y = p.sample_point(rng)
    grad = p.grad_y(x, y)
    h = 1e-6
    for j in range(0, p.dim_y, 3):
        e = np.zeros(p.dim_y)
        e[j] = h
        num = (p.phi_value(x, y + e) - p.phi_value(x, y - e)) / (2 * h)
        assert num == pytest.approx(grad[j], abs=2e-5 * max(1.0, abs(grad[j])))


def test_grad_rejects_x_off_simplex():
    p = _problem(make_rng(65, 0))
    with pytest.raises(ValueError):
        p.grad_y(np.full(p.dim_x, 1.0), np.zeros(p.dim_y))


def test_prox_x_zero_tau_is_simplex_projection():
    p = _problem(make_rng(66, 0))
    rng = make_rng(66, 1)
    x = rng.standard_normal(p.dim_x)
    _, y = p.sample_point(rng)
    np.testing.assert_allclose(p.prox_phi_x(0.0, y, x), project_simplex(x), atol=1e-14)


def test_prox_x_zero_dual_scales_then_projects():
    p = _problem(make_rng(67, 0), mu=1.0)
    rng = make_rng(67, 1)
    x = rng.standard_normal(p.dim_x)
    tau = 0.7
    expected = project_simplex(x / (1.0 + 1.0 * tau))
    np.testing.assert_allclose(p.prox_phi_x(tau, np.zeros(p.dim_y), x), expected,
                               atol=1e-14)


def test_prox_x_matches_oracle():
    p = _problem(make_rng(68, 0), mu=0.5)
    rng = make_rng(68, 1)
    _, y = p.sample_point(rng)
    x = rng.standard_normal(p.dim_x)
    tau = 0.04
    cand = p.prox_phi_x(tau, y, x)
    violation = prox_oracle(lambda u: tau * p.phi_value(u, y), x, cand,
                            trials=1000, seed=11)
    assert violation <= 1e-8


@pytest.mark.parametrize("mu, nu", [(mu, nu) for mu, nu, _ in _VARIANTS])
def test_fused_prox_x_grad_equals_the_two_oracles(mu, nu):
    p = _problem(make_rng(72, 0), mu=mu, nu=nu)
    rng = make_rng(72, 1)
    for tau in (0.0, 0.04, 3.0):
        x, y = p.sample_point(rng)
        sigma, v = 2.0 * tau, 3.0 * y - 1.0  # v leaves the box: the projection acts
        y_next, x_next, grad = p.prox_step(sigma, v, tau, x)
        np.testing.assert_array_equal(y_next, p.prox_g(sigma, v))
        np.testing.assert_array_equal(x_next, p.prox_phi_x(tau, y_next, x))
        np.testing.assert_array_equal(grad, p.grad_y(x_next, y_next))


@pytest.mark.parametrize("mu, nu, law", _VARIANTS)
def test_fused_run_matches_the_two_call_run(mu, nu, law):
    fused = _problem(make_rng(73, 0), mu=mu, nu=nu)
    two_call = ThreeCalls(fused)
    x0, y0 = fused.sample_point(make_rng(73, 1))
    kind = law(fused.constants)
    a = run(fused, kind, x0, y0, max_iter=150)
    b = run(two_call, kind, x0, y0, max_iter=150)
    for u, v in zip((a.state.x, a.state.y, *a.ergodic()), (b.state.x, b.state.y, *b.ergodic())):
        np.testing.assert_array_equal(u, v)
    assert a.report.step_dx == b.report.step_dx
    assert a.report.step_dy == b.report.step_dy


def _grad_y_calls(wrap) -> int:
    """``grad_y`` evaluations of a 30-step run on ``wrap(problem)``."""
    p = _problem(make_rng(74, 0), mu=1.0, nu=0.5)
    x0, y0 = p.sample_point(make_rng(74, 1))
    calls, grad_y = [], p.grad_y

    def counting(x, y):
        calls.append((x, y))
        return grad_y(x, y)

    p.grad_y = counting
    run(wrap(p), default_adaptive(p.constants), x0, y0, max_iter=30)
    return len(calls)


def test_fused_run_evaluates_grad_y_only_at_the_start():
    assert _grad_y_calls(lambda p: p) == 1


def test_three_call_run_evaluates_grad_y_at_every_step():
    # the default prox_step leaves grad_y to the solver, once per step
    # plus the start: the two-call comparison above runs the default path
    assert _grad_y_calls(ThreeCalls) == 31


def test_prox_g_composition_identity():
    # prox of g = indicator + nu/2 ||.||^2 is the scaled projection
    p = _problem(make_rng(69, 0), nu=0.5)
    rng = make_rng(69, 1)
    v = rng.standard_normal(p.dim_y) * 2
    sigma = 0.8
    expected = project_box_hyperplane(p.y_set, v / (1.0 + 0.5 * sigma))
    np.testing.assert_array_equal(p.prox_g(sigma, v), expected)


def test_prox_g_matches_oracle():
    p = _problem(make_rng(70, 0), nu=0.5)
    rng = make_rng(70, 1)
    v = rng.standard_normal(p.dim_y)
    sigma = 0.9
    cand = p.prox_g(sigma, v)
    violation = prox_oracle(lambda w: sigma * p.g_value(w), v, cand,
                            trials=1000, seed=12)
    assert violation <= 1e-8


def test_constants_formula():
    rng = make_rng(71, 0)
    p = _problem(rng)
    norms = [np.linalg.svd(m, compute_uv=False)[0] for m in p.m_stack]
    top = 1.001 * max(norms)
    assert p.constants.l_yy == pytest.approx(top, rel=1e-6)
    assert p.constants.l_yx == pytest.approx(
        1.0 * np.sqrt(p.dim_x * p.dim_y) * top, rel=1e-6
    )


def test_validation_clean():
    p = _problem(make_rng(72, 0), mu=0.3, nu=0.4)
    report = validate_problem(p, trials=40, seed=3)
    assert report.ok, (report.lipschitz_violation, report.prox_violation)


def test_rejects_non_psd_kernel():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="positive semidefinite"):
        MkSvmProblem([bad], np.array([1.0, -1.0]), box_c=1.0)


@pytest.mark.parametrize("kernel, labels, box_c, message", [
    (np.eye(2), [1.0, 2.0], 1.0, r"labels must be \+-1"),
    (np.eye(2), [1.0, -1.0], 0.0, "box_c must be positive"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), [1.0, -1.0], 1.0,
     "kernel matrix 0 must be symmetric 2x2"),
], ids=["labels", "box_c", "asymmetric"])
def test_rejects_bad_inputs(kernel, labels, box_c, message):
    with pytest.raises(ValueError, match=message):
        MkSvmProblem([kernel], np.array(labels), box_c=box_c)


# -- prediction rule ---------------------------------------------------------

def test_predict_two_point_separable_instance():
    # train (2,0)->+1, (-2,0)->-1; test (3,0) and (-3,0); linear kernel;
    # j0 = 0, gamma = 1 - (0.5*4 + 0.5*4) = -3, scores = (3, -9)
    kernel = np.array([
        [4.0, -4.0, 6.0, -6.0],
        [-4.0, 4.0, -6.0, 6.0],
        [6.0, -6.0, 9.0, -9.0],
        [-6.0, 6.0, -9.0, 9.0],
    ])
    pred = mksvm_predict(
        kernels=[kernel],
        train_idx=np.array([0, 1]),
        test_idx=np.array([2, 3]),
        labels_train=np.array([1.0, -1.0]),
        alpha=np.array([0.5, 0.5]),
        eta=np.array([1.0]),
        nu=0.0,
        box_c=1.0,
    )
    assert pred.j0 == 0 and not pred.fallback
    assert pred.gamma == pytest.approx(-3.0)
    np.testing.assert_array_equal(pred.labels, [1.0, -1.0])


def test_predict_gamma_nu_term():
    rng = make_rng(73, 0)
    kernels, train_idx, test_idx, labels, _ = _synthetic_instance(rng)
    alpha = rng.uniform(0.2, 0.8, train_idx.size)
    eta = np.array([1.0, 0.5, 0.25])
    with_nu = mksvm_predict(kernels, train_idx, test_idx, labels[train_idx],
                            alpha, eta, nu=0.5, box_c=1.0)
    without = mksvm_predict(kernels, train_idx, test_idx, labels[train_idx],
                            alpha, eta, nu=0.0, box_c=1.0)
    j0 = without.j0
    shift = labels[train_idx][j0] * 0.5 * alpha[j0]
    assert with_nu.gamma == pytest.approx(without.gamma - shift, rel=1e-12)


def test_predict_all_zero_alpha_falls_back():
    rng = make_rng(74, 0)
    kernels, train_idx, test_idx, labels, _ = _synthetic_instance(rng)
    pred = mksvm_predict(kernels, train_idx, test_idx, labels[train_idx],
                         np.zeros(train_idx.size), np.ones(3), nu=0.0, box_c=1.0)
    assert pred.fallback and pred.j0 == 0
    assert np.all(pred.labels == np.sign(pred.gamma))


def test_a_later_write_to_the_labels_changes_no_projection_or_value():
    # the problem and its box-hyperplane set share one read-only copy
    _, train_idx, _, labels, mats = _synthetic_instance(make_rng(67, 0))
    labels = labels[: len(train_idx)].copy()
    p = MkSvmProblem(mats, labels, box_c=1.0)
    _, y = p.sample_point(make_rng(67, 1))
    v = y + 0.3 * make_rng(67, 2).standard_normal(y.size)
    before = p.prox_g(0.1, v)
    labels[:2] *= -1.0
    after = p.prox_g(0.1, v)
    np.testing.assert_array_equal(after, before)
    assert p.g_value(after) < np.inf
    assert p.labels is p.y_set.normal
