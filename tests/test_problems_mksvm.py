import copy
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ogaprox import experiments
from ogaprox.datasets import DatasetSpec, LoadedDataset, load_dataset, train_test_split
from ogaprox.experiments import mksvm_experiment
from ogaprox.problem import validate_problem
from ogaprox.problems import MkSvmProblem, mksvm_predict, random_toy_problem
from ogaprox.problems.mksvm import (
    build_kernels,
    conjugated_kernels,
    gaussian_kernel,
    linear_kernel,
    normalize_kernel,
    polynomial_kernel,
    spectral_norm,
)
from ogaprox.prox import project_box_hyperplane, project_simplex
from ogaprox.rng import experiment_rng, make_rng
from ogaprox.schedule import default_adaptive, default_linear, make_schedule
from ogaprox.solver import SolverState, run, step

from _oracles import (ThreeCalls, conjugated_kernels_formula, gaussian_kernel_formula,
                      prox_oracle, prox_x_grad_formula, scalar_margin_accepts)
from perfbench import datagen


def _dense_kernels(features):
    return [
        normalize_kernel(polynomial_kernel(features)),
        normalize_kernel(gaussian_kernel(features)),
        normalize_kernel(linear_kernel(features)),
    ]


def _synthetic_instance(rng, n_train=14, n_test=5, m_feat=3, build=_dense_kernels):
    total = n_train + n_test
    features = rng.standard_normal((total, m_feat))
    labels = np.where(rng.uniform(size=total) < 0.5, -1.0, 1.0)
    labels[0], labels[1] = 1.0, -1.0
    kernels = build(features)
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
    np.testing.assert_allclose(p.grad_y(e1, y), 1.0 - p._blocks[0] @ y, atol=1e-12)


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


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_prox_x_grad_is_the_numpy_formula_bit_for_bit(mu):
    # the kernel weights step on Python floats; each operation must be the
    # one numpy makes entry by entry, on and off the simplex, over six decades of tau
    p, _ = _factor_and_dense(73, mu=mu)
    rng = make_rng(73, 1)
    for i in range(1000):
        x, y = p.sample_point(rng)
        if i % 2:
            x = rng.standard_normal(p.dim_x) * 10.0 ** rng.uniform(-2.0, 2.0)
        tau = 10.0 ** rng.uniform(-3.0, 3.0)
        for got, want in zip(p._prox_x_grad(tau, y, x), prox_x_grad_formula(p, tau, y, x)):
            assert got.tobytes() == want.tobytes(), i


@pytest.mark.parametrize("mu, nu, law", _VARIANTS)
def test_fused_run_matches_the_two_call_run(mu, nu, law):
    fused = _problem(make_rng(73, 0), mu=mu, nu=nu)
    two_call = ThreeCalls(fused)
    x0, y0 = fused.sample_point(make_rng(73, 1))
    kind = law(fused.constants)
    a, report_a = run(fused, kind, x0, y0, max_iter=150)
    b, report_b = run(two_call, kind, x0, y0, max_iter=150)
    for u, v in zip((a.x, a.y, *a.ergodic()), (b.x, b.y, *b.ergodic())):
        np.testing.assert_array_equal(u, v)
    assert report_a.step_dx == report_b.step_dx
    assert report_a.step_dy == report_b.step_dy


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
    norms = [np.linalg.svd(m, compute_uv=False)[0] for m in p._blocks]
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


@pytest.mark.parametrize("kernels, labels, box_c, message", [
    ([np.eye(2)], [1.0, 2.0], 1.0, r"labels must be \+-1"),
    ([np.eye(2)], [1.0, -1.0], 0.0, "box_c must be positive"),
    ([np.array([[1.0, 0.5], [0.0, 1.0]])], [1.0, -1.0], 1.0,
     "kernel matrix 0 must be symmetric 2x2"),
    ([np.array([[1.0, 0.0], [0.5, 1.0]])], [1.0, -1.0], 1.0,
     "kernel matrix 0 must be symmetric 2x2"),
    ([], [1.0, -1.0], 1.0, "at least one kernel required"),
    # rows 1 and 2 are diagonally dominant, row 0 is not
    ([np.array([[-1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]])], [1.0, -1.0, 1.0], 1.0,
     "kernel matrix 0 is not positive semidefinite"),
], ids=["labels", "box_c", "asymmetric", "asymmetric-lower", "no-kernels",
        "indefinite-one-row-not-dominant"])
def test_rejects_bad_inputs(kernels, labels, box_c, message):
    with pytest.raises(ValueError, match=message):
        MkSvmProblem(kernels, np.array(labels), box_c=box_c)


def _cholesky_calls(monkeypatch, allowed=True):
    """Record each ``np.linalg.cholesky`` call's shape; fail the test on a call
    when not ``allowed``."""
    calls, real = [], np.linalg.cholesky

    def spy(a):
        assert allowed, "the Cholesky PSD test ran"
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return calls


def _ionosphere_blocks(tmp_path):
    """The benchmark file's polynomial and Gaussian training blocks of run 0, and the labels."""
    data = _ionosphere_file(tmp_path)
    train_idx, _ = train_test_split(data.n_rows, 0.8, experiment_rng(0, "mksvm", 0))
    labels = data.labels[train_idx]
    return conjugated_kernels(build_kernels(data.features), train_idx, labels)[:2], labels


def test_diagonally_dominant_blocks_skip_the_cholesky_test(tmp_path, monkeypatch):
    (_, gauss), labels = _ionosphere_blocks(tmp_path)
    n = labels.size
    s = make_rng(90, 0).uniform(-1.0, 1.0, (n, n))
    _cholesky_calls(monkeypatch, allowed=False)
    p = MkSvmProblem([gauss, 3.0 * np.eye(n) + 1e-3 * (s + s.T)], labels, box_c=1.0)
    # the Gaussian block is the identity to working precision and is kept as its diagonal
    assert [m.shape for m in p._blocks] == [(n,), (n, n)]


def test_blocks_without_a_dominance_certificate_reach_the_cholesky_test(tmp_path, monkeypatch):
    (poly, _), labels = _ionosphere_blocks(tmp_path)
    n = labels.size
    g = make_rng(90, 1).standard_normal((n, 3))
    # (1 - a) I + a J: PD, and dominant with the shift, 1 + 1e-8 > 3a, by about
    # 1e-15, less than the row sums' rounding margin but more than their rounding
    a = (1.0 + 1e-8) / 3.0 - 3e-16
    close = (1.0 - a) * np.eye(4) + a * np.ones((4, 4))
    np.fill_diagonal(close, 1.0)
    assert Fraction(1) + Fraction(1e-8) > 3 * Fraction(a)
    calls = _cholesky_calls(monkeypatch)
    MkSvmProblem([poly, g @ g.T], labels, box_c=1.0)
    MkSvmProblem([close], np.array([1.0, -1.0, 1.0, -1.0]), box_c=1.0)
    assert calls == [(n, n), (n, n), (4, 4)]


# -- a numerically diagonal block kept as its diagonal --------------------------

def _diagonal_and_dense(tmp_path):
    """The benchmark file's polynomial and Gaussian blocks of run 0 in the shipped
    form (the Gaussian one kept as its diagonal), the same problem with the dense
    Gaussian block put back, and the two blocks as given."""
    (poly, gauss), labels = _ionosphere_blocks(tmp_path)
    diagonal = MkSvmProblem([poly, gauss], labels, box_c=1.0, mu=1.0, nu=0.5)
    assert [m.shape for m in diagonal._blocks] == [poly.shape, (labels.size,)]
    np.testing.assert_array_equal(diagonal._blocks[1], np.diag(gauss))
    dense = copy.copy(diagonal)
    dense._blocks = (diagonal._blocks[0], gauss)
    return diagonal, dense, (poly, gauss)


def test_diagonal_form_matches_the_dense_problem(tmp_path):
    diagonal, dense, (_, gauss) = _diagonal_and_dense(tmp_path)
    n, d = gauss.shape[0], np.abs(np.diag(gauss))
    rng = make_rng(91, 0)
    for trial in range(4):
        x = rng.dirichlet(np.ones(2))
        y = rng.uniform(-1.0, 1.0, n)
        y[trial::3] = 0.0
        top = np.max(np.abs(y))
        got, want = diagonal._kernel_products(y), dense._kernel_products(y)
        np.testing.assert_array_equal(got[0], want[0])
        # entry i drops sum_{j != i} m_ij y_j, at most 2^-60 |d_i| ||y||_inf, and the
        # dense matvec rounds by at most n 2^-53 (|d_i| + that) ||y||_inf
        error = np.abs(got[1] - want[1])
        assert np.all(error <= (2.0**-60 + (n + 1) * 2.0**-53) * d * top)
        # where y_i = 0 the diagonal form gives 0 and the dense one only the dropped part
        zero = y == 0.0
        assert np.all(got[1][zero] == 0.0)
        assert np.all(error[zero] <= 2.0**-60 * (1.0 + n * 2.0**-53) * d[zero] * top)
        bound = float(np.max(error))
        np.testing.assert_allclose(diagonal.grad_y(x, y), dense.grad_y(x, y),
                                   rtol=2.0**-50, atol=bound)
        assert abs(diagonal.phi_value(x, y) - dense.phi_value(x, y)) <= (
            0.5 * n * bound * top + 2.0**-50 * (n * top + abs(dense.phi_value(x, y))))
    # the iterates of a run move only at roundoff
    x0, y0 = diagonal.sample_point(make_rng(91, 1))
    kind = default_adaptive(diagonal.constants)
    (a, _), (b, _) = (run(p, kind, x0, y0, max_iter=300) for p in (diagonal, dense))
    for u, w in zip((a.x, a.y, *a.ergodic()), (b.x, b.y, *b.ergodic())):
        _close(u, w)


def test_diagonal_form_keeps_the_dense_constants_bit_for_bit(tmp_path):
    diagonal, _, (poly, gauss) = _diagonal_and_dense(tmp_path)
    top = max(spectral_norm(poly), spectral_norm(gauss))
    n = gauss.shape[0]
    assert diagonal.constants.l_yy == top
    assert diagonal.constants.l_yx == float(1.0 * np.sqrt(2 * n) * top)


@pytest.mark.parametrize("above", [False, True], ids=["at-threshold", "one-ulp-above"])
def test_one_off_diagonal_entry_above_the_threshold_keeps_the_block_dense(above):
    # d_i = 3, so the threshold 2^-60 * 3 is exact; only rows 0 and 1 carry the entry
    entry = 3.0 * 2.0**-60
    m = 3.0 * np.eye(4)
    m[0, 1] = m[1, 0] = np.nextafter(entry, 1.0) if above else entry
    p = MkSvmProblem([m], np.array([1.0, -1.0, 1.0, -1.0]), box_c=1.0)
    assert p._blocks[0].shape == ((4, 4) if above else (4,))


def test_off_diagonal_sums_below_half_an_ulp_of_the_diagonal_keep_the_block_dense():
    # every entry is below 2^-60 d_i, their sum 15 * 2^-60 is above it, and below
    # half an ulp of d_i: the row sum minus |d_i| would read 0 and pass the test
    n = 16
    m = 3.0 * np.eye(n) + 2.0**-60 * (np.ones((n, n)) - np.eye(n))
    off = (n - 1) * 2.0**-60
    assert 2.0**-60 < 3.0 * 2.0**-60 < off and (3.0 + off) - 3.0 == 0.0
    p = MkSvmProblem([m], np.where(np.arange(n) % 2 == 0, 1.0, -1.0), box_c=1.0)
    assert p._blocks[0].shape == (n, n)


def test_diagonal_form_is_a_private_read_only_copy():
    m = 2.0 * np.eye(5)
    p = MkSvmProblem([m], np.array([1.0, -1.0, 1.0, -1.0, 1.0]), box_c=1.0)
    (d,) = p._blocks
    assert d.shape == (5,) and not d.flags.writeable and not np.shares_memory(d, m)
    m[:] = 7.0
    np.testing.assert_array_equal(d, 2.0)


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
        weights=np.array([1.0]),  # one kernel: eta = c x / r = x
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
    weights = np.array([1.0, 0.5, 0.25])
    with_nu = mksvm_predict(kernels, train_idx, test_idx, labels[train_idx],
                            alpha, weights, nu=0.5, box_c=1.0)
    without = mksvm_predict(kernels, train_idx, test_idx, labels[train_idx],
                            alpha, weights, nu=0.0, box_c=1.0)
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


# -- the linear kernel as a thin factor ---------------------------------------

def _close(a, b, rel=1e-12):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert np.linalg.norm(a - b) <= rel * np.linalg.norm(b), (a, b)


def _factor_and_dense(seed, mu=0.0, nu=0.0):
    """One instance in the shipped form (the linear kernel a 14 x 3 factor
    ``G``) and as the problem built from ``G G'``."""
    _, train_idx, _, labels, mats = _synthetic_instance(make_rng(seed, 0), build=build_kernels)
    assert [m.shape for m in mats] == [(14, 14), (14, 14), (14, 3)]
    b = labels[train_idx]
    factor = MkSvmProblem(mats, b, box_c=1.0, mu=mu, nu=nu)
    dense = MkSvmProblem(mats[:2] + [mats[2] @ mats[2].T], b, box_c=1.0, mu=mu, nu=nu)
    return factor, dense


@pytest.mark.parametrize("mu, nu, law", _VARIANTS)
def test_factor_form_matches_the_dense_problem(mu, nu, law):
    factor, dense = _factor_and_dense(80, mu, nu)
    assert [m.shape for m in factor._blocks] == [(14, 14), (14, 14), (14, 3)]
    assert [m.shape for m in dense._blocks] == [(14, 14)] * 3
    assert factor.dim_x == dense.dim_x == 3
    rng = make_rng(80, 1)
    for tau in (0.0, 0.04, 3.0):
        x, y = factor.sample_point(rng)
        v = 3.0 * y - 1.0
        _close(factor.grad_y(x, y), dense.grad_y(x, y))
        _close(factor.phi_value(x, y), dense.phi_value(x, y))
        for a, b in zip(factor.prox_step(2.0 * tau, v, tau, x), dense.prox_step(2.0 * tau, v, tau, x)):
            _close(a, b)
    # one schedule for both: the two power iterations stop 3e-12 apart, and
    # the step sizes would carry that into the iterates
    x0, y0 = factor.sample_point(make_rng(80, 2))
    kind = law(factor.constants)
    a, _ = run(factor, kind, x0, y0, max_iter=200)
    b, _ = run(dense, kind, x0, y0, max_iter=200)
    for u, w in zip((a.x, a.y, *a.ergodic()), (b.x, b.y, *b.ergodic())):
        _close(u, w)


def test_a_leading_factor_matches_the_dense_problem_and_later_writes_change_nothing():
    _, train_idx, _, labels, (poly, gauss, g) = _synthetic_instance(make_rng(84, 0),
                                                                     build=build_kernels)
    b = labels[train_idx]
    inputs = [g.copy(), poly.copy(), gauss.copy()]
    factor = MkSvmProblem(inputs, b, box_c=1.0, mu=1.0, nu=0.5)
    dense = MkSvmProblem([g @ g.T, poly, gauss], b, box_c=1.0, mu=1.0, nu=0.5)
    rng = make_rng(84, 1)
    points = [factor.sample_point(rng) for _ in range(3)]

    def outputs(p):
        return [(p.grad_y(x, y), *p.prox_step(0.3, 3.0 * y - 1.0, 0.2, x)) for x, y in points]

    before = outputs(factor)
    for f_out, d_out in zip(before, outputs(dense)):
        for a, c in zip(f_out, d_out):
            _close(a, c)
    # the two power iterations stop about 3e-12 apart
    _close(factor.constants.l_yy, dense.constants.l_yy, rel=1e-10)
    l_yy = factor.constants.l_yy
    for m in inputs:
        m *= -2.0
    for f_out, f_again in zip(before, outputs(factor)):
        for a, c in zip(f_out, f_again):
            np.testing.assert_array_equal(a, c)
    assert factor.constants.l_yy == l_yy

@pytest.mark.parametrize("kernels", ["factor", "mixed"])
def test_factor_l_yy_bounds_the_largest_eigenvalue(kernels):
    factor, _ = _factor_and_dense(81)
    mats = [factor._blocks[2]] if kernels == "factor" else list(factor._blocks)
    lam = max(np.linalg.eigvalsh(m @ m.T if m.shape[1] < m.shape[0] else m)[-1] for m in mats)
    l_yy = MkSvmProblem(mats, factor.labels, box_c=1.0).constants.l_yy
    assert lam <= l_yy <= 1.001 * lam * (1.0 + 1e-9)


@pytest.mark.parametrize("shape", [(3, 14), (14, 15), (13, 3)],
                         ids=["transposed", "wider-than-n", "wrong-row-count"])
def test_rejects_a_matrix_that_is_neither_kernel_nor_factor(shape):
    bad = make_rng(82, 0).standard_normal(shape)
    labels = np.where(np.arange(14) % 2 == 0, 1.0, -1.0)
    with pytest.raises(ValueError, match="kernel matrix 1 must be symmetric 14x14"):
        MkSvmProblem([np.eye(14), bad], labels, box_c=1.0)


def test_conjugated_factor_is_the_dense_coupling_matrix():
    # sqrt(c / r) diag(b) F^tr, label sign included, multiplies out to the
    # dense M_i of the same kernel built as a Gram matrix over all rows
    *_, factor_mats = _synthetic_instance(make_rng(83, 0), build=build_kernels)
    *_, dense_mats = _synthetic_instance(make_rng(83, 0))
    np.testing.assert_array_equal(factor_mats[0], dense_mats[0])
    np.testing.assert_array_equal(factor_mats[1], dense_mats[1])
    _close(factor_mats[2] @ factor_mats[2].T, dense_mats[2])


def test_a_factor_no_thinner_than_the_training_rows_gives_the_dense_block():
    features = normalize_kernel(make_rng(84, 0).standard_normal((10, 4)))
    labels = np.array([1.0, -1.0, 1.0, 1.0])
    [block] = conjugated_kernels([features], np.arange(4), labels)
    assert block.shape == (4, 4)
    scale = 10.0 / np.sum(features**2)  # c / r with one kernel
    _close(block, scale * np.outer(labels, labels) * (features[:4] @ features[:4].T))


def test_normalize_kernel_rejects_a_zero_diagonal_entry():
    with pytest.raises(ValueError, match=r"kernel has \(near-\)zero diagonal entries"):
        normalize_kernel(np.diag([1.0, 0.0, 2.0]))


def _ionosphere_file(tmp_path):
    """The benchmark's seed-1 ionosphere-shaped file, loaded."""
    path = tmp_path / "ionosphere.data"
    path.write_text(datagen.ionosphere_text(1))
    with pytest.warns(UserWarning, match=r"dropping constant feature column\(s\) \(1,\)"):
        return load_dataset(DatasetSpec(name="ionosphere", path=str(path)))


def _z_scored(rng, rows, cols):
    features = rng.standard_normal((rows, cols))
    return (features - features.mean(axis=0)) / features.std(axis=0)


def _flushed(kernel):
    """``kernel`` with its subnormal entries set to 0."""
    return np.where(kernel < np.finfo(float).tiny, 0.0, kernel)


def _subnormal_share(m):
    return float(np.mean((m != 0.0) & (np.abs(m) < np.finfo(float).tiny)))


def test_in_place_kernels_match_their_formulas_bit_for_bit(tmp_path):
    # shapes: the benchmark file (thin factor), 70 z-scored features (thin factor;
    # ||a - a'||^2 is about 140, so exp(-5 ||a - a'||^2) lands near the bottom of the
    # float range), a thin factor, a factor no thinner than the training rows (dense
    # block through the factor) and a dense linear kernel.  The Gaussian kernel is
    # the formula with its subnormal entries set to 0.
    rng = make_rng(88, 0)
    wide = _z_scored(make_rng(89, 0), 351, 70)
    cases = [_ionosphere_file(tmp_path).features, wide] + [
        scale * rng.standard_normal(shape)
        for shape, scale in (((19, 3), 1.0), ((30, 25), 0.3), ((12, 40), 0.2))]
    assert _subnormal_share(gaussian_kernel_formula(wide)) >= 0.10
    for features in cases:
        got, want = gaussian_kernel(features), _flushed(gaussian_kernel_formula(features))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert _subnormal_share(got) == 0.0
        rows = len(features)
        train_idx = np.sort(rng.choice(rows, size=int(0.8 * rows), replace=False))
        labels = np.where(rng.uniform(size=train_idx.size) < 0.5, -1.0, 1.0)
        kernels = build_kernels(features)
        got = conjugated_kernels(kernels, train_idx, labels)
        want = conjugated_kernels_formula(kernels, train_idx, labels)
        assert [(m.shape, m.tobytes()) for m in got] == [(m.shape, m.tobytes()) for m in want]


def test_no_kernel_block_of_a_wide_z_scored_study_holds_a_subnormal(monkeypatch):
    rng = make_rng(89, 1)
    data = LoadedDataset(name="ionosphere", features=_z_scored(rng, 351, 70),
                         labels=np.where(rng.uniform(size=351) < 0.5, -1.0, 1.0))
    blocks = []

    def spy(m_list, *args, **kwargs):
        blocks.extend(m_list)
        return MkSvmProblem(m_list, *args, **kwargs)

    monkeypatch.setattr(experiments, "MkSvmProblem", spy)
    mksvm_experiment(data, variant="c1", seed=0, runs=2, checkpoints=(5,))
    assert [m.shape for m in blocks] == [(281, 281), (281, 281), (281, 70)] * 2
    assert [_subnormal_share(m) for m in blocks] == [0.0] * 6


def test_mksvm_study_peak_memory_on_the_benchmark_file(tmp_path):
    # traced peak above the loaded data: 4.5 MiB with the blocks built and
    # checked in place, the previous run's problem released and the Gaussian
    # block kept as its diagonal (4.6 MiB with it kept dense); 7.1 MiB with
    # the throwaway n x n copies and two runs' blocks alive at once
    data = _ionosphere_file(tmp_path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mksvm_experiment(data, variant="c1", seed=0, runs=2, checkpoints=(50,))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 5.1 * 2**20


def _call_events(call) -> tuple[int, int]:
    """The ``call`` and ``c_call`` events ``sys.setprofile`` reports for one warm
    ``call()``, its own call and the profiler's switch-off among them, as the
    count of ``ndarray.dot`` calls and the count of all other events."""
    call()
    events, previous = [], sys.getprofile()
    sys.setprofile(lambda frame, event, arg: events.append(
        "dot" if event == "c_call" and getattr(arg, "__qualname__", "") == "ndarray.dot"
        else event))
    try:
        call()
    finally:
        sys.setprofile(previous)
    return events.count("dot"), sum(event in ("call", "c_call") for event in events)


def test_warm_all_free_proxes_make_no_more_calls_than_counted(tmp_path):
    # a count, unlike a time, does not move with the host's load, so a pass
    # added back to the all-free y-prox or to the fused step fails here.
    # 15 events for the y-prox and 32 besides the 5 products for prox_step
    # (22 and 47 with the summed margin taken first, a squared-norm finiteness
    # pass and the simplex input converted to an array and back).  The
    # products are counted exactly, as the profiler does not see ``@``
    data = _ionosphere_file(tmp_path)
    train_idx, _ = train_test_split(data.n_rows, 0.8, experiment_rng(0, "mksvm", 0))
    labels = data.labels[train_idx]
    p = MkSvmProblem(conjugated_kernels(build_kernels(data.features), train_idx, labels),
                     labels, box_c=1.0)
    assert [m.ndim for m in p._blocks] == [2, 1, 2]  # dense, diagonal and factor blocks
    v = 0.5 + 0.01 * make_rng(92, 0).standard_normal(labels.size)
    assert scalar_margin_accepts(p.y_set, v)
    x = np.full(3, 1.0 / 3.0)
    counted = (f"counted under CPython 3.11.7 and numpy 2.4.6; here {sys.version.split()[0]}, "
               f"numpy {np.__version__}")
    dots, others = _call_events(lambda: project_box_hyperplane(p.y_set, v))
    assert dots == 0 and others <= 15, counted
    # dense block, factor and its transpose, my.dot(y) and x_next.dot(my)
    dots, others = _call_events(lambda: p.prox_step(0.01, v, 0.01, x))
    assert dots == 5 and others <= 32, counted


def test_warm_frozen_toy_step_makes_no_more_calls_than_counted():
    # at nu = 0, x <= 0 and y inside the cone the toy's step is an exact fixed
    # point (about half of a benchmark run's steps).  21 events besides the one
    # cone product A v (32 with the cone tested a second time on the same
    # image, ndarray.min and max wrappers and a finiteness call per norm)
    p = random_toy_problem(6, 9, 0.0, make_rng(94, 0))
    x, y = -np.ones(6), np.linalg.pinv(p.a) @ np.ones(6)
    kind = default_adaptive(p.constants)
    sched = make_schedule(kind, p.constants)
    state = SolverState.initial(p, x, y)
    after = step(p, state, sched)
    assert after.x.tobytes() == x.tobytes() and after.y.tobytes() == y.tobytes()
    counted = (f"counted under CPython 3.11.7 and numpy 2.4.6; here {sys.version.split()[0]}, "
               f"numpy {np.__version__}")
    dots, others = _call_events(lambda: step(p, state, sched))
    assert dots == 1 and others <= 21, counted


def test_dot_is_the_matmul_product_bit_for_bit_on_the_hot_path_layouts(tmp_path):
    # the iteration path calls ndarray.dot, not @, for less dispatch; on these
    # contiguous matrices, their .T views and strided vectors it makes the same
    # BLAS call, so the floats must be the same
    data = _ionosphere_file(tmp_path)
    train_idx, _ = train_test_split(data.n_rows, 0.8, experiment_rng(0, "mksvm", 0))
    labels = data.labels[train_idx]
    p = MkSvmProblem(conjugated_kernels(build_kernels(data.features), train_idx, labels),
                     labels, box_c=1.0)
    dense, _, factor = p._blocks
    toy = random_toy_problem(250, 350, 0.3, make_rng(93, 0))
    a, gram = toy.a, toy._projector.gram
    rng = make_rng(93, 1)
    pairs = []
    for n, d in ((labels.size, 3), (a.shape[1], a.shape[0])):
        strided = rng.uniform(-1.0, 1.0, 2 * n)[::2]
        pairs += [(rng.uniform(-1.0, 1.0, n), rng.dirichlet(np.ones(d))),
                  (strided, rng.uniform(-1.0, 1.0, d))]
    products = []
    for y, x in pairs[:2]:
        stack = p._kernel_products(y)
        products += [(dense, y), (factor.T, y), (factor, factor.T.dot(y)), (stack, y),
                     (x, stack)]
    for y, x in pairs[2:]:
        products += [(a, y), (a.T, x), (gram, x)]
    message = f"ndarray.dot and @ round differently under numpy {np.__version__}"
    for i, (left, right) in enumerate(products):
        assert left.dot(right).tobytes() == (left @ right).tobytes(), f"{message} (product {i})"


def test_spectral_norm_bounds_the_norm_when_the_power_iteration_stalls():
    # singular values 1 down to 0.99: 200 power steps reach only 0.9984
    a = np.diag(np.linspace(1.0, 0.99, 100))
    assert spectral_norm(a) == pytest.approx(1.001, rel=1e-12)


def test_predict_on_the_factor_form_matches_the_dense_kernels():
    rng = make_rng(85, 0)
    factor_kernels, train_idx, test_idx, labels, _ = _synthetic_instance(
        make_rng(85, 1), build=build_kernels)
    dense_kernels, *_ = _synthetic_instance(make_rng(85, 1))
    assert factor_kernels[2].shape == (19, 3)
    for alpha in (rng.uniform(0.0, 1.0, train_idx.size), np.zeros(train_idx.size)):
        weights = rng.uniform(0.2, 1.0, 3)
        a, b = (mksvm_predict(k, train_idx, test_idx, labels[train_idx], alpha, weights,
                              nu=0.5, box_c=1.0) for k in (factor_kernels, dense_kernels))
        np.testing.assert_array_equal(a.labels, b.labels)
        assert (a.j0, a.fallback) == (b.j0, b.fallback)
        assert a.gamma == pytest.approx(b.gamma, rel=1e-12)


def test_driver_eta_from_factor_traces_matches_the_dense_kernels(monkeypatch):
    # the linear kernel's trace is sum(F**2), not trace(F): mksvm_predict's
    # eta = c x / r must be the same as on the dense kernels
    rng = make_rng(86, 0)
    labels = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
    feats = labels[:, None] * rng.standard_normal(3)[None, :] * 0.6 + rng.standard_normal((40, 3))
    data = LoadedDataset(name="sonar", features=(feats - feats.mean(0)) / feats.std(0),
                         labels=labels)
    calls, real_predict = [], experiments.mksvm_predict

    def spy(kernels, *args, **kwargs):
        calls.append((kernels, args, kwargs))
        return real_predict(kernels, *args, **kwargs)

    monkeypatch.setattr(experiments, "mksvm_predict", spy)
    shipped = mksvm_experiment(data, variant="a", seed=3, runs=2, checkpoints=(20, 60))
    monkeypatch.setattr(experiments, "build_kernels", _dense_kernels)
    dense = mksvm_experiment(data, variant="a", seed=3, runs=2, checkpoints=(20, 60))
    factor_calls, dense_calls = calls[:4], calls[4:]
    assert [k.shape for k in factor_calls[0][0]] == [(40, 40), (40, 40), (40, 3)]
    assert [k.shape for k in dense_calls[0][0]] == [(40, 40)] * 3
    for (kernels_f, args, kwargs), (kernels_d, *_) in zip(factor_calls, dense_calls, strict=True):
        a, b = (real_predict(k, *args, **kwargs) for k in (kernels_f, kernels_d))
        np.testing.assert_array_equal(a.labels, b.labels)
        _close(a.gamma, b.gamma)
    assert shipped.to_json_text() == dense.to_json_text()


def test_validation_experiment_checks_the_factor_form(monkeypatch):
    problems, real_validate = {}, experiments.validate_problem

    def spy(problem, **kwargs):
        problems[type(problem).__name__] = problem
        return real_validate(problem, **kwargs)

    monkeypatch.setattr(experiments, "validate_problem", spy)
    ok, _ = experiments.validation_experiment(seed=1, trials=25)
    mksvm = problems["MkSvmProblem"]
    assert ok and [m.shape for m in mksvm._blocks] == [(18, 18), (18, 18), (18, 4)]
