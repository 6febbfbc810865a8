import math
import re
import warnings

import numpy as np
import pytest

from ogaprox import prox
from ogaprox.datasets import DatasetFormat, LoadedDataset
from ogaprox.problem import prox_inequality_gap
from ogaprox.problems import FairnessProblem, MkSvmProblem
from ogaprox.problems import fairness as fairness_module
from ogaprox.problems import mksvm as mksvm_module
from ogaprox.problems.mksvm import (
    MkSvmPrediction,
    conjugated_kernels,
    gaussian_kernel,
    linear_kernel,
    normalize_kernel,
    polynomial_kernel,
)
from ogaprox.prox import (
    BoxHyperplaneSet,
    PolytopeProjector,
    RankDeficientError,
    _box_hyperplane_search,
    on_simplex,
    project_box_hyperplane,
    project_polytope,
    project_simplex,
    solve_polytope_dual,
)
from ogaprox.qp import QpProblem, QpResult, QpStatus, solve_qp
from ogaprox.rng import make_rng
from ogaprox.schedule import default_adaptive, default_linear
from ogaprox.solver import SolverState, run

from _oracles import (first_clip_is_all_free, one_step_accepts, project_box_hyperplane_exact,
                      project_simplex_exact, project_simplex_numpy, prox_oracle,
                      prox_positive_part_scaled, scalar_margin_accepts)


# -- simplex ---------------------------------------------------------------

def test_simplex_vertex_fixed():
    np.testing.assert_allclose(project_simplex([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_simplex_symmetric_input():
    np.testing.assert_allclose(
        project_simplex([0.5, 0.5, 0.5]), np.full(3, 1.0 / 3.0), atol=1e-15
    )


def test_simplex_output_feasible_and_matches_qp_oracle():
    rng = make_rng(1, 10)
    v = rng.standard_normal(10) * 3
    out = project_simplex(v)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert out.min() >= 0.0
    problem = QpProblem(
        q_matrix=np.eye(10), q_vector=-v,
        ineq_matrix=np.eye(10), ineq_vector=np.zeros(10),
        eq_matrix=np.ones((1, 10)), eq_vector=np.ones(1),
    )
    result = solve_qp(problem, tol=1e-10)
    assert result.status is QpStatus.OPTIMAL
    np.testing.assert_allclose(out, result.x, atol=1e-8)


def test_simplex_at_and_past_2_to_the_53():
    # u1 > u1 - 1 fails in floats there, and near the float maximum the sums
    # overflow, so the input is shifted by its maximum
    np.testing.assert_array_equal(project_simplex([1e16, 0.0, 0.0]), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(project_simplex([1e300, 1e300, 0.0]), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(project_simplex([1e308, 1e308, 0.0]), [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(project_simplex([1.7e308, -1.7e308, 0.0]), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("v, expected", [
    ([2.0**53 + 2.0], [1.0]),
    ([-(2.0**53 + 2.0)], [1.0]),
    ([2.0**51 + 0.5, 2.0**51], [0.75, 0.25]),
    ([2.0**40 + 0.3, 2.0**40], [0.6500244140625, 0.3499755859375]),
], ids=["2**53+2", "-(2**53+2)", "2**51-pair", "2**40-pair"])
def test_simplex_large_entries_stay_on_the_simplex(v, expected):
    # unshifted, the running sums round away the 1 of the threshold, and the
    # outputs sum to 2, 2, 1.5 and 1 + 2**-12
    out = project_simplex(v)
    np.testing.assert_array_equal(out, expected)
    assert math.fsum(out) == 1.0


def test_simplex_rejects_bad_input():
    with pytest.raises(ValueError):
        project_simplex([])
    with pytest.raises(ValueError):
        project_simplex([1.0, np.nan])


def _simplex_inputs(rng, count):
    """Inputs of 1 to 9 entries, then a tenth as many of 10 to 300, at scales
    from 1e-300 to 1e200 or near 1, with ties, zeros of both signs, and
    entries at 2**53 or past 2**1000."""
    inputs = [np.array(v) for v in ([-0.0], [0.0, -0.0], [1.0, -0.0], [0.5, -0.0, 0.5, 0.0],
                                    [2.0**53, 2.0**53, -0.0], [1.7e308, -1.7e308, 2.0**1000])]
    for trial in range(count + count // 10):
        size = trial % 9 + 1 if trial < count else int(rng.integers(10, 301))
        scale = 10.0 ** (rng.uniform(-300.0, 200.0) if trial % 2 else rng.uniform(-3.0, 3.0))
        v = rng.standard_normal(size) * scale
        kind = trial // 9 % 5
        if kind == 1:
            v = rng.choice(v[:(size + 1) // 2], size)
        elif kind == 2:
            v[rng.uniform(size=size) < 0.5] = rng.choice([0.0, -0.0])
        elif kind == 3:
            v[rng.integers(size)] = rng.choice([1.0, -1.0]) * 2.0**53 + rng.integers(-2, 3)
        elif kind == 4:
            v[rng.integers(size)] = rng.choice([1.0, -1.0]) * 2.0**1000 * rng.uniform(1.0, 1.6e7)
        inputs.append(v)
    return inputs


def test_simplex_scalar_path_gives_the_numpy_floats():
    # every size runs on Python floats and must give the numpy oracle's
    # floats, sign of zero included
    for i, v in enumerate(_simplex_inputs(make_rng(17, 0), 20000)):
        assert project_simplex(v).tobytes() == project_simplex_numpy(v).tobytes(), (i, v)


def _count_conversions(monkeypatch):
    """Counts the array conversions of ``project_simplex``'s input."""
    calls = []
    as_vector = prox._as_vector
    monkeypatch.setattr(prox, "_as_vector",
                        lambda v, *args, **kwargs: calls.append(1) or as_vector(v, *args, **kwargs))
    return calls


def test_simplex_float_list_gives_the_array_floats(monkeypatch):
    # a list of Python floats is sorted and summed as it is: the array
    # path's floats on random lists, ties, one entry and inputs that reach
    # 2**20, where the shift alone converts to an array
    inputs = _simplex_inputs(make_rng(17, 2), 5000)
    wants = [project_simplex(x) for x in inputs]
    calls = _count_conversions(monkeypatch)
    for i, (x, want) in enumerate(zip(inputs, wants)):
        before = len(calls)
        assert project_simplex(x.tolist()).tobytes() == want.tobytes(), (i, x)
        assert len(calls) - before == (max(x.max(), -x.min()) >= 2.0**20), (i, x)
    assert 0 < len(calls) < len(inputs)


def test_simplex_float_list_is_finite_when_its_sum_is_or_entry_by_entry():
    v = [1.7e308, 1.7e308, -1.0]
    assert not math.isfinite(sum(v))
    assert project_simplex(v).tobytes() == project_simplex(np.array(v)).tobytes()
    for bad in ([1.0, math.inf], [math.nan, 0.0], [math.inf, -math.inf],
                [1.7e308, 1.7e308, math.nan], [-math.inf]):
        with pytest.raises(ValueError, match="v must be finite"):
            project_simplex(bad)


@pytest.mark.parametrize("v", [[1, 2], [0, 0, 0], [np.float64(0.25), 0.5],
                               [0.5, np.float32(0.25)], [True, 0.5], (0.5, 0.25)],
                         ids=["ints", "zeros", "float64", "float32", "bool", "tuple"])
def test_simplex_other_inputs_take_the_array_path(monkeypatch, v):
    want = project_simplex_numpy(v)
    calls = _count_conversions(monkeypatch)
    assert project_simplex(v).tobytes() == want.tobytes()
    assert len(calls) == 1


def test_simplex_is_within_its_stated_bound_of_the_exact_projection():
    # [-1.25373916] projects to [1 + 2**-52]: 1.6 times size**2 2**-53 max|x|;
    # over 40,000 inputs the error reached 0.93 of the bound asserted here
    rng = make_rng(17, 1)
    inputs = [np.array([-1.25373916])] + [rng.standard_normal(trial % 11 + 1)
                                          * 10.0 ** rng.uniform(-3.0, 5.5) for trial in range(1000)]
    inputs += [rng.uniform(-2.5, 1.5, trial % 11 + 1) for trial in range(1000)]
    for x in inputs:
        out = project_simplex(x)
        bound = x.size**2 * 2.0**-52 * max(1.0, float(np.abs(x).max()))
        assert abs(math.fsum(out) - 1.0) <= bound, x
        assert np.abs(out - project_simplex_exact(x)).max() <= bound, x


def test_on_simplex_tolerance():
    assert on_simplex([0.5, 0.5 + 0.9e-8])
    assert on_simplex([1.0 + 0.5e-8, -0.5e-8])
    assert not on_simplex([0.5, 0.5 + 1.1e-8])
    assert not on_simplex([1.0 + 2e-8, -2e-8])
    assert on_simplex(project_simplex(make_rng(12, 0).standard_normal(50)))


# -- box and hyperplane ----------------------------------------------------

def _svm_box(n, rng, box_c=1.0):
    labels = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return BoxHyperplaneSet(upper=box_c, normal=labels)


def test_box_hyperplane_fixes_feasible_point():
    rng = make_rng(2, 11)
    s = _svm_box(12, rng)
    y = np.full(12, 0.25)
    y[s.normal > 0] = 0.25 * np.sum(s.normal < 0) / max(np.sum(s.normal > 0), 1)
    # rebalance so <y, normal> = 0 while staying inside the box
    y = np.clip(y, 0.0, 1.0)
    y -= s.normal * (s.normal @ y) / (s.normal @ s.normal)
    y = np.clip(y, 0.0, 1.0)
    if abs(s.normal @ y) < 1e-12:
        np.testing.assert_allclose(project_box_hyperplane(s, y), y, atol=1e-11)


def test_box_hyperplane_zero_is_fixed():
    rng = make_rng(3, 12)
    s = _svm_box(8, rng)
    np.testing.assert_allclose(project_box_hyperplane(s, np.zeros(8)), np.zeros(8))


def test_box_hyperplane_matches_qp_oracle():
    rng = make_rng(4, 13)
    n = 20
    s = _svm_box(n, rng)
    for trial in range(5):
        v = rng.standard_normal(n) * 2.0
        fast = project_box_hyperplane(s, v)
        problem = QpProblem(
            q_matrix=np.eye(n), q_vector=-v,
            ineq_matrix=np.vstack([np.eye(n), -np.eye(n)]),
            ineq_vector=np.concatenate([np.zeros(n), -np.ones(n)]),
            eq_matrix=s.normal[None, :], eq_vector=np.zeros(1),
        )
        result = solve_qp(problem, tol=1e-10)
        assert result.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(fast, result.x, atol=1e-8)


def test_box_hyperplane_residual_tolerance():
    rng = make_rng(5, 14)
    s = _svm_box(50, rng)
    v = rng.standard_normal(50) * 5
    y = project_box_hyperplane(s, v)
    assert abs(s.normal @ y) <= 1e-12
    assert y.min() >= -1e-14 and y.max() <= 1.0 + 1e-14


@pytest.mark.parametrize("upper, normal, field", [
    (1.0, [1.0, 0.0, -1.0], "normal"),
    (1.0, [1.0, np.nan], "normal"),
    (1.0, [], "normal"),
    (1.0, [[1.0, -1.0]], "normal"),
    # the labels are +-1; any other entry is rejected
    (1.0, [1.0, -2.0, 1.0], "normal"),
    (1.0, [1e200, -1e200, 1e200], "normal"),
    (1.0, [1e-170, -1e-170, 1e-170], "normal"),
    (0.0, [1.0, -1.0], "upper"),
    (-1.0, [1.0, -1.0], "upper"),
    (np.inf, [1.0, -1.0], "upper"),
    (np.nan, [1.0, -1.0], "upper"),
], ids=["zero-entry", "nan-entry", "empty", "2-d", "entry-2", "entry-1e200", "entry-1e-170",
        "upper-0", "upper-negative", "upper-inf", "upper-nan"])
def test_box_hyperplane_set_rejects_bad_fields(upper, normal, field):
    # the normal holds the labels, and the set always holds 0
    with pytest.raises(ValueError, match=f"^{field} must"):
        BoxHyperplaneSet(upper=upper, normal=normal)


def test_box_hyperplane_rejects_a_point_of_another_dimension():
    s = BoxHyperplaneSet(upper=1.0, normal=[1.0, -1.0])
    with pytest.raises(ValueError, match="dimension mismatch with set normal"):
        project_box_hyperplane(s, np.zeros(3))


@pytest.mark.parametrize("upper, v, message", [
    (1.0, [1e308, -1e308, 1e308, -1e308], "v overflows in <v, normal>"),
    (1.0, [1e308] * 4, "v overflows in the breakpoint search"),
    (1.5e308, [-1e308, -1e308, 0.0, 0.0], "v overflows in the breakpoint search"),
    (1.0, [np.inf, np.inf, 0.0, 0.0], "v must be finite"),
    (1.0, [np.nan, 0.0, 0.0, 0.0], "v must be finite"),
], ids=["normal-sum", "residual", "knot", "inf", "nan"])
def test_box_hyperplane_raises_where_a_finite_input_overflows(upper, v, message):
    # an overflowed sum or residual would pick a wrong pattern: [0, 1, 0, 1],
    # whose <y, normal> is -2, for the first input
    s = BoxHyperplaneSet(upper=upper, normal=[1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        project_box_hyperplane(s, v)


def test_box_hyperplane_all_free_margin_tests_do_not_warn_near_the_float_maximum():
    # upper 1e308 lies outside the one-step path's no-warning range (upper <
    # 2**1000 / dim), yet both all-free margin tests stay quiet: v inside the
    # set is kept by the scalar bound, and a first clip within 1e-12 of upper
    # sums |v| + 2 z0 past the float maximum, which sends v to the search
    s = BoxHyperplaneSet(upper=1e308, normal=[1.0, -1.0])
    near = 1e308 * (1.0 - 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = np.array([0.7e308, 0.7e308])
        assert project_box_hyperplane(s, v).tobytes() == v.tobytes()
        with pytest.raises(ValueError, match="v overflows in the breakpoint search"):
            project_box_hyperplane(s, np.array([near, near]))


def test_box_hyperplane_search_refuses_entries_above_its_overflow_bound():
    # the search asks 4 dim (max|v| + upper + 1) < 2**1024, about 4.5e305 at
    # 100 entries; 1e306 is refused although this search would not overflow,
    # and 4e305 is projected
    s = BoxHyperplaneSet(upper=1.0, normal=np.tile([1.0, -1.0], 50))
    for big, refused in ((1e306, True), (4e305, False)):
        v = np.full(100, big)
        v[::3] = -big
        if refused:
            with pytest.raises(ValueError, match="v overflows in the breakpoint search"):
                project_box_hyperplane(s, v)
        else:
            y = project_box_hyperplane(s, v)
            assert y.tobytes() == project_box_hyperplane_exact(s, v)[1].tobytes()


_BIG = float(np.finfo(float).max)


@pytest.mark.parametrize("upper, normal, v", [
    (1.0, [1.0, 1.0, 1.0], [1.7e308, -1.7e308, -1.7e308]),
    (1.0, [1.0, 1.0, 1.0], [-_BIG, _BIG, 3.0 * 2.0**970]),
    (1e308, [1.0, 1.0, 1.0], [1.7e308, -1.7e308, 0.5]),
    (1.0, [1.0, -1.0, 1.0], [1.7e308, 1.7e308, 0.5]),
    (1.0, [1.0, -1.0] * 10 + [1.0], [0.99 * 2.0**1020] * 20 + [0.5]),
], ids=["all-free-root", "all-free-root-2**970", "one-step-root", "one-step-margin",
        "one-step-margin-2**1020"])
def test_box_hyperplane_huge_entries_raise_without_a_warning(upper, normal, v):
    # each would overflow if formed: v - t0 normal at t0 = -5.7e307, and at t0 =
    # 2**970, half an ulp of the largest float; v - t normal at the one-step
    # root t = 1e308; |v| + |z| in the one-step margin, at 1.7e308 or at 20
    # entries below 2**1020.  Each goes to the search, which refuses it first
    s = BoxHyperplaneSet(upper=upper, normal=normal)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="v overflows in the breakpoint search"):
            project_box_hyperplane(s, np.array(v))


# -- polytope cone ---------------------------------------------------------

def _feasible_cone_points(a, rng, count):
    """Independent feasible sampler: y = A'(AA')^-1 s + nullspace part."""
    d, n = a.shape
    gram_inv = np.linalg.inv(a @ a.T)
    s = np.abs(rng.standard_normal((count, d)))
    base = s @ gram_inv @ a
    _, _, vt = np.linalg.svd(a)
    null = vt[d:]
    if null.size:
        base = base + rng.standard_normal((count, null.shape[0])) @ null
    return base


def test_polytope_fixes_feasible_and_zero():
    rng = make_rng(6, 15)
    a = rng.standard_normal((3, 6))
    y_feas = _feasible_cone_points(a, rng, 1)[0]
    np.testing.assert_allclose(project_polytope(a, y_feas), y_feas, atol=1e-9)
    np.testing.assert_allclose(project_polytope(a, np.zeros(6)), np.zeros(6), atol=1e-12)


def test_polytope_beats_random_feasible_points():
    rng = make_rng(7, 16)
    a = rng.uniform(-3, 3, (5, 7))
    v = rng.standard_normal(7) * 3
    proj = project_polytope(a, v)
    assert np.min(a @ proj) >= -1e-9
    samples = _feasible_cone_points(a, rng, 10_000)
    best = float(np.min(np.sum((samples - v) ** 2, axis=1)))
    assert float(np.sum((proj - v) ** 2)) <= best + 1e-8


def test_fast_projector_matches_qp_route():
    rng = make_rng(8, 17)
    a = rng.uniform(-3, 3, (6, 9))
    projector = PolytopeProjector(a)
    for _ in range(25):
        v = rng.standard_normal(9) * rng.uniform(0.5, 8.0)
        fast = projector.project(v)
        slow = project_polytope(a, v)
        np.testing.assert_allclose(fast, slow, atol=1e-8)
        assert np.min(a @ fast) >= -1e-9


@pytest.mark.parametrize("a, v, message", [
    (np.ones(3), np.zeros(3), "nonempty 2-d"),
    (np.zeros((0, 3)), np.zeros(3), "nonempty 2-d"),
    (np.array([[1.0, np.nan]]), np.zeros(2), "finite"),
    (np.eye(2), np.zeros(3), "dimension mismatch"),
], ids=["1-d", "no-rows", "nan", "mismatch"])
def test_polytope_qp_route_rejects_bad_input(a, v, message):
    with pytest.raises(ValueError, match=message):
        project_polytope(a, v)


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_polytope_qp_route_at_large_scale(scale):
    # the QP judges its KKT residuals relative to the data, so large
    # inputs still reach OPTIMAL and agree with the dual kernel
    rng = make_rng(8, 18)
    for _ in range(10):
        a = rng.standard_normal((20, 30))
        v = rng.standard_normal(30)
        v *= scale / np.max(np.abs(v))
        slow = project_polytope(a, v)
        np.testing.assert_allclose(slow, _kernel_projection(a, 0.0, v), rtol=0, atol=1e-12 * scale)
        assert np.min(a @ slow) >= -1e-12 * scale


# -- dual polytope kernel ----------------------------------------------------

# d = 1, d = n and d = n - 1 are the edge shapes; the rest are drawn at random
_KERNEL_SHAPES = [(1, 6), (5, 5), (6, 7), (7, 8)] + [
    (int(d), int(d + k)) for d, k in make_rng(16, 0).integers(2, 9, (3, 2))
]


def _qp_projection(a, h, w):
    """Oracle: ``solve_qp`` from its own feasibility phase."""
    problem = QpProblem(q_matrix=np.eye(a.shape[1]), q_vector=-w,
                        ineq_matrix=a, ineq_vector=np.broadcast_to(h, a.shape[:1]))
    result = solve_qp(problem, tol=1e-10)
    assert result.status is QpStatus.OPTIMAL
    return result.x


def _kernel_projection(a, h, w):
    lam = solve_polytope_dual(a @ a.T, a @ w - h)
    assert np.all(lam >= 0.0)
    return w + a.T @ lam


def _tie_point(a, h, rng):
    """``(v, y)`` with ``y`` the projection of ``v`` onto ``{A y >= h}``:
    rows 0 and 1 are active at ``y``, row 1 with a zero multiplier."""
    d = a.shape[0]
    slack = rng.uniform(0.5, 2.0, d)
    slack[:2] = 0.0
    y = a.T @ np.linalg.solve(a @ a.T, h + slack)
    mult = np.zeros(d)
    mult[0] = rng.uniform(0.5, 2.0)
    return y - a.T @ mult, y


@pytest.mark.parametrize("d,n", _KERNEL_SHAPES)
def test_polytope_kernel_warm_sequence_matches_qp(d, n):
    # a run's sequence of projections on one matrix; every call starts cold
    rng = make_rng(16, d * 100 + n)
    a = rng.uniform(-3, 3, (d, n))
    for trial in range(30):
        if trial % 5 == 4 and d >= 2:
            w, expected = _tie_point(a, 0.0, rng)
        else:
            w = rng.standard_normal(n) * rng.uniform(0.5, 8.0)
            expected = None
        fast = _kernel_projection(a, 0.0, w)
        np.testing.assert_allclose(fast, _qp_projection(a, 0.0, w), atol=1e-9)
        if expected is not None:
            np.testing.assert_allclose(fast, expected, atol=1e-9)


@pytest.mark.parametrize("d,n", _KERNEL_SHAPES)
def test_polytope_kernel_offset_cold_start_matches_qp(d, n):
    rng = make_rng(17, d * 100 + n)
    a = rng.uniform(-3, 3, (d, n))
    h = np.ones(d)
    points = [np.zeros(n)] + [rng.standard_normal(n) * 3 for _ in range(5)]
    for w in points:
        fast = _kernel_projection(a, h, w)
        np.testing.assert_allclose(fast, _qp_projection(a, h, w), atol=1e-9)
        assert np.min(a @ fast - h) >= -1e-9
    if d >= 2:
        w, expected = _tie_point(a, h, rng)
        fast = _kernel_projection(a, h, w)
        np.testing.assert_allclose(fast, expected, atol=1e-9)
        np.testing.assert_allclose(fast, _qp_projection(a, h, w), atol=1e-9)


def test_polytope_kernel_leaves_arguments_alone():
    rng = make_rng(18, 0)
    a = rng.uniform(-3, 3, (4, 6))
    gram, c = a @ a.T, a @ rng.standard_normal(6) - 1.0
    copies = (gram.copy(), c.copy())
    solve_polytope_dual(gram, c)
    for before, after in zip(copies, (gram, c)):
        np.testing.assert_array_equal(before, after)


def test_polytope_kernel_raises_at_its_pivot_cap():
    # not a P-matrix: the LCP has no solution and pivoting cycles
    gram = np.array([[1.0, -2.0], [-2.0, 1.0]])
    with pytest.raises(RuntimeError, match="pivots"):
        solve_polytope_dual(gram, np.array([-1.0, -1.0]))


def test_set_and_projector_hold_read_only_copies():
    # a later write to the caller's array reaches neither the set nor the projector
    rng = make_rng(17, 0)
    a = rng.standard_normal((4, 6))
    labels = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
    projector = PolytopeProjector(a)
    s = BoxHyperplaneSet(upper=1.0, normal=labels)
    v, u = 3.0 * rng.standard_normal(6), rng.standard_normal(8)
    assert (a @ v < 0.0).any()  # the projection runs the kernel on the Gram matrix
    before = projector.project(v), project_box_hyperplane(s, u)
    a *= 2.0
    labels[:4] *= -3.0
    for got, want in zip((projector.project(v), project_box_hyperplane(s, u)), before):
        np.testing.assert_array_equal(got, want)
    for held in (projector.a, projector.gram, s.normal):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 1.0


@pytest.mark.parametrize("make", [
    lambda: BoxHyperplaneSet(upper=1.0, normal=[1.0, -1.0]),
    lambda: MkSvmPrediction(np.array([1.0, -1.0]), 0, 0.5, False),
    lambda: QpProblem(np.eye(2), np.zeros(2)),
    lambda: QpResult(np.zeros(2), QpStatus.OPTIMAL, 0),
    lambda: SolverState(*(np.zeros(2) for _ in range(6))),
    lambda: LoadedDataset("sonar", np.zeros((2, 2)), np.array([1.0, -1.0])),
    lambda: DatasetFormat("f.data", 1, {"a": 1.0}, 2),
], ids=["box-hyperplane-set", "mksvm-prediction", "qp-problem", "qp-result",
        "solver-state", "loaded-dataset", "dataset-format"])
def test_frozen_array_holders_compare_by_identity(make):
    # field-wise == would ask numpy for the truth value of an array, and a
    # field-wise hash fails on an array or dict field
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and a in {a} and b not in {a}


def test_projector_keeps_a_finite_point_whose_image_overflows():
    # A v is +inf in every entry, yet v is finite: it is inside the cone
    a = make_rng(19, 1).uniform(-3, 3, (4, 7))
    a[:, 0] = np.abs(a[:, 0]) + 2.0
    v = np.zeros(7)
    v[0] = 1e308
    with np.errstate(over="ignore"):
        y, image, inside = PolytopeProjector(a)._project(v)
    np.testing.assert_array_equal(y, v)
    assert inside
    assert (image == np.inf).all()


def test_projector_rejects_a_without_full_row_rank():
    a = make_rng(19, 0).uniform(-3, 3, (4, 7))
    with pytest.raises(RankDeficientError):
        PolytopeProjector(np.vstack([a, a[1]]))
    with pytest.raises(ValueError) as info:
        PolytopeProjector(a.T)  # more rows than columns
    assert not isinstance(info.value, RankDeficientError)
    with pytest.raises(ValueError, match=r"d = 0"):
        PolytopeProjector(np.zeros((0, 7)))
    with pytest.raises(ValueError, match="a_matrix must be 2-d"):
        PolytopeProjector(np.ones(7))


# -- scaled positive part ---------------------------------------------------

@pytest.mark.parametrize(
    "x,expected",
    [(-1.0, -1.0), (1.5, 0.0), (3.0, 1.0), (0.0, 0.0), (2.0, 0.0), (2.0000001, 1e-7)],
)
def test_positive_part_prox_cases(x, expected):
    assert prox_positive_part_scaled(1.0, 2.0, x) == pytest.approx(expected, abs=1e-12)


def test_positive_part_prox_rejects_negative_weight():
    with pytest.raises(ValueError):
        prox_positive_part_scaled(1.0, -0.5, 1.0)


# -- prox oracle -----------------------------------------------------------

def test_oracle_zero_function_identity():
    x = np.array([0.3, -0.7, 1.1])
    assert prox_oracle(lambda u: 0.0, x, x, trials=300, seed=0) <= 0.0


def test_oracle_accepts_simplex_projection():
    rng = make_rng(9, 18)
    x = rng.standard_normal(6)
    cand = project_simplex(x)

    def indicator(u):
        ok = abs(float(np.sum(u)) - 1.0) <= 1e-9 and float(np.min(u)) >= -1e-9
        return 0.0 if ok else np.inf

    assert prox_oracle(indicator, x, cand, trials=1000, seed=1) <= 1e-8


def test_oracle_accepts_quadratic_prox():
    rng = make_rng(10, 19)
    nu = 0.7
    x = rng.standard_normal(5)
    cand = x / (1.0 + nu)
    violation = prox_oracle(lambda u: 0.5 * nu * float(u @ u), x, cand,
                            trials=1000, seed=2)
    assert violation <= 1e-8


def test_oracle_flags_wrong_candidate():
    x = np.array([2.0, -1.0])
    wrong = x + 0.3
    assert prox_oracle(lambda u: 0.0, x, wrong, trials=500, seed=3) > 1e-3


def test_oracle_rejects_minus_inf():
    x = np.zeros(2)
    with pytest.raises(ValueError):
        prox_oracle(lambda u: -np.inf, x, x, trials=10, seed=4)


def _mksvm(mu, nu):
    rng = make_rng(61, 7)
    feats = rng.standard_normal((18, 3))
    labels = np.where(rng.uniform(size=18) < 0.5, -1.0, 1.0)
    labels[:2] = (1.0, -1.0)
    kernels = [normalize_kernel(kernel(feats))
               for kernel in (polynomial_kernel, gaussian_kernel, linear_kernel)]
    mats = conjugated_kernels(kernels, np.arange(18), labels)
    return MkSvmProblem(mats, labels, box_c=1.0, mu=mu, nu=nu)


def _fairness(sizes=(6, 9, 12)):
    rng = make_rng(62, 7)
    rows = [(rng.standard_normal((size, 4)), np.where(rng.uniform(size=size) < 0.5, -1.0, 1.0),
             np.full(size, gid)) for gid, size in enumerate(sizes)]
    return FairnessProblem(*(np.concatenate(part) for part in zip(*rows)))


@pytest.mark.parametrize("make, simplex_x, simplex_y", [
    pytest.param(lambda: _mksvm(0.0, 0.0), True, False, id="mksvm-0"),
    pytest.param(lambda: _mksvm(0.5, 0.5), True, False, id="mksvm-0.5"),
    pytest.param(_fairness, False, True, id="fairness"),
])
def test_problem_proxes_satisfy_the_prox_inequality(make, simplex_x, simplex_y):
    # feasible test points: the simplex vertices, and points from p toward
    # sampled feasible points; prox_oracle's perturbations cannot reach the
    # simplex or the box-hyperplane set, which have empty interior
    problem = make()
    rng = make_rng(63, 0)

    def relative_gap(f, x, p, samples, vertices):
        points = [*vertices, *(p + t * (u - p) for u in samples for t in (1e-3, 0.1, 1.0))]
        return prox_inequality_gap(f, x, p, points)

    for _ in range(20):
        x_ref, y_ref = problem.sample_point(rng)
        samples = [problem.sample_point(rng) for _ in range(4)]
        tau, sigma = 10.0 ** rng.uniform(-2, 0.5, 2)
        x = x_ref + rng.standard_normal(problem.dim_x)
        assert relative_gap(
            lambda u: tau * problem.phi_value(u, y_ref), x, problem.prox_phi_x(tau, y_ref, x),
            [s[0] for s in samples], np.eye(problem.dim_x) if simplex_x else ()) <= 1e-10
        v = y_ref + rng.standard_normal(problem.dim_y)
        assert relative_gap(
            lambda w: sigma * problem.g_value(w), v, problem.prox_g(sigma, v),
            [s[1] for s in samples], np.eye(problem.dim_y) if simplex_y else ()) <= 1e-10


# -- shared projection properties (oracle ~1e-8, firm nonexpansiveness, idempotence)

def _projections(rng):
    labels = np.where(rng.uniform(size=10) < 0.5, -1.0, 1.0)
    labels[0] = 1.0
    labels[1] = -1.0
    box = BoxHyperplaneSet(upper=1.0, normal=labels)
    a = rng.uniform(-3, 3, (4, 10))
    projector = PolytopeProjector(a)
    return [
        ("simplex", 10, project_simplex),
        ("boxhyper", 10, lambda v: project_box_hyperplane(box, v)),
        ("cone", 10, projector.project),
    ]


def test_projection_nonexpansiveness_1000_trials():
    rng = make_rng(11, 20)
    for name, dim, proj in _projections(rng):
        for _ in range(1000):
            u = rng.standard_normal(dim) * 3
            v = rng.standard_normal(dim) * 3
            lhs = np.linalg.norm(proj(u) - proj(v))
            rhs = np.linalg.norm(u - v)
            assert lhs <= rhs * (1 + 1e-10) + 1e-10, name


def test_projection_idempotence():
    rng = make_rng(12, 21)
    for name, dim, proj in _projections(rng):
        for _ in range(200):
            v = rng.standard_normal(dim) * 3
            once = proj(v)
            twice = proj(once)
            assert np.max(np.abs(twice - once)) <= 1e-10, name


def test_projection_prox_oracle_1000_trials():
    rng = make_rng(13, 22)
    for name, dim, proj in _projections(rng):
        v = rng.standard_normal(dim) * 2
        cand = proj(v)
        here = proj

        def indicator(u, _p=here, _dim=dim):
            ref = _p(u)
            return 0.0 if np.linalg.norm(ref - u) <= 1e-8 else np.inf

        assert prox_oracle(indicator, v, cand, trials=1000, seed=5) <= 1e-8, name


def _box_hyperplane_qp(s, v):
    n = s.dim
    problem = QpProblem(
        q_matrix=np.eye(n), q_vector=-np.asarray(v, dtype=float),
        ineq_matrix=np.vstack([np.eye(n), -np.eye(n)]),
        ineq_vector=np.concatenate([np.zeros(n), np.full(n, -s.upper)]),
        eq_matrix=s.normal[None, :], eq_vector=np.zeros(1),
    )
    result = solve_qp(problem, tol=1e-10)
    assert result.status is QpStatus.OPTIMAL
    return result.x


def _degenerate_box_hyperplane_cases():
    """Inputs where the knots of the dual residual tie, the root sits on a
    knot, on a segment where ``r`` vanishes or on an open end segment, or
    coordinates sit on their bounds."""
    pm = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    cases = [
        # repeated entries: tied knots on both sides
        (1.0, pm, [0.5, 0.5, 0.5, -0.2, -0.2, 0.5]),
        # the root t = 0.5 is a knot of all six coordinates
        (1.0, np.repeat([1.0, -1.0], 3), np.repeat([0.5, -0.5], 3)),
        # r vanishes on the whole segment between the knots t = 0.5 and t = 1
        (1.0, np.array([1.0, 1.0, -1.0]), [2.0, 0.5, 1.5]),
        # entries past both bounds, on wider boxes
        (2.0, np.array([1.0, -1.0, -1.0, 1.0, 1.0]), [3.0, -4.0, 0.1, 0.7, -2.0]),
        (5.0, np.array([1.0, -1.0, 1.0, -1.0]), [-1.0, 2.0, 0.4, -3.0]),
        # the root t = 0.25 is the knot of the third coordinate
        (1.0, np.array([1.0, 1.0, 1.0, -1.0]), [0.5, 0.5, 0.25, 0.25]),
        # a one-sign normal leaves the single point {0}: the root lies on the
        # open end segment after the last knot, or at the first knot
        (1.0, np.ones(3), [0.4, 2.0, -1.0]),
        (1.0, -np.ones(3), [0.9, 0.9, 0.75]),
        (1.0, np.ones(4), [0.2, 0.9, 0.5, 0.1]),
        (1.0, -np.ones(4), [0.2, 0.9, 0.5, 0.1]),
        # every coordinate at a bound at the root: no free coordinate left
        (1.0, np.array([1.0, 1.0, -1.0]), [5.0, -5.0, 4.0]),
        # feasible inputs come back unchanged, with coordinates on both bounds or inside
        (1.0, pm, [1.0, 1.0, 0.0, 0.0, 0.3, 0.3]),
        (1.0, pm, [0.2, 0.3, 0.6, 0.1, 0.4, 0.8]),
    ]
    return [(BoxHyperplaneSet(upper=upper, normal=normal), np.asarray(v, float))
            for upper, normal, v in cases]


def _wide_box_cases(rng):
    """+-1 sets of 6 entries with ``upper`` 1e3 and 1e6, inputs up to three
    times as wide."""
    return [(_svm_box(6, rng, box_c=upper), rng.uniform(-3.0, 3.0, 6) * upper)
            for upper in (1e3, 1e6) for _ in range(5)]


def test_box_hyperplane_general_sets_match_qp_oracle():
    rng = make_rng(14, 23)
    cases = []
    for trial in range(20):
        s = _svm_box(int(rng.integers(3, 12)), rng, box_c=float(rng.uniform(0.5, 3.0)))
        cases.append((s, rng.standard_normal(s.dim) * 3))
    degenerate = _degenerate_box_hyperplane_cases()
    cases += degenerate
    # one set shaped like the multi-kernel SVM dual at n = 60
    cases.append((_svm_box(60, rng, box_c=0.5), rng.standard_normal(60)))
    # wide boxes: the oracle's KKT check has to follow the scale of the data
    cases += _wide_box_cases(rng)
    for i, (s, v) in enumerate(cases):
        fast = project_box_hyperplane(s, v)
        np.testing.assert_allclose(fast, _box_hyperplane_qp(s, v), atol=1e-8, err_msg=str(i))
        assert abs(s.normal @ fast) <= 1e-12 * max(1.0, np.abs(v).sum()), i
    for s, v in degenerate[-2:]:
        np.testing.assert_array_equal(project_box_hyperplane(s, v), v)
    single_points = [(s, v) for s, v in degenerate if np.all(s.normal > 0) or np.all(s.normal < 0)]
    assert len(single_points) == 4
    for s, v in single_points:
        np.testing.assert_array_equal(project_box_hyperplane(s, v), np.zeros(s.dim))


def _searched(s, v):
    """The breakpoint search alone, bound at import so that a test counting
    its calls through ``prox`` does not count these."""
    return _box_hyperplane_search(s, np.asarray(v, dtype=float))


def _random_box_hyperplane_cases(count, rng):
    """Sets with ``upper`` from 0.1 to 1e6 and 2 to 300 coordinates."""
    uppers = (0.1, 1.0, 10.0, 1e3, 1e6)
    cases = []
    for trial in range(count):
        n = int(rng.integers(2, 301))
        normal = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        upper = uppers[trial % len(uppers)]
        scale = upper * 10.0 ** rng.uniform(-1.0, 2.0)
        cases.append((BoxHyperplaneSet(upper=upper, normal=normal), rng.standard_normal(n) * scale))
    return cases


# all free at t0, an entry 1e-12 from its bound: inside the 1e-10 margin
_ALL_FREE_NEAR_BOUND = ([1.0, 1.0, -1.0, -1.0], [1e-12, 0.5, 0.25, 0.25 + 1e-12])
# the first clip clips the first entry alone; the re-solve moves t from -0.125 to 0
_ONE_CLIPPED = ([1.0, 1.0, -1.0, -1.0], [-0.5, 0.5, 0.3, 0.2])


def _margin_straddle(s, v, k, kept, searched):
    """Two copies of ``v`` whose entry ``k`` are adjacent floats between
    ``kept`` and ``searched`` (of one sign), found by bisection on the bits:
    the first passes :func:`one_step_accepts` and the second fails it."""
    def with_entry(bits):
        u = np.array(v, float)
        u[k] = np.array(bits, np.int64).view(np.float64)
        return u

    good, bad = (int(np.array(e, np.float64).view(np.int64)) for e in (kept, searched))
    while abs(good - bad) > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if one_step_accepts(s, with_entry(mid)) else (good, mid)
    return [(s, with_entry(good)), (s, with_entry(bad))]


def _margin_straddles():
    """Two pairs of all-free inputs one ulp either side of the margin, at 0
    and at ``upper``: kept, searched, kept, searched."""
    unit = BoxHyperplaneSet(upper=1.0, normal=[1.0, 1.0, -1.0, -1.0])
    return (_margin_straddle(unit, [0.0, 0.5, 0.25, 0.25], 0, 1e-6, 1e-12)
            + _margin_straddle(unit, [0.0, 0.5, 0.75, 0.75], 0, 1.0 - 1e-6, 1.0 - 1e-12))


def _all_free_cases(rng):
    """Inputs whose first clip clips nothing: a point ``y`` inside the box
    on the hyperplane, moved along ``normal``, for three values of
    ``upper``; :func:`_margin_straddles`; then :data:`_ALL_FREE_NEAR_BOUND`
    and :data:`_ONE_CLIPPED`, which is not all free."""
    cases = []
    for upper in (0.5, 1.0, 5.0):
        for _ in range(8):
            n = int(rng.integers(20, 301))
            normal = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
            u = rng.uniform(0.3, 0.7, n) * upper
            y = u - float(normal @ u) / n * normal
            cases.append((BoxHyperplaneSet(upper=upper, normal=normal),
                          y + rng.uniform(-2.0, 2.0) * upper * normal))
    cases += _margin_straddles()
    assert all(first_clip_is_all_free(s, v) for s, v in cases)
    return cases + [(BoxHyperplaneSet(upper=1.0, normal=normal), np.array(v))
                    for normal, v in (_ALL_FREE_NEAR_BOUND, _ONE_CLIPPED)]


def test_box_hyperplane_matches_the_bisection_search():
    # the one-step path must return the floats of the search it skips
    cases = (_random_box_hyperplane_cases(2000, make_rng(16, 25)) + _degenerate_box_hyperplane_cases()
             + _all_free_cases(make_rng(16, 30)))
    for i, (s, v) in enumerate(cases):
        np.testing.assert_array_equal(project_box_hyperplane(s, v), _searched(s, v),
                                      err_msg=str(i))


def _count_searches(monkeypatch):
    """Counts calls of the breakpoint search behind the one-step fast path."""
    calls = []
    search = prox._box_hyperplane_search
    monkeypatch.setattr(prox, "_box_hyperplane_search",
                        lambda s, w: calls.append(1) or search(s, w))
    return calls


def _near_feasible_cases(rng):
    """The projection ``y`` of a random point, moved by ``a`` outward at the
    bounds and by ``1e-4 a`` inside, for three values of ``upper``.  ``y``
    is its own projection, and the move ``p`` has ``|t0| <= ||p|| /
    ||normal|| < a``; so with ``a = 1e-2 margin``, ``margin`` the least
    distance of a free coordinate to a bound, the pattern at ``t0`` is
    ``y``'s."""
    cases = []
    for upper in (0.5, 1.0, 5.0):
        for _ in range(6):
            s = _svm_box(40, rng, box_c=upper)
            y = _searched(s, rng.uniform(-0.5, 1.5, 40) * min(upper, 2.0))
            at_bound = (y == 0.0) | (y == upper)
            a = 1e-2 * np.minimum(y, upper - y)[~at_bound].min()
            outward = np.where(y == 0.0, -a, a)
            cases.append((s, y + np.where(at_bound, outward, 1e-4 * a * rng.standard_normal(40))))
    return cases


def test_box_hyperplane_one_step_near_the_set(monkeypatch):
    calls = _count_searches(monkeypatch)
    for i, (s, v) in enumerate(_near_feasible_cases(make_rng(16, 26))):
        np.testing.assert_array_equal(project_box_hyperplane(s, v), _searched(s, v),
                                      err_msg=str(i))
        assert not calls, i


_ONE_STEP_FALLBACKS = [
    # the root t = 0.25 is the knot of the third coordinate, exactly and within rounding
    ([1.0, 1.0, 1.0, -1.0], [0.5, 0.5, 0.25, 0.25]),
    ([1.0, 1.0, 1.0, -1.0], [0.5, 0.5, 0.25 + 1e-15, 0.25]),
    # every coordinate free at t0, one of them inside the margin
    _ALL_FREE_NEAR_BOUND,
    # every coordinate is at a bound at t0: the Newton piece has slope 0,
    # also for an input offset far from the set
    ([1.0, -1.0], [3.0, 3.0]),
    ([1.0, 1.0, -1.0], [5.0, -5.0, 4.0]),
    # the root is t = 0, where a coordinate sits exactly on its lower bound
    ([1.0, -1.0, 1.0], [0.3, 0.3, 0.0]),
]


def _near_knot_cases():
    """:data:`_ONE_STEP_FALLBACKS`, then the third coordinate of its first
    input from 1e-8 to 1e-13 off its knot, across the margin."""
    on_knot = BoxHyperplaneSet(upper=1.0, normal=[1.0, 1.0, 1.0, -1.0])
    return ([(BoxHyperplaneSet(upper=1.0, normal=normal), np.asarray(v, float))
             for normal, v in _ONE_STEP_FALLBACKS]
            + [(on_knot, np.array([0.5, 0.5, 0.25 + sign * 10.0 ** -k, 0.25]))
               for sign in (1.0, -1.0) for k in np.arange(8.0, 13.0, 0.25)])


@pytest.mark.parametrize("normal, v", _ONE_STEP_FALLBACKS,
                         ids=["on-knot", "near-knot", "all-free-near-bound", "slope-0",
                              "slope-0-offset", "zero-normal-on-bound"])
def test_box_hyperplane_falls_back_to_the_search(monkeypatch, normal, v):
    calls = _count_searches(monkeypatch)
    s = BoxHyperplaneSet(upper=1.0, normal=normal)
    np.testing.assert_array_equal(project_box_hyperplane(s, v), _searched(s, v))
    assert len(calls) == 1


def test_box_hyperplane_all_free_first_clip(monkeypatch):
    # an all-free first clip is kept as it is, unless an entry lies inside the
    # margin; one clipped entry sends the input through the Newton re-solve
    calls = _count_searches(monkeypatch)
    (*interior, low_kept, low_searched, high_kept, high_searched,
     near_bound, one_clipped) = _all_free_cases(make_rng(16, 31))
    for i, (s, v) in enumerate(interior + [low_kept, high_kept]):
        np.testing.assert_array_equal(project_box_hyperplane(s, v), _searched(s, v),
                                      err_msg=str(i))
        assert not calls, i
    for (_, kept), (s, v) in ((low_kept, low_searched), (high_kept, high_searched)):
        assert np.nextafter(kept[0], v[0]) == v[0] and not one_step_accepts(s, v)
        np.testing.assert_array_equal(project_box_hyperplane(s, v), _searched(s, v))
    assert len(calls) == 2
    s, v = near_bound
    assert first_clip_is_all_free(s, v) and not one_step_accepts(s, v)
    s, v = one_clipped
    assert not first_clip_is_all_free(s, v) and one_step_accepts(s, v)
    y = project_box_hyperplane(s, v)
    np.testing.assert_array_equal(y, _searched(s, v))
    np.testing.assert_array_equal(y, [0.0, 0.5, 0.3, 0.2])
    assert len(calls) == 2


def test_box_hyperplane_sums_the_margin_where_the_scalar_bound_declines(monkeypatch):
    # min z0 = 2e-10 lies below the scalar bound 2e-10 (3 max z0 + |t0|) =
    # 3e-10 and above the summed margin c = 1e-10 mean(|v| + 2 z0), about
    # 7.5e-11: the sum runs and keeps z0; at 4e-10 the scalar bound keeps it
    calls = _count_searches(monkeypatch)
    s = BoxHyperplaneSet(upper=1.0, normal=[1.0, -1.0, 1.0, -1.0])
    for low, scalar in ((2e-10, False), (4e-10, True)):
        v = np.array([low, 0.5, 0.5, low])
        assert first_clip_is_all_free(s, v) and one_step_accepts(s, v)
        assert scalar_margin_accepts(s, v) == scalar
        np.testing.assert_array_equal(project_box_hyperplane(s, v), _searched(s, v))
    assert not calls


def test_box_hyperplane_searches_from_10_to_the_5_entries(monkeypatch):
    # the rounding certificate of the one-step path covers fewer entries only
    rng = make_rng(16, 29)
    s = BoxHyperplaneSet(upper=1.0, normal=np.where(rng.uniform(size=10**5) < 0.5, -1.0, 1.0))
    v = rng.uniform(0.2, 0.8, s.dim)
    assert one_step_accepts(s, v)
    calls = _count_searches(monkeypatch)
    np.testing.assert_array_equal(project_box_hyperplane(s, v), _searched(s, v))
    assert len(calls) == 1


def test_box_hyperplane_searches_exactly_when_the_one_step_test_fails(monkeypatch):
    # the margin is computed only once the pattern holds; the decision must
    # stay the pattern-and-margin test, so the search runs on the same calls
    calls = _count_searches(monkeypatch)
    cases = (_random_box_hyperplane_cases(600, make_rng(16, 27))
             + _near_feasible_cases(make_rng(16, 28)) + _degenerate_box_hyperplane_cases()
             + _all_free_cases(make_rng(16, 32)) + _near_knot_cases())
    kept = 0
    for i, (s, v) in enumerate(cases):
        before = len(calls)
        project_box_hyperplane(s, v)
        assert (len(calls) == before) == one_step_accepts(s, v), i
        kept += len(calls) == before
    assert 0 < kept < len(cases)


def test_box_hyperplane_is_within_its_rounding_bound_of_the_exact_projection():
    # the docstring's rounding bound: the one-step path and the search each
    # within dim 2**-53 scale of the exact projection, entry by entry, with
    # scale = sum (|v_i| + |z_i| + y_i) at the exact root; these cases and
    # 300 random ones reach at most 0.033 of it
    cases = (_degenerate_box_hyperplane_cases() + _wide_box_cases(make_rng(16, 33))
             + _near_feasible_cases(make_rng(16, 34)) + _near_knot_cases() + _margin_straddles()
             + _random_box_hyperplane_cases(20, make_rng(16, 35)))
    for i, (s, v) in enumerate(cases):
        t, exact = project_box_hyperplane_exact(s, v)
        bound = s.dim * 2.0**-53 * float(np.sum(np.abs(v) + np.abs(v - t * s.normal) + exact))
        for y in (project_box_hyperplane(s, v), _searched(s, v)):
            assert np.abs(y - exact).max() <= bound, i


@pytest.mark.parametrize("mu, nu, law", [(0.0, 0.0, default_adaptive), (1.0, 0.5, default_linear)],
                         ids=["c1", "c2"])
def test_mksvm_trajectory_takes_the_one_step_path(monkeypatch, mu, nu, law):
    # the traffic the fast path serves: every y-prox of a run, checked
    # against the search and the decision oracle, falls back on at most 5%
    # of the steps, and both the all-free first clip and the Newton
    # re-solve occur; the scalar margin bound decides every all-free call
    # here (252 of the 600 calls at c1, 171 at c2), so none sums the margin
    rng = make_rng(64, 0)
    rows = 120
    labels = np.where(rng.uniform(size=rows) < 0.6, 1.0, -1.0)
    feats = labels[:, None] * rng.uniform(0.1, 0.4, 6) + rng.normal(0.0, 0.5, (rows, 6))
    kernels = [normalize_kernel(kernel(feats))
               for kernel in (polynomial_kernel, gaussian_kernel, linear_kernel)]
    problem = MkSvmProblem(conjugated_kernels(kernels, np.arange(rows), labels), labels,
                           box_c=1.0, mu=mu, nu=nu)
    calls, outputs, all_free, scalar = _count_searches(monkeypatch), [], [], []

    def checked(s, v):
        all_free.append(first_clip_is_all_free(s, v))
        scalar.append(scalar_margin_accepts(s, v))
        before = len(calls)
        outputs.append(project_box_hyperplane(s, v))
        assert (len(calls) == before) == one_step_accepts(s, v)
        np.testing.assert_array_equal(outputs[-1], _searched(s, v))
        return outputs[-1]

    monkeypatch.setattr(mksvm_module, "project_box_hyperplane", checked)
    run(problem, law(problem.constants), np.full(3, 1.0 / 3.0), np.zeros(rows), 600)
    assert len(outputs) == 600
    assert len(calls) <= 0.05 * len(outputs)
    assert 0 < sum(all_free) < len(outputs)
    assert scalar == all_free


@pytest.mark.parametrize("fairness", [False, True], ids=["mksvm-c1", "fairness-2-groups"])
def test_workload_simplex_projections_take_the_scalar_path(monkeypatch, fairness):
    # MKSVM projects one entry per kernel, fairness one per group: a run
    # makes one such call per step; MKSVM's is a list of Python floats,
    # which the projection sorts and sums without an array round trip
    if fairness:
        problem = _fairness((10, 14))
        x0, y0 = np.zeros(problem.dim_x), np.full(2, 0.5)
    else:
        problem = _mksvm(0.0, 0.0)
        x0, y0 = np.full(3, 1.0 / 3.0), np.zeros(problem.dim_y)
    calls = []
    for module in (mksvm_module, fairness_module):
        monkeypatch.setattr(module, "project_simplex",
                            lambda v: calls.append(type(v) is list
                                                   and {*map(type, v)} == {float})
                            or project_simplex(v))
    run(problem, default_adaptive(problem.constants), x0, y0, 200)
    assert calls == [not fairness] * 200


def test_oracle_flags_wrong_projection():
    # box-only clipping is not the box-hyperplane projection; a correct
    # indicator oracle must notice
    rng = make_rng(15, 24)
    labels = np.where(rng.uniform(size=8) < 0.5, -1.0, 1.0)
    labels[:2] = (1.0, -1.0)
    s = BoxHyperplaneSet(upper=1.0, normal=labels)
    v = rng.standard_normal(8) * 2
    wrong = np.clip(v, 0.0, 1.0)
    if abs(s.normal @ wrong) > 1e-6:  # wrong candidate is infeasible

        def indicator(u):
            feasible = (
                u.min() >= -1e-9 and u.max() <= 1.0 + 1e-9
                and abs(s.normal @ u) <= 1e-9
            )
            return 0.0 if feasible else np.inf

        assert prox_oracle(indicator, v, wrong, trials=100, seed=6) == np.inf
