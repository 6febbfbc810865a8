import bisect

import numpy as np
import pytest

from ogaprox.prox import (
    BoxHyperplaneSet,
    InfeasibleSetError,
    PolytopeProjector,
    PolytopeSet,
    RankDeficientError,
    on_simplex,
    project_box_hyperplane,
    project_polytope,
    project_simplex,
    prox_oracle,
    solve_polytope_dual,
)
from ogaprox.qp import QpProblem, QpStatus, solve_qp
from ogaprox.rng import make_rng

from _oracles import prox_positive_part_scaled


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


def test_simplex_rejects_bad_input():
    with pytest.raises(ValueError):
        project_simplex([])
    with pytest.raises(ValueError):
        project_simplex([1.0, np.nan])


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
    return BoxHyperplaneSet(lower=0.0, upper=box_c, normal=labels, offset=0.0)


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


def test_box_hyperplane_infinite_upper():
    s = BoxHyperplaneSet(lower=0.0, upper=np.inf, normal=np.array([1.0, -1.0]))
    y = project_box_hyperplane(s, np.array([3.0, 1.0]))
    np.testing.assert_allclose(y, [2.0, 2.0], atol=1e-10)


def test_box_hyperplane_rejects_infinite_lower():
    # a knot-free set {<y, (1, -1)> = 0} would leave the projection with
    # no finite breakpoint to search
    with pytest.raises(ValueError, match="lower bound must be finite"):
        BoxHyperplaneSet(lower=-np.inf, upper=np.inf, normal=np.array([1.0, -1.0]))


def test_box_hyperplane_infeasible_construction():
    with pytest.raises(InfeasibleSetError):
        BoxHyperplaneSet(lower=0.0, upper=1.0, normal=np.array([1.0, 1.0]), offset=3.0)


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
    s = PolytopeSet(a)
    y_feas = _feasible_cone_points(a, rng, 1)[0]
    np.testing.assert_allclose(project_polytope(s, y_feas), y_feas, atol=1e-9)
    np.testing.assert_allclose(project_polytope(s, np.zeros(6)), np.zeros(6), atol=1e-12)


def test_polytope_beats_random_feasible_points():
    rng = make_rng(7, 16)
    a = rng.uniform(-3, 3, (5, 7))
    s = PolytopeSet(a)
    v = rng.standard_normal(7) * 3
    proj = project_polytope(s, v)
    assert np.min(a @ proj) >= -1e-9
    samples = _feasible_cone_points(a, rng, 10_000)
    best = float(np.min(np.sum((samples - v) ** 2, axis=1)))
    assert float(np.sum((proj - v) ** 2)) <= best + 1e-8


def test_fast_projector_matches_qp_route():
    rng = make_rng(8, 17)
    a = rng.uniform(-3, 3, (6, 9))
    s = PolytopeSet(a)
    projector = PolytopeProjector(a)
    for _ in range(25):
        v = rng.standard_normal(9) * rng.uniform(0.5, 8.0)
        fast = projector.project(v)
        slow = project_polytope(s, v)
        np.testing.assert_allclose(fast, slow, atol=1e-8)
        assert np.min(a @ fast) >= -1e-9


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_polytope_qp_route_at_large_scale(scale):
    # the QP judges its KKT residuals relative to the data, so large
    # inputs still reach OPTIMAL and agree with the dual kernel
    rng = make_rng(8, 18)
    for _ in range(10):
        a = rng.standard_normal((20, 30))
        v = rng.standard_normal(30)
        v *= scale / np.max(np.abs(v))
        slow = project_polytope(PolytopeSet(a), v)
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
    s = BoxHyperplaneSet(lower=0.0, upper=1.0, normal=labels)
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


def test_projector_rejects_a_without_full_row_rank():
    a = make_rng(19, 0).uniform(-3, 3, (4, 7))
    with pytest.raises(RankDeficientError):
        PolytopeProjector(np.vstack([a, a[1]]))
    with pytest.raises(ValueError) as info:
        PolytopeProjector(a.T)  # more rows than columns
    assert not isinstance(info.value, RankDeficientError)
    with pytest.raises(ValueError, match=r"d = 0"):
        PolytopeProjector(np.zeros((0, 7)))


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


# -- shared projection properties (oracle ~1e-8, firm nonexpansiveness, idempotence)

def _projections(rng):
    labels = np.where(rng.uniform(size=10) < 0.5, -1.0, 1.0)
    labels[0] = 1.0
    labels[1] = -1.0
    box = BoxHyperplaneSet(lower=0.0, upper=1.0, normal=labels, offset=0.0)
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
    rows = [np.eye(n)] + ([-np.eye(n)] if np.isfinite(s.upper) else [])
    bounds = [np.full(n, s.lower)] + ([np.full(n, -s.upper)] if np.isfinite(s.upper) else [])
    problem = QpProblem(
        q_matrix=np.eye(n), q_vector=-np.asarray(v, dtype=float),
        ineq_matrix=np.vstack(rows), ineq_vector=np.concatenate(bounds),
        eq_matrix=s.normal[None, :], eq_vector=np.array([s.offset]),
    )
    result = solve_qp(problem, tol=1e-10)
    assert result.status is QpStatus.OPTIMAL
    return result.x


def _degenerate_box_hyperplane_cases():
    """Inputs where the knots of the dual residual tie, the root sits on a
    knot or on an open end segment, or the normal has zero entries."""
    pm = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    inf = np.inf
    cases = [
        # repeated entries: tied knots on both sides
        (0.0, 1.0, pm, 0.0, [0.5, 0.5, 0.5, -0.2, -0.2, 0.5]),
        (0.0, 1.0, np.ones(5), 1.0, np.full(5, 0.3)),
        # r vanishes on the whole segment between the knots t = 0.5 and t = 1
        (0.0, 1.0, np.array([1.0, 1.0]), 1.0, [2.0, 0.5]),
        # zero normal entries: those coordinates are only clipped
        (-1.0, 2.0, np.array([1.0, 0.0, -1.0, 0.0, 2.0]), 0.5, [3.0, -4.0, 0.1, 0.7, -2.0]),
        # upper = inf with mixed signs
        (0.0, inf, np.array([1.0, -1.0, 2.0, -0.5]), 0.3, [-1.0, 2.0, 0.4, -3.0]),
        (0.0, inf, -np.ones(2), -3.0, [1.0, 2.5]),
        # root on the open end segments before the first and after the last knot
        (0.0, inf, np.ones(2), 10.0, [0.0, 0.0]),
        (0.0, inf, -np.ones(2), -10.0, [0.0, 0.0]),
        # the simplex as a box-hyperplane set, unbounded and boxed
        (0.0, inf, np.ones(6), 1.0, [0.9, -0.3, 0.2, 0.9, 1.4, -2.0]),
        (0.0, 1.0, np.ones(6), 1.0, [0.9, -0.3, 0.2, 0.9, 1.4, -2.0]),
        # single-point sets: every coordinate pinned, no free coordinate left
        (0.0, 1.0, np.ones(3), 3.0, [0.3, 2.0, -1.0]),
        (0.0, 1.0, pm, -3.0, [0.7, 0.2, 0.1, 0.9, -0.4, 0.5]),
        # feasible input comes back unchanged
        (0.0, 1.0, pm, 0.0, [0.2, 0.3, 0.6, 0.1, 0.4, 0.8]),
    ]
    return [(BoxHyperplaneSet(lower=lo, upper=up, normal=normal, offset=off), np.asarray(v, float))
            for lo, up, normal, off, v in cases]


def test_box_hyperplane_general_sets_match_qp_oracle():
    rng = make_rng(14, 23)
    cases = []
    for trial in range(20):
        n = int(rng.integers(3, 12))
        normal = rng.standard_normal(n)
        while not np.any(normal != 0):
            normal = rng.standard_normal(n)
        lower = float(rng.uniform(-2.0, 0.0))
        upper = float(rng.uniform(0.5, 3.0))
        reach_lo = lower * normal[normal > 0].sum() + upper * normal[normal < 0].sum()
        reach_hi = upper * normal[normal > 0].sum() + lower * normal[normal < 0].sum()
        offset = float(rng.uniform(reach_lo, reach_hi))
        s = BoxHyperplaneSet(lower=lower, upper=upper, normal=normal, offset=offset)
        cases.append((s, rng.standard_normal(n) * 3))
    degenerate = _degenerate_box_hyperplane_cases()
    cases += degenerate
    # one set shaped like the multi-kernel SVM dual at n = 60
    cases.append((_svm_box(60, rng, box_c=0.5), rng.standard_normal(60)))
    # wide boxes: the oracle's KKT check has to follow the scale of the data
    for upper in (1e3, 1e6):
        for _ in range(5):
            normal = np.where(rng.uniform(size=6) < 0.5, -1.0, 1.0)
            cases.append((BoxHyperplaneSet(lower=0.0, upper=upper, normal=normal),
                          rng.uniform(-3.0, 3.0, 6) * upper))
    for i, (s, v) in enumerate(cases):
        fast = project_box_hyperplane(s, v)
        np.testing.assert_allclose(fast, _box_hyperplane_qp(s, v), atol=1e-8, err_msg=str(i))
        assert abs(s.normal @ fast - s.offset) <= 1e-12 * max(1.0, np.abs(s.normal) @ np.abs(v)), i
    feasible, v = degenerate[-1]
    np.testing.assert_allclose(project_box_hyperplane(feasible, v), v, rtol=0, atol=1e-15)
    simplex, v = degenerate[8]
    np.testing.assert_allclose(project_box_hyperplane(simplex, v), project_simplex(v), atol=1e-15)


def _box_hyperplane_bisect(s, v):
    """The earlier breakpoint search, kept as the slow reference: it finds
    the bracketing knots by a binary search with one direct residual per
    probe instead of cumulative slopes."""
    w = np.asarray(v, dtype=float)
    n, lower, upper = s.normal, s.lower, s.upper
    nz = n != 0.0
    knots = np.unique(np.concatenate(((w[nz] - lower) / n[nz], (w[nz] - upper) / n[nz])))
    knots = knots[np.isfinite(knots)]  # upper = inf has no upper knots

    def negative(t: float) -> bool:
        return float(n @ np.clip(w - t * n, lower, upper)) < s.offset

    # first knot with r < 0; the root lies between it and the knot before,
    # or on an open end segment past the first or the last knot
    j = bisect.bisect_left(knots, True, key=negative)
    left = knots[j - 1] if j > 0 else knots[0] - 1.0 - abs(knots[0])
    right = knots[j] if j < knots.size else knots[-1] + 1.0 + abs(knots[-1])
    t = 0.5 * (left + right)
    y = np.clip(w - t * n, lower, upper)
    free = (y > lower) & (y < upper)
    slope = float(n[free] @ n[free])
    if slope > 0.0:  # otherwise r is constant (zero) on the segment and any t in it is a root
        t = (float(n @ np.where(free, w, y)) - s.offset) / slope
    return np.clip(w - t * n, lower, upper)


def _random_box_hyperplane_cases(count, rng):
    """Sets with +-1 or Gaussian normals (a fifth of their entries zero),
    ``upper`` from 0.1 to 1e6 or infinite, and 2 to 300 coordinates."""
    uppers = (0.1, 1.0, 10.0, 1e3, 1e6, np.inf)
    cases = []
    for trial in range(count):
        n = int(rng.integers(2, 301))
        if trial % 2:
            normal = rng.standard_normal(n)
            normal[rng.uniform(size=n) < 0.2] = 0.0
        else:
            normal = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        normal[0] = normal[0] or 1.0
        upper = uppers[trial % len(uppers)]
        # offset 0 as in the SVM dual, or <normal, y> at a random point of the box
        inside = rng.uniform(0.0, min(upper, 1e3), n)
        offset = 0.0 if trial % 4 < 2 else float(normal @ inside)
        scale = min(upper, 1e6) * 10.0 ** rng.uniform(-1.0, 2.0)
        cases.append((BoxHyperplaneSet(lower=0.0, upper=upper, normal=normal, offset=offset),
                      rng.standard_normal(n) * scale))
    return cases


def test_box_hyperplane_matches_the_bisection_search():
    # the cumulative slopes lose digits on wide boxes; these sets include
    # ones where the direct residuals have to move the bracket
    cases = _random_box_hyperplane_cases(2000, make_rng(16, 25)) + _degenerate_box_hyperplane_cases()
    for i, (s, v) in enumerate(cases):
        np.testing.assert_array_equal(project_box_hyperplane(s, v), _box_hyperplane_bisect(s, v),
                                      err_msg=str(i))


def test_oracle_flags_wrong_projection():
    # box-only clipping is not the box-hyperplane projection; a correct
    # indicator oracle must notice
    rng = make_rng(15, 24)
    labels = np.where(rng.uniform(size=8) < 0.5, -1.0, 1.0)
    labels[:2] = (1.0, -1.0)
    s = BoxHyperplaneSet(lower=0.0, upper=1.0, normal=labels, offset=0.0)
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
