import numpy as np
import pytest

from ogaprox.prox import (
    BoxHyperplaneSet,
    InfeasibleSetError,
    PolytopeProjector,
    PolytopeSet,
    ProjectionFallbackWarning,
    project_box_hyperplane,
    project_polytope,
    project_simplex,
    prox_oracle,
    prox_positive_part_scaled,
    solve_polytope_dual,
)
from ogaprox.qp import QpProblem, QpStatus, solve_qp
from ogaprox.rng import make_rng


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
    assert abs(s.normal @ y) <= 1e-10
    assert y.min() >= -1e-14 and y.max() <= 1.0 + 1e-14


def test_box_hyperplane_infinite_upper():
    s = BoxHyperplaneSet(lower=0.0, upper=np.inf, normal=np.array([1.0, -1.0]))
    y = project_box_hyperplane(s, np.array([3.0, 1.0]))
    np.testing.assert_allclose(y, [2.0, 2.0], atol=1e-10)


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
        fast = projector.project(v)  # consecutive calls reuse the warm support
        slow = project_polytope(s, v)
        np.testing.assert_allclose(fast, slow, atol=1e-8)
        assert np.min(a @ fast) >= -1e-9


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


def _kernel_projection(a, h, w, free):
    found = solve_polytope_dual(a @ a.T, a @ w - h, free)
    assert found is not None, "pivoting stalled"
    lam, free = found
    assert np.all(lam >= 0.0)
    return w + a.T @ lam, free


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
    rng = make_rng(16, d * 100 + n)
    a = rng.uniform(-3, 3, (d, n))
    free = np.zeros(d, dtype=bool)
    for trial in range(30):
        if trial % 5 == 4 and d >= 2:
            w, expected = _tie_point(a, 0.0, rng)
        else:
            w = rng.standard_normal(n) * rng.uniform(0.5, 8.0)
            expected = None
        fast, free = _kernel_projection(a, 0.0, w, free)  # warm from the last free set
        np.testing.assert_allclose(fast, _qp_projection(a, 0.0, w), atol=1e-9)
        if expected is not None:
            np.testing.assert_allclose(fast, expected, atol=1e-9)


@pytest.mark.parametrize("d,n", _KERNEL_SHAPES)
def test_polytope_kernel_offset_cold_start_matches_qp(d, n):
    rng = make_rng(17, d * 100 + n)
    a = rng.uniform(-3, 3, (d, n))
    h = np.ones(d)
    all_active = np.ones(d, dtype=bool)
    points = [np.zeros(n)] + [rng.standard_normal(n) * 3 for _ in range(5)]
    for w in points:
        fast, _ = _kernel_projection(a, h, w, all_active)
        np.testing.assert_allclose(fast, _qp_projection(a, h, w), atol=1e-9)
        assert np.min(a @ fast - h) >= -1e-9
    if d >= 2:
        w, expected = _tie_point(a, h, rng)
        fast, _ = _kernel_projection(a, h, w, all_active)
        np.testing.assert_allclose(fast, expected, atol=1e-9)
        np.testing.assert_allclose(fast, _qp_projection(a, h, w), atol=1e-9)


def test_polytope_kernel_leaves_arguments_alone():
    rng = make_rng(18, 0)
    a = rng.uniform(-3, 3, (4, 6))
    gram, c = a @ a.T, a @ rng.standard_normal(6) - 1.0
    free = np.ones(4, dtype=bool)
    copies = (gram.copy(), c.copy(), free.copy())
    solve_polytope_dual(gram, c, free)
    for before, after in zip(copies, (gram, c, free)):
        np.testing.assert_array_equal(before, after)


def test_projector_stall_falls_back_to_qp_with_warning(monkeypatch):
    import ogaprox.prox as prox_module

    rng = make_rng(19, 0)
    a = rng.uniform(-3, 3, (5, 8))
    projector = PolytopeProjector(a)
    v = rng.standard_normal(8) * 4
    assert np.min(a @ v) < 0  # the kernel runs, not the feasible shortcut
    monkeypatch.setattr(prox_module, "solve_polytope_dual", lambda gram, c, free: None)
    with pytest.warns(ProjectionFallbackWarning):
        out = projector.project(v)
    np.testing.assert_allclose(out, _qp_projection(a, 0.0, v), atol=1e-9)
    assert projector._warm is None


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


def test_box_hyperplane_general_sets_match_qp_oracle():
    rng = make_rng(14, 23)
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
        v = rng.standard_normal(n) * 3
        fast = project_box_hyperplane(s, v)
        problem = QpProblem(
            q_matrix=np.eye(n), q_vector=-v,
            ineq_matrix=np.vstack([np.eye(n), -np.eye(n)]),
            ineq_vector=np.concatenate([np.full(n, lower), np.full(n, -upper)]),
            eq_matrix=normal[None, :], eq_vector=np.array([offset]),
        )
        result = solve_qp(problem, tol=1e-10)
        assert result.status is QpStatus.OPTIMAL, trial
        np.testing.assert_allclose(fast, result.x, atol=1e-8)


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
