import numpy as np
import pytest

from ogaprox.problem import validate_problem
from ogaprox.problems import FairnessProblem, Group
from ogaprox.qp import QpProblem, QpStatus, solve_qp
from ogaprox.rng import make_rng
from ogaprox.schedule import default_adaptive
from ogaprox.solver import run

from _oracles import prox_oracle


def _random_groups(rng, sizes=(8, 12), dim=5):
    groups = []
    for size in sizes:
        feats = rng.standard_normal((size, dim))
        labels = np.where(rng.uniform(size=size) < 0.5, -1.0, 1.0)
        groups.append(Group(features=feats, labels=labels))
    return groups


def _hinge_prox_reference(signed, weights, x, tol=1e-13, sweeps=200_000):
    """Dual coordinate ascent for min_u sum_j w_j max(0, 1 - (Bu)_j)
    + 0.5||u - x||^2; independent of the QP route."""
    n = signed.shape[0]
    lam = np.zeros(n)
    u = x.copy()
    norms = np.einsum("ij,ij->i", signed, signed)
    for _ in range(sweeps):
        biggest = 0.0
        for j in range(n):
            if norms[j] == 0.0 or weights[j] == 0.0:
                continue
            margin = 1.0 - float(signed[j] @ u)
            new = min(max(lam[j] + margin / norms[j], 0.0), weights[j])
            delta = new - lam[j]
            if delta != 0.0:
                u += delta * signed[j]
                lam[j] = new
                biggest = max(biggest, abs(delta))
        if biggest <= tol:
            break
    return u


def test_group_loss_values():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    labels = np.array([1.0, -1.0, 1.0])
    p = FairnessProblem([Group(feats, labels)])
    x = np.array([0.5, 0.0])
    # margins: 1-0.5, 1+0, 1+0.5 -> hinges 0.5, 1.0, 1.5 -> mean 1.0
    np.testing.assert_allclose(p.group_losses(x), [1.0])
    np.testing.assert_allclose(p.grad_y(x, np.array([1.0])), [1.0])


def test_lipschitz_constant_formula():
    rng = make_rng(80, 0)
    groups = _random_groups(rng)
    p = FairnessProblem(groups)
    expected = np.sqrt(sum(np.sum(g.features**2) / g.size for g in groups))
    assert p.constants.l_yx == pytest.approx(expected, rel=1e-12)
    assert p.constants.l_yy == 0.0


def test_prox_x_zero_tau_identity():
    rng = make_rng(81, 0)
    p = FairnessProblem(_random_groups(rng))
    x = rng.standard_normal(p.dim_x)
    y = np.full(p.dim_y, 1.0 / p.dim_y)
    np.testing.assert_array_equal(p.prox_phi_x(0.0, y, x), x)


def test_prox_x_single_active_group_matches_coordinate_ascent():
    rng = make_rng(82, 0)
    groups = _random_groups(rng, sizes=(20,), dim=5)
    p = FairnessProblem(groups)
    x = rng.standard_normal(5)
    tau = 0.6
    y = np.array([1.0])
    ours = p.prox_phi_x(tau, y, x)
    weights = np.full(20, tau / 20.0)
    reference = _hinge_prox_reference(p.signed, weights, x)
    np.testing.assert_allclose(ours, reference, atol=1e-5)


def test_prox_x_zero_weight_group_is_ignored():
    rng = make_rng(83, 0)
    groups = _random_groups(rng, sizes=(6, 9), dim=4)
    p = FairnessProblem(groups)
    single = FairnessProblem([groups[1]])
    x = rng.standard_normal(4)
    tau = 0.8
    ours = p.prox_phi_x(tau, np.array([0.0, 1.0]), x)
    expected = single.prox_phi_x(tau, np.array([1.0]), x)
    np.testing.assert_allclose(ours, expected, atol=1e-7)


def test_prox_x_oracle_random_instances():
    rng = make_rng(84, 0)
    p = FairnessProblem(_random_groups(rng, sizes=(10, 10), dim=5))
    for trial in range(4):
        x = rng.standard_normal(5) * 1.5
        y = rng.dirichlet(np.ones(2))
        tau = float(rng.uniform(0.1, 1.0))
        cand = p.prox_phi_x(tau, y, x)
        violation = prox_oracle(lambda u: tau * p.phi_value(u, y), x, cand,
                                trials=1000, seed=trial)
        assert violation <= 1e-7


def _slack_qp_prox(p, tau, y, x):
    """Oracle: the weighted-hinge prox as a dense QP in ``(u, xi)`` with one
    slack per row, ``min 0.5||u - x||^2 + w'xi`` subject to ``xi >= 0`` and
    ``xi + S u >= 1``, started at ``u = x`` with each slack on its active bound."""
    d, n = p.dim_x, p.signed.shape[0]
    weights = tau * y[p.row_group] * p.row_weight
    q_mat = np.zeros((d + n, d + n))
    q_mat[:d, :d] = np.eye(d)
    g_mat = np.block([[np.zeros((n, d)), np.eye(n)], [p.signed, np.eye(n)]])
    h_vec = np.concatenate([np.zeros(n), np.ones(n)])
    problem = QpProblem(q_matrix=q_mat, q_vector=np.concatenate([-x, weights]),
                        ineq_matrix=g_mat, ineq_vector=h_vec)
    margins = 1.0 - p.signed @ x
    pins = np.where(margins > 0.0, np.arange(n) + n, np.arange(n))
    result = solve_qp(problem, tol=1e-9, start=np.concatenate([x, np.maximum(margins, 0.0)]),
                      initial_active=tuple(int(i) for i in pins))
    assert result.status is QpStatus.OPTIMAL
    return result.x[:d]


def _oracle_case(rng, trial):
    """A random prox instance; the trial number cycles through integer
    features, a zero row, duplicated rows (equal and opposite labels), a
    zero entry of ``y`` and ``x`` placed on a kink."""
    dim = int(rng.integers(1, 9))
    groups = []
    for size in rng.integers(3, 16, size=int(rng.integers(1, 4))):
        if trial % 2:
            feats = rng.integers(-3, 4, size=(size, dim)).astype(float)
        else:
            feats = rng.standard_normal((size, dim))
        labels = np.where(rng.uniform(size=size) < 0.5, -1.0, 1.0)
        if trial % 5 == 0:
            feats[0] = 0.0
        if trial % 3 == 0:
            feats[1] = feats[2]
            labels[1] = labels[2] if trial % 2 else -labels[2]
        groups.append(Group(feats, labels))
    p = FairnessProblem(groups)
    tau = float(10.0 ** rng.uniform(-8, 3))
    y = rng.dirichlet(np.ones(p.dim_y))
    if trial % 4 == 0 and p.dim_y > 1:
        y[int(rng.integers(p.dim_y))] = 0.0
        y /= y.sum()
    x = rng.standard_normal(dim) * float(rng.choice([0.1, 1.0, 10.0]))
    if trial % 7 == 0:
        row = p.signed[int(rng.integers(p.signed.shape[0]))]
        if np.any(row):
            x = x + (1.0 - row @ x) * row / (row @ row)
    return p, tau, y, x


def test_prox_x_matches_slack_qp_oracle():
    rng = make_rng(87, 0)
    for trial in range(240):
        p, tau, y, x = _oracle_case(rng, trial)
        ours = p.prox_phi_x(tau, y, x)
        expected = _slack_qp_prox(p, tau, y, x)
        scale = max(1.0, float(np.max(np.abs(expected))))
        np.testing.assert_allclose(ours, expected, rtol=0, atol=1e-9 * scale,
                                   err_msg=f"trial {trial}, tau {tau}")


def test_single_group_run_reduces_to_proximal_point():
    rng = make_rng(85, 0)
    p = FairnessProblem(_random_groups(rng, sizes=(15,), dim=4))
    kind = default_adaptive(p.constants)
    x0 = np.zeros(4)
    y0 = np.array([1.0])
    result = run(p, kind, x0, y0, max_iter=20)
    x_manual = x0.copy()
    for _ in range(20):
        x_manual = p.prox_phi_x(kind.tau0, y0, x_manual)
    np.testing.assert_allclose(result.state.x, x_manual, atol=1e-8)
    np.testing.assert_allclose(result.state.y, y0, atol=1e-12)


def test_validation_clean():
    p = FairnessProblem(_random_groups(make_rng(86, 0), sizes=(6, 7), dim=3))
    report = validate_problem(p, trials=25, seed=4)
    assert report.ok, (report.lipschitz_violation, report.prox_violation)


def test_accuracy_helper_sign_convention():
    p = FairnessProblem([Group(np.array([[1.0], [0.0]]), np.array([1.0, 1.0]))])
    # score 0 predicts +1
    assert p.accuracy(np.array([1.0]), np.array([[0.0]]), np.array([1.0])) == 100.0
    assert p.accuracy(np.array([1.0]), np.array([[0.0]]), np.array([-1.0])) == 0.0


def test_group_validation():
    with pytest.raises(ValueError):
        Group(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        Group(np.zeros((2, 3)), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        FairnessProblem([])


@pytest.mark.parametrize("call, message", [
    (lambda: FairnessProblem([Group(np.ones((2, 2)), np.ones(2)),
                              Group(np.ones((2, 3)), np.ones(2))]),
     "all groups must share the feature dimension"),
    (lambda: FairnessProblem([Group(np.ones((2, 2)), np.ones(2))]).prox_phi_x(
        -1.0, np.ones(1), np.zeros(2)),
     "tau must be nonnegative"),
], ids=["dimensions", "negative-tau"])
def test_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()
