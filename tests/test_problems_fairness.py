import numpy as np
import pytest

from ogaprox.problem import validate_problem
from ogaprox.problems import FairnessProblem
from ogaprox.problems import fairness as fairness_module
from ogaprox.qp import QpProblem, QpStatus, solve_qp
from ogaprox.rng import make_rng
from ogaprox.schedule import default_adaptive
from ogaprox.solver import run

from _oracles import prox_oracle


def _random_rows(rng, sizes=(8, 12), dim=5):
    """Features, +-1 labels and group ids of random groups of ``sizes`` rows,
    drawn group by group and stacked in that order."""
    feats, labels = [], []
    for size in sizes:
        feats.append(rng.standard_normal((size, dim)))
        labels.append(np.where(rng.uniform(size=size) < 0.5, -1.0, 1.0))
    return np.vstack(feats), np.concatenate(labels), np.repeat(np.arange(len(sizes)), sizes)


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
    p = FairnessProblem(feats, labels, np.zeros(3))
    x = np.array([0.5, 0.0])
    # margins: 1-0.5, 1+0, 1+0.5 -> hinges 0.5, 1.0, 1.5 -> mean 1.0
    np.testing.assert_allclose(p.group_losses(x), [1.0])
    np.testing.assert_allclose(p.grad_y(x, np.array([1.0])), [1.0])


def test_lipschitz_constant_formula():
    rng = make_rng(80, 0)
    feats, labels, ids = _random_rows(rng)
    p = FairnessProblem(feats, labels, ids)
    expected = np.sqrt(sum(np.sum(feats[ids == g]**2) / np.sum(ids == g) for g in (0, 1)))
    assert p.constants.l_yx == pytest.approx(expected, rel=1e-12)
    assert p.constants.l_yy == 0.0


def test_prox_x_zero_tau_identity():
    rng = make_rng(81, 0)
    p = FairnessProblem(*_random_rows(rng))
    x = rng.standard_normal(p.dim_x)
    y = np.full(p.dim_y, 1.0 / p.dim_y)
    np.testing.assert_array_equal(p.prox_phi_x(0.0, y, x), x)


def test_prox_x_single_active_group_matches_coordinate_ascent():
    rng = make_rng(82, 0)
    p = FairnessProblem(*_random_rows(rng, sizes=(20,), dim=5))
    x = rng.standard_normal(5)
    tau = 0.6
    y = np.array([1.0])
    ours = p.prox_phi_x(tau, y, x)
    weights = np.full(20, tau / 20.0)
    reference = _hinge_prox_reference(p.signed, weights, x)
    np.testing.assert_allclose(ours, reference, atol=1e-5)


def test_prox_x_zero_weight_group_is_ignored():
    rng = make_rng(83, 0)
    feats, labels, ids = _random_rows(rng, sizes=(6, 9), dim=4)
    p = FairnessProblem(feats, labels, ids)
    single = FairnessProblem(feats[6:], labels[6:], ids[6:])
    x = rng.standard_normal(4)
    tau = 0.8
    ours = p.prox_phi_x(tau, np.array([0.0, 1.0]), x)
    expected = single.prox_phi_x(tau, np.array([1.0]), x)
    np.testing.assert_allclose(ours, expected, atol=1e-7)


def test_prox_x_oracle_random_instances():
    rng = make_rng(84, 0)
    p = FairnessProblem(*_random_rows(rng, sizes=(10, 10), dim=5))
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
    rows = []
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
        rows.append((feats, labels, np.full(size, len(rows))))
    p = FairnessProblem(*(np.concatenate(part) for part in zip(*rows)))
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


@pytest.mark.parametrize("tau", [1e-3, 0.1, 1.0, 10.0])
def test_prox_x_warm_start_on_more_kinks_than_dim_x_matches_the_cold_start(monkeypatch, tau):
    # x lies on 7 kinks in 3 dimensions, two of them the same row; the warm
    # start keeps an independent subset (at most dim_x rows), and a negative
    # tolerance gives the cold start from an empty working set
    rng = make_rng(88, 0)
    feats, labels, ids = _random_rows(rng, sizes=(8, 10), dim=3)
    x = rng.standard_normal(3)
    signed = labels[:, None] * feats
    on_kink = [0, 2, 5, 9, 11, 14, 15]
    signed[on_kink] += np.outer(1.0 - signed[on_kink] @ x, x / (x @ x))
    signed[2] = signed[0]
    p = FairnessProblem(labels[:, None] * signed, labels, ids)
    norms = np.linalg.norm(p.signed, axis=1)
    assert np.sum(np.abs(1.0 - p.signed @ x) <= 1e-12 * (1.0 + norms * np.linalg.norm(x))) == 7
    y = np.array([0.3, 0.7])
    warm = p.prox_phi_x(tau, y, x)
    monkeypatch.setattr(fairness_module, "_KINK_TOL", -1.0)
    cold = p.prox_phi_x(tau, y, x)
    expected = _slack_qp_prox(p, tau, y, x)
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(warm, expected, rtol=0, atol=1e-9 * scale)


def test_single_group_run_reduces_to_proximal_point():
    rng = make_rng(85, 0)
    p = FairnessProblem(*_random_rows(rng, sizes=(15,), dim=4))
    kind = default_adaptive(p.constants)
    x0 = np.zeros(4)
    y0 = np.array([1.0])
    state, _ = run(p, kind, x0, y0, max_iter=20)
    x_manual = x0.copy()
    for _ in range(20):
        x_manual = p.prox_phi_x(kind.tau0, y0, x_manual)
    np.testing.assert_allclose(state.x, x_manual, atol=1e-8)
    np.testing.assert_allclose(state.y, y0, atol=1e-12)


def test_single_group_y_prox_is_exactly_one():
    # the 1-entry simplex is {[1.0]}; a step's input y + sigma * loss is at
    # least 1, where the sort-and-threshold projection gives [1.0] exactly,
    # in a fresh array on each call
    p = FairnessProblem(*_random_rows(make_rng(85, 1), sizes=(9,), dim=3))
    outs = [p.prox_g(0.5, v) for v in ([1.0], [1.25], np.array([3.0e6]), [1.0 + 2.0**-52])]
    for out in outs:
        assert out.tobytes() == np.ones(1).tobytes()
    assert len({id(out) for out in outs}) == len(outs)
    for v, message in (([np.nan], "v must be finite"), ([np.inf], "v must be finite"),
                       ([], "v must be a nonempty 1-d vector"),
                       (np.ones((1, 1)), "v must be a nonempty 1-d vector")):
        with pytest.raises(ValueError, match=message):
            p.prox_g(0.5, v)


def test_validation_clean():
    p = FairnessProblem(*_random_rows(make_rng(86, 0), sizes=(6, 7), dim=3))
    report = validate_problem(p, trials=25, seed=4)
    assert report.ok, (report.lipschitz_violation, report.prox_violation)


def test_accuracy_helper_sign_convention():
    p = FairnessProblem(np.array([[1.0], [0.0]]), np.array([1.0, 1.0]), np.zeros(2))
    # score 0 predicts +1
    assert p.accuracy(np.array([1.0]), np.array([[0.0]]), np.array([1.0])) == 100.0
    assert p.accuracy(np.array([1.0]), np.array([[0.0]]), np.array([-1.0])) == 0.0


def test_group_validation():
    feats = np.ones((2, 3))
    with pytest.raises(ValueError, match="features must be 2-d with at least one row"):
        FairnessProblem(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="features must be 2-d with at least one row"):
        FairnessProblem(np.ones(3), np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match="labels must be"):
        FairnessProblem(feats, np.array([1.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError, match="labels must be"):
        FairnessProblem(feats, np.ones(3), np.zeros(2))


@pytest.mark.parametrize("call, message", [
    (lambda: FairnessProblem(np.ones((2, 2)), np.ones(2), np.zeros(3)),
     "groups must hold one id per sample"),
    (lambda: FairnessProblem(np.ones((2, 2)), np.ones(2), np.zeros(2)).prox_phi_x(
        -1.0, np.ones(1), np.zeros(2)),
     "tau must be nonnegative"),
], ids=["dimensions", "negative-tau"])
def test_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_features(bad):
    feats = np.ones((3, 2))
    feats[1, 0] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        FairnessProblem(feats, np.ones(3), np.zeros(3))


def test_rows_are_grouped_by_ascending_id_in_their_given_order():
    # ids given out of order: y weights 2, 5, 9; each group keeps its rows' order
    feats, labels, _ = _random_rows(make_rng(87, 1), sizes=(7,), dim=3)
    ids = np.array([5, 2, 9, 5, 2, 2, 5])
    p = FairnessProblem(feats, labels, ids)
    order = [1, 4, 5, 0, 3, 6, 2]
    np.testing.assert_array_equal(p.signed, labels[order, None] * feats[order])
    np.testing.assert_array_equal(p.row_group, [0, 0, 0, 1, 1, 1, 2])
    np.testing.assert_array_equal(p.group_sizes, [3.0, 3.0, 1.0])
    x = make_rng(87, 2).standard_normal(3)
    hinge = np.maximum(0.0, 1.0 - labels * (feats @ x))
    np.testing.assert_allclose(p.group_losses(x), [np.mean(hinge[ids == g]) for g in (2, 5, 9)],
                               rtol=1e-14)
