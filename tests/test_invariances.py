"""Metamorphic relations: relabelling a problem's data moves no iterate.

Each test runs the iteration on an instance and on a relabelled copy of it
and compares every iterate and the final ergodic pair after undoing the
permutation the relabelling makes of the variables (for the quadratic, the
rotation it makes of them).  No
second statement of a formula is involved, so a mistake made in the code and
in an oracle alike still shows.  The deviation is the largest entry
difference relative to ``max(1, largest entry)`` of the reference; the copy
sums in another order, so it is roundoff.  Over seeds 0-9 of these instances
it stayed at or below 3.8e-15 (fairness, 500 steps), 1.2e-15 (MKSVM kernels
permuted, 1,000 steps), 1.4e-15 (MKSVM training rows permuted, 1,000 steps,
where the y-prox sums ``<v, labels>`` and its margins in another order),
1.5e-14 (toy, 1,000 steps, where the ergodic sums of ``y`` carry it) and
3.5e-15 (quadratic rotated, 1,000 steps: 3.5e-15 at ``nu = 0``, 1.4e-15 at
``nu = 0.5`` and 1.1e-15 under the linear law).  Each
tolerance is about ten times that largest deviation; the tests run seed 0.
"""

import numpy as np
import pytest

from ogaprox.problems import (FairnessProblem, MkSvmProblem, QuadraticSaddleProblem, ToyProblem,
                              random_toy_problem)
from ogaprox.problems.mksvm import build_kernels, conjugated_kernels
from ogaprox.prox import BoxHyperplaneSet, project_box_hyperplane
from ogaprox.rng import make_rng
from ogaprox.schedule import default_adaptive, default_linear
from ogaprox.solver import run

FAIRNESS_TOL = 4e-14
MKSVM_TOL = 1e-14
MKSVM_ROW_TOL = 1.5e-14
TOY_TOL = 2e-13
QUADRATIC_TOL = 3.5e-14


def _trajectory(problem, kind, x0, y0, steps):
    """Every ``x_k`` and ``y_k`` stacked by rows, then the ergodic pair."""
    xs, ys = [], []

    def keep(k, state, sched):
        xs.append(state.x.copy())
        ys.append(state.y.copy())

    state, _ = run(problem, kind, x0, y0, steps, callbacks=(keep,))
    return (np.array(xs), np.array(ys), *state.ergodic())


def _deviation(runs, reference) -> float:
    return max(float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))
               for a, b in zip(runs, reference, strict=True))


# -- fairness: group means are all the problem reads of its rows --------------

def _fairness_run(feats, labels, groups):
    p = FairnessProblem(feats, labels, groups)
    return _trajectory(p, default_adaptive(p.constants), np.zeros(p.dim_x),
                       np.full(p.dim_y, 1.0 / p.dim_y), 500)


def _fairness_deviations(seed, sizes=(12, 18), dim=4) -> dict[str, float]:
    """Deviation of each fairness relation from the run on the given rows."""
    rng = make_rng(seed, 0)
    n = sum(sizes)
    feats = rng.standard_normal((n, dim))
    noisy = feats @ rng.standard_normal(dim) + 0.8 * rng.standard_normal(n)
    labels, groups = np.where(noisy >= 0.0, 1.0, -1.0), np.repeat(np.arange(len(sizes)), sizes)
    reference = _fairness_run(feats, labels, groups)
    # a second copy of every row of group 1 leaves every group mean, and the constants, as they are
    twice = groups == 1
    copied = _fairness_run(np.vstack([feats, feats[twice]]),
                           np.concatenate([labels, labels[twice]]),
                           np.concatenate([groups, groups[twice]]))
    xs, ys, x_bar, y_bar = _fairness_run(feats, labels, 1 - groups)
    order = make_rng(seed, 1).permutation(n)
    return {"copy": _deviation(copied, reference),
            "swap": _deviation((xs, ys[:, ::-1], x_bar, y_bar[::-1]), reference),
            "shuffle": _deviation(_fairness_run(feats[order], labels[order], groups[order]),
                                  reference)}


@pytest.fixture(scope="module")
def fairness():
    return _fairness_deviations(0)


def test_fairness_second_copy_of_a_group_moves_no_iterate(fairness):
    assert fairness["copy"] <= FAIRNESS_TOL


def test_fairness_swapped_group_ids_reverse_y(fairness):
    assert fairness["swap"] <= FAIRNESS_TOL


def test_fairness_shuffled_rows_move_no_iterate(fairness):
    assert fairness["shuffle"] <= FAIRNESS_TOL


# -- MKSVM: the kernels are a set -------------------------------------------------

def _mksvm_deviation(seed, mu, nu) -> float:
    """Deviation of the run on the kernels in the order 2, 0, 1, permuted back."""
    rng = make_rng(seed, 2)
    n = 40
    feats = rng.standard_normal((n, 3))
    noisy = feats @ rng.standard_normal(3) + 0.5 * rng.standard_normal(n)
    labels = np.where(noisy >= 0.0, 1.0, -1.0)
    labels[:2] = 1.0, -1.0
    mats = conjugated_kernels(build_kernels(feats), np.arange(n), labels)
    order = [2, 0, 1]
    runs = []
    for blocks in (mats, [mats[i] for i in order]):
        p = MkSvmProblem(blocks, labels, box_c=1.0, mu=mu, nu=nu)
        kind = default_linear(p.constants) if mu > 0 else default_adaptive(p.constants)
        runs.append(_trajectory(p, kind, np.full(3, 1.0 / 3.0), np.zeros(n), 1000))
    reference, (xs, ys, x_bar, y_bar) = runs
    back = np.argsort(order)
    return _deviation((xs[:, back], ys, x_bar[back], y_bar), reference)


@pytest.mark.parametrize("mu, nu", [(0.0, 0.0), (0.0, 0.5), (1.0, 0.5)], ids=["c1", "a", "c2"])
def test_mksvm_permuted_kernels_permute_x_and_keep_y(mu, nu):
    assert _mksvm_deviation(0, mu, nu) <= MKSVM_TOL


def _mksvm_row_deviation(seed, mu, nu) -> float:
    """Deviation of the run on the training rows in a random order, ``y`` permuted back."""
    rng = make_rng(seed, 6)
    n = 40
    feats = rng.standard_normal((n, 3))
    noisy = feats @ rng.standard_normal(3) + 0.5 * rng.standard_normal(n)
    labels = np.where(noisy >= 0.0, 1.0, -1.0)
    labels[:2] = 1.0, -1.0
    kernels = build_kernels(feats)
    y0 = project_box_hyperplane(BoxHyperplaneSet(upper=1.0, normal=labels),
                                rng.uniform(0.0, 1.0, n))
    order = make_rng(seed, 7).permutation(n)
    runs = []
    for rows in (np.arange(n), order):  # gathering the blocks by ``rows`` is exact
        p = MkSvmProblem(conjugated_kernels(kernels, rows, labels[rows]), labels[rows],
                         box_c=1.0, mu=mu, nu=nu)
        kind = default_linear(p.constants) if mu > 0 else default_adaptive(p.constants)
        runs.append(_trajectory(p, kind, np.full(3, 1.0 / 3.0), y0[rows], 1000))
    reference, (xs, ys, x_bar, y_bar) = runs
    back = np.argsort(order)
    return _deviation((xs, ys[:, back], x_bar, y_bar[back]), reference)


@pytest.mark.parametrize("mu, nu", [(0.0, 0.0), (0.0, 0.5), (1.0, 0.5)], ids=["c1", "a", "c2"])
def test_mksvm_permuted_rows_permute_y_and_keep_x(mu, nu):
    assert _mksvm_row_deviation(0, mu, nu) <= MKSVM_ROW_TOL


# -- toy: rows of A index x, its columns y -------------------------------------

def _toy_deviation(seed, nu, d=30, n=40) -> float:
    """Deviation of the run on ``A`` with permuted rows and columns, permuted back."""
    rng = make_rng(seed, 3)
    p = random_toy_problem(d, n, nu, rng)
    x0 = rng.uniform(-5.0, 5.0, d)
    y0 = p.prox_g(1.0, rng.uniform(-5.0, 5.0, n))
    rows, cols = make_rng(seed, 4).permutation(d), make_rng(seed, 5).permutation(n)
    q = ToyProblem(p.a[rows][:, cols], nu=nu)
    kind = default_adaptive(p.constants)  # one schedule: q's SVD norm can be a few ulps apart
    reference = _trajectory(p, kind, x0, y0, 1000)
    xs, ys, x_bar, y_bar = _trajectory(q, kind, x0[rows], y0[cols], 1000)
    back_x, back_y = np.argsort(rows), np.argsort(cols)
    return _deviation((xs[:, back_x], ys[:, back_y], x_bar[back_x], y_bar[back_y]), reference)


@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_toy_permuted_rows_and_columns_permute_x_and_y(nu):
    assert _toy_deviation(0, nu) <= TOY_TOL


# -- quadratic: a rotation of x and of y rotates the iterates --------------------

def _quadratic_rotation_deviation(seed, mu, nu, d=10, n=8) -> float:
    """Deviation of the run on ``V'AU``, started at ``U'x0`` and ``V'y0``, rotated back."""
    rng = make_rng(seed, 8)
    a = rng.standard_normal((n, d))
    x0, y0 = rng.standard_normal(d), rng.standard_normal(n)
    u, v = (np.linalg.qr(rng.standard_normal((m, m)))[0] for m in (d, n))
    p = QuadraticSaddleProblem(a, mu=mu, nu=nu)
    q = QuadraticSaddleProblem(v.T @ a @ u, mu=mu, nu=nu)
    # one schedule: q's spectral norm can be a few ulps apart
    kind = default_linear(p.constants) if mu > 0 else default_adaptive(p.constants)
    reference = _trajectory(p, kind, x0, y0, 1000)
    xs, ys, x_bar, y_bar = _trajectory(q, kind, u.T @ x0, v.T @ y0, 1000)
    return _deviation((xs @ u.T, ys @ v.T, u @ x_bar, v @ y_bar), reference)


@pytest.mark.parametrize("mu, nu", [(0.0, 0.0), (0.0, 0.5), (1.0, 0.5)],
                         ids=["nu0", "nu0.5", "linear"])
def test_quadratic_rotated_variables_rotate_the_iterates(mu, nu):
    assert _quadratic_rotation_deviation(0, mu, nu) <= QUADRATIC_TOL
