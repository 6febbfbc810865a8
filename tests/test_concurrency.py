"""Problems are shared read-only across concurrent runs."""

import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ogaprox.experiments import mksvm_experiment
from ogaprox.problems import (
    FairnessProblem,
    MkSvmProblem,
    QuadraticSaddleProblem,
    random_toy_problem,
)
from ogaprox.problems.mksvm import build_kernels, conjugated_kernels
from ogaprox.rng import make_rng
from ogaprox.schedule import default_adaptive
from ogaprox.solver import run


def _concurrent_runs_match_sequential(problem, starts):
    kind = default_adaptive(problem.constants)
    sequential = [run(problem, kind, x0, y0, max_iter=300).state for x0, y0 in starts]
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [pool.submit(run, problem, kind, x0, y0, 300) for x0, y0 in starts]
        concurrent = [f.result().state for f in futures]
    for seq, conc in zip(sequential, concurrent):
        np.testing.assert_array_equal(conc.x, seq.x)
        np.testing.assert_array_equal(conc.y, seq.y)


def test_shared_problem_concurrent_runs_match_sequential():
    problem = random_toy_problem(10, 14, 0.0, make_rng(120, 0))
    starts = []
    for i in range(6):
        rng = make_rng(120, 1, i)
        starts.append((rng.uniform(-5, 5, 10), problem.prox_g(1.0, rng.uniform(-5, 5, 14))))
    _concurrent_runs_match_sequential(problem, starts)


def test_shared_mksvm_problem_with_a_diagonal_block_concurrent_runs_match_sequential():
    problem = _small_problem("mksvm diagonal", make_rng(122, 0))
    starts = [problem.sample_point(make_rng(120, 2, i)) for i in range(6)]
    _concurrent_runs_match_sequential(problem, starts)


def test_mksvm_experiment_bitwise_replay():
    from ogaprox.datasets import LoadedDataset

    rng = make_rng(121, 0)
    labels = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
    feats = labels[:, None] * rng.standard_normal(3)[None, :] * 0.6 + rng.standard_normal((40, 3))
    feats = (feats - feats.mean(0)) / feats.std(0)
    data = LoadedDataset(name="sonar", features=feats, labels=labels)
    first = mksvm_experiment(data, variant="c1", seed=11, runs=3, checkpoints=(20, 50))
    second = mksvm_experiment(data, variant="c1", seed=11, runs=3, checkpoints=(20, 50))
    assert first.to_json_text() == second.to_json_text()


def _small_problem(name, rng):
    if name.startswith("toy"):
        return random_toy_problem(6, 9, 0.3 if name == "toy nu=0.3" else 0.0, rng)
    if name == "bilinear":
        return QuadraticSaddleProblem(rng.standard_normal((5, 5)), box=(-1.0, 1.0))
    if name == "quadratic":
        return QuadraticSaddleProblem(rng.standard_normal((5, 4)), rng.standard_normal(4),
                                      rng.standard_normal(5), mu=1.0, nu=1.0)
    feats = rng.standard_normal((24, 4))
    labels = np.where(rng.uniform(size=24) < 0.5, -1.0, 1.0)
    labels[:2] = (1.0, -1.0)
    if name.startswith("mksvm"):
        # features scaled by 10: exp(-5 ||a - a'||^2) underflows to 0 off the diagonal
        scale = 10.0 if name == "mksvm diagonal" else 1.0
        mats = conjugated_kernels(build_kernels(scale * feats), np.arange(18), labels[:18])
        return MkSvmProblem(mats, labels[:18], box_c=1.0, mu=0.5, nu=0.5)
    return FairnessProblem(feats, labels, np.arange(24) // 12)


@pytest.mark.parametrize(
    "name", ["toy nu=0", "toy nu=0.3", "bilinear", "quadratic", "mksvm", "mksvm diagonal",
             "fairness", "toy with_nu"])
def test_run_leaves_problem_unchanged(name):
    problem = _small_problem(name, make_rng(122, 0))
    target = problem
    if name == "toy with_nu":  # a run on the derived problem leaves its source unchanged
        target = problem.with_nu(0.3)
        assert target.a is problem.a and target._projector is problem._projector
        assert (problem.constants.nu, target.constants.nu) == (0.0, 0.3)
    x0, y0 = target.sample_point(make_rng(122, 1))
    before = pickle.dumps(problem)
    run(target, default_adaptive(target.constants), x0, y0, max_iter=40)
    assert pickle.dumps(problem) == before


def test_small_mksvm_problem_carries_the_linear_kernel_as_a_factor():
    # the unchanged-problem check above runs the shipped form: two dense
    # kernels and the linear one as its 18 x 4 factor
    problem = _small_problem("mksvm", make_rng(122, 0))
    assert [m.shape for m in problem._blocks] == [(18, 18), (18, 18), (18, 4)]


def test_diagonal_mksvm_problem_keeps_its_gaussian_block_as_a_read_only_diagonal():
    problem = _small_problem("mksvm diagonal", make_rng(122, 0))
    assert [m.shape for m in problem._blocks] == [(18, 18), (18,), (18, 4)]
    assert not any(m.flags.writeable for m in problem._blocks)
