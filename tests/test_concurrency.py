"""Problems are shared read-only across concurrent runs."""

import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ogaprox.experiments import _build_kernels, mksvm_experiment
from ogaprox.problems import (
    FairnessProblem,
    Group,
    MkSvmProblem,
    QuadraticSaddleProblem,
    random_toy_problem,
)
from ogaprox.problems.mksvm import conjugated_kernels
from ogaprox.rng import make_rng
from ogaprox.schedule import default_adaptive
from ogaprox.solver import run


def test_shared_problem_concurrent_runs_match_sequential():
    problem = random_toy_problem(10, 14, 0.0, make_rng(120, 0))
    kind = default_adaptive(problem.constants)
    starts = []
    for i in range(6):
        rng = make_rng(120, 1, i)
        starts.append((rng.uniform(-5, 5, 10), problem.prox_g(1.0, rng.uniform(-5, 5, 14))))

    sequential = [run(problem, kind, x0, y0, max_iter=300).state.x for x0, y0 in starts]
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [pool.submit(run, problem, kind, x0, y0, 300) for x0, y0 in starts]
        concurrent = [f.result().state.x for f in futures]
    for seq, conc in zip(sequential, concurrent):
        np.testing.assert_array_equal(conc, seq)


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
    if name == "mksvm":
        mats = conjugated_kernels(_build_kernels(feats), np.arange(18), labels[:18])
        return MkSvmProblem(mats, labels[:18], box_c=1.0, mu=0.5, nu=0.5)
    return FairnessProblem([Group(feats[:12], labels[:12]), Group(feats[12:], labels[12:])])


@pytest.mark.parametrize(
    "name", ["toy nu=0", "toy nu=0.3", "bilinear", "quadratic", "mksvm", "fairness"])
def test_run_leaves_problem_unchanged(name):
    problem = _small_problem(name, make_rng(122, 0))
    x0, y0 = problem.sample_point(make_rng(122, 1))
    before = pickle.dumps(problem)
    run(problem, default_adaptive(problem.constants), x0, y0, max_iter=40)
    assert pickle.dumps(problem) == before
