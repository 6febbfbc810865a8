"""Experiment drivers at reduced scale, including synthetic-dataset runs."""

import sys

import numpy as np
import pytest

from ogaprox.datasets import LoadedDataset
from ogaprox.experiments import (
    fairness_experiment,
    log_checkpoints,
    mksvm_experiment,
    synthetic_experiment,
    toy_experiment,
    validation_experiment,
    _trimmed_mean,
)
from ogaprox.rng import make_rng


def _separable_dataset(rng, rows=60, dim=4, noise=0.3, with_groups=False):
    labels = np.where(rng.uniform(size=rows) < 0.5, -1.0, 1.0)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    feats = labels[:, None] * direction[None, :] + noise * rng.standard_normal((rows, dim))
    feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    groups = {}
    if with_groups:
        groups = {"sex": (rng.uniform(size=rows) < 0.5).astype(int)}
    return LoadedDataset(name="heart-disease", features=feats, labels=labels,
                         groups=groups)


def test_log_checkpoints_sorted_unique():
    marks = log_checkpoints(10_000)
    assert marks == sorted(set(marks))
    assert marks[0] == 1 and marks[-1] == 10_000


def test_trimmed_mean_drops_one_min_one_max():
    values = [5.0, 1.0, 9.0, 5.0, 5.0]
    assert _trimmed_mean(values) == pytest.approx(5.0)
    # duplicated extremes: only one copy of each is removed
    assert _trimmed_mean([1.0, 1.0, 9.0, 9.0]) == pytest.approx(5.0)
    # two or fewer values: nothing is dropped, the aggregate is the plain mean
    assert _trimmed_mean([7.0]) == 7.0
    assert _trimmed_mean([2.0, 6.0]) == 4.0


def test_toy_experiment_deterministic_replay():
    a = toy_experiment(seed=5, nu=0.0, d=12, n=18, max_iter=200)
    b = toy_experiment(seed=5, nu=0.0, d=12, n=18, max_iter=200)
    assert a.report.to_json_text() == b.report.to_json_text()
    assert a.report.to_csv_text() == b.report.to_csv_text()


def test_toy_experiment_shares_instance_across_nu():
    a = toy_experiment(seed=6, nu=0.0, d=10, n=15, max_iter=10)
    b = toy_experiment(seed=6, nu=0.3, d=10, n=15, max_iter=10)
    np.testing.assert_array_equal(a.problem.a, b.problem.a)
    np.testing.assert_array_equal(a.x0, b.x0)


def _toy_run(nu):
    out = toy_experiment(seed=8, nu=nu, d=60, n=80, max_iter=300)
    assert len(out.report.step_dx) == 300


def _fairness_run():
    data = _separable_dataset(make_rng(98, 2), rows=70, dim=5, noise=0.5, with_groups=True)
    report = fairness_experiment(data, grouping="sex", seed=3, partitions=1, checkpoints=(40,))
    assert 0.0 <= report.config["with_fairness"]["40"]["overall"] <= 100.0


@pytest.mark.parametrize("experiment", [
    pytest.param(lambda: _toy_run(0.0), id="0.0"),
    pytest.param(lambda: _toy_run(0.3), id="0.3"),
    pytest.param(_fairness_run, id="fairness"),
])
def test_toy_experiment_never_reaches_dense_qp(experiment, monkeypatch):
    def no_qp(*args, **kwargs):
        raise AssertionError("solve_qp called on a fast path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ogaprox" and "solve_qp" in vars(module):
            monkeypatch.setattr(module, "solve_qp", no_qp)
    experiment()


def test_toy_gap_column_positive_and_bounded():
    out = toy_experiment(seed=7, nu=0.0, d=20, n=30, max_iter=500)
    for rec in out.report.records:
        assert rec.gap > 0.0
        assert rec.gap <= out.report.config["d0"] / rec.k + 1e-9


@pytest.mark.parametrize("nu", [0.0, 0.3])
def test_toy_sigma0_alone_fills_tau0(nu):
    out = toy_experiment(seed=7, nu=nu, d=12, n=18, max_iter=20, sigma0=0.01)
    c = out.problem.constants
    tau0, sigma0 = out.report.config["tau0"], out.report.config["sigma0"]
    assert sigma0 == 0.01
    assert (2.0 * c.l_yx * c.l_yx * tau0 + 2.0 * c.l_yy) * sigma0 == pytest.approx(0.9, rel=1e-12)


def test_synthetic_experiment_certificate():
    out = synthetic_experiment(seed=3, dim=10, max_iter=200)
    assert out.report.config["certificate_ok"]
    assert out.report.config["max_certificate_ratio"] <= 1.0 + 1e-8
    assert len(out.report.records) == 200


def test_synthetic_long_horizon_gaps_stay_finite():
    # theta**-k passes the ergodic weight cap near k = 5,500, so the
    # weights must be rescaled as in every other run; the certificate's
    # bound falls below roundoff near k = 650 and underflows to 0 past
    # k = 7,070, so the check must hold against the roundoff floor
    out = synthetic_experiment(seed=3, dim=10, max_iter=7100, record_every=1000)
    gaps = out.report.column("gap")
    assert [r.k for r in out.report.records] == list(range(1000, 7001, 1000)) + [7100]
    assert np.all(np.isfinite(gaps))
    assert out.report.config["certificate_ok"]
    assert np.isfinite(out.report.config["max_certificate_ratio"])
    assert "Infinity" not in out.report.to_json_text()


def test_mksvm_experiment_learns_separable_data():
    rng = make_rng(95, 0)
    data = _separable_dataset(rng, rows=50, dim=4, noise=0.25)
    report = mksvm_experiment(data, variant="c1", seed=1, runs=4,
                              checkpoints=(50, 150), split_fraction=0.8)
    assert [rec.k for rec in report.records] == [50, 150]
    assert report.records[-1].tsa >= 80.0
    assert all(len(scores) == 2 for scores in report.config["per_run"])


@pytest.mark.parametrize("variant", ["a", "c2"])
def test_mksvm_other_variants_run(variant):
    rng = make_rng(96, 0)
    data = _separable_dataset(rng, rows=40, dim=3, noise=0.25)
    report = mksvm_experiment(data, variant=variant, seed=2, runs=3,
                              checkpoints=(40, 120))
    assert report.records[-1].k == 120 and report.records[-1].tsa >= 70.0


@pytest.mark.parametrize("steps", [{"tau0": 0.5}, {"sigma0": 0.5}])
def test_mksvm_linear_variant_rejects_step_sizes(steps):
    data = _separable_dataset(make_rng(96, 1), rows=40, dim=3)
    with pytest.raises(ValueError, match="tau0 and sigma0"):
        mksvm_experiment(data, variant="c2", runs=1, checkpoints=(10,), **steps)


def test_repeated_checkpoints_are_reported_once():
    data = _separable_dataset(make_rng(96, 2), rows=40, dim=3, with_groups=True)
    svm = mksvm_experiment(data, variant="c1", seed=2, runs=1, checkpoints=(5, 5))
    fair = fairness_experiment(data, grouping="sex", seed=2, partitions=1,
                               checkpoints=(5, 5))
    for report in (svm, fair):
        assert [rec.k for rec in report.records] == [5]
        assert list(report.config["checkpoints"]) == [5]


def test_mksvm_aggregation_uses_twelve_minus_extremes():
    rng = make_rng(97, 0)
    data = _separable_dataset(rng, rows=40, dim=3, noise=0.3)
    report = mksvm_experiment(data, variant="c1", seed=3, runs=12, checkpoints=(30,))
    values = [s["30"] for s in report.config["per_run"]]
    assert report.records[0].tsa == pytest.approx(_trimmed_mean(values))
    assert len(values) == 12


def test_fairness_experiment_structure_and_fairness_property():
    rng = make_rng(98, 0)
    data = _separable_dataset(rng, rows=80, dim=4, noise=0.4, with_groups=True)
    report = fairness_experiment(data, grouping="sex", seed=4, partitions=2,
                                 checkpoints=(20, 60))
    for k in ("20", "60"):
        cell = report.config["with_fairness"][k]
        assert "overall" in cell and any(key.startswith("group") for key in cell)
        assert 0.0 <= cell["overall"] <= 100.0
    # one-group grouping makes 'with' and 'without' the same problem
    data_one = _separable_dataset(make_rng(98, 1), rows=60, dim=3, noise=0.4)
    data_one.groups = {"sex": np.zeros(60, dtype=int)}
    same = fairness_experiment(data_one, grouping="sex", seed=4, partitions=2,
                               checkpoints=(15,))
    assert same.config["with_fairness"]["15"]["overall"] == pytest.approx(
        same.config["without_fairness"]["15"]["overall"], abs=1e-12
    )


def test_fairness_unknown_grouping_rejected():
    data = _separable_dataset(make_rng(99, 0), rows=30, dim=3, with_groups=True)
    with pytest.raises(ValueError, match="grouping"):
        fairness_experiment(data, grouping="age")


def test_validation_experiment_all_pass():
    ok, lines = validation_experiment(seed=1, trials=25)
    assert ok, lines
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_fairness_three_group_banding():
    rng = make_rng(100, 0)
    rows, dim = 90, 4
    labels = np.where(rng.uniform(size=rows) < 0.5, -1.0, 1.0)
    feats = labels[:, None] * rng.standard_normal(dim)[None, :] * 0.5
    feats = feats + 0.6 * rng.standard_normal((rows, dim))
    feats = (feats - feats.mean(0)) / feats.std(0)
    bands = rng.integers(0, 3, size=rows)
    data = LoadedDataset(name="heart-disease", features=feats, labels=labels,
                         groups={"age": bands})
    report = fairness_experiment(data, grouping="age", seed=5, partitions=2,
                                 checkpoints=(25,))
    cell = report.config["with_fairness"]["25"]
    group_keys = sorted(k for k in cell if k.startswith("group"))
    assert group_keys == ["group0", "group1", "group2"]
    for key in group_keys + ["overall"]:
        assert 0.0 <= cell[key] <= 100.0


def test_toy_adaptive_gap_bounded_by_ergodic_total():
    # gap <= d0 / T_K with T_K = sum of t_k = tau_k / tau0
    out = toy_experiment(seed=9, nu=0.3, d=15, n=22, max_iter=400)
    taus = np.array(out.report.schedule_trace["tau"])
    totals = np.cumsum(taus / taus[0])
    for rec in out.report.records:
        assert rec.gap <= out.report.config["d0"] / totals[rec.k - 1] + 1e-9
