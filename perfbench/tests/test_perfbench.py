"""Tests of the benchmark itself: inputs, hooks, metrics and a reduced run.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import contextlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ogaprox import experiments, prox, qp, report, solver
from ogaprox.datasets import DatasetSpec, load_dataset
from ogaprox.problems import MkSvmProblem, ToyProblem, mksvm

from perfbench import datagen, hooks, measure, run, workloads

ROOT = Path(__file__).resolve().parents[2]


def _load(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return load_dataset(DatasetSpec(name=name.split(".")[0], path=str(path)))


def test_ionosphere_file_loads_with_expected_shape(tmp_path):
    with pytest.warns(UserWarning, match="constant"):
        data = _load(tmp_path, "ionosphere.data", datagen.ionosphere_text(5))
    assert data.features.shape == (351, 33)  # the constant column 1 is dropped
    assert data.dropped_columns == (1,)
    assert set(np.unique(data.labels)) == {-1.0, 1.0}


def test_heart_file_loads_with_groups(tmp_path):
    data = _load(tmp_path, "heart-disease.dat", datagen.heart_text(5))
    assert data.features.shape == (270, 13)
    assert set(np.unique(data.labels)) == {-1.0, 1.0}
    assert set(np.unique(data.groups["sex"])) == {0, 1}
    assert set(np.unique(data.groups["age"])) == {0, 1, 2}


def test_generated_files_depend_only_on_the_seed():
    assert datagen.heart_text(3) == datagen.heart_text(3)
    assert datagen.heart_text(3) != datagen.heart_text(4)
    assert datagen.ionosphere_text(3) == datagen.ionosphere_text(3)
    assert datagen.ionosphere_text(3) != datagen.ionosphere_text(4)


def _bindings():
    """Every ogaprox module attribute and class method the hooks may replace."""
    seen = {}
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "ogaprox":
            seen.update({(key, k): v for k, v in vars(module).items() if callable(v)})
    for cls in (ToyProblem, MkSvmProblem, prox.PolytopeProjector, report.RunReport):
        seen.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return seen


def test_hooks_restore_everything_even_on_error():
    before = _bindings()
    originals = (experiments.run, solver.step, qp.solve_qp, mksvm.project_box_hyperplane,
                 ToyProblem.saddle_point)
    tracer = hooks.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with contextlib.ExitStack() as stack:
            hooks.RunClock(tracer=tracer).install(stack)
            assert not hooks.install_layer_hooks(stack, tracer)
            installed = (experiments.run, solver.step, qp.solve_qp,
                         mksvm.project_box_hyperplane, ToyProblem.saddle_point)
            assert all(new is not old for new, old in zip(installed, originals))
            raise RuntimeError("boom")
    assert _bindings() == before


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(hooks, "LAYER_HOOKS", hooks.LAYER_HOOKS + (
        ("prox.gone", "ogaprox.prox", "no_such_function", None),
        ("nowhere.gone", "ogaprox.no_such_module", "f", None),
    ))
    with contextlib.ExitStack() as stack:
        absent = hooks.install_layer_hooks(stack, hooks.Tracer())
    assert absent == {"prox.gone", "nowhere.gone"}


def test_self_time_subtracts_direct_children():
    spans = [
        [hooks.RUN_SPAN, 0.0, 10.0, -1],
        ["solver.step", 1.0, 5.0, 0],
        ["problems.prox_g", 2.0, 3.0, 1],
        ["qp.solve_qp", 11.0, 12.0, -1],
    ]
    layers = hooks.summarize(spans)
    assert layers[hooks.RUN_SPAN].self_total == 6.0
    assert layers["solver.step"].self_total == 3.0
    assert layers["problems.prox_g"].in_run == 1.0
    assert layers["qp.solve_qp"].in_run == 0.0


@pytest.mark.parametrize("n, p", [(5000, 0.99), (100, 0.9), (10, 0.5)])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, p):
    assert measure.tail_percentile(list(range(n)))[0] == pytest.approx(p)


def test_benchmark_json_names_every_metric_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == measure.per_layer_names()
    # fairness-heart runs on request but is not gated (see README, Steadiness)
    assert [w["name"] for w in spec["workloads"]] == ["toy-cone", "mksvm-ionosphere"]
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_golden_values_cover_every_workload_and_accuracies_are_meaningful():
    golden = workloads.load_golden()
    assert set(golden) == set(workloads.WORKLOADS)
    # the generated features carry the class: well above the 56-64% majority share
    accuracies = [v for w in golden.values() for k, v in w.items() if ".tsa" in k]
    assert len(accuracies) == 3 and all(80.0 < a < 100.0 for a in accuracies)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_passes_its_checks(tmp_path, name, trace):
    result, lines = measure.run_workload(name, seed=3, seconds=0.0, trace=trace,
                                         root=tmp_path, small=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = measure.per_layer_names() if trace else measure.END_TO_END
    assert [key for key, _ in expected] == list(result["metrics"])
    if trace:
        assert (tmp_path / ".perfbench_work" / f"{name}-seed3-trace1" / "trace.json").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert experiments.run is solver.run
