import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ogaprox import cli
from ogaprox.cli import main, parse_config
from ogaprox.problems import MkSvmProblem
from ogaprox.report import CSV_COLUMNS, MetricRecord, RunReport
from ogaprox.rng import make_rng


# -- report -------------------------------------------------------------------

def test_empty_report_header_only_csv(tmp_path):
    report = RunReport()
    path = tmp_path / "empty.csv"
    report.to_csv(path)
    assert path.read_text().strip() == ",".join(CSV_COLUMNS)


def test_csv_schema_and_empty_cells(tmp_path):
    report = RunReport()
    report.add(MetricRecord(k=10, gap=0.5, theta=1.0, tau=0.1, sigma=0.2))
    report.add(MetricRecord(k=20, tsa=97.45))
    text = report.to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "k,gap,dist_x,dist_y,tsa,theta,tau,sigma"
    assert lines[1].split(",") == ["10", "0.5", "", "", "", "1.0", "0.1", "0.2"]
    assert lines[2].split(",") == ["20", "", "", "", "97.45", "", "", ""]


def test_json_round_trip(tmp_path):
    report = RunReport(config={"experiment": "toy", "seed": 3})
    report.add(MetricRecord(k=1, gap=1.25, dist_x=0.5))
    report.step_dx.extend([0.1, 0.2])
    report.step_dy.extend([0.3, 0.4])
    path = tmp_path / "r.json"
    report.to_json(path)
    loaded = RunReport.from_json(path.read_text())
    assert loaded.records == report.records
    assert loaded.step_dx == report.step_dx
    assert loaded.config == report.config
    payload = json.loads(path.read_text())
    assert payload["config"]["experiment"] == "toy"
    assert "version" in payload


def test_tsa_range_validated():
    with pytest.raises(ValueError):
        MetricRecord(k=1, tsa=105.0)


def test_repr_float_cells_parse_back_exactly():
    value = 0.1 + 0.2  # not exactly representable in decimal shorthand
    report = RunReport()
    report.add(MetricRecord(k=1, gap=value))
    cell = report.to_csv_text().strip().splitlines()[1].split(",")[1]
    assert float(cell) == value


# -- config parsing -----------------------------------------------------------

def test_parse_config_key_values(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("""
# toy settings
d = 20
n=30
checkpoints = 10, 100, 1000
nu = 0.3
""")
    cfg = parse_config(str(path))
    assert cfg == {"d": "20", "n": "30", "checkpoints": "10, 100, 1000", "nu": "0.3"}


def test_parse_config_rejects_garbage(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("this is not a pair\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config(str(path))


# -- CLI ----------------------------------------------------------------------

def test_cli_toy_writes_reports(tmp_path, capsys):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("d = 10\nn = 15\niters = 50\nnu = 0.0\ncheckpoints = 10,50\n")
    code = main(["toy", "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    csv_path = tmp_path / "out" / "toy_nu0-0.csv"
    json_path = tmp_path / "out" / "toy_nu0-0.json"
    assert csv_path.exists() and json_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == sorted(ks) == [10, 50]
    loaded = RunReport.from_json(json_path.read_text())
    assert loaded.config["experiment"] == "toy"


def test_cli_synthetic_exit_zero(tmp_path):
    cfg = tmp_path / "syn.cfg"
    cfg.write_text("dim = 8\niters = 60\n")
    assert main(["synthetic", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "synthetic.csv").exists()


def test_cli_validate_quick(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("trials = 10\n")
    assert main(["validate", "--config", str(cfg), "--seed", "1"]) == 0


def test_cli_validate_fails_constant_mksvm_proxes(tmp_path, monkeypatch, capsys):
    # both answers are feasible, so only an optimality check can reject them
    monkeypatch.setattr(MkSvmProblem, "prox_g", lambda self, sigma, v: np.zeros(self.dim_y))
    monkeypatch.setattr(MkSvmProblem, "prox_phi_x",
                        lambda self, tau, y, x: np.full(self.dim_x, 1.0 / self.dim_x))
    cfg = tmp_path / "v.cfg"
    cfg.write_text("trials = 10\n")
    assert main(["validate", "--config", str(cfg), "--seed", "1"]) == 2
    assert "FAIL mksvm" in capsys.readouterr().out


def test_cli_missing_dataset_is_runtime_error(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"dataset = sonar\npath = {tmp_path}/absent.data\n")
    assert main(["mksvm", "--config", str(cfg)]) == 1


def test_cli_unknown_dataset_without_path_names_it(tmp_path, capsys):
    cfg = tmp_path / "iris.cfg"
    cfg.write_text("dataset = iris\n")
    assert main(["mksvm", "--config", str(cfg)]) == 2
    assert "unknown dataset 'iris'" in capsys.readouterr().err


def test_cli_toy_with_more_rows_than_columns_is_validation_error(tmp_path):
    cfg = tmp_path / "tall.cfg"
    cfg.write_text("d = 5\nn = 3\niters = 10\n")
    assert main(["toy", "--config", str(cfg)]) == 2


def test_cli_bad_config_is_validation_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dataset = not-a-dataset\npath = x\n")
    assert main(["mksvm", "--config", str(cfg)]) == 2


def test_cli_split_fraction_out_of_range_is_validation_error(tmp_path):
    rng = make_rng(103, 0)
    rows = [",".join(f"{v:.4f}" for v in rng.uniform(size=60)) + (",R" if i % 2 else ",M")
            for i in range(20)]
    data_path = tmp_path / "sonar.all-data"
    data_path.write_text("\n".join(rows))
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"dataset = sonar\npath = {data_path}\nsplit_fraction = 1.0\n"
                   "runs = 1\ncheckpoints = 5\n")
    assert main(["mksvm", "--config", str(cfg)]) == 2


def _heart_file(tmp_path, count=80):
    rng = make_rng(101, 0)
    rows = []
    for _ in range(count):
        age = float(rng.integers(30, 75))
        sex = float(rng.integers(0, 2))
        label = 1 if rng.uniform() < 0.5 else 2
        direction = 1.0 if label == 2 else -1.0
        rest = rng.normal(direction * 0.8, 1.0, size=11)
        rows.append(" ".join(f"{v:.4f}" for v in [age, sex, *rest]) + f" {label}")
    data_path = tmp_path / "heart.dat"
    data_path.write_text("\n".join(rows))
    return data_path


def test_cli_mksvm_and_fairness_on_synthetic_files(tmp_path):
    data_path = _heart_file(tmp_path)
    cfg = tmp_path / "mksvm.cfg"
    cfg.write_text(
        f"dataset = heart-disease\npath = {data_path}\nruns = 2\n"
        "checkpoints = 20, 60\nvariant = c1\n"
    )
    assert main(["mksvm", "--config", str(cfg), "--seed", "2",
                 "--out", str(tmp_path / "mk")]) == 0
    assert (tmp_path / "mk" / "mksvm_heart-disease_c1.csv").exists()

    fcfg = tmp_path / "fair.cfg"
    fcfg.write_text(
        f"dataset = heart-disease\npath = {data_path}\npartitions = 2\n"
        "checkpoints = 10, 30\ngrouping = sex\n"
    )
    assert main(["fairness", "--config", str(fcfg), "--seed", "2",
                 "--out", str(tmp_path / "fair")]) == 0
    report = RunReport.from_json((tmp_path / "fair" / "fairness_sex.json").read_text())
    assert "with_fairness" in report.config


def test_mksvm_and_fairness_reports_do_not_depend_on_blas_threads(tmp_path):
    # README's determinism claim across BLAS thread counts. The toy is the
    # known exception: its Gram matrix A A' and the SVD of A move in the last
    # digits with the thread count, and so do the toy reports.
    data_path = _heart_file(tmp_path, count=150)
    configs = {
        "mksvm": f"dataset = heart-disease\npath = {data_path}\nruns = 2\ncheckpoints = 20, 60\n",
        "fairness": f"dataset = heart-disease\npath = {data_path}\npartitions = 2\n"
                    "checkpoints = 10, 30\ngrouping = sex\n",
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for verb, text in configs.items():
            cfg, out = tmp_path / f"{verb}.cfg", tmp_path / f"{verb}-{threads}"
            cfg.write_text(text)
            subprocess.run([sys.executable, "-m", "ogaprox.cli", verb, "--config", str(cfg),
                            "--seed", "3", "--out", str(out)], env=env, check=True,
                           capture_output=True)
            outputs[threads, verb] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    for verb in configs:
        assert len(outputs["1", verb]) == 2
        assert outputs["1", verb] == outputs["2", verb], verb


@pytest.mark.parametrize("verb, line, key", [
    ("mksvm", "checkpoints =", "checkpoints"),
    ("mksvm", "checkpoints = 0", "checkpoints"),
    ("mksvm", "checkpoints = -3, 5", "checkpoints"),
    ("mksvm", "runs = 0", "runs"),
    ("mksvm", "variant = c2\ntau0 = 0.5", "tau0"),
    ("mksvm", "variant = c2\nsigma0 = 0.5", "sigma0"),
    ("fairness", "checkpoints =", "checkpoints"),
    ("fairness", "checkpoints = 0", "checkpoints"),
    ("fairness", "partitions = 0", "partitions"),
    ("synthetic", "dim = 0", "dim"),
    ("synthetic", "record_every = 0", "record_every"),
    ("toy", "d = 0", "d"),
    ("toy", "iters = 0", "max_iter"),
    ("synthetic", "iters = 0", "max_iter"),
    ("mksvm", "box_c = nan", "box_c"),
    ("mksvm", "box_c = inf", "box_c"),
    ("toy", "d = 5\nn = 8\niters = 10\ntau0 = inf", "tau0"),
    ("toy", "d = 5\nn = 8\niters = 10\nsigma0 = nan", "sigma0"),
    ("mksvm", "tau0 = inf", "tau0"),
    ("toy", "d = 5\nn = 8\niters = 50\ncheckpoints = 100", "checkpoints"),
    ("toy", "iters = ten", "iters"),
    ("toy", "nu = abc", "nu"),
    ("toy", "iter = 50", "iter"),
    ("toy", "dataset = heart-disease", "dataset"),
    ("synthetic", "checkpoints = 5, x", "checkpoints"),
    ("validate", "trials = many", "trials"),
    ("mksvm", "runs = two", "runs"),
    ("mksvm", "partitions = 2", "partitions"),
    ("fairness", "split_fraction = half", "split_fraction"),
    ("fairness", "variant = c1", "variant"),
])
def test_cli_bad_size_is_validation_error_naming_the_key(tmp_path, capsys, verb, line, key):
    cfg = tmp_path / "bad.cfg"
    data = f"dataset = heart-disease\npath = {_heart_file(tmp_path)}\n"
    cfg.write_text((data if verb in ("mksvm", "fairness") else "") + f"{line}\n")
    assert main([verb, "--config", str(cfg)]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


@pytest.mark.parametrize("verb", ["validate", "toy", "synthetic", "mksvm", "fairness"])
def test_cli_negative_seed_is_validation_error_naming_the_seed(tmp_path, capsys, verb):
    cfg = tmp_path / "seed.cfg"
    data = f"dataset = heart-disease\npath = {_heart_file(tmp_path)}\n"
    cfg.write_text(data if verb in ("mksvm", "fairness") else "")
    assert main([verb, "--config", str(cfg), "--seed", "-1"]) == 2
    assert re.search(r"\bseed\b.*-1", capsys.readouterr().err)


@pytest.mark.parametrize("nu", ["0.0", "0.3"])
@pytest.mark.parametrize("key", ["tau0", "sigma0"])
def test_cli_toy_zero_step_is_validation_error(tmp_path, capsys, nu, key):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(f"d = 5\nn = 8\niters = 10\nnu = {nu}\n{key} = 0\n")
    assert main(["toy", "--config", str(cfg)]) == 2
    assert "step sizes must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tau0", "sigma0"])
def test_cli_toy_nan_step_is_validation_error(tmp_path, capsys, key):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(f"d = 5\nn = 8\niters = 10\n{key} = nan\n")
    assert main(["toy", "--config", str(cfg)]) == 2
    assert "step sizes must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("sigma0, code", [("0.002", 0), ("0.01", 2)])
def test_cli_mksvm_sigma0_alone_fills_tau0(tmp_path, capsys, sigma0, code):
    # on this file l_yx is about 930 and l_yy about 67: with tau0 = 1/l_yx
    # sigma0 = 0.002 breaks the product condition, while a filled tau0 meets
    # it; sigma0 = 0.01 leaves no room, since 2*l_yy*sigma0 > 0.9
    cfg = tmp_path / "mksvm.cfg"
    cfg.write_text(f"dataset = heart-disease\npath = {_heart_file(tmp_path)}\n"
                   f"runs = 1\ncheckpoints = 20\nsigma0 = {sigma0}\n")
    assert main(["mksvm", "--config", str(cfg)]) == code
    if code:
        assert "sigma0 leaves no room" in capsys.readouterr().err


def test_cli_passes_only_the_keys_that_are_set(tmp_path, monkeypatch):
    """With no driver key in the config, every driver runs on its own defaults."""
    calls = []

    def fake(name, result):
        def driver(*args, **kwargs):
            calls.append((name, args, kwargs))
            return result
        return driver

    report = RunReport(records=[MetricRecord(k=1, gap=0.0, tsa=50.0)], config={
        "max_iter": 1, "variant": "c1", "grouping": "sex", "runs": 0, "checkpoints": [],
        "certificate_ok": True, "max_certificate_ratio": 0.0})
    for name in ("toy_experiment", "synthetic_experiment", "mksvm_experiment",
                 "fairness_experiment"):
        monkeypatch.setattr(cli, name, fake(name, report))
    monkeypatch.setattr(cli, "validation_experiment", fake("validation_experiment", (True, [])))
    data = SimpleNamespace(name="ionosphere")
    monkeypatch.setattr(cli, "load_dataset", lambda spec: data)
    mksvm_cfg = tmp_path / "mksvm.cfg"
    mksvm_cfg.write_text("dataset = ionosphere\n")  # a CLI key, not a driver keyword
    for verb in ("validate", "toy", "synthetic", "fairness"):
        assert main([verb, "--seed", "7"]) == 0
    assert main(["mksvm", "--config", str(mksvm_cfg), "--seed", "7"]) == 0
    assert calls == [
        ("validation_experiment", (), {"seed": 7}),
        ("toy_experiment", (), {"seed": 7, "nu": 0.0}),
        ("toy_experiment", (), {"seed": 7, "nu": 0.3}),
        ("synthetic_experiment", (), {"seed": 7}),
        ("fairness_experiment", (data,), {"seed": 7}),
        ("mksvm_experiment", (data,), {"seed": 7}),
    ]


def test_run_report_carries_schedule_trace():
    from ogaprox.experiments import toy_experiment

    report = toy_experiment(seed=8, nu=0.3, d=8, n=12, max_iter=25)
    trace = report.schedule_trace
    assert len(trace["theta"]) == len(trace["tau"]) == len(trace["sigma"]) == 25
    assert trace["theta"][0] == 1.0 and trace["theta"][1] < 1.0
    assert trace["tau"][5] > trace["tau"][0]
    loaded = RunReport.from_json(report.to_json_text())
    assert loaded.schedule_trace == trace
