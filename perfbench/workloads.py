"""The three workloads: their CLI calls, generated inputs and output checks.

Each workload is one ``ogaprox.cli.main([...])`` call on a config file and,
for the dataset-backed ones, a UCI-format data file that the benchmark
writes from its seed.
"""

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import datagen

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# pytest.approx defaults, which the test suite uses for gaps and accuracies
REL_TOL, ABS_TOL = 1e-6, 1e-12
# the gap certificates carry the same slack as GapCertificate.satisfied
GAP_SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    config: dict
    reports: tuple[str, ...]
    data: tuple[str, str] | None = None  # (dataset name, file name)
    rows: int = 0
    # instances per run: about one per two calls that fit in a 35 s run
    instances: int = 10
    reduced: dict = field(default_factory=dict)  # config and rows of the test-size run

    def small(self) -> "Workload":
        reduced = dict(self.reduced)
        rows = reduced.pop("rows", self.rows)
        return Workload(self.name, self.verb, {**self.config, **reduced}, self.reports,
                        self.data, rows, self.instances, {})


WORKLOADS = {
    w.name: w for w in (
        # toy: both nu (0 with the constant law, 0.3 with the adaptive law);
        # set-up is one cold, large solve_qp (the nu = 0 saddle point), the
        # iterations are the warm-started cone projector plus loop overhead
        Workload("toy-cone", "toy", {"d": 250, "n": 350, "iters": 2000},
                 ("toy_nu0-0", "toy_nu0-3"),
                 reduced={"d": 20, "n": 30, "iters": 200}),
        # mksvm: box-hyperplane bisection and stacked matvecs, no qp at all
        Workload("mksvm-ionosphere", "mksvm",
                 {"dataset": "ionosphere", "variant": "c1", "runs": 2,
                  "checkpoints": "250, 500, 1000"},
                 ("mksvm_ionosphere_c1",), ("ionosphere", "ionosphere.data"),
                 datagen.IONOSPHERE_ROWS,
                 reduced={"rows": 120, "checkpoints": "100, 300"}),
        # fairness: many small warm-started solve_qp, one per x-prox; 50
        # iterations rather than 100 give 18 calls over 12 instances in a
        # 35 s run instead of 8 over 6, which halves the spread of the medians
        Workload("fairness-heart", "fairness",
                 {"dataset": "heart-disease", "grouping": "sex", "partitions": 1,
                  "checkpoints": "10, 25, 50"},
                 ("fairness_sex",), ("heart-disease", "heart.dat"), datagen.HEART_ROWS,
                 instances=12, reduced={"rows": 100, "checkpoints": "10, 20"}),
    )
}


def prepare(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the inputs of one seed; returns the config file."""
    directory.mkdir(parents=True, exist_ok=True)
    config = dict(workload.config)
    if workload.data is not None:
        dataset, filename = workload.data
        text = (datagen.ionosphere_text if dataset == "ionosphere" else datagen.heart_text)(
            seed, workload.rows)
        (directory / filename).write_text(text)
        config["path"] = str(directory / filename)
    path = directory / f"{workload.verb}.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    return path


@dataclass
class CallResult:
    code: int
    wall_s: float
    output: str


def call_cli(main, workload: Workload, config: Path, seed: int, out: Path) -> CallResult:
    """One CLI call with its stdout and stderr captured, timed until the
    report files are written."""
    argv = [workload.verb, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        started = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - started
    return CallResult(code, wall, buffer.getvalue())


def report_bytes(workload: Workload, out: Path) -> dict[str, bytes]:
    return {f"{name}{ext}": (out / f"{name}{ext}").read_bytes()
            for name in workload.reports for ext in (".csv", ".json")}


def final_values(workload: Workload, out: Path) -> dict[str, float]:
    """Final-checkpoint gap or accuracy of each report."""
    values = {}
    for name in workload.reports:
        payload = json.loads((out / f"{name}.json").read_text())
        final = payload["records"][-1]
        if workload.verb == "toy":
            values[f"{name}.gap"] = final["gap"]
        elif workload.verb == "mksvm":
            values[f"{name}.tsa"] = final["tsa"]
        else:
            k = str(final["k"])
            values[f"{name}.tsa_with"] = payload["config"]["with_fairness"][k]["overall"]
            values[f"{name}.tsa_without"] = payload["config"]["without_fairness"][k]["overall"]
    return values


def toy_gap_checks(out: Path, reports) -> list[tuple[str, bool, str]]:
    """Final ergodic gap against the paper's bound, from the report's own
    ``d0`` and ``sigma0``: ``d0/K`` at nu = 0, ``c2 d0/K^2`` with
    ``c2 = 12/(nu sigma0)`` for the adaptive law."""
    checks = []
    for name in reports:
        payload = json.loads((out / f"{name}.json").read_text())
        cfg, final = payload["config"], payload["records"][-1]
        k, nu = cfg["max_iter"], cfg["nu"]
        if nu > 0:
            bound = 12.0 / (nu * cfg["sigma0"]) * cfg["d0"] / k**2
        else:
            bound = cfg["d0"] / k
        ok = final["k"] == k and final["gap"] <= bound + GAP_SLACK
        checks.append((f"{name} gap bound", ok, f"gap {final['gap']!r} at k={final['k']}, bound {bound!r}"))
    return checks


def output_checks(workload: Workload, out: Path) -> list[tuple[str, bool, str]]:
    """Checks that hold for every seed: the toy problem's certificates.

    Held-out accuracy has no such guarantee: over thousands of generated
    instances a few land below any useful threshold, so accuracy is checked
    only at the golden seed."""
    if workload.verb == "toy":
        return toy_gap_checks(out, workload.reports)
    return []


def golden_checks(workload: Workload, out: Path, expected: dict) -> list[tuple[str, bool, str]]:
    """Final-checkpoint values against the ones recorded for the golden seed."""
    got = final_values(workload, out)
    return [(f"{key} matches recorded", key in got and math.isclose(
                got[key], value, rel_tol=REL_TOL, abs_tol=ABS_TOL),
             f"{got.get(key)!r} vs recorded {value!r}")
            for key, value in expected.items()]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
