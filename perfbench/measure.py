"""Closed-loop measurement of one workload and its metrics.

One process, one CLI call at a time.  A run first calls the workload once at
``GOLDEN_SEED`` (untimed: it warms caches and checks the final values against
``golden.json``), then cycles through the instances drawn from ``--seed``
until the time budget is spent.  Untraced runs report the end-to-end
metrics; traced runs alternate untraced and traced calls and report the
per-layer metrics and the tracing overhead.
"""

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import workloads
from perfbench.hooks import (
    RUN_SPAN,
    LayerTimes,
    RunClock,
    Tracer,
    install_layer_hooks,
    summarize,
)
from perfbench.run import BLAS_VARS

GOLDEN_SEED = 2104

# (metric, unit) of the untraced run.  On a shared machine whole stretches
# of iterations run about 1.5x slower while another tenant is busy, which
# moves medians of whole calls and of iterations by 15-30% between runs; a
# low percentile of the iteration times follows the fast state and stays
# within a few percent.  Whole-call wall time is printed but not gated.
END_TO_END = (("setup_s", "s"), ("iter_us_p1", "us"), ("peak_rss_mb", "MiB"))
# (layer, stats) of the traced run; its metrics are named <layer>.<stat>
PER_LAYER = (
    ("qp.solve_qp", ("calls", "us_p50", "us_p99", "self_s", "share", "iters_total", "nonoptimal")),
    ("prox.PolytopeProjector.project", ("calls", "us_p50", "us_p99")),
    ("prox.project_polytope", ("calls",)),
    ("prox.project_box_hyperplane", ("calls", "us_p50", "us_p99")),
    ("prox.project_simplex", ("calls", "us_p50")),
    ("problems.grad_y", ("calls", "us_p50", "us_p99", "share")),
    ("problems.prox_g", ("calls", "us_p50", "us_p99", "share")),
    ("problems.prox_phi_x", ("calls", "us_p50", "us_p99", "share")),
    ("solver.step", ("us_p50",)),
    ("schedule.advance_schedule", ("us_p50",)),
    ("experiments.callbacks", ("s",)),
    ("experiments.mksvm_predict", ("calls", "us_p50", "fallback")),
    ("problems.ToyProblem.saddle_point", ("s",)),
    ("problems.random_toy_problem", ("s",)),
    ("problems.MkSvmProblem", ("init_s",)),
    ("problems.conjugated_kernels", ("s",)),
    ("datasets.load_dataset", ("s",)),
    ("report.write", ("s", "bytes")),
)
# metrics of the traced run that are not a single layer's
TRACE_EXTRA = (
    ("solver.loop_self_us", "us"), ("wall_s", "s"), ("solve_s", "s"),
    ("iter_us_p50", "us"), ("iter_us_p99", "us"), ("trace.overhead_s", "s"),
)
COUNT_STATS = ("calls", "iters_total", "nonoptimal", "fallback", "bytes")
UNITS = {"us_p50": "us", "us_p99": "us", "self_s": "s", "share": "fraction", "s": "s",
         "init_s": "s", **{stat: "count" for stat in COUNT_STATS}}


def per_layer_names() -> list[tuple[str, str]]:
    """Every metric of the traced run with its unit, in output order."""
    names = [(f"{layer}.{stat}", UNITS[stat]) for layer, stats in PER_LAYER for stat in stats]
    return names + list(TRACE_EXTRA)


def tail_percentile(samples) -> tuple[float, float]:
    """(p, value) for p99, or the highest percentile with at least ten
    samples beyond it, and at least the median."""
    p = max(0.5, min(0.99, 1.0 - 10.0 / len(samples)))
    return p, float(np.percentile(samples, 100.0 * p))


# -- environment ----------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as maps:
            path = next((line.split()[-1] for line in maps if "openblas" in line.lower()), None)
    except OSError:
        return None
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(lib, symbol, None)
        if getter is not None:
            return int(getter())
    return None


def environment(root: Path) -> dict:
    git_rev = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_rev = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- one run --------------------------------------------------------------------

@dataclass
class Operations:
    """Run calls and output checks, each one operation."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


@dataclass
class Sample:
    wall_s: float
    solve_s: float
    iter_us: list[float]
    tracer: Tracer | None = None
    absent: frozenset = frozenset()


class Runner:
    def __init__(self, workload: workloads.Workload, workdir: Path, ops: Operations):
        from ogaprox.cli import main as cli_main

        self.cli_main = cli_main
        self.workload = workload
        self.workdir = workdir
        self.ops = ops
        self.clock = RunClock()
        self.calls = 0

    def call(self, config: Path, seed: int, tracer: Tracer | None = None):
        """One CLI call; returns (sample, report directory), the sample being
        ``None`` if the call failed."""
        self.calls += 1
        out = self.workdir / f"out{self.calls}"
        self.clock.run_s.clear()
        self.clock.iter_us.clear()
        self.clock.tracer = tracer
        absent = set()
        with contextlib.ExitStack() as hooks:
            if tracer is not None:
                absent = install_layer_hooks(hooks, tracer)
            result = workloads.call_cli(self.cli_main, self.workload, config, seed, out)
        ok = self.ops.record(f"call {self.calls} (seed {seed})", result.code == 0,
                             f"exit {result.code}: {result.output[-500:]}")
        if not ok:
            return None, out
        sample = Sample(result.wall_s, sum(self.clock.run_s), list(self.clock.iter_us),
                        tracer, frozenset(absent))
        for name, passed, detail in workloads.output_checks(self.workload, out):
            self.ops.record(name, passed, detail)
        return sample, out


def instance_seeds(seed: int, count: int) -> list[int]:
    """The inputs of one run: ``count`` data files and CLI seeds drawn from
    ``seed``, so that a run's medians do not rest on a single instance."""
    return [seed * count + j for j in range(count)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 small: bool = False) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines.

    Untraced runs cycle through the instances of ``seed``; traced runs use
    the first one only, so that their counts repeat exactly.  The budget
    ``seconds`` includes the golden-seed call.
    """
    workload = workloads.WORKLOADS[name]
    if small:
        workload = workload.small()
    workdir = root / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = Operations()
    env = environment(root)
    untraced: list[Sample] = []
    traced: list[Sample] = []
    deadline = time.perf_counter() + seconds
    with contextlib.ExitStack() as stack:
        runner = Runner(workload, workdir, ops)
        runner.clock.install(stack)

        if not small:
            config = workloads.prepare(workload, GOLDEN_SEED, workdir / "golden")
            sample, out = runner.call(config, GOLDEN_SEED)
            if sample is not None:
                expected = workloads.load_golden()[name]
                for check, passed, detail in workloads.golden_checks(workload, out, expected):
                    ops.record(check, passed, detail)
            shutil.rmtree(out, ignore_errors=True)

        seeds = instance_seeds(seed, workload.instances)[:1 if trace else None]
        configs = [workloads.prepare(workload, s, workdir / f"inputs{s}") for s in seeds]
        references: dict[int, dict] = {}
        # at least one repeat, so that byte-identity is checked
        while (len(untraced) + len(traced) <= len(seeds) or (trace and not traced)
               or time.perf_counter() < deadline):
            tracer = Tracer() if trace and len(untraced) > len(traced) else None
            index = (len(untraced) + len(traced)) % len(seeds)
            sample, out = runner.call(configs[index], seeds[index], tracer)
            if sample is None:
                break  # the failure is recorded; repeating it measures nothing
            produced = workloads.report_bytes(workload, out)
            reference = references.setdefault(index, produced)
            if produced is not reference:
                ops.record("reports byte-identical to the first call on the same inputs",
                           produced == reference,
                           f"differs in {sorted(k for k in produced if produced[k] != reference.get(k))}")
            shutil.rmtree(out, ignore_errors=True)
            (traced if tracer is not None else untraced).append(sample)

    if trace:
        metrics = layer_metrics(untraced, traced, ops)
        write_trace(workdir / "trace.json", name, seed, env, traced)
    else:
        metrics = end_to_end_metrics(untraced)
    fail_frac = len(ops.failures) / max(ops.attempted, 1)
    result = {
        "correct": not ops.failures and bool(untraced),
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in metrics.items()},
    }
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {name} seed {seed} trace {int(trace)}: {len(untraced)} untraced and "
             f"{len(traced)} traced calls, fail_frac {fail_frac} "
             f"({len(ops.failures)} failed of {ops.attempted} operations)"]
    lines += [f"FAILED {failure}" for failure in ops.failures]
    shown = dict(metrics)
    if not trace and untraced:
        shown.update(call_metrics(untraced))  # printed, not part of the result
    lines += [f"{key} {value} {unit} (n={n})" for key, (value, unit, n) in shown.items()]
    (workdir / "result.json").write_text(json.dumps({"env": env, "lines": lines, **result}, indent=1))
    return result, lines


def end_to_end_metrics(samples: list[Sample]) -> dict:
    if not samples:
        return {}
    n = len(samples)
    iter_us = [us for s in samples for us in s.iter_us]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(s.wall_s - s.solve_s for s in samples), "s", n),
        "iter_us_p1": (float(np.percentile(iter_us, 1)), "us", len(iter_us)),
        "peak_rss_mb": (peak_kb / 1024.0, "MiB", 1),
    }


def call_metrics(samples: list[Sample]) -> dict:
    """Whole-call and ``run`` times and the iteration time's median and tail."""
    iter_us = [us for s in samples for us in s.iter_us]
    return {
        "wall_s": (statistics.median(s.wall_s for s in samples), "s", len(samples)),
        "solve_s": (statistics.median(s.solve_s for s in samples), "s", len(samples)),
        "iter_us_p50": (statistics.median(iter_us), "us", len(iter_us)),
        "iter_us_p99": (tail_percentile(iter_us)[1], "us", len(iter_us)),
    }


def layer_metrics(untraced: list[Sample], traced: list[Sample], ops: Operations) -> dict:
    """Per-layer metrics from the traced calls; counts are per CLI call and
    must repeat exactly across them.  A layer with no calls reports 0; a
    layer whose function no longer exists reports ``None`` (absent)."""
    metrics: dict = {}
    if not traced or not untraced:
        return metrics
    summaries = [summarize(s.tracer.spans) for s in traced]
    absent = set().union(*(s.absent for s in traced))
    n = len(traced)
    for layer, stats in PER_LAYER:
        durations = [d for summary in summaries for d in summary.get(layer, _EMPTY).durations]
        for stat in stats:
            key = f"{layer}.{stat}"
            if layer in absent:
                metrics[key] = (None, UNITS[stat], 0)
                continue
            if stat in COUNT_STATS:
                counts = [len(summary.get(layer, _EMPTY).durations) if stat == "calls"
                          else sample.tracer.counters[key]
                          for summary, sample in zip(summaries, traced)]
                ops.record(f"{key} repeats across traced calls", len(set(counts)) == 1, f"{counts}")
                metrics[key] = (int(counts[0]), "count", n)
            elif stat in ("us_p50", "us_p99"):
                value = 0.0
                if durations:
                    value = 1e6 * (statistics.median(durations) if stat == "us_p50"
                                   else tail_percentile(durations)[1])
                metrics[key] = (value, "us", len(durations))
            else:
                per_call = [_layer_stat(summary.get(layer, _EMPTY), stat, sample.solve_s)
                            for summary, sample in zip(summaries, traced)]
                metrics[key] = (statistics.median(per_call), UNITS[stat], n)

    loop_self = []
    for summary in summaries:
        steps = len(summary.get("solver.step", _EMPTY).durations)
        if steps:
            loop_self.append(1e6 * summary[RUN_SPAN].self_total / steps)
    metrics["solver.loop_self_us"] = (
        statistics.median(loop_self) if loop_self and "solver.step" not in absent else None,
        "us", len(loop_self))
    metrics.update(call_metrics(untraced))
    overhead = (statistics.median(s.wall_s for s in traced)
                - statistics.median(s.wall_s for s in untraced))
    metrics["trace.overhead_s"] = (overhead, "s", min(len(traced), len(untraced)))
    return metrics


_EMPTY = LayerTimes()


def _layer_stat(times, stat: str, solve_s: float) -> float:
    if stat == "self_s":
        return times.self_total
    if stat == "share":
        return times.in_run / solve_s if solve_s > 0 else 0.0
    return times.total  # "s" and "init_s": inclusive time per call


def write_trace(path: Path, name: str, seed: int, env: dict, traced: list[Sample]) -> None:
    """Spans of every traced call as [name, start, end, parent index]."""
    payload = {
        "workload": name, "seed": seed, "env": env,
        "calls": [{"wall_s": s.wall_s, "solve_s": s.solve_s,
                   "counters": dict(s.tracer.counters), "spans": s.tracer.spans}
                  for s in traced],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))


def emit(result: dict, lines: list[str]) -> None:
    for line in lines:
        print(line)
    sys.stdout.flush()
    print(json.dumps(result))
