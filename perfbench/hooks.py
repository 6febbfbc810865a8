"""Timing hooks installed from outside the program.

Untraced runs install only :class:`RunClock`: a wrapper around the ``run``
that the experiment drivers call, plus two stamping callbacks, one first and
one last in ``callbacks``.  Traced runs add :func:`install_layer_hooks`,
which wraps the public functions of each layer where their callers look them
up, and a delegating proxy around the problem that ``run`` receives.  Every
hook registers its restore on an ``ExitStack`` as soon as it is installed,
so leaving the stack puts the program back exactly as it was, also on error.
"""

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

perf_counter = time.perf_counter

RUN_SPAN = "solver.run"
CALLBACK_SPAN = "experiments.callbacks"
PROBLEM_METHODS = ("grad_y", "prox_g", "prox_phi_x")


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()


def traced(tracer: Tracer, name: str, fn, on_result=None):
    """``fn`` inside a span; ``on_result(result, args)`` feeds the counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if on_result is not None:
            on_result(result, args)
        return result

    return wrapper


class TracedProblem:
    """Delegating proxy that times the three oracle calls of one run."""

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        for method in PROBLEM_METHODS:
            setattr(self, method, traced(tracer, f"problems.{method}", getattr(problem, method)))

    def __getattr__(self, name):
        return getattr(self._problem, name)


@dataclass
class RunClock:
    """Time spent inside ``run`` and per-iteration times between the stamps.

    An iteration's time runs from the last stamp of iteration ``k - 1`` to
    the first stamp of iteration ``k``: the schedule advance and the step,
    without the checkpoint-metric callbacks, which sit between the stamps.
    """

    run_s: list[float] = field(default_factory=list)
    iter_us: list[float] = field(default_factory=list)
    tracer: Tracer | None = None

    def install(self, stack: contextlib.ExitStack) -> None:
        experiments = importlib.import_module("ogaprox.experiments")
        original = experiments.run
        signature = inspect.signature(original)

        @functools.wraps(original)
        def timed_run(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            last = [None]

            def first_stamp(k, state, sched):
                now = perf_counter()
                if last[0] is not None:
                    self.iter_us.append((now - last[0]) * 1e6)

            def last_stamp(k, state, sched):
                last[0] = perf_counter()

            callbacks = tuple(bound.arguments["callbacks"])
            tracer = self.tracer
            if tracer is not None:
                bound.arguments["problem"] = TracedProblem(bound.arguments["problem"], tracer)
                callbacks = tuple(traced(tracer, CALLBACK_SPAN, cb) for cb in callbacks)
            bound.arguments["callbacks"] = (first_stamp, *callbacks, last_stamp)
            sid = tracer.open(RUN_SPAN) if tracer is not None else None
            started = perf_counter()
            try:
                return original(*bound.args, **bound.kwargs)
            finally:
                self.run_s.append(perf_counter() - started)
                if sid is not None:
                    tracer.close(sid)

        experiments.run = timed_run
        stack.callback(setattr, experiments, "run", original)


# -- layer hooks for the traced run -------------------------------------------

def _count_qp(tracer):
    def on_result(result, args):
        tracer.counters["qp.solve_qp.iters_total"] += int(result.iterations)
        tracer.counters["qp.solve_qp.nonoptimal"] += result.status.name != "OPTIMAL"
    return on_result


def _count_fallback(tracer):
    def on_result(result, args):
        tracer.counters["experiments.mksvm_predict.fallback"] += bool(result.fallback)
    return on_result


def _count_bytes(tracer):
    def on_result(result, args):
        tracer.counters["report.write.bytes"] += os.path.getsize(args[1])
    return on_result


# (layer, module, attribute path, counter factory); a dotted attribute is a
# method patched on its class, a plain one a function patched in every
# ogaprox module that holds it, which is where its callers look it up
LAYER_HOOKS = (
    ("qp.solve_qp", "ogaprox.qp", "solve_qp", _count_qp),
    ("prox.PolytopeProjector.project", "ogaprox.prox", "PolytopeProjector.project", None),
    ("prox.project_polytope", "ogaprox.prox", "project_polytope", None),
    ("prox.project_box_hyperplane", "ogaprox.prox", "project_box_hyperplane", None),
    ("prox.project_simplex", "ogaprox.prox", "project_simplex", None),
    ("solver.step", "ogaprox.solver", "step", None),
    ("schedule.advance_schedule", "ogaprox.schedule", "advance_schedule", None),
    ("experiments.mksvm_predict", "ogaprox.problems.mksvm", "mksvm_predict", _count_fallback),
    ("problems.ToyProblem.saddle_point", "ogaprox.problems.toy", "ToyProblem.saddle_point", None),
    ("problems.random_toy_problem", "ogaprox.problems.toy", "random_toy_problem", None),
    ("problems.MkSvmProblem", "ogaprox.problems.mksvm", "MkSvmProblem.__init__", None),
    ("problems.conjugated_kernels", "ogaprox.problems.mksvm", "conjugated_kernels", None),
    ("datasets.load_dataset", "ogaprox.datasets", "load_dataset", None),
    ("report.write", "ogaprox.report", "RunReport.to_csv", _count_bytes),
    ("report.write", "ogaprox.report", "RunReport.to_json", _count_bytes),
)


def _lookup(module: str, attr: str):
    """``(owner, name, original)`` or ``None`` when the function is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(name)
    return (owner, name, original) if callable(original) else None


def install_layer_hooks(stack: contextlib.ExitStack, tracer: Tracer) -> set[str]:
    """Wrap every layer of ``LAYER_HOOKS``; returns the layers found absent."""
    absent = set()
    for layer, module, attr, counter in LAYER_HOOKS:
        found = _lookup(module, attr)
        if found is None:
            absent.add(layer)
            continue
        owner, name, original = found
        wrapper = traced(tracer, layer, original, counter(tracer) if counter else None)
        holders = [owner] if isinstance(owner, type) else [
            mod for key, mod in list(sys.modules.items())
            if key.split(".")[0] == "ogaprox" and vars(mod).get(name) is original
        ]
        for holder in holders:
            setattr(holder, name, wrapper)
            stack.callback(setattr, holder, name, original)
    return absent


# -- span analysis ----------------------------------------------------------

@dataclass
class LayerTimes:
    durations: list[float] = field(default_factory=list)
    total: float = 0.0
    self_total: float = 0.0
    in_run: float = 0.0


def summarize(spans: list[list]) -> dict[str, LayerTimes]:
    """Per-name call durations, inclusive, self and in-``run`` totals.

    Self time is a span's duration minus the durations of its direct
    children; a span is in ``run`` when one of its ancestors is the run span.
    """
    children = [0.0] * len(spans)
    inside = [False] * len(spans)
    for sid, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
            inside[sid] = inside[parent] or spans[parent][0] == RUN_SPAN
    layers: dict[str, LayerTimes] = {}
    for sid, (name, start, end, _) in enumerate(spans):
        entry = layers.setdefault(name, LayerTimes())
        duration = end - start
        entry.durations.append(duration)
        entry.total += duration
        entry.self_total += duration - children[sid]
        if inside[sid]:
            entry.in_run += duration
    return layers
