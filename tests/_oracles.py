"""Reference implementations that only the tests call.

They check the fast paths of ``ogaprox`` against a slower or more literal
form of the same operator; nothing in the library imports them.
:func:`prox_oracle` samples perturbations of a claimed prox, so it sees
nothing on a set with empty interior; the library's own prox check,
``ogaprox.problem.prox_inequality_gap``, does.  :func:`spy_on_run` hands
tests the live objects an experiment driver runs on, since a driver
returns only its report.
"""

import dataclasses
import json
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from ogaprox import experiments
from ogaprox.problem import SaddleProblem
from ogaprox.prox import _as_vector
from ogaprox.rng import make_rng
from ogaprox.schedule import AdaptiveSchedule, schedule_margin
from ogaprox.solver import SolverState


def prox_positive_part_scaled(tau: float, w: float, x: float) -> float:
    """Prox of ``u -> tau * w * max(0, u)`` at ``x`` for ``w >= 0``.

    Cases follow the closed intervals of the defining formula: the
    identity branch wins at ``x = 0`` and the zero branch at ``x = tau*w``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if w < 0:
        raise ValueError("weight w must be nonnegative")
    if x <= 0.0:
        return x
    if x <= tau * w:
        return 0.0
    return x - tau * w


def prox_oracle(
    f: Callable[[np.ndarray], float],
    x,
    candidate,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Brute-force optimality check for a claimed proximal point.

    Samples Gaussian perturbations of ``candidate`` at scales 1e-3, 0.1
    and 1 in turn and returns the largest amount by which a sample beats
    the candidate on ``f(u) + 0.5 ||u - x||^2``.  A correct prox keeps this at roundoff
    level; values above ``1e-8`` indicate a wrong operator.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    base = _as_vector(x, "x")
    cand = _as_vector(candidate, "candidate")
    if cand.size != base.size:
        raise ValueError("candidate dimension mismatch")

    def objective(u: np.ndarray) -> float:
        val = float(f(u))
        if val == -np.inf:
            raise ValueError("f takes -inf; prox undefined")
        diff = u - base
        return val + 0.5 * float(diff @ diff)

    f_cand = objective(cand)
    if f_cand == np.inf:
        return np.inf
    rng = make_rng(seed, 97)
    worst = -np.inf
    for j in range(trials):
        u = cand + (1e-3, 1e-1, 1.0)[j % 3] * rng.standard_normal(cand.size)
        worst = max(worst, f_cand - objective(u))
    return worst


def project_simplex_numpy(v) -> np.ndarray:
    """``ogaprox.prox.project_simplex`` with numpy array operations in place of
    its Python-float sort, sums and output: the reference it must match bit
    for bit, the shift of inputs that reach ``2**20`` included."""
    x = _as_vector(v)
    u = np.sort(x)[::-1]
    if max(u[0], -u[-1]) >= 2.0**20:
        with np.errstate(over="ignore"):  # entries below max(x) - 1 project to 0
            return project_simplex_numpy(np.maximum(x - u[0], -1.0))
    cumulative = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, x.size + 1) > cumulative)[0][-1]
    threshold = cumulative[rho] / (rho + 1.0)
    return np.maximum(x - threshold, 0.0)


def prox_x_grad_formula(problem, tau, y, x) -> tuple[np.ndarray, np.ndarray]:
    """``MkSvmProblem._prox_x_grad`` with numpy array operations in place of
    its Python-float step on the kernel weights, dividing by ``1 + mu tau``
    also at ``mu = 0``: the reference it must match bit for bit."""
    my = problem._kernel_products(y)
    xi = 0.5 * (my @ y)
    z = np.asarray(x, float) + tau * xi
    x_next = project_simplex_numpy(z / (1.0 + problem.constants.mu * tau))
    return x_next, 1.0 - x_next @ my


def gaussian_kernel_formula(features) -> np.ndarray:
    """``ogaprox.problems.mksvm.gaussian_kernel`` as one expression of fresh
    arrays in place of its one in-place buffer: the reference it must match
    bit for bit."""
    sq = np.sum(features**2, axis=1)
    dist = sq[:, None] + sq[None, :] - 2.0 * (features @ features.T)
    return np.exp(-5.0 * np.maximum(dist, 0.0))


def conjugated_kernels_formula(kernels, train_idx, labels_train) -> list[np.ndarray]:
    """``ogaprox.problems.mksvm.conjugated_kernels`` with an ``np.ix_`` gather
    and a sign matrix ``b b'`` in place of its in-place row scaling: the
    reference it must match bit for bit."""
    traces = [float(np.sum(np.sum(k**2, axis=1) if k.shape[1] < len(k) else np.diag(k)))
              for k in kernels]
    c = sum(traces)
    sign = np.outer(labels_train, labels_train)
    out = []
    for kernel, r in zip(kernels, traces):
        if kernel.shape[1] < len(train_idx):
            out.append(np.sqrt(c / r) * labels_train[:, None] * kernel[train_idx])
            continue
        block = (kernel[train_idx] @ kernel[train_idx].T if kernel.shape[1] < len(kernel)
                 else kernel[np.ix_(train_idx, train_idx)])
        out.append((c / r) * sign * block)
    return out


def one_step_accepts(s, v) -> bool:
    """Whether ``ogaprox.prox.project_box_hyperplane`` keeps the root of its
    one Newton step on a set of fewer than ``10**5`` entries, by the
    pattern-and-margin test written in one expression: below that size, and
    below its overflow guards (``|t0| < 2**970``, and ``|z0_i| < 2**980``
    once a coordinate is clipped), the breakpoint search must run exactly
    when this is false."""
    w = _as_vector(v)
    n, upper = s.normal, s.upper
    y0 = np.minimum(np.maximum(w - float(n @ w) / s.dim * n, 0.0), upper)
    free = (y0 > 0.0) & (y0 < upper)
    slope = int(free.sum())
    if not slope:
        return False
    t = float(n @ np.where(free, w, y0)) / slope
    z = w - t * n
    y = np.minimum(np.maximum(z, 0.0), upper)
    scale = float(np.sum(np.abs(w) + np.abs(z) + np.abs(y0)))
    return bool(np.array_equal(y, np.where(free, z, y0)) and (np.minimum(
        np.abs(z), np.abs(z - upper)) > 1e-10 * scale / slope).all())


def first_clip_is_all_free(s, v) -> bool:
    """Whether the clip of ``v - t0 * normal`` at the all-free root ``t0 =
    <v, normal> / dim`` leaves every coordinate strictly inside ``(0,
    upper)``: then ``ogaprox.prox.project_box_hyperplane`` takes ``t0`` as
    the root without a second Newton solve."""
    w = _as_vector(v)
    z = w - float(s.normal @ w) / s.dim * s.normal
    return bool(np.all((z > 0.0) & (z < s.upper)))


def scalar_margin_accepts(s, v) -> bool:
    """Whether ``ogaprox.prox.project_box_hyperplane`` keeps an all-free
    first clip ``z0`` on its scalar bound alone, ``min(min z0, upper - max
    z0) > 6e-10 max z0 + 2e-10 |t0|``, before it sums the margin ``c``."""
    w = _as_vector(v)
    t0 = float(s.normal @ w) / s.dim
    z = w - t0 * s.normal
    lo, hi = float(z.min()), float(z.max())
    return 0.0 < lo and hi < s.upper and min(lo, s.upper - hi) > 6e-10 * hi + 2e-10 * abs(t0)


def project_box_hyperplane_exact(s, v) -> tuple[float, np.ndarray]:
    """The projection onto a +-1 box-hyperplane set in exact rational
    arithmetic: coordinate ``i`` is free between its knots ``v_i n_i -
    upper`` and ``v_i n_i`` (``n_i = 1``) or ``v_i n_i`` and ``v_i n_i +
    upper`` (``n_i = -1``); from the residual at the first sorted knot,
    exact cumulative slopes give it at each later one, up to the first
    knot where it is not positive.  Returns that segment's root ``t`` and
    the projection, each rounded once to floats."""
    upper = Fraction(s.upper)
    pairs = [(Fraction(e), int(ni)) for e, ni in zip(_as_vector(v).tolist(), s.normal)]
    knots = []
    for e, ni in pairs:
        low = e * ni - upper if ni > 0 else e * ni
        knots += [(low, 1), (low + upper, -1)]
    knots.sort()

    def y_at(t):
        return [min(max(e - t * ni, Fraction(0)), upper) for e, ni in pairs]

    t = knots[0][0]
    r, slope = sum(ni * y for (_, ni), y in zip(pairs, y_at(t))), 0
    for knot, change in knots:
        at_knot = r - slope * (knot - t)
        if at_knot <= 0:
            break
        t, r, slope = knot, at_knot, slope + change
    if r > 0:
        t += r / slope
    return float(t), np.array([float(y) for y in y_at(t)])


def project_simplex_exact(v) -> np.ndarray:
    """Sort-and-threshold onto the unit simplex in exact rational
    arithmetic, each output entry rounded once to a float."""
    x = [Fraction(e) for e in _as_vector(v).tolist()]
    total = Fraction(0)
    for j, e in enumerate(sorted(x, reverse=True)):
        total += e
        if e * (j + 1) > total - 1:
            threshold = (total - 1) / (j + 1)
    return np.array([float(max(e - threshold, Fraction(0))) for e in x])


def assumption_slacks(state, prev_tau: float, kind: AdaptiveSchedule,
                      constants) -> tuple[float, float]:
    """Slacks of the adaptive law's two step-size inequalities at ``state``,
    whose predecessor stepped with ``prev_tau`` (``tau0`` for the start).

    Returns ``((1-delta)/tau_k - l_yx/alpha_{k+1},
    (1-delta)/sigma_k - l_yx*alpha_k*theta_k - l_yy*(1+theta_k))`` with
    ``alpha_k = c_alpha*tau_{k-1}``; both must be nonnegative.
    """
    if not isinstance(kind, AdaptiveSchedule):
        raise TypeError("assumption slacks apply to the adaptive law")
    delta = schedule_margin(kind, constants)
    slack_tau = (1.0 - delta) / state.tau - constants.l_yx / (kind.c_alpha * state.tau)
    slack_sigma = (1.0 - delta) / state.sigma - (
        constants.l_yx * (kind.c_alpha * prev_tau) * state.theta
        + constants.l_yy * (1.0 + state.theta)
    )
    return slack_tau, slack_sigma


def spy_on_run(monkeypatch) -> list[tuple]:
    """Wrap ``ogaprox.experiments.run`` so that each driver call of it
    appends its ``(problem, kind, x0, y0)`` to the returned list, then runs
    the real iteration."""
    calls = []
    real_run = experiments.run

    def spy(problem, kind, x0, y0, *args, **kwargs):
        calls.append((problem, kind, x0, y0))
        return real_run(problem, kind, x0, y0, *args, **kwargs)

    monkeypatch.setattr(experiments, "run", spy)
    return calls


def step_formula(problem, state, sched) -> SolverState:
    """``ogaprox.solver.step`` on finite iterates, written out in full: it
    multiplies by ``theta`` and ``t`` even when they are 1 and takes each
    step norm from its own difference; a problem that does not override
    ``prox_step`` is stepped by its three oracles, called here one by one.
    ``step`` must match it bit for bit."""
    v = state.y + sched.sigma * (
        (1.0 + sched.theta) * state.grad - sched.theta * state.grad_prev
    )
    if type(problem).prox_step is SaddleProblem.prox_step:
        y_next = problem.prox_g(sched.sigma, v)
        x_next = problem.prox_phi_x(sched.tau, y_next, state.x)
        grad = problem.grad_y(x_next, y_next)
    else:
        y_next, x_next, grad = problem.prox_step(sched.sigma, v, sched.tau, state.x)
    dx, dy = x_next - state.x, y_next - state.y
    return SolverState(x_next, y_next, grad, state.grad, state.erg_x + sched.t * x_next,
                       state.erg_y + sched.t * y_next, state.t_sum + sched.t, state.k + 1,
                       math.sqrt(float(dx @ dx)), math.sqrt(float(dy @ dy)))


def outside_cone_formula(slack, tol: float = 1e-8) -> bool:
    """The toy problem's cone test as one expression: ``min(A y)`` below
    ``-tol`` times the larger of 1 and ``max|A y|``."""
    return bool(np.min(slack) < -tol * max(1.0, float(np.max(np.abs(slack)))))


class ThreeCalls:
    """A problem with its fused ``prox_step`` replaced by the default of
    ``SaddleProblem``, so ``step`` calls ``prox_g``, ``prox_phi_x`` and
    ``grad_y`` in turn."""

    prox_step = SaddleProblem.prox_step

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        return getattr(self._problem, name)


def report_json_formula(report) -> str:
    """``RunReport.to_json_text`` as one ``json.dumps(payload, indent=2)``,
    records copied by ``dataclasses.asdict``: every number goes through
    json's pure-Python encoder.  The report's text must equal it."""
    payload = {
        "version": report.version,
        "config": report.config,
        "records": [dataclasses.asdict(r) for r in report.records],
        "step_dx": report.step_dx,
        "step_dy": report.step_dy,
        "schedule_trace": report.schedule_trace,
    }
    return json.dumps(payload, indent=2)
