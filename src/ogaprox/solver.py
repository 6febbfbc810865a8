"""The optimistic gradient ascent / proximal point iteration.

One iteration extrapolates the y-gradient with the previous one,
``(1 + theta_k) * grad_y(x_k, y_k) - theta_k * grad_y(x_{k-1}, y_{k-1})``,
takes a prox step of ``g`` in ``y`` and a pure prox step of
``Phi(., y_{k+1})`` in ``x``, both from the problem's ``prox_step``.  The
state carries both gradients, the step's norms (a non-finite iterate raises
before ``grad_y`` sees it) and the run's totals: the count ``k`` and the
iterate sums weighted by ``t_k`` with their total ``T_k``, normalized only
on read, so a common rescale of the weights (applied before they overflow on
linear schedules) leaves the averages unchanged.  :func:`run` returns the
final state and the run's report; :func:`gap_certificate` measures a state's
ergodic gap against the bound of its law's kind.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .problem import MissingSaddlePointError, SaddleProblem
from .prox import _finite
from .report import MetricRecord, RunReport
from .schedule import (
    LinearSchedule,
    ScheduleKind,
    ScheduleState,
    advance_schedule,
    make_schedule,
    sigma_tilde,
)

__all__ = [
    "SolverState",
    "NonFiniteIterateError",
    "step",
    "run",
    "initial_distance",
    "GapCertificate",
    "gap_certificate",
]

# rescale ergodic weights before they overflow (linear schedules only)
_WEIGHT_CAP = 1e250


class NonFiniteIterateError(RuntimeError):
    """An iterate left the representable range; carries the partial report."""

    def __init__(self, k: int, report: RunReport | None = None):
        super().__init__(f"non-finite iterate at iteration {k}")
        self.k = k
        self.report = report


@dataclass(eq=False)
class SolverState:
    """Iterates, ``grad = grad_y(x_k, y_k)``, ``grad_prev =
    grad_y(x_{k-1}, y_{k-1})``, the weighted sums ``erg_x``, ``erg_y`` of
    the iterates, their total weight ``t_sum = T_k``, the count ``k`` and
    the last step's norms ``step_dx = ||x_k - x_{k-1}||`` and ``step_dy``."""

    x: np.ndarray
    y: np.ndarray
    grad: np.ndarray
    grad_prev: np.ndarray
    erg_x: np.ndarray
    erg_y: np.ndarray
    t_sum: float = 0.0
    k: int = 0
    step_dx: float = 0.0
    step_dy: float = 0.0

    @classmethod
    def initial(cls, problem: SaddleProblem, x0, y0) -> "SolverState":
        x0 = np.asarray(x0, dtype=float).copy()
        y0 = np.asarray(y0, dtype=float).copy()
        # conventions x_{-1} = x_0, y_{-1} = y_0: both gradients start at
        # grad_y(x_0, y_0), so the first extrapolation is plain
        grad = problem.grad_y(x0, y0)
        return cls(x0, y0, grad, grad, np.zeros_like(x0), np.zeros_like(y0))

    def ergodic(self) -> tuple[np.ndarray, np.ndarray]:
        if self.t_sum <= 0:
            raise ValueError("ergodic average undefined before the first step")
        return self.erg_x / self.t_sum, self.erg_y / self.t_sum


def step(problem: SaddleProblem, state: SolverState, sched: ScheduleState) -> SolverState:
    """One iteration at the parameters of ``sched``; returns a new state."""
    theta, t = sched.theta, sched.t  # a multiply by 1.0 is skipped: 1.0 * a == a
    prev = state.grad_prev if theta == 1.0 else theta * state.grad_prev
    v = state.y + sched.sigma * ((1.0 + theta) * state.grad - prev)
    y_next, x_next, grad = problem.prox_step(sched.sigma, v, sched.tau, state.x)
    dx, dy = x_next - state.x, y_next - state.y
    sq_x, sq_y = float(np.vdot(dx, dx)), float(np.vdot(dy, dy))
    if not (_finite(x_next, sq_x) and _finite(y_next, sq_y)):
        raise NonFiniteIterateError(state.k + 1)
    if grad is None:
        grad = problem.grad_y(x_next, y_next)
    tx, ty = (x_next, y_next) if t == 1.0 else (t * x_next, t * y_next)
    return SolverState(x_next, y_next, grad, state.grad, state.erg_x + tx, state.erg_y + ty,
                       state.t_sum + t, state.k + 1, math.sqrt(sq_x), math.sqrt(sq_y))


def run(
    problem: SaddleProblem,
    kind: ScheduleKind,
    x0,
    y0,
    max_iter: int,
    callbacks: tuple = (),
) -> tuple[SolverState, RunReport]:
    """Run ``max_iter`` steps from a feasible start; returns ``(state, report)``,
    the final state, which holds the last iterate and the ergodic pair, and the log.

    Each callback is invoked once per iteration as
    ``callback(k, state, sched)`` with the state after step ``k``
    (``state.k == k``, and ``state.ergodic()`` is the ergodic pair of the
    first ``k`` steps) and the schedule for the step after it.  A callback may
    return a dict of metric fields (``gap``, ``dist_x``, ``dist_y``,
    ``tsa``) to log, and must not mutate the state.  Logged records and the
    schedule trace carry the theta/tau/sigma used by step ``k``; step norms
    are always recorded.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    problem.check_start(np.asarray(x0, float), np.asarray(y0, float))
    sched = make_schedule(kind, problem.constants)
    state = SolverState.initial(problem, x0, y0)
    report = RunReport()
    for _ in range(max_iter):
        try:
            new_state = step(problem, state, sched)
        except NonFiniteIterateError as err:
            err.report = report
            raise
        report.step_dx.append(new_state.step_dx)
        report.step_dy.append(new_state.step_dy)
        report.schedule_trace["theta"].append(sched.theta)
        report.schedule_trace["tau"].append(sched.tau)
        report.schedule_trace["sigma"].append(sched.sigma)
        state, used = new_state, sched
        sched = advance_schedule(sched, kind, problem.constants)
        metrics: dict = {}
        for callback in callbacks:
            extra = callback(state.k, state, sched)
            if extra:
                metrics.update(extra)
        if metrics:
            report.records.append(MetricRecord(
                k=state.k, theta=used.theta, tau=used.tau, sigma=used.sigma,
                **metrics,
            ))
        if sched.t > _WEIGHT_CAP:
            factor = 1.0 / sched.t
            sched = replace(sched, t=sched.t * factor)
            state.t_sum *= factor
            state.erg_x *= factor
            state.erg_y *= factor
    return state, report


def initial_distance(saddle, x0, y0, tau0: float, sigma0: float) -> float:
    """Weighted squared distance of the start to the saddle point,
    ``||x*-x0||^2/(2 tau0) + ||y*-y0||^2/(2 sigma0)``."""
    x_star, y_star = saddle
    dx = float(np.linalg.norm(np.asarray(x_star, float) - np.asarray(x0, float)))
    dy = float(np.linalg.norm(np.asarray(y_star, float) - np.asarray(y0, float)))
    return dx**2 / (2.0 * tau0) + dy**2 / (2.0 * sigma0)


@dataclass(frozen=True)
class GapCertificate:
    """Measured minimax gap against its guaranteed bound at iteration K.

    For the adaptive law the bound is ``d0 / T_K`` (``d0 / K`` at ``nu = 0``).  For the
    linear law ``lhs`` carries the full certificate quantity
    ``theta*gap + ||x*-x_K||^2/(2 tau) + ||y*-y_K||^2/(2 sigma_tilde)``
    and the bound is ``theta**K * d0``.
    """

    gap: float
    bound: float
    lhs: float | None = None


def gap_certificate(
    problem: SaddleProblem,
    saddle: tuple[np.ndarray, np.ndarray] | None,
    state: SolverState,
    kind: ScheduleKind,
    d0: float,
) -> GapCertificate:
    """Ergodic gap after ``K = state.k >= 1`` iterations and the law's bound
    from ``d0``, the start's :func:`initial_distance`; the linear law's
    constant ``tau`` and ``sigma_tilde`` come from ``kind``.  Before the first
    step ``state.ergodic()`` raises ``ValueError``."""
    if saddle is None:
        raise MissingSaddlePointError("gap certificate needs a known saddle point")
    gap = problem.gap_value(saddle, state.ergodic())
    if isinstance(kind, LinearSchedule):
        x_star, y_star = saddle
        tau, tilde = make_schedule(kind, problem.constants).tau, sigma_tilde(kind, problem.constants)
        lhs = kind.theta * gap
        lhs += float(np.linalg.norm(x_star - state.x)) ** 2 / (2.0 * tau)
        lhs += float(np.linalg.norm(y_star - state.y)) ** 2 / (2.0 * tilde)
        bound = math.exp(state.k * math.log(kind.theta)) * d0
        return GapCertificate(gap=gap, bound=bound, lhs=lhs)
    return GapCertificate(gap=gap, bound=d0 / state.t_sum)
