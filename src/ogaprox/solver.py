"""The optimistic gradient ascent / proximal point iteration.

One iteration extrapolates the y-gradient with the previous one,
``(1 + theta_k) * grad_y(x_k, y_k) - theta_k * grad_y(x_{k-1}, y_{k-1})``,
takes a prox step of ``g`` in ``y`` and a pure prox step of
``Phi(., y_{k+1})`` in ``x``.  The state carries both gradients: a step
ends with ``grad_y(x_{k+1}, y_{k+1})``, taken from the problem's optional
fused oracle ``prox_phi_x_grad`` (x-prox and gradient sharing their work)
when it has one.  The state also holds the run's totals: the count ``k``
and the iterate sums weighted by ``t_k`` with their total ``T_k``, which
are normalized only on read, so a common rescale of the weights (applied
before they overflow on linear schedules) leaves the averages unchanged.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .problem import MissingSaddlePointError, SaddleProblem
from .report import MetricRecord, RunReport
from .schedule import (
    AdaptiveSchedule,
    ConstantSchedule,
    LinearSchedule,
    ScheduleKind,
    ScheduleState,
    advance_schedule,
    make_schedule,
    sigma_tilde,
)

__all__ = [
    "SolverState",
    "RunResult",
    "NonFiniteIterateError",
    "step",
    "run",
    "initial_distance",
    "GapCertificate",
    "gap_certificate",
    "CertificateKind",
    "RateCertificate",
    "rate_certificates",
]

# rescale ergodic weights before they overflow (linear schedules only)
_WEIGHT_CAP = 1e250


class NonFiniteIterateError(RuntimeError):
    """An iterate left the representable range; carries the partial report."""

    def __init__(self, k: int, report: RunReport | None = None):
        super().__init__(f"non-finite iterate at iteration {k}")
        self.k = k
        self.report = report


@dataclass
class SolverState:
    """Iterates, ``grad = grad_y(x_k, y_k)``, ``grad_prev =
    grad_y(x_{k-1}, y_{k-1})``, the weighted sums ``erg_x``, ``erg_y`` of
    the iterates, their total weight ``t_sum = T_k`` and the count ``k``."""

    x: np.ndarray
    y: np.ndarray
    grad: np.ndarray
    grad_prev: np.ndarray
    erg_x: np.ndarray
    erg_y: np.ndarray
    t_sum: float = 0.0
    k: int = 0

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


def _finite(v: np.ndarray) -> bool:
    # one dot product; a large finite vector can overflow it, so confirm exactly
    return math.isfinite(float(v @ v)) or bool(np.isfinite(v).all())


def step(problem: SaddleProblem, state: SolverState, sched: ScheduleState) -> SolverState:
    """One iteration at the parameters of ``sched``; returns a new state."""
    v = state.y + sched.sigma * (
        (1.0 + sched.theta) * state.grad - sched.theta * state.grad_prev
    )
    y_next = problem.prox_g(sched.sigma, v)
    fused = getattr(problem, "prox_phi_x_grad", None)
    if fused is None:
        x_next, grad = problem.prox_phi_x(sched.tau, y_next, state.x), None
    else:
        x_next, grad = fused(sched.tau, y_next, state.x)
    if not (_finite(x_next) and _finite(y_next)):
        raise NonFiniteIterateError(state.k + 1)
    if grad is None:
        grad = problem.grad_y(x_next, y_next)
    return SolverState(x_next, y_next, grad, state.grad, state.erg_x + sched.t * x_next,
                       state.erg_y + sched.t * y_next, state.t_sum + sched.t, state.k + 1)


@dataclass
class RunResult:
    """Final state and schedule of a run plus its metric report."""

    state: SolverState
    schedule: ScheduleState
    report: RunReport

    def ergodic(self) -> tuple[np.ndarray, np.ndarray]:
        return self.state.ergodic()


def run(
    problem: SaddleProblem,
    kind: ScheduleKind,
    x0,
    y0,
    max_iter: int,
    callbacks: tuple = (),
) -> RunResult:
    """Run the iteration for ``max_iter`` steps from a feasible start.

    Each callback is invoked once per iteration as
    ``callback(k, state, sched)`` with the state after step ``k``
    (``state.k == k``, and ``state.ergodic()`` is the ergodic pair of the
    first ``k`` steps) and the schedule for the step after it, the
    convention of :class:`RunResult` and :func:`gap_certificate`.  A callback may
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
        dx, dy = new_state.x - state.x, new_state.y - state.y
        report.step_dx.append(math.sqrt(float(dx @ dx)))
        report.step_dy.append(math.sqrt(float(dy @ dy)))
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
            report.add(MetricRecord(
                k=state.k, theta=used.theta, tau=used.tau, sigma=used.sigma,
                **metrics,
            ))
        if sched.t > _WEIGHT_CAP:
            factor = 1.0 / sched.t
            sched = replace(sched, t=sched.t * factor)
            state.t_sum *= factor
            state.erg_x *= factor
            state.erg_y *= factor
    return RunResult(state=state, schedule=sched, report=report)


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

    For the constant/adaptive laws the bound is ``d0 / T_K``.  For the
    linear law ``lhs`` carries the full certificate quantity
    ``theta*gap + ||x*-x_K||^2/(2 tau) + ||y*-y_K||^2/(2 sigma_tilde)``
    and the bound is ``theta**K * d0``.
    """

    gap: float
    bound: float
    d0: float
    lhs: float | None = None

    def satisfied(self, slack: float = 1e-9) -> bool:
        value = self.gap if self.lhs is None else self.lhs
        return value <= self.bound + slack


def gap_certificate(
    problem: SaddleProblem,
    saddle: tuple[np.ndarray, np.ndarray] | None,
    state: SolverState,
    sched: ScheduleState,
    kind: ScheduleKind,
    x0,
    y0,
) -> GapCertificate:
    """Evaluate the ergodic gap after ``K = state.k`` iterations and the
    bound the schedule guarantees; ``sched`` is the schedule after them."""
    if saddle is None:
        raise MissingSaddlePointError("gap certificate needs a known saddle point")
    if state.k <= 0:
        raise ValueError("gap certificate needs at least one completed iteration")
    gap = problem.gap_value(saddle, state.ergodic())
    d0 = initial_distance(saddle, x0, y0, sched.tau0, sched.sigma0)
    if isinstance(kind, LinearSchedule):
        x_star, y_star = saddle
        lhs = kind.theta * gap
        lhs += float(np.linalg.norm(x_star - state.x)) ** 2 / (2.0 * sched.tau)
        lhs += float(np.linalg.norm(y_star - state.y)) ** 2 / (2.0 * sigma_tilde(sched, kind))
        bound = math.exp(state.k * math.log(kind.theta)) * d0
        return GapCertificate(gap=gap, bound=bound, d0=d0, lhs=lhs)
    return GapCertificate(gap=gap, bound=d0 / state.t_sum, d0=d0)


class CertificateKind(enum.Enum):
    GAP_O1K = "GapO1K"
    GAP_O1K2 = "GapO1K2"
    ITERATE_O1K = "IterateO1K"
    LINEAR = "Linear"


@dataclass(frozen=True)
class RateCertificate:
    """A guaranteed decay law with its problem-derived constant.

    ``bound(K)`` gives: ``d0/K`` (gap, constant law), ``c2*d0/K**2`` (gap)
    and ``c1*sqrt(d0)/K`` (distance of ``y_K``) for the adaptive law, and
    ``theta**K * d0`` for the linear law.
    """

    kind: CertificateKind
    constant: float
    d0: float
    theta: float | None = None

    def bound(self, K: int) -> float:
        if K < 1:
            raise ValueError("K must be at least 1")
        if self.kind is CertificateKind.GAP_O1K:
            return self.constant * self.d0 / K
        if self.kind is CertificateKind.GAP_O1K2:
            return self.constant * self.d0 / K**2
        if self.kind is CertificateKind.ITERATE_O1K:
            return self.constant * math.sqrt(self.d0) / K
        return math.exp(K * math.log(self.theta)) * self.d0


def rate_certificates(
    kind: ScheduleKind,
    constants,
    sched0: ScheduleState,
    saddle,
    x0,
    y0,
) -> list[RateCertificate]:
    """Certificates applicable to a run with the given schedule.

    Adaptive-law constants: ``c2 = 12/(nu*sigma0)`` for the gap and
    ``c1 = sqrt(18/(nu^2*sigma0*delta))`` for ``||y_K - y*||``.
    """
    d0 = initial_distance(saddle, x0, y0, sched0.tau0, sched0.sigma0)
    if isinstance(kind, ConstantSchedule):
        return [RateCertificate(CertificateKind.GAP_O1K, 1.0, d0)]
    if isinstance(kind, AdaptiveSchedule):
        nu = constants.nu
        c2 = 12.0 / (nu * sched0.sigma0)
        c1 = math.sqrt(18.0 / (nu**2 * sched0.sigma0 * sched0.delta))
        return [
            RateCertificate(CertificateKind.GAP_O1K2, c2, d0),
            RateCertificate(CertificateKind.ITERATE_O1K, c1, d0),
        ]
    if isinstance(kind, LinearSchedule):
        return [RateCertificate(CertificateKind.LINEAR, 1.0, d0, theta=kind.theta)]
    raise TypeError(f"unknown schedule kind {type(kind).__name__}")
