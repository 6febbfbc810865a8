"""Step-size and momentum schedules with their validity conditions.

Two parameter laws cover the three convexity regimes:

* :class:`AdaptiveSchedule` -- ``theta_{k+1} = 1/sqrt(1 + nu*sigma_k)``,
  ``tau_{k+1} = tau_k/theta_{k+1}``, ``sigma_{k+1} = theta_{k+1}*sigma_k``
  from ``(tau0, sigma0)``, valid when ``c_alpha > l_yx``,
  ``(c_alpha*l_yx*tau0 + 2*l_yy) * sigma0 < 1`` and, for ``nu > 0``,
  ``nu*sigma0 <= (9 + 3*sqrt(13))/2``.  At ``nu = 0`` (merely
  convex-concave) it is the constant law: ``theta = 1`` and fixed
  ``(tau, sigma)``.  For ``nu > 0`` (strongly concave in ``y``) ``tau``
  grows and ``sigma`` shrinks, with the product ``tau_k * sigma_k``
  invariant.
* :class:`LinearSchedule` -- strongly convex-strongly concave; constant
  ``theta`` strictly between the critical value ``theta_threshold(alpha)``
  and 1, with ``tau = (1-theta)/(mu*theta)`` and
  ``sigma = (1-theta)/(nu*theta)``.

Violated conditions raise :class:`StepSizeViolationError` naming the
inequality.  A run's constants come from the kind and the problem constants:
:func:`schedule_margin` (``delta``), :func:`sigma_tilde` and :func:`adaptive_rates`.
A :class:`ScheduleState` holds only what one step reads, ``(theta, tau, sigma,
t)``; the run's totals ``K`` and ``T_K`` are the solver state's.  The weight
``t_k`` follows ``t_{k+1} = t_k / theta_{k+1}`` (1 at ``nu = 0``,
``tau_k / tau_0`` up to roundoff for ``nu > 0``, and ``theta**-k``
for the linear law, where the ratio identity would be wrong).
"""

import math
from dataclasses import dataclass

from .problem import ProblemConstants

__all__ = [
    "AdaptiveSchedule",
    "LinearSchedule",
    "ScheduleKind",
    "ScheduleState",
    "StepSizeViolationError",
    "make_schedule",
    "advance_schedule",
    "schedule_margin",
    "theta_threshold",
    "balanced_alpha",
    "sigma_tilde",
    "adaptive_rates",
    "default_adaptive",
    "default_linear",
    "ADAPTIVE_SIGMA0_FACTOR",
]

# largest admissible nu * sigma_0 for the adaptive law: (9 + 3*sqrt(13)) / 2
ADAPTIVE_SIGMA0_FACTOR = (9.0 + 3.0 * math.sqrt(13.0)) / 2.0


class StepSizeViolationError(ValueError):
    """A schedule hypothesis fails; the message names the inequality."""


@dataclass(frozen=True)
class AdaptiveSchedule:
    tau0: float
    sigma0: float
    c_alpha: float


@dataclass(frozen=True)
class LinearSchedule:
    theta: float
    alpha: float


ScheduleKind = AdaptiveSchedule | LinearSchedule


@dataclass(frozen=True)
class ScheduleState:
    """Parameters the law sets for the next step; ``t`` is that step's
    ergodic weight ``t_k``."""

    theta: float
    tau: float
    sigma: float
    t: float


def default_adaptive(constants: ProblemConstants, tau0: float | None = None,
                     sigma0: float | None = None) -> AdaptiveSchedule:
    """Adaptive law with ``c_alpha = 2*l_yx`` (1 at ``l_yx = 0``) whose unset
    steps put ``(c_alpha*l_yx*tau0 + 2*l_yy)*sigma0`` at 0.9: ``sigma0`` from
    ``tau0`` (default ``1/max(l_yx, 1)``), capped at its bound for ``nu > 0``,
    or ``tau0`` from a given ``sigma0``, which must leave it room."""
    c_alpha = 2.0 * constants.l_yx if constants.l_yx > 0 else 1.0
    if tau0 is None and sigma0 is not None and sigma0 > 0 and constants.l_yx > 0:
        room = 0.9 / sigma0 - 2.0 * constants.l_yy
        if room <= 0:
            raise StepSizeViolationError("sigma0 leaves no room for a positive tau0")
        tau0 = room / (c_alpha * constants.l_yx)
    tau = tau0 if tau0 is not None else 1.0 / max(constants.l_yx, 1.0)
    if sigma0 is None:
        denom = c_alpha * constants.l_yx * tau + 2.0 * constants.l_yy
        sigma0 = 0.9 / denom if denom > 0 else 1.0
        if constants.nu > 0:
            sigma0 = min(sigma0, ADAPTIVE_SIGMA0_FACTOR / constants.nu)
    return AdaptiveSchedule(tau0=tau, sigma0=sigma0, c_alpha=c_alpha)


def theta_threshold(alpha: float, constants: ProblemConstants) -> float:
    """Critical momentum below which the linear-rate conditions fail."""
    l_yx, l_yy = constants.l_yx, constants.l_yy
    mu, nu = constants.mu, constants.nu
    first = l_yx / (alpha * mu + l_yx) if l_yx > 0 else 0.0
    second = (alpha * l_yx + 2 * l_yy) / (nu + alpha * l_yx + 2 * l_yy)
    return max(first, second)


def balanced_alpha(constants: ProblemConstants) -> float:
    """Weight equalizing the two branches of :func:`theta_threshold`.

    The first branch decreases and the second increases in ``alpha``, so
    the crossing minimizes the threshold; it solves
    ``mu*l_yx*a^2 + 2*mu*l_yy*a - nu*l_yx = 0`` in closed form.
    """
    l_yx, l_yy = constants.l_yx, constants.l_yy
    mu, nu = constants.mu, constants.nu
    if mu <= 0 or nu <= 0:
        raise StepSizeViolationError("balanced alpha needs mu > 0 and nu > 0")
    if l_yx == 0:
        return 1.0
    disc = (mu * l_yy) ** 2 + mu * nu * l_yx**2
    return (-mu * l_yy + math.sqrt(disc)) / (mu * l_yx)


def default_linear(constants: ProblemConstants, theta: float | None = None) -> LinearSchedule:
    """Linear law with balanced ``alpha``; ``theta`` halfway to 1 by default."""
    alpha = balanced_alpha(constants)
    if theta is None:
        theta = 0.5 * (1.0 + theta_threshold(alpha, constants))
    return LinearSchedule(theta=theta, alpha=alpha)


def _linear_steps(kind: LinearSchedule, constants: ProblemConstants) -> tuple[float, float]:
    return ((1.0 - kind.theta) / (constants.mu * kind.theta),
            (1.0 - kind.theta) / (constants.nu * kind.theta))


def schedule_margin(kind: ScheduleKind, constants: ProblemConstants) -> float:
    """The law's margin ``delta``, positive for a kind :func:`make_schedule`
    accepts: ``min(1 - (c_alpha*l_yx*tau0 + 2*l_yy)*sigma0, 1 - l_yx/c_alpha)``
    for the adaptive law, ``1 - theta*sigma*(alpha*l_yx + l_yy)`` for the
    linear law.  A NaN in the kind gives NaN."""
    if isinstance(kind, AdaptiveSchedule):
        product = (kind.c_alpha * constants.l_yx * kind.tau0 + 2.0 * constants.l_yy) * kind.sigma0
        # min keeps its first argument when the other is NaN, so NaN goes first
        return min(1.0 - product, 1.0 - constants.l_yx / kind.c_alpha)
    if isinstance(kind, LinearSchedule):
        sigma = _linear_steps(kind, constants)[1]
        return 1.0 - kind.theta * sigma * (kind.alpha * constants.l_yx + constants.l_yy)
    raise TypeError(f"unknown schedule kind {type(kind).__name__}")


def make_schedule(kind: ScheduleKind, constants: ProblemConstants) -> ScheduleState:
    """Validated initial :class:`ScheduleState` for iteration 0.  Each check
    is written so that a NaN fails it."""
    if isinstance(kind, AdaptiveSchedule):
        if not (0 < kind.tau0 < math.inf and 0 < kind.sigma0 < math.inf):
            raise StepSizeViolationError("step sizes must be positive and finite, got "
                                         f"tau0 = {kind.tau0}, sigma0 = {kind.sigma0}")
        if not kind.c_alpha > constants.l_yx:
            raise StepSizeViolationError(
                f"c_alpha > l_yx required, got {kind.c_alpha} and {constants.l_yx}"
            )
        margin = schedule_margin(kind, constants)
        if not margin > 0.0:
            raise StepSizeViolationError(
                f"(c_alpha*l_yx*tau0 + 2*l_yy)*sigma0 < 1 required, margin {margin}"
            )
        cap = ADAPTIVE_SIGMA0_FACTOR / constants.nu if constants.nu > 0 else math.inf
        if not kind.sigma0 <= cap:
            raise StepSizeViolationError(
                f"sigma0 <= (9+3*sqrt(13))/(2*nu) required: {kind.sigma0} > {cap}"
            )
        return ScheduleState(theta=1.0, tau=kind.tau0, sigma=kind.sigma0, t=1.0)

    if isinstance(kind, LinearSchedule):
        if constants.mu <= 0 or constants.nu <= 0:
            raise StepSizeViolationError("linear schedule requires mu > 0 and nu > 0")
        if not kind.alpha > 0:
            raise StepSizeViolationError("alpha must be positive")
        threshold = theta_threshold(kind.alpha, constants)
        if not (threshold < kind.theta < 1.0):
            raise StepSizeViolationError(
                f"theta must lie strictly in ({threshold}, 1), got {kind.theta}"
            )
        margin = schedule_margin(kind, constants)
        if not margin > 0.0:
            raise StepSizeViolationError(
                f"1 - theta*sigma*(alpha*l_yx + l_yy) must be positive, got {margin}"
            )
        return ScheduleState(kind.theta, *_linear_steps(kind, constants), t=1.0)

    raise TypeError(f"unknown schedule kind {type(kind).__name__}")


def advance_schedule(state: ScheduleState, kind: ScheduleKind,
                     constants: ProblemConstants) -> ScheduleState:
    """State for the step after ``state``'s; at ``nu = 0`` it is ``state``
    (the linear law needs ``nu > 0``, so only the adaptive law gets here)."""
    if constants.nu == 0:
        return state
    # built positionally: dataclasses.replace costs several times more per iteration
    if isinstance(kind, AdaptiveSchedule):
        theta = 1.0 / math.sqrt(1.0 + constants.nu * state.sigma)
        tau = state.tau / theta
        # deriving sigma from the invariant tau_k*sigma_k = tau0*sigma0
        # keeps the product exact to one ulp over any horizon
        sigma = (kind.tau0 * kind.sigma0) / tau
        return ScheduleState(theta, tau, sigma, state.t / theta)
    if isinstance(kind, LinearSchedule):
        return ScheduleState(state.theta, state.tau, state.sigma, state.t / state.theta)
    raise TypeError(f"unknown schedule kind {type(kind).__name__}")


def sigma_tilde(kind: LinearSchedule, constants: ProblemConstants) -> float:
    """Effective dual step ``sigma / (1 - theta*sigma*(alpha*l_yx + l_yy))``."""
    if not isinstance(kind, LinearSchedule):
        raise TypeError("sigma_tilde is defined for the linear law")
    return make_schedule(kind, constants).sigma / schedule_margin(kind, constants)


def adaptive_rates(kind: AdaptiveSchedule, constants: ProblemConstants) -> tuple[float, float]:
    """The adaptive law's a-priori constants ``(c2, c1)``: after ``K`` steps
    the ergodic gap is at most ``c2*d0/K**2`` and ``||y_K - y*||`` at most
    ``c1*sqrt(d0)/K``, with ``c2 = 12/(nu*sigma0)`` and
    ``c1 = sqrt(18/(nu^2*sigma0*delta))``, which need ``nu > 0``."""
    if not isinstance(kind, AdaptiveSchedule):
        raise TypeError("adaptive_rates is defined for the adaptive law")
    if constants.nu <= 0:
        raise StepSizeViolationError("adaptive rate constants require nu > 0")
    make_schedule(kind, constants)  # the rates hold only for a kind that passes its checks
    nu, sigma0, delta = constants.nu, kind.sigma0, schedule_margin(kind, constants)
    return 12.0 / (nu * sigma0), math.sqrt(18.0 / (nu**2 * sigma0 * delta))
