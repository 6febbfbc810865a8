"""Step-size and momentum schedules with their validity conditions.

Three parameter laws are supported, one per convexity regime:

* :class:`ConstantSchedule` -- merely convex-concave; fixed ``(tau, sigma)``
  with momentum 1, valid when ``(c_alpha*l_yx*tau + 2*l_yy) * sigma < 1``
  and ``c_alpha > l_yx``.
* :class:`AdaptiveSchedule` -- strongly concave in ``y`` (``nu > 0``);
  ``theta_{k+1} = 1/sqrt(1 + nu*sigma_k)``, ``tau`` grows, ``sigma``
  shrinks, with the product ``tau_k * sigma_k`` invariant.
* :class:`LinearSchedule` -- strongly convex-strongly concave; constant
  ``theta`` strictly between the critical value ``theta_threshold(alpha)``
  and 1, with ``tau = (1-theta)/(mu*theta)`` and
  ``sigma = (1-theta)/(nu*theta)``.

Violated conditions raise :class:`StepSizeViolationError` naming the
inequality.  A :class:`ScheduleState` holds what the law sets for the next
step; the run's totals ``K`` and ``T_K`` are the solver state's.  The weight
``t_k`` follows ``t_{k+1} = t_k / theta_{k+1}`` (1 for the constant law,
``tau_k / tau_0`` up to roundoff for the adaptive one, and ``theta**-k``
for the linear one, where the ratio identity would be wrong).
"""

import math
from dataclasses import dataclass

from .problem import ProblemConstants

__all__ = [
    "ConstantSchedule",
    "AdaptiveSchedule",
    "LinearSchedule",
    "ScheduleKind",
    "ScheduleState",
    "StepSizeViolationError",
    "make_schedule",
    "advance_schedule",
    "assumption_slacks",
    "theta_threshold",
    "balanced_alpha",
    "sigma_tilde",
    "default_c_alpha",
    "default_constant",
    "default_adaptive",
    "default_linear",
    "ADAPTIVE_SIGMA0_FACTOR",
]

# largest admissible nu * sigma_0 for the adaptive law: (9 + 3*sqrt(13)) / 2
ADAPTIVE_SIGMA0_FACTOR = (9.0 + 3.0 * math.sqrt(13.0)) / 2.0


class StepSizeViolationError(ValueError):
    """A schedule hypothesis fails; the message names the inequality."""


@dataclass(frozen=True)
class ConstantSchedule:
    tau: float
    sigma: float
    c_alpha: float


@dataclass(frozen=True)
class AdaptiveSchedule:
    tau0: float
    sigma0: float
    c_alpha: float


@dataclass(frozen=True)
class LinearSchedule:
    theta: float
    alpha: float


ScheduleKind = ConstantSchedule | AdaptiveSchedule | LinearSchedule


@dataclass(frozen=True)
class ScheduleState:
    """Parameters the law sets for the next step.

    ``t`` is that step's ergodic weight ``t_k``.  ``alpha`` is the
    Young-inequality weight of the validity conditions; ``delta`` the
    positive margin (for the linear law it is ``1 - theta*sigma*
    (alpha*l_yx + l_yy)``, the denominator of ``sigma_tilde``).
    """

    theta: float
    tau: float
    sigma: float
    t: float
    alpha: float
    delta: float
    tau0: float
    sigma0: float


def default_c_alpha(constants: ProblemConstants) -> float:
    """Margin factor above ``l_yx``: twice it, or 1 when ``l_yx == 0``."""
    return 2.0 * constants.l_yx if constants.l_yx > 0 else 1.0


def _product_sigma(constants: ProblemConstants, c_alpha: float, tau0: float) -> float:
    denom = c_alpha * constants.l_yx * tau0 + 2.0 * constants.l_yy
    return 0.9 / denom if denom > 0 else 1.0


def default_constant(constants: ProblemConstants, tau0: float | None = None,
                     sigma0: float | None = None) -> ConstantSchedule:
    """Constant law with the step-size product at 90% of its cap."""
    c_alpha = default_c_alpha(constants)
    tau = tau0 if tau0 is not None else 1.0 / max(constants.l_yx, 1.0)
    sigma = sigma0 if sigma0 is not None else _product_sigma(constants, c_alpha, tau)
    return ConstantSchedule(tau=tau, sigma=sigma, c_alpha=c_alpha)


def default_adaptive(constants: ProblemConstants, tau0: float | None = None,
                     sigma0: float | None = None) -> AdaptiveSchedule:
    """Adaptive law defaults; ``sigma0`` additionally capped for ``nu > 0``."""
    c_alpha = default_c_alpha(constants)
    tau = tau0 if tau0 is not None else 1.0 / max(constants.l_yx, 1.0)
    sigma = sigma0 if sigma0 is not None else _product_sigma(constants, c_alpha, tau)
    if sigma0 is None and constants.nu > 0:
        sigma = min(sigma, ADAPTIVE_SIGMA0_FACTOR / constants.nu)
    return AdaptiveSchedule(tau0=tau, sigma0=sigma, c_alpha=c_alpha)


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


def default_linear(constants: ProblemConstants, theta: float | None = None,
                   alpha: float | None = None) -> LinearSchedule:
    """Linear law with balanced ``alpha``; ``theta`` halfway to 1 by default."""
    a = alpha if alpha is not None else balanced_alpha(constants)
    if theta is None:
        theta = 0.5 * (1.0 + theta_threshold(a, constants))
    return LinearSchedule(theta=theta, alpha=a)


def _delta_product(kind, constants: ProblemConstants) -> tuple[float, float]:
    if isinstance(kind, ConstantSchedule):
        tau0, sigma0 = kind.tau, kind.sigma
    else:
        tau0, sigma0 = kind.tau0, kind.sigma0
    product = (kind.c_alpha * constants.l_yx * tau0 + 2.0 * constants.l_yy) * sigma0
    delta = min(1.0 - constants.l_yx / kind.c_alpha, 1.0 - product)
    return delta, product


def make_schedule(kind: ScheduleKind, constants: ProblemConstants) -> ScheduleState:
    """Validated initial :class:`ScheduleState` for iteration 0."""
    if isinstance(kind, (ConstantSchedule, AdaptiveSchedule)):
        tau0 = kind.tau if isinstance(kind, ConstantSchedule) else kind.tau0
        sigma0 = kind.sigma if isinstance(kind, ConstantSchedule) else kind.sigma0
        if tau0 <= 0 or sigma0 <= 0:
            raise StepSizeViolationError("step sizes must be positive")
        if kind.c_alpha <= constants.l_yx:
            raise StepSizeViolationError(
                f"c_alpha > l_yx required: {kind.c_alpha} <= {constants.l_yx}"
            )
        delta, product = _delta_product(kind, constants)
        if product >= 1.0:
            raise StepSizeViolationError(
                "(c_alpha*l_yx*tau0 + 2*l_yy)*sigma0 < 1 required, "
                f"got {product}"
            )
        if isinstance(kind, AdaptiveSchedule):
            if constants.nu <= 0:
                raise StepSizeViolationError("adaptive schedule requires nu > 0")
            cap = ADAPTIVE_SIGMA0_FACTOR / constants.nu
            if sigma0 > cap:
                raise StepSizeViolationError(
                    f"sigma0 <= (9+3*sqrt(13))/(2*nu) required: {sigma0} > {cap}"
                )
        return ScheduleState(
            theta=1.0, tau=tau0, sigma=sigma0, t=1.0, alpha=kind.c_alpha * tau0,
            delta=delta, tau0=tau0, sigma0=sigma0,
        )

    if isinstance(kind, LinearSchedule):
        if constants.mu <= 0 or constants.nu <= 0:
            raise StepSizeViolationError("linear schedule requires mu > 0 and nu > 0")
        if kind.alpha <= 0:
            raise StepSizeViolationError("alpha must be positive")
        threshold = theta_threshold(kind.alpha, constants)
        if not (threshold < kind.theta < 1.0):
            raise StepSizeViolationError(
                f"theta must lie strictly in ({threshold}, 1), got {kind.theta}"
            )
        tau = (1.0 - kind.theta) / (constants.mu * kind.theta)
        sigma = (1.0 - kind.theta) / (constants.nu * kind.theta)
        margin = 1.0 - kind.theta * sigma * (kind.alpha * constants.l_yx + constants.l_yy)
        if margin <= 0.0:
            raise StepSizeViolationError(
                f"1 - theta*sigma*(alpha*l_yx + l_yy) must be positive, got {margin}"
            )
        return ScheduleState(
            theta=kind.theta, tau=tau, sigma=sigma, t=1.0, alpha=kind.alpha,
            delta=margin, tau0=tau, sigma0=sigma,
        )

    raise TypeError(f"unknown schedule kind {type(kind).__name__}")


def advance_schedule(state: ScheduleState, kind: ScheduleKind,
                     constants: ProblemConstants) -> ScheduleState:
    """State for the step after ``state``'s; the constant law's is ``state``."""
    if isinstance(kind, ConstantSchedule):
        return state
    # built positionally: dataclasses.replace costs several times more per iteration
    if isinstance(kind, AdaptiveSchedule):
        theta = 1.0 / math.sqrt(1.0 + constants.nu * state.sigma)
        tau = state.tau / theta
        # deriving sigma from the invariant tau_k*sigma_k = tau0*sigma0
        # keeps the product exact to one ulp over any horizon
        sigma = (state.tau0 * state.sigma0) / tau
        return ScheduleState(theta, tau, sigma, state.t / theta, kind.c_alpha * state.tau,
                             state.delta, state.tau0, state.sigma0)
    if isinstance(kind, LinearSchedule):
        return ScheduleState(state.theta, state.tau, state.sigma, state.t / state.theta,
                             state.alpha, state.delta, state.tau0, state.sigma0)
    raise TypeError(f"unknown schedule kind {type(kind).__name__}")


def assumption_slacks(state: ScheduleState, kind: ScheduleKind,
                      constants: ProblemConstants) -> tuple[float, float]:
    """Slacks of the two step-size inequalities at the current iteration.

    Returns ``((1-delta)/tau_k - l_yx/alpha_{k+1},
    (1-delta)/sigma_k - l_yx*alpha_k*theta_k - l_yy*(1+theta_k))``; both
    must be nonnegative.  Defined for the constant and adaptive laws.
    """
    if isinstance(kind, LinearSchedule):
        raise TypeError("assumption slacks apply to the constant/adaptive laws")
    alpha_next = kind.c_alpha * state.tau
    slack_tau = (1.0 - state.delta) / state.tau - constants.l_yx / alpha_next
    slack_sigma = (1.0 - state.delta) / state.sigma - (
        constants.l_yx * state.alpha * state.theta
        + constants.l_yy * (1.0 + state.theta)
    )
    return slack_tau, slack_sigma


def sigma_tilde(state: ScheduleState, kind: LinearSchedule) -> float:
    """Effective dual step ``sigma / (1 - theta*sigma*(alpha*l_yx + l_yy))``."""
    if not isinstance(kind, LinearSchedule):
        raise TypeError("sigma_tilde is defined for the linear law")
    return state.sigma / state.delta
