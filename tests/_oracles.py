"""Reference implementations that only the tests call.

They check the fast paths of ``ogaprox`` against a slower or more literal
form of the same operator; nothing in the library imports them.
:func:`prox_oracle` samples perturbations of a claimed prox, so it sees
nothing on a set with empty interior; the library's own prox check,
``ogaprox.problem.prox_inequality_gap``, does.  :func:`spy_on_run` hands
tests the live objects an experiment driver runs on, since a driver
returns only its report.
"""

from typing import Callable

import numpy as np

from ogaprox import experiments
from ogaprox.prox import _as_vector
from ogaprox.rng import make_rng
from ogaprox.schedule import AdaptiveSchedule, schedule_margin


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
    """``ogaprox.prox.project_simplex`` with numpy array operations at every
    size: the reference its scalar path must match bit for bit."""
    x = _as_vector(v)
    u = np.sort(x)[::-1]
    if max(u[0], -u[-1]) < 2.0**1000:  # the sums below stay finite
        cumulative = np.cumsum(u) - 1.0
        rho_candidates = np.nonzero(u * np.arange(1, x.size + 1) > cumulative)[0]
        if rho_candidates.size:  # empty when |u[0]| >= 2**53 rounds u[0] - 1 to u[0]
            rho = rho_candidates[-1]
            threshold = cumulative[rho] / (rho + 1.0)
            return np.maximum(x - threshold, 0.0)
    with np.errstate(over="ignore"):  # entries below max(x) - 1 project to 0
        return project_simplex_numpy(np.maximum(x - u[0], -1.0))


def one_step_accepts(s, v) -> bool:
    """Whether ``ogaprox.prox.project_box_hyperplane`` keeps the root of its
    one Newton step on a set of fewer than ``10**5`` entries, by the
    pattern-and-margin test written in one expression: below that size the
    breakpoint search must run exactly when this is false."""
    w = _as_vector(v)
    n, upper, abs_n = s.normal, s.upper, s._abs_n
    y0 = np.minimum(np.maximum(w - float(n @ w) / s._nn * n, 0.0), upper)
    free = (y0 > 0.0) & (y0 < upper)
    slope = float(n[free] @ n[free])
    if not slope > 0.0:
        return False
    t = float(n @ np.where(free, w, y0)) / slope
    z = w - t * n
    y = np.minimum(np.maximum(z, 0.0), upper)
    scale = float(abs_n @ (np.abs(w) + np.abs(z) + np.abs(y0)))
    return bool(np.array_equal(y, np.where(free, z, y0)) and (np.minimum(
        np.abs(z), np.abs(z - upper)) > 1e-10 * scale / slope * abs_n).all())


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


def outside_cone_formula(slack, tol: float = 1e-8) -> bool:
    """The toy problem's cone test as one expression: ``min(A y)`` below
    ``-tol`` times the larger of 1 and ``max|A y|``."""
    return bool(np.min(slack) < -tol * max(1.0, float(np.max(np.abs(slack)))))


class ThreeCalls:
    """A problem with its fused ``prox_step`` hidden, so ``step`` calls
    ``prox_g``, ``prox_phi_x`` and ``grad_y`` in turn."""

    prox_step = None

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        return getattr(self._problem, name)
