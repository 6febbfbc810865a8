"""Saddle-problem interface and numerical validation of its assumptions.

A problem is ``min_x max_y Psi(x, y) = Phi(x, y) - g(y)`` where ``Phi`` is
convex in ``x``, concave and smooth in ``y``, and ``g`` is convex with
modulus ``nu >= 0``.  Concrete problems expose the y-gradient of ``Phi``,
the prox of ``tau * Phi(., y)``, the prox of ``sigma * g`` and the four
constants driving step-size schedules; :func:`validate_problem` checks the
Lipschitz bound and, by :func:`prox_inequality_gap`, both proxes.

Extended-real values use IEEE ``inf``; the one hazardous operation,
``Phi - g`` with both infinite, follows the convention
``+inf - (+inf) := +inf`` and is confined to :meth:`SaddleProblem.psi_value`
so gap reporting can never silently produce NaN.
"""

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProblemConstants",
    "SaddleProblem",
    "ValidationReport",
    "validate_problem",
    "prox_inequality_gap",
    "PsiUndefinedError",
    "MissingSaddlePointError",
]


class PsiUndefinedError(ArithmeticError):
    """Objective difference of the form inf - inf; the gap is undefined."""


class MissingSaddlePointError(ValueError):
    """Operation needs a known saddle point but none is available."""


@dataclass(frozen=True)
class ProblemConstants:
    """Lipschitz and strong-convexity constants of one saddle problem.

    ``l_yx`` and ``l_yy`` bound the y-gradient variation,
    ``||grad_y(x,y) - grad_y(x',y')|| <= l_yx ||x-x'|| + l_yy ||y-y'||``;
    ``mu`` is the modulus of ``Phi(., y)`` and ``nu`` the modulus of ``g``.
    """

    l_yx: float
    l_yy: float
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        for name in ("l_yx", "l_yy", "mu", "nu"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a nonnegative finite real, got {value}")


class SaddleProblem(abc.ABC):
    """Behavioral interface consumed by the solver.

    Required: :meth:`grad_y`, :meth:`prox_phi_x`, :meth:`prox_g` plus the
    ``dim_x``/``dim_y``/``constants`` attributes.  Optional capabilities
    (objective values, feasible-point sampling, saddle points) unlock
    validation, gap certificates and fixed-point tests.  The solver calls an
    optional fused ``prox_step(sigma, v, tau, x)`` in place of ``prox_g``,
    ``prox_phi_x`` and ``grad_y``; it must return their ``(y, x, grad)`` bit for bit.
    """

    dim_x: int
    dim_y: int
    constants: ProblemConstants

    @abc.abstractmethod
    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of ``Phi(x, .)`` at ``y``."""

    @abc.abstractmethod
    def prox_phi_x(self, tau: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Unique minimizer of ``u -> tau * Phi(u, y) + 0.5 ||u - x||^2``."""

    @abc.abstractmethod
    def prox_g(self, sigma: float, v: np.ndarray) -> np.ndarray:
        """Unique minimizer of ``w -> sigma * g(w) + 0.5 ||w - v||^2``."""

    # -- optional capabilities -------------------------------------------

    def phi_value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Value of ``Phi`` (may be ``+inf`` outside its domain)."""
        raise NotImplementedError

    def g_value(self, y: np.ndarray) -> float:
        """Value of ``g`` (may be ``+inf`` outside its domain)."""
        raise NotImplementedError

    def psi_value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Extended-real ``Psi = Phi - g`` under ``+inf - (+inf) := +inf``."""
        phi = self.phi_value(x, y)
        if phi == np.inf:
            return np.inf
        g = self.g_value(y)
        if g == np.inf:
            return -np.inf
        return phi - g

    def gap_value(self, saddle: tuple[np.ndarray, np.ndarray],
                  pair: tuple[np.ndarray, np.ndarray]) -> float:
        """Minimax gap ``Psi(x, y*) - Psi(x*, y)`` for ``pair = (x, y)``.

        Nonnegative for any saddle point ``(x*, y*)``.  Problems with a
        cancellation-prone ``Psi`` override this with a stable form.
        """
        x_star, y_star = saddle
        x, y = pair
        lhs = self.psi_value(x, y_star)
        rhs = self.psi_value(x_star, y)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise PsiUndefinedError(
                f"gap needs finite objective values, got {lhs} and {rhs}"
            )
        return lhs - rhs

    def sample_point(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Random feasible ``(x, y)`` with ``x`` in the x-domain, ``y`` in dom g."""
        raise NotImplementedError

    def check_start(self, x0: np.ndarray, y0: np.ndarray) -> None:
        """Raise ``ValueError`` if ``(x0, y0)`` is not a valid starting pair:
        the shapes must match and ``y0`` must lie in dom g, which is checked
        when the problem implements :meth:`g_value`."""
        if np.shape(x0) != (self.dim_x,) or np.shape(y0) != (self.dim_y,):
            raise ValueError("starting point dimensions do not match the problem")
        if type(self).g_value is not SaddleProblem.g_value and self.g_value(y0) == np.inf:
            raise ValueError("y0 must lie in dom g")


@dataclass(frozen=True)
class ValidationReport:
    """Worst observed violations of the standing assumptions."""

    trials: int
    lipschitz_violation: float
    prox_violation: float | None
    tolerance: float = 1e-8

    @property
    def ok(self) -> bool:
        prox_ok = self.prox_violation is None or self.prox_violation <= self.tolerance
        return self.lipschitz_violation <= self.tolerance and prox_ok


def prox_inequality_gap(f, x, p, points) -> float:
    """``max_u (<x - p, u - p> - (f(u) - f(p))) / (1 + |f(p)| + ||x - p||^2)``
    over ``points`` in dom f, and ``inf`` if ``f(p) = inf``.

    ``p = prox_f(x)`` exactly when the numerator is at most 0 for every ``u``
    (Beck 2017, Thm 6.39), so a positive value proves ``p`` wrong.
    """
    x, p = np.asarray(x, float), np.asarray(p, float)
    f_p = f(p)
    if f_p == np.inf:
        return np.inf
    worst = max(float((x - p) @ (u - p)) - (f(u) - f_p) for u in points)
    return worst / (1.0 + abs(f_p) + float((x - p) @ (x - p)))


def validate_problem(problem: SaddleProblem, trials: int, seed: int) -> ValidationReport:
    """Spot-check the Lipschitz bound and both prox operators numerically.

    Draws ``trials`` random feasible pairs for the gradient bound.  If the problem
    defines ``phi_value`` and ``g_value``, each prox also answers ``trials`` random
    queries, judged by :func:`prox_inequality_gap` on the feasible points
    ``p + t (s - p)``, ``t`` in {1e-3, 0.1, 1}, toward four ``sample_point`` outputs
    ``s``; else ``prox_violation`` is ``None``.  Violations are reported, not raised.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    from .rng import make_rng

    rng = make_rng(seed, 11)
    consts = problem.constants

    lip_worst = 0.0
    for _ in range(trials):
        x_a, y_a = problem.sample_point(rng)
        x_b, y_b = problem.sample_point(rng)
        lhs = float(np.linalg.norm(problem.grad_y(x_a, y_a) - problem.grad_y(x_b, y_b)))
        bound = consts.l_yx * float(np.linalg.norm(x_a - x_b))
        bound += consts.l_yy * float(np.linalg.norm(y_a - y_b))
        lip_worst = max(lip_worst, (lhs - bound) / max(1.0, bound))

    prox_worst: float | None = None
    if all(getattr(type(problem), name, None) is not getattr(SaddleProblem, name)
           for name in ("phi_value", "g_value")):
        prox_worst = -np.inf
        for _ in range(trials):
            x_ref, y_ref = problem.sample_point(rng)
            xs, ys = zip(*(problem.sample_point(rng) for _ in range(4)))
            tau, sigma = 10.0 ** rng.uniform(-2, 0.5, 2)
            x_query = x_ref + rng.standard_normal(problem.dim_x)
            v_query = y_ref + rng.standard_normal(problem.dim_y)
            checks = ((lambda u: tau * problem.phi_value(u, y_ref), x_query,
                       problem.prox_phi_x(tau, y_ref, x_query), xs),
                      (lambda w: sigma * problem.g_value(w), v_query,
                       problem.prox_g(sigma, v_query), ys))
            for f, query, p, ends in checks:
                points = [p + t * (s - p) for s in ends for t in (1e-3, 0.1, 1.0)]
                prox_worst = max(prox_worst, prox_inequality_gap(f, query, p, points))

    return ValidationReport(trials, lip_worst, prox_worst)
