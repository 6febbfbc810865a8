"""Reference implementations that only the tests call.

They check the fast paths of ``ogaprox`` against a slower or more literal
form of the same operator; nothing in the library imports them.
"""

import numpy as np


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


def prox_inequality_gap(f, x, p, points) -> float:
    """``max_u <x - p, u - p> - (f(u) - f(p))`` over ``points``, all in dom f.

    The second prox theorem (Beck 2017, Thm 6.39): ``p = prox_f(x)`` exactly
    when this is at most 0 for every ``u``, so a positive value over any
    feasible points proves ``p`` wrong.  Unlike random perturbations of
    ``p``, feasible points exist on sets with empty interior too.
    """
    x, p = np.asarray(x, float), np.asarray(p, float)
    f_p = f(p)
    return max(float((x - p) @ (u - p)) - (f(u) - f_p) for u in points)


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
