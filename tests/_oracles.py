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
