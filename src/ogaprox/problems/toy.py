"""Nonsmooth-linear test problem on a polyhedral cone.

``min_x max_y <[x]_+, A y> - (delta_C(y) + nu/2 ||y||^2)`` with
``C = {y : A y >= 0}`` and ``[.]_+`` the componentwise positive part.
The x-prox is a componentwise scaled positive-part prox, the y-prox a
scaled projection onto ``C``.  For full-row-rank ``A`` the saddle points
are exactly ``x* <= 0`` with ``y* = 0`` when ``nu > 0`` (any ``y*`` in
``C`` when ``nu = 0``).  The fused ``prox_step`` takes both proxes from one
cone image ``A y`` and tests the cone once: where the projector finds ``v``
inside, its test was ``A y >= 0`` and the x-prox does not repeat it.  At
``x <= 0`` the x-prox is the identity and ``grad_y`` is exactly zero, so the
step tests ``x <= 0`` once and does not multiply by ``A``.
"""

import copy
import dataclasses

import numpy as np

from ..problem import ProblemConstants, SaddleProblem
from ..prox import PolytopeProjector, RankDeficientError, solve_polytope_dual

__all__ = ["ToyProblem", "random_toy_problem"]

_FEAS_TOL = 1e-8


def _outside_cone(slack: np.ndarray) -> bool:
    """``A y >= 0`` fails by more than ``_FEAS_TOL`` relative to the largest
    ``|A y|`` (a NaN slack is not flagged; the solver's finiteness check is).
    The largest ``|A y|`` is taken only when some slack is negative."""
    low = np.minimum.reduce(slack)
    return low < 0.0 and low < -_FEAS_TOL * max(1.0, float(np.abs(slack).max()))


class ToyProblem(SaddleProblem):
    def __init__(self, a_matrix, nu: float = 0.0):
        self._projector = PolytopeProjector(a_matrix)  # rejects A without full row rank
        self.a = self._projector.a
        self.dim_x, self.dim_y = self.a.shape
        # 1.001 * ||A|| from the projector's singular values; rejects nu < 0, NaN, inf
        self.constants = ProblemConstants(l_yx=1.001 * self._projector.norm, l_yy=0.0,
                                          nu=float(nu))

    def with_nu(self, nu: float) -> "ToyProblem":
        """This instance, ``a`` and its stateless projector shared, with modulus ``nu``."""
        other = copy.copy(self)
        other.constants = dataclasses.replace(self.constants, nu=float(nu))
        return other

    def grad_y(self, x, y):
        return self.a.T.dot(np.maximum(x, 0.0))

    def prox_phi_x(self, tau, y, x):
        return self._prox_x(tau, self.a.dot(y), x, False)[0]

    def _prox_x(self, tau, w, x, inside):  # prox_phi_x given w = A y, and whether x <= 0
        if not inside and _outside_cone(w):  # inside: the projector just found A y >= 0
            raise ValueError("prox_phi_x needs feasible y (A y >= 0)")
        x = np.asarray(x, dtype=float)
        if np.maximum.reduce(x) <= 0.0:  # the formula below is the identity here
            return x.copy(), True
        w = np.maximum(w, 0.0)
        return np.where(x <= 0.0, x, np.where(x <= tau * w, 0.0, x - tau * w)), False

    def _scaled(self, sigma, v):  # v / (1 + nu sigma); at nu = 0 v as given: the projector converts
        nu = self.constants.nu
        return np.asarray(v, float) / (1.0 + nu * sigma) if nu else v

    def prox_g(self, sigma, v):
        return self._projector.project(self._scaled(sigma, v))

    def prox_step(self, sigma, v, tau, x):
        """The three oracles at once, the x-prox reading the projection's ``A y``."""
        y, w, inside = self._projector._project(self._scaled(sigma, v))
        x_next, inactive = self._prox_x(tau, w if inside else self.a.dot(y), x, inside)
        return y, x_next, np.zeros(self.dim_y) if inactive else self.grad_y(x_next, y)

    def phi_value(self, x, y):
        return float(np.maximum(x, 0.0) @ (self.a @ y))

    def g_value(self, y):
        if _outside_cone(self.a @ y):
            return np.inf
        return 0.5 * self.constants.nu * float(y @ y)

    def sample_point(self, rng):
        x = rng.uniform(-5.0, 5.0, self.dim_x)
        y = self._projector.project(rng.uniform(-5.0, 5.0, self.dim_y))
        return x, y

    def saddle_point(self) -> tuple[np.ndarray, np.ndarray]:
        """``x* = -e`` always; ``y* = 0`` for ``nu > 0``, otherwise a unit
        vector with ``A y* > 0`` from the min-norm point of ``{A y >= e}``:
        the projection of 0 by the cone projector's dual kernel with
        ``h = e``, where every row starts violated and so free."""
        x_star = -np.ones(self.dim_x)
        if self.constants.nu > 0:
            return x_star, np.zeros(self.dim_y)
        lam = solve_polytope_dual(self._projector.gram, -np.ones(self.dim_x))
        y = self.a.T @ lam
        return x_star, y / np.linalg.norm(y)


def random_toy_problem(d: int, n: int, nu: float, rng: np.random.Generator) -> ToyProblem:
    """Entries uniform on [-3, 3]; redrawn until the row rank is full."""
    for _ in range(20):
        try:
            return ToyProblem(rng.uniform(-3.0, 3.0, (d, n)), nu=nu)
        except RankDeficientError:
            continue
    raise RuntimeError("could not draw a full-row-rank matrix")
