"""Nonsmooth-linear test problem on a polyhedral cone.

``min_x max_y <[x]_+, A y> - (delta_C(y) + nu/2 ||y||^2)`` with
``C = {y : A y >= 0}`` and ``[.]_+`` the componentwise positive part.
The x-prox is a componentwise scaled positive-part prox, the y-prox a
scaled projection onto ``C``.  For full-row-rank ``A`` the saddle points
are exactly ``x* <= 0`` with ``y* = 0`` when ``nu > 0`` (any ``y*`` in
``C`` when ``nu = 0``).
"""

import numpy as np

from ..problem import ProblemConstants, SaddleProblem
from ..prox import PolytopeProjector, RankDeficientError, solve_polytope_dual

__all__ = ["ToyProblem", "random_toy_problem"]

_FEAS_TOL = 1e-8


class ToyProblem(SaddleProblem):
    def __init__(self, a_matrix, nu: float = 0.0):
        if nu < 0:
            raise ValueError("nu must be nonnegative")
        self._projector = PolytopeProjector(a_matrix)  # rejects A without full row rank
        self.a = self._projector.a
        self.nu = float(nu)
        self.dim_x, self.dim_y = self.a.shape
        # 1.001 * ||A||, from the singular values of the projector's rank check
        self.constants = ProblemConstants(l_yx=1.001 * self._projector.norm, l_yy=0.0, nu=self.nu)

    def grad_y(self, x, y):
        return self.a.T @ np.maximum(x, 0.0)

    def prox_phi_x(self, tau, y, x):
        w = self.a @ y
        if np.min(w) < -1e-10 * max(1.0, float(np.max(np.abs(w)))):
            raise ValueError("prox_phi_x needs feasible y (A y >= 0)")
        w = np.maximum(w, 0.0)
        x = np.asarray(x, dtype=float)
        out = np.where(x <= 0.0, x, np.where(x <= tau * w, 0.0, x - tau * w))
        return out

    def prox_g(self, sigma, v):
        return self._projector.project(np.asarray(v, float) / (1.0 + self.nu * sigma))

    def phi_value(self, x, y):
        return float(np.maximum(x, 0.0) @ (self.a @ y))

    def g_value(self, y):
        slack = self.a @ y
        if np.min(slack) < -_FEAS_TOL * max(1.0, float(np.max(np.abs(slack)))):
            return np.inf
        return 0.5 * self.nu * float(y @ y)

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
        if self.nu > 0:
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
