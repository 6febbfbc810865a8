"""Nonsmooth-linear test problem on a polyhedral cone.

``min_x max_y <[x]_+, A y> - (delta_C(y) + nu/2 ||y||^2)`` with
``C = {y : A y >= 0}`` and ``[.]_+`` the componentwise positive part.
The x-prox is a componentwise scaled positive-part prox, the y-prox a
scaled projection onto ``C``.  For full-row-rank ``A`` the saddle points
are exactly ``x* <= 0`` with ``y* = 0`` when ``nu > 0`` (any ``y*`` in
``C`` when ``nu = 0``).
"""

import numpy as np

from ..problem import ProblemConstants, PsiUndefinedError, SaddleProblem
from ..prox import PolytopeProjector, RankDeficientError, solve_polytope_dual

__all__ = ["ToyProblem", "random_toy_problem"]

_FEAS_TOL = 1e-8


def spectral_norm(a: np.ndarray) -> float:
    """Power iteration on ``A'A`` (at most 200 steps, stopping at a relative
    change of 1e-12); result inflated by 1.001 so downstream step-size
    conditions hold for the true norm as well."""
    rng = np.random.Generator(np.random.Philox(12345))
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(200):
        w = a.T @ (a @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new_value = float(np.sqrt(norm_w))
        if abs(new_value - value) <= 1e-12 * max(1.0, new_value):
            value = new_value
            break
        value = new_value
    return 1.001 * value


class ToyProblem(SaddleProblem):
    def __init__(self, a_matrix, nu: float = 0.0):
        if nu < 0:
            raise ValueError("nu must be nonnegative")
        self._projector = PolytopeProjector(a_matrix)  # rejects A without full row rank
        self.a = self._projector.a
        self.nu = float(nu)
        self.dim_x, self.dim_y = self.a.shape
        self.constants = ProblemConstants(l_yx=spectral_norm(self.a), l_yy=0.0, mu=0.0, nu=self.nu)

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

    def gap_value(self, saddle, pair):
        """Stable gap: indicator terms resolved by feasibility checks."""
        x_star, y_star = saddle
        x, y = pair
        for point, name in ((y_star, "y*"), (y, "y")):
            if self.g_value(point) == np.inf:
                raise PsiUndefinedError(f"{name} outside the cone beyond tolerance")
        lhs = self.phi_value(x, y_star) - 0.5 * self.nu * float(y_star @ y_star)
        rhs = self.phi_value(x_star, y) - 0.5 * self.nu * float(y @ y)
        return lhs - rhs

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
