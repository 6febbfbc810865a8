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
from ..prox import PolytopeProjector, project_polyhedron

__all__ = ["ToyProblem", "random_toy_problem"]

_FEAS_TOL = 1e-8


class RankDeficientError(ValueError):
    """The constraint matrix does not have full row rank."""


def spectral_norm(a: np.ndarray, iters: int = 200, tol: float = 1e-12) -> float:
    """Power iteration on ``A'A``; result inflated by 1.001 so downstream
    step-size conditions hold for the true norm as well."""
    rng = np.random.Generator(np.random.Philox(12345))
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(iters):
        w = a.T @ (a @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new_value = float(np.sqrt(norm_w))
        if abs(new_value - value) <= tol * max(1.0, new_value):
            value = new_value
            break
        value = new_value
    return 1.001 * value


class ToyProblem(SaddleProblem):
    def __init__(self, a_matrix, nu: float = 0.0):
        a = np.asarray(a_matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError("a_matrix must be 2-d")
        if nu < 0:
            raise ValueError("nu must be nonnegative")
        d, n = a.shape
        singular = np.linalg.svd(a, compute_uv=False)
        if singular[-1] <= 1e-8 * singular[0]:
            raise RankDeficientError("a_matrix must have full row rank")
        self.a = a
        self.nu = float(nu)
        self.dim_x = d
        self.dim_y = n
        self.constants = ProblemConstants(l_yx=spectral_norm(a), l_yy=0.0, mu=0.0, nu=self.nu)
        self._projector = PolytopeProjector(a)

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

    def check_start(self, x0, y0):
        super().check_start(x0, y0)
        if self.g_value(y0) == np.inf:
            raise ValueError("y0 must lie in the cone {A y >= 0}")

    def saddle_point(self) -> tuple[np.ndarray, np.ndarray]:
        """``x* = -e`` always; ``y* = 0`` for ``nu > 0``, otherwise a unit
        vector with ``A y* > 0`` from the min-norm point of ``{A y >= e}``:
        the projection of 0 by the cone projector's dual kernel with
        ``h = e``, started with every constraint active (the dense QP only
        on a stall, with a warning)."""
        x_star = -np.ones(self.dim_x)
        if self.nu > 0:
            return x_star, np.zeros(self.dim_y)
        y, _ = project_polyhedron(self.a, self._projector.gram, np.zeros(self.dim_y),
                                  np.ones(self.dim_x), np.ones(self.dim_x, dtype=bool))
        return x_star, y / np.linalg.norm(y)


def random_toy_problem(d: int, n: int, nu: float, rng: np.random.Generator) -> ToyProblem:
    """Entries uniform on [-3, 3]; redrawn until the row rank is full."""
    for _ in range(20):
        try:
            return ToyProblem(rng.uniform(-3.0, 3.0, (d, n)), nu=nu)
        except RankDeficientError:
            continue
    raise RuntimeError("could not draw a full-row-rank matrix")
