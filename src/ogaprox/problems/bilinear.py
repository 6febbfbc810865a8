"""Bilinear coupling ``Phi(x, y) = <y, A x>``, optionally with a box on y.

With a bilinear coupling the x-prox is the exact affine map
``x - tau * A' y``, and the iteration coincides with the primal-dual
hybrid gradient method; the equivalence is exercised in the tests.
"""

import numpy as np

from ..problem import ProblemConstants, SaddleProblem

__all__ = ["BilinearProblem"]


class BilinearProblem(SaddleProblem):
    def __init__(self, a_matrix, box: tuple[float, float] | None = None, nu: float = 0.0):
        a = np.asarray(a_matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError("a_matrix must be 2-d")
        if box is not None and not box[0] < box[1]:
            raise ValueError("box bounds must satisfy lower < upper")
        self.a = a
        self.box = box
        self.nu = float(nu)
        self.dim_y, self.dim_x = a.shape
        self.constants = ProblemConstants(l_yx=1.001 * float(np.linalg.norm(a, 2)), l_yy=0.0,
                                          mu=0.0, nu=self.nu)

    def grad_y(self, x, y):
        return self.a @ x

    def prox_phi_x(self, tau, y, x):
        return x - tau * (self.a.T @ y)

    def prox_g(self, sigma, v):
        w = np.asarray(v, float) / (1.0 + self.nu * sigma)
        if self.box is None:
            return w
        return np.clip(w, self.box[0], self.box[1])

    def phi_value(self, x, y):
        return float(y @ (self.a @ x))

    def g_value(self, y):
        if self.box is not None:
            lo, hi = self.box
            if np.min(y) < lo - 1e-8 or np.max(y) > hi + 1e-8:
                return np.inf
        return 0.5 * self.nu * float(y @ y)

    def sample_point(self, rng):
        x = rng.standard_normal(self.dim_x)
        y = rng.standard_normal(self.dim_y)
        if self.box is not None:
            y = np.clip(y, self.box[0], self.box[1])
        return x, y
