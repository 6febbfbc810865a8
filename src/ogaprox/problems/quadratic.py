"""Strongly convex-strongly concave quadratic with a closed-form saddle.

``Phi(x, y) = mu/2 ||x||^2 + y'Ax + b'x`` and
``g(y) = nu/2 ||y||^2 + c'y``; both proxes are affine and the unique
saddle point solves the linear system
``[[mu I, A'], [A, -nu I]] (x; y) = (-b; c)``.  Serves as the exactly
checkable instance for the linear-rate certificate and fixed-point tests.
"""

import numpy as np

from ..problem import ProblemConstants, SaddleProblem

__all__ = ["QuadraticSaddleProblem"]


class QuadraticSaddleProblem(SaddleProblem):
    def __init__(self, a_matrix, b_lin, c_lin, mu: float, nu: float):
        a = np.asarray(a_matrix, dtype=float)
        b = np.asarray(b_lin, dtype=float)
        c = np.asarray(c_lin, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[1],) or c.shape != (a.shape[0],):
            raise ValueError("inconsistent dimensions")
        if mu <= 0 or nu <= 0:
            raise ValueError("mu and nu must be positive")
        self.a = a
        self.b = b
        self.c = c
        self.mu = float(mu)
        self.nu = float(nu)
        self.dim_y, self.dim_x = a.shape
        self.constants = ProblemConstants(
            l_yx=1.001 * float(np.linalg.norm(a, 2)), l_yy=0.0, mu=self.mu, nu=self.nu
        )

    def grad_y(self, x, y):
        return self.a @ x

    def prox_phi_x(self, tau, y, x):
        return (x - tau * (self.a.T @ y + self.b)) / (1.0 + tau * self.mu)

    def prox_g(self, sigma, v):
        return (np.asarray(v, float) - sigma * self.c) / (1.0 + sigma * self.nu)

    def phi_value(self, x, y):
        return 0.5 * self.mu * float(x @ x) + float(y @ (self.a @ x)) + float(self.b @ x)

    def g_value(self, y):
        return 0.5 * self.nu * float(y @ y) + float(self.c @ y)

    def sample_point(self, rng):
        return rng.standard_normal(self.dim_x), rng.standard_normal(self.dim_y)

    def saddle_point(self) -> tuple[np.ndarray, np.ndarray]:
        """Solve the defining linear system; residual checked to 1e-10."""
        d, n = self.dim_x, self.dim_y
        system = np.block([
            [self.mu * np.eye(d), self.a.T],
            [self.a, -self.nu * np.eye(n)],
        ])
        rhs = np.concatenate([-self.b, self.c])
        solution = np.linalg.solve(system, rhs)
        residual = float(np.max(np.abs(system @ solution - rhs)))
        if residual > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
            raise RuntimeError(f"saddle system residual {residual} too large")
        return solution[:d], solution[d:]

    def gap_value(self, saddle, pair):
        """Cancellation-free gap: for the exact saddle point the identity
        ``gap = mu/2 ||x - x*||^2 + nu/2 ||y - y*||^2`` holds."""
        x_star, y_star = saddle
        x, y = pair
        dx = np.asarray(x, float) - x_star
        dy = np.asarray(y, float) - y_star
        return 0.5 * self.mu * float(dx @ dx) + 0.5 * self.nu * float(dy @ dy)
