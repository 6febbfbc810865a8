"""Linear-quadratic coupling, optionally with a box on y.

``Phi(x, y) = mu/2 ||x||^2 + y'Ax + b'x`` and ``g(y) = nu/2 ||y||^2 + c'y``
plus the indicator of ``box``, with ``b = c = 0`` by default and
``mu, nu >= 0``.  Both proxes are affine, the y-prox then clipped to the box.
At ``mu = 0``, ``b = c = 0`` the x-prox is ``x - tau A'y`` and the iteration
is the primal-dual hybrid gradient method, as the tests check.  Without a
box the saddle point solves ``[[mu I, A'], [A, -nu I]] (x; y) = (-b; c)``.
"""

import numpy as np

from ..problem import MissingSaddlePointError, ProblemConstants, SaddleProblem

__all__ = ["QuadraticSaddleProblem"]


class QuadraticSaddleProblem(SaddleProblem):
    def __init__(self, a_matrix, b_lin=None, c_lin=None, mu: float = 0.0, nu: float = 0.0,
                 box: tuple[float, float] | None = None):
        self.a = np.asarray(a_matrix, dtype=float)
        if self.a.ndim != 2:
            raise ValueError("a_matrix must be 2-d")
        self.dim_y, self.dim_x = self.a.shape
        self.b = np.zeros(self.dim_x) if b_lin is None else np.asarray(b_lin, dtype=float)
        self.c = np.zeros(self.dim_y) if c_lin is None else np.asarray(c_lin, dtype=float)
        if self.b.shape != (self.dim_x,) or self.c.shape != (self.dim_y,):
            raise ValueError("inconsistent dimensions")
        if box is not None and not box[0] < box[1]:
            raise ValueError("box bounds must satisfy lower < upper")
        self.box = box
        self.mu = float(mu)
        self.nu = float(nu)
        self.constants = ProblemConstants(l_yx=1.001 * float(np.linalg.norm(self.a, 2)),
                                          l_yy=0.0, mu=self.mu, nu=self.nu)

    def grad_y(self, x, y):
        return self.a @ x

    def prox_phi_x(self, tau, y, x):
        return (x - tau * (self.a.T @ y + self.b)) / (1.0 + tau * self.mu)

    def prox_g(self, sigma, v):
        w = (np.asarray(v, float) - sigma * self.c) / (1.0 + sigma * self.nu)
        return w if self.box is None else np.clip(w, *self.box)

    def phi_value(self, x, y):
        return 0.5 * self.mu * float(x @ x) + float(y @ (self.a @ x)) + float(self.b @ x)

    def g_value(self, y):
        if self.box is not None and (np.min(y) < self.box[0] - 1e-8
                                     or np.max(y) > self.box[1] + 1e-8):
            return np.inf
        return 0.5 * self.nu * float(y @ y) + float(self.c @ y)

    def sample_point(self, rng):
        x, y = rng.standard_normal(self.dim_x), rng.standard_normal(self.dim_y)
        return x, (y if self.box is None else np.clip(y, *self.box))

    def saddle_point(self) -> tuple[np.ndarray, np.ndarray]:
        """Solve the defining linear system; residual checked to 1e-10.  A
        singular system raises :class:`MissingSaddlePointError`."""
        if self.box is not None:
            raise MissingSaddlePointError("no closed-form saddle point with a box on y")
        d, n = self.dim_x, self.dim_y
        system = np.block([[self.mu * np.eye(d), self.a.T], [self.a, -self.nu * np.eye(n)]])
        rhs = np.concatenate([-self.b, self.c])
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as err:
            raise MissingSaddlePointError(f"singular saddle system: {err}") from err
        residual = float(np.max(np.abs(system @ solution - rhs)))
        if residual > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
            raise RuntimeError(f"saddle system residual {residual} too large")
        return solution[:d], solution[d:]

    def gap_value(self, saddle, pair):
        """Cancellation-free gap: without a box, for the exact saddle point
        ``gap = mu/2 ||x - x*||^2 + nu/2 ||y - y*||^2``."""
        if self.box is not None:
            return super().gap_value(saddle, pair)
        x_star, y_star = saddle
        x, y = pair
        dx = np.asarray(x, float) - x_star
        dy = np.asarray(y, float) - y_star
        return 0.5 * self.mu * float(dx @ dx) + 0.5 * self.nu * float(dy @ dy)
