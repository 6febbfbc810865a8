"""Minimax-fair linear classification over data groups.

``Phi(x, y) = sum_i y_i * (average hinge loss of group i at x)`` with
``y`` on the probability simplex, so the adversary concentrates weight on
the worst-off group.  The x-prox is the weighted-hinge proximal problem,
solved exactly by an active-set method on the hinge kinks in x-space.
"""

from dataclasses import dataclass

import numpy as np

from ..problem import ProblemConstants, SaddleProblem
from ..prox import project_simplex

__all__ = ["Group", "FairnessProblem"]

_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class Group:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("each group needs at least one sample")
        if labs.shape != (feats.shape[0],) or not np.all(np.isin(labs, (-1.0, 1.0))):
            raise ValueError("labels must be +-1, one per sample")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def size(self) -> int:
        return self.features.shape[0]


class FairnessProblem(SaddleProblem):
    def __init__(self, groups: list[Group]):
        if not groups:
            raise ValueError("at least one group required")
        dims = {g.features.shape[1] for g in groups}
        if len(dims) != 1:
            raise ValueError("all groups must share the feature dimension")
        self.groups = list(groups)
        self.dim_x = dims.pop()
        self.dim_y = len(groups)
        # rows b_ij * a_ij stacked over groups; margins are 1 - signed @ x
        self.signed = np.vstack([g.labels[:, None] * g.features for g in groups])
        self.row_group = np.concatenate(
            [np.full(g.size, i) for i, g in enumerate(groups)]
        )
        self.group_sizes = np.array([g.size for g in groups], dtype=float)
        self.row_weight = 1.0 / self.group_sizes[self.row_group]
        l_yx = float(np.sqrt(sum(
            float(np.sum(g.features**2)) / g.size for g in groups
        )))
        self.constants = ProblemConstants(l_yx=l_yx, l_yy=0.0, mu=0.0, nu=0.0)

    def group_losses(self, x) -> np.ndarray:
        """Average hinge loss of each group at ``x``."""
        hinge = np.maximum(0.0, 1.0 - self.signed @ np.asarray(x, float))
        sums = np.bincount(self.row_group, weights=hinge, minlength=self.dim_y)
        return sums / self.group_sizes

    def grad_y(self, x, y):
        return self.group_losses(x)

    def prox_phi_x(self, tau, y, x):
        """Prox of the weighted hinge sum ``sum_i w_i max(0, 1 - s_i'u)``,
        ``w_i = tau y_g / n_g``, by an exact primal active-set method in x-space.

        Rows are hinged (multiplier ``w_i``), slack (0) or on their kink in
        the independent working set ``W``.  A step moves ``u`` towards
        ``z = x + sum_hinged w_i s_i`` in the null space of ``S_W`` and stops
        at the first kink crossing, whose row joins ``W``; at the minimizer
        on ``W`` the row whose multiplier lies furthest outside ``[0, w_i]``
        leaves to the side of its sign.  Steps descend and ties go to the
        lowest row, so the method is finite.
        """
        x = np.asarray(x, float)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        weights = tau * np.asarray(y, float)[self.row_group] * self.row_weight
        rows, w = self.signed[weights > 0.0], weights[weights > 0.0]
        norms = np.linalg.norm(rows, axis=1)
        step_tol = 1e-13 * max(1.0, float(np.linalg.norm(x)), float(w @ norms))
        lam_tol = 1e-10 * float(np.max(w, initial=0.0))
        side = np.where(rows @ x < 1.0, 1, -1)  # +1 hinged, -1 slack, 0 in W
        work: list[int] = []
        u = x.copy()
        for _ in range(10 * (w.size + x.size)):
            z = x + (w * (side > 0)) @ rows
            q, r = np.linalg.qr(rows[work].T)
            p = z - u - q @ (q.T @ (z - u))
            if float(np.linalg.norm(p)) > step_tol:
                rate = side * (rows @ p)
                cand = np.flatnonzero(rate > 0.0)
                alpha = np.maximum(side[cand] * (1.0 - rows[cand] @ u), 0.0) / rate[cand]
                # kinks reached before the minimizer on W; rows in the span of W cannot cross
                off_span = rows[cand] - (rows[cand] @ q) @ q.T
                hit = (alpha < 1.0) & (np.linalg.norm(off_span, axis=1) > 1e-10 * norms[cand])
                if np.any(hit):
                    k = np.flatnonzero(hit)[np.argmin(alpha[hit])]
                    u = u + alpha[k] * p
                    side[cand[k]] = 0
                    work.append(int(cand[k]))
                    continue
                u = u + p  # the minimizer on W; q'(u - z) is unchanged
            lam = np.linalg.solve(r, q.T @ (u - z))
            viol = np.maximum(-lam, lam - w[work])
            top = float(np.max(viol, initial=0.0))
            if top <= lam_tol:
                return u
            pos = min(np.flatnonzero(viol == top), key=lambda i: work[i])
            side[work.pop(pos)] = 1 if lam[pos] > 0.0 else -1
        raise RuntimeError("hinge prox active set reached its step cap")

    def prox_g(self, sigma, v):
        return project_simplex(v)

    def phi_value(self, x, y):
        return float(np.asarray(y, float) @ self.group_losses(x))

    def g_value(self, y):
        y = np.asarray(y, float)
        if abs(float(np.sum(y)) - 1.0) > _FEAS_TOL or float(np.min(y)) < -_FEAS_TOL:
            return np.inf
        return 0.0

    def sample_point(self, rng):
        return rng.standard_normal(self.dim_x), rng.dirichlet(np.ones(self.dim_y))

    def accuracy(self, x, features, labels) -> float:
        """Percent of points with ``sign(a'x)`` matching the label; sign(0) -> +1."""
        scores = np.asarray(features, float) @ np.asarray(x, float)
        predicted = np.where(scores >= 0.0, 1.0, -1.0)
        return 100.0 * float(np.mean(predicted == np.asarray(labels, float)))
