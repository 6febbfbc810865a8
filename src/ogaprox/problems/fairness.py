"""Minimax-fair linear classification over data groups.

``Phi(x, y) = sum_i y_i * (average hinge loss of group i at x)`` with
``y`` on the probability simplex, so the adversary concentrates weight on
the worst-off group.  The x-prox is the weighted-hinge proximal problem,
solved exactly by an active-set method on the hinge kinks in x-space.
"""

import numpy as np

from ..problem import ProblemConstants, SaddleProblem
from ..prox import on_simplex, project_simplex

__all__ = ["FairnessProblem"]


class FairnessProblem(SaddleProblem):
    """Rows with a +-1 label and a group id each; ``y`` weights the distinct ids
    in ascending order, and a single id gives the plain average-loss classifier."""

    def __init__(self, features, labels, groups):
        feats = np.asarray(features, dtype=float)
        labs = np.asarray(labels, dtype=float)
        ids = np.asarray(groups)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be 2-d with at least one row")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if labs.shape != (feats.shape[0],) or not np.all(np.isin(labs, (-1.0, 1.0))):
            raise ValueError("labels must be +-1, one per sample")
        if ids.shape != labs.shape:
            raise ValueError("groups must hold one id per sample")
        # rows grouped by ascending id, each group's rows in their given order
        order = np.argsort(ids, kind="stable")
        feats, labs = feats[order], labs[order]
        _, self.row_group, counts = np.unique(ids[order], return_inverse=True, return_counts=True)
        self.dim_x = feats.shape[1]
        self.dim_y = counts.size
        # rows b_ij * a_ij; margins are 1 - signed @ x
        self.signed = labs[:, None] * feats
        self.group_sizes = counts.astype(float)
        self.row_weight = 1.0 / self.group_sizes[self.row_group]
        l_yx = float(np.sqrt(sum(
            float(np.sum(f**2)) / f.shape[0] for f in np.split(feats, np.cumsum(counts)[:-1])
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
        return 0.0 if on_simplex(y) else np.inf

    def sample_point(self, rng):
        return rng.standard_normal(self.dim_x), rng.dirichlet(np.ones(self.dim_y))

    def accuracy(self, x, features, labels) -> float:
        """Percent of points with ``sign(a'x)`` matching the label; sign(0) -> +1."""
        scores = np.asarray(features, float) @ np.asarray(x, float)
        predicted = np.where(scores >= 0.0, 1.0, -1.0)
        return 100.0 * float(np.mean(predicted == np.asarray(labels, float)))
