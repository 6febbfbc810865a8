"""Proximal operators and Euclidean projections used by the model problems.

The closed-form operators (simplex, box-and-hyperplane, scaled positive
part) are exact finite algorithms.  Projections onto polyhedra
``{y : A y >= h}`` (the cone projector, and the cone toy problem's
saddle point) share one dual active-set kernel that is fast
enough for solver inner loops.  The dense QP route (:func:`project_polytope`)
is the test oracle and the kernel's only fallback, taken with a
:class:`ProjectionFallbackWarning` when pivoting stalls.
"""

import bisect
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qp import QpProblem, QpStatus, solve_qp
from .rng import make_rng

__all__ = [
    "BoxHyperplaneSet",
    "PolytopeSet",
    "PolytopeProjector",
    "ProjectionFallbackWarning",
    "project_simplex",
    "project_box_hyperplane",
    "project_polytope",
    "project_polyhedron",
    "solve_polytope_dual",
    "prox_positive_part_scaled",
    "prox_oracle",
]


class InfeasibleSetError(ValueError):
    """The constraint set is empty."""


class ProjectionFallbackWarning(RuntimeWarning):
    """Dual pivoting stalled, so a projection went through the dense QP."""


def _as_vector(v, name: str = "v") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the unit simplex.

    Uses the sort-and-threshold method, an exact finite algorithm: the
    output is nonnegative and sums to one up to roundoff.
    """
    x = _as_vector(v)
    u = np.sort(x)[::-1]
    cumulative = np.cumsum(u) - 1.0
    rho_candidates = np.nonzero(u * np.arange(1, x.size + 1) > cumulative)[0]
    rho = rho_candidates[-1]
    threshold = cumulative[rho] / (rho + 1.0)
    return np.maximum(x - threshold, 0.0)


@dataclass(frozen=True)
class BoxHyperplaneSet:
    """Intersection ``{lower <= y <= upper, <y, normal> = offset}``.

    ``upper`` may be ``+inf``.  Nonemptiness is checked at construction
    via the exact interval condition on ``<y, normal>`` over the box.
    """

    lower: float
    upper: float
    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        if self.normal.ndim != 1 or self.normal.size == 0:
            raise ValueError("normal must be a nonempty vector")
        if not np.any(self.normal != 0.0):
            raise ValueError("normal must be nonzero")
        if not self.lower < self.upper:
            raise ValueError("lower bound must be below upper bound")
        sum_pos = float(self.normal[self.normal > 0].sum())
        sum_neg = float(self.normal[self.normal < 0].sum())
        # guard inf * 0 when upper == +inf and one sign is absent
        lo_val = self.lower * sum_pos + (self.upper * sum_neg if sum_neg else 0.0)
        hi_val = (self.upper * sum_pos if sum_pos else 0.0) + self.lower * sum_neg
        if not (lo_val <= self.offset <= hi_val):
            raise InfeasibleSetError(
                f"offset {self.offset} outside reachable range [{lo_val}, {hi_val}]"
            )

    @property
    def dim(self) -> int:
        return self.normal.size


def project_box_hyperplane(s: BoxHyperplaneSet, v) -> np.ndarray:
    """Euclidean projection onto a box intersected with a hyperplane.

    The projection is ``clip(v - t * normal, lower, upper)`` for the scalar
    dual multiplier ``t`` solving ``r(t) = <y(t), normal> - offset = 0``.
    ``r`` is nonincreasing and piecewise linear with knots where a
    coordinate meets a bound, so an exact breakpoint search (Kiwiel 2008)
    finds it: a binary search over the sorted knots brackets the root
    between neighbouring knots, where the free set is fixed and ``r`` is
    linear, and one division gives ``t``.
    """
    w = _as_vector(v)
    if w.size != s.dim:
        raise ValueError("dimension mismatch with set normal")
    n, lower, upper = s.normal, s.lower, s.upper
    nz = n != 0.0
    knots = np.unique(np.concatenate(((w[nz] - lower) / n[nz], (w[nz] - upper) / n[nz])))
    knots = knots[np.isfinite(knots)]  # upper = inf has no upper knots

    def negative(t: float) -> bool:
        return float(n @ np.clip(w - t * n, lower, upper)) < s.offset

    # first knot with r < 0; the root lies between it and the knot before,
    # or on an open end segment past the first or the last knot
    j = bisect.bisect_left(knots, True, key=negative)
    left = knots[j - 1] if j > 0 else knots[0] - 1.0 - abs(knots[0])
    right = knots[j] if j < knots.size else knots[-1] + 1.0 + abs(knots[-1])
    t = 0.5 * (left + right)
    y = np.clip(w - t * n, lower, upper)
    free = (y > lower) & (y < upper)
    slope = float(n[free] @ n[free])
    if slope > 0.0:  # otherwise r is constant (zero) on the segment and any t in it is a root
        t = (float(n @ np.where(free, w, y)) - s.offset) / slope
    return np.clip(w - t * n, lower, upper)


@dataclass(frozen=True)
class PolytopeSet:
    """Polyhedron ``{y : A y >= offset}``; ``offset`` is a scalar or one
    value per row, and the default 0 gives a cone."""

    a_matrix: np.ndarray
    offset: np.ndarray | float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("a_matrix must be a nonempty 2-d array")
        h = np.broadcast_to(np.asarray(self.offset, dtype=float), a.shape[:1]).copy()
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(h))):
            raise ValueError("a_matrix and offset must be finite")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "offset", h)

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[1]


def project_polytope(s: PolytopeSet, v) -> np.ndarray:
    """Projection onto ``{y : A y >= h}`` through the dense QP solver,
    started at the least-norm point of ``{A y = h}`` (the origin for h = 0)."""
    w = _as_vector(v)
    if w.size != s.dim:
        raise ValueError("dimension mismatch with polytope")
    problem = QpProblem(q_matrix=np.eye(s.dim), q_vector=-w,
                        ineq_matrix=s.a_matrix, ineq_vector=s.offset)
    start = np.linalg.lstsq(s.a_matrix, s.offset, rcond=None)[0]
    # with h > 0 the origin is cut off; starting all rows active saves most QP iterations
    active = tuple(range(s.offset.size)) if np.any(s.offset > 0.0) else ()
    result = solve_qp(problem, tol=1e-10, start=start, initial_active=active)
    if result.status is not QpStatus.OPTIMAL:
        raise RuntimeError(f"polytope projection QP ended with status {result.status}")
    return result.x


def solve_polytope_dual(gram, c) -> np.ndarray | None:
    """Dual active-set kernel for projecting ``w`` onto ``{y : A y >= h}``.

    Solves ``min_{lam >= 0} 0.5 lam' G lam + c' lam`` with ``G = A A'`` and
    ``c = A w - h`` (the projection is ``w + A' lam``) by the block pivoting
    of Portugal--Judice--Vicente with Murty's single-exchange safeguard,
    started with the violated rows ``c < 0`` free.  Returns ``lam``, or
    ``None`` when pivoting stalls.  The arguments are not modified.
    """
    d = c.size
    eps = 1e-12 * max(1.0, float(np.max(np.abs(c))))
    free = c < 0.0
    best_inf = np.inf
    patience = 3
    lam = np.zeros(d)
    for _ in range(10 + 3 * d):
        lam.fill(0.0)
        idx = np.flatnonzero(free)
        if idx.size:
            try:
                lam[idx] = np.linalg.solve(gram[np.ix_(idx, idx)], -c[idx])
            except np.linalg.LinAlgError:
                return None
        slack = gram @ lam + c
        # negative free multipliers and violated bound rows
        bad = np.where(free, lam, slack) < -eps
        n_bad = int(bad.sum())
        if n_bad == 0:
            return np.maximum(lam, 0.0)
        if n_bad < best_inf:
            best_inf, patience = n_bad, 3
        elif patience > 0:
            patience -= 1
        else:
            # Murty safeguard: flip only the largest-index infeasible
            last = np.flatnonzero(bad)[-1]
            free[last] = not free[last]
            continue
        free ^= bad
    return None


def project_polyhedron(a, gram, w, h=0.0) -> np.ndarray:
    """Projection of ``w`` onto ``{y : A y >= h}`` by
    :func:`solve_polytope_dual` on ``gram = A A'``.  A stall warns and
    returns the :func:`project_polytope` answer."""
    c = a @ w - h
    if np.all(c >= 0.0):
        return w.copy()
    lam = solve_polytope_dual(gram, c)
    if lam is None:
        warnings.warn("dual pivoting stalled; projecting through the dense QP",
                      ProjectionFallbackWarning, stacklevel=3)
        return project_polytope(PolytopeSet(a, h), w)
    return w + a.T @ lam


class PolytopeProjector:
    """Projection onto the cone ``{y : A y >= 0}`` for hot loops:
    :func:`project_polyhedron` with the Gram matrix formed once.  It holds
    no state between calls, so one projector is safe to share."""

    def __init__(self, a_matrix):
        a = np.asarray(a_matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError("a_matrix must be 2-d")
        self.a = a
        self.gram = a @ a.T

    def project(self, v) -> np.ndarray:
        return project_polyhedron(self.a, self.gram, np.asarray(v, dtype=float))


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


def prox_oracle(
    f: Callable[[np.ndarray], float],
    x,
    candidate,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Brute-force optimality check for a claimed proximal point.

    Samples Gaussian perturbations of ``candidate`` at scales 1e-3, 0.1
    and 1 in turn and returns the largest amount by which a sample beats
    the candidate on ``f(u) + 0.5 ||u - x||^2``.  A correct prox keeps this at roundoff
    level; values above ``1e-8`` indicate a wrong operator.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    base = _as_vector(x, "x")
    cand = _as_vector(candidate, "candidate")
    if cand.size != base.size:
        raise ValueError("candidate dimension mismatch")

    def objective(u: np.ndarray) -> float:
        val = float(f(u))
        if val == -np.inf:
            raise ValueError("f takes -inf; prox undefined")
        diff = u - base
        return val + 0.5 * float(diff @ diff)

    f_cand = objective(cand)
    if f_cand == np.inf:
        return np.inf
    rng = make_rng(seed, 97)
    worst = -np.inf
    for j in range(trials):
        u = cand + (1e-3, 1e-1, 1.0)[j % 3] * rng.standard_normal(cand.size)
        worst = max(worst, f_cand - objective(u))
    return worst
