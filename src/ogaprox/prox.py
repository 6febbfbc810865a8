"""Proximal operators and Euclidean projections used by the model problems.

The closed-form projections (simplex, box-and-hyperplane) are exact
finite algorithms.  Projections onto polyhedra
``{y : A y >= h}`` with full-row-rank ``A`` (the cone projector, and the
cone toy problem's saddle point) go through one dual active-set kernel,
:func:`solve_polytope_dual`, which is finite on such data.  The dense QP
route (:func:`project_polytope`) has no run-time caller: it is the test
oracle for the cone projector.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qp import QpProblem, QpStatus, solve_qp
from .rng import make_rng

__all__ = [
    "BoxHyperplaneSet",
    "PolytopeSet",
    "PolytopeProjector",
    "project_simplex",
    "on_simplex",
    "project_box_hyperplane",
    "project_polytope",
    "solve_polytope_dual",
    "prox_oracle",
]


class InfeasibleSetError(ValueError):
    """The constraint set is empty."""


class RankDeficientError(ValueError):
    """The constraint matrix does not have full row rank."""


def _as_vector(v, name: str = "v") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.isfinite(arr).all():
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


def on_simplex(v) -> bool:
    """Whether ``v`` lies on the unit simplex up to ``1e-8`` in its sum and
    its least entry (NaN entries are not flagged)."""
    return not (abs(float(np.sum(v)) - 1.0) > 1e-8 or float(np.min(v)) < -1e-8)


@dataclass(frozen=True)
class BoxHyperplaneSet:
    """Intersection ``{lower <= y <= upper, <y, normal> = offset}``.

    ``lower`` must be finite; ``upper`` may be ``+inf``.  Nonemptiness is
    checked at construction via the exact interval condition on
    ``<y, normal>`` over the box.  ``normal`` is a read-only copy; built from it
    once are the projection's constants: the mask of its nonzero entries, those
    entries, and the knots' slope changes ``(-normal_i**2, +normal_i**2)``.
    """

    lower: float
    upper: float
    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        normal = np.array(self.normal, dtype=float)
        normal.flags.writeable = False
        nz = normal != 0.0
        self.__dict__.update(normal=normal, _nz=nz, _n_nz=normal[nz],
                             _change=np.concatenate((-normal[nz] ** 2, normal[nz] ** 2)))
        if self.normal.ndim != 1 or self.normal.size == 0:
            raise ValueError("normal must be a nonempty vector")
        if not nz.any():
            raise ValueError("normal must be nonzero")
        if not np.isfinite(self.lower):
            raise ValueError(f"lower bound must be finite, got {self.lower}")
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
    finds it.  The knots are sorted once with their slope changes
    (``-normal_i**2`` where coordinate ``i`` leaves a bound, ``+normal_i**2``
    where it meets the other); cumulative slopes give ``r`` at every knot and
    so the bracketing knots.  The sums lose digits on wide boxes, so a direct
    residual on each side confirms the bracket, moving it a knot at a time if
    needed.  On that segment the free set is fixed and ``r`` is linear, so
    one division gives ``t``.
    """
    w = _as_vector(v)
    if w.size != s.dim:
        raise ValueError("dimension mismatch with set normal")
    n, lower, upper, change = s.normal, s.lower, s.upper, s._change
    wz, n_nz = w[s._nz], s._n_nz
    a, b = (wz - lower) / n_nz, (wz - upper) / n_nz
    knots = np.concatenate((np.minimum(a, b), np.maximum(a, b)))
    slope0 = 0.0
    if upper == np.inf:
        # an infinite bound has no knot: its coordinates are free from t = -inf
        # (the running slope starts with them) or up to t = +inf
        slope0 = float(change[knots == -np.inf].sum())
        finite = np.isfinite(knots)
        knots, change = knots[finite], change[finite]
    order = np.argsort(knots)
    knots, change = knots[order], change[order]

    def y_at(t: float) -> np.ndarray:
        return np.minimum(np.maximum(w - t * n, lower), upper)

    def negative(t: float) -> bool:
        return float(n @ y_at(t)) < s.offset

    steps = (slope0 + np.cumsum(change[:-1])) * np.diff(knots)
    r = float(n @ y_at(knots[0])) - s.offset + np.concatenate(([0.0], np.cumsum(steps)))
    # first knot with r < 0; the root lies between it and the knot before,
    # or on an open end segment past the first or the last knot
    j = int(np.searchsorted(-r, 0.0, side="right"))
    while j < knots.size and not negative(knots[j]):
        j += 1
    while j > 0 and negative(knots[j - 1]):
        j -= 1
    left = knots[j - 1] if j > 0 else knots[0] - 1.0 - abs(knots[0])
    right = knots[j] if j < knots.size else knots[-1] + 1.0 + abs(knots[-1])
    t = 0.5 * (left + right)
    y = y_at(t)
    free = (y > lower) & (y < upper)
    slope = float(n[free] @ n[free])
    if slope > 0.0:  # otherwise r is constant (zero) on the segment and any t in it is a root
        t = (float(n @ np.where(free, w, y)) - s.offset) / slope
    return y_at(t)


@dataclass(frozen=True)
class PolytopeSet:
    """Cone ``{y : A y >= 0}``."""

    a_matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValueError("a_matrix must be a nonempty 2-d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("a_matrix must be finite")
        object.__setattr__(self, "a_matrix", a)

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[1]


def project_polytope(s: PolytopeSet, v) -> np.ndarray:
    """Projection onto the cone ``{y : A y >= 0}`` through the dense QP
    solver, started at the origin: the test oracle for the cone projector."""
    w = _as_vector(v)
    if w.size != s.dim:
        raise ValueError("dimension mismatch with polytope")
    problem = QpProblem(q_matrix=np.eye(s.dim), q_vector=-w, ineq_matrix=s.a_matrix,
                        ineq_vector=np.zeros(s.a_matrix.shape[0]))
    result = solve_qp(problem, tol=1e-10, start=np.zeros(s.dim))
    if result.status is not QpStatus.OPTIMAL:
        raise RuntimeError(f"polytope projection QP ended with status {result.status}")
    return result.x


def solve_polytope_dual(gram, c) -> np.ndarray:
    """Dual active-set kernel for projecting ``w`` onto ``{y : A y >= h}``.

    Solves ``min_{lam >= 0} 0.5 lam' G lam + c' lam`` with ``G = A A'`` and
    ``c = A w - h`` (the projection is ``w + A' lam``) by the block pivoting
    of Portugal--Judice--Vicente with Murty's single-exchange safeguard,
    started with the violated rows ``c < 0`` free, and returns ``lam``.
    ``G`` must be positive definite (``A`` of full row rank): then every
    principal block is nonsingular, the LCP matrix is a P-matrix and the
    safeguard makes pivoting finite (Murty 1974).  Past ``10 + 3d`` pivots
    it raises ``RuntimeError``.  The arguments are not modified.
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
            lam[idx] = np.linalg.solve(gram[np.ix_(idx, idx)], -c[idx])
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
    raise RuntimeError(f"dual pivoting did not finish in {10 + 3 * d} pivots")


class PolytopeProjector:
    """Projection onto the cone ``{y : A y >= 0}`` for hot loops:
    :func:`solve_polytope_dual` with the Gram matrix formed once.  ``A``
    must have full row rank, which is checked here; ``norm`` is the spectral
    norm of ``A``.  ``a`` and ``gram`` are read-only and ``a`` is a copy, so
    no later write to the argument reaches them, and the projector holds no
    state between calls: one projector is safe to share."""

    def __init__(self, a_matrix):
        a = np.array(a_matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError("a_matrix must be 2-d")
        d, n = a.shape
        if d == 0:
            raise ValueError("a_matrix has no rows (d = 0)")
        if d > n:
            raise ValueError(f"a_matrix has more rows than columns ({d} > {n}),"
                             " so its row rank cannot be full")
        singular = np.linalg.svd(a, compute_uv=False)
        if singular[-1] <= 1e-8 * singular[0]:
            raise RankDeficientError("a_matrix must have full row rank")
        self.a = a
        self.norm = float(singular[0])
        self.gram = a @ a.T
        a.flags.writeable = self.gram.flags.writeable = False

    def project(self, v) -> np.ndarray:
        return self.project_with_image(v)[0]

    def project_with_image(self, v) -> tuple[np.ndarray, np.ndarray]:
        """``(y, A y)``: the cone test's ``A v`` is ``A y`` when ``v`` is inside."""
        w = np.asarray(v, dtype=float)
        c = self.a @ w
        if (c >= 0.0).all():
            return w.copy(), c
        y = w + self.a.T @ solve_polytope_dual(self.gram, c)
        return y, self.a @ y


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
