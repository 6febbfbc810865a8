"""Proximal operators and Euclidean projections used by the model problems.

The closed-form projections are exact finite algorithms: onto the simplex,
and onto the multi-kernel SVM dual set ``{0 <= y <= upper, <y, normal> = 0}``
(a box and a hyperplane through 0).  Projections onto polyhedra
``{y : A y >= h}`` with full-row-rank ``A`` (the cone projector, and the
cone toy problem's saddle point) go through one dual active-set kernel,
:func:`solve_polytope_dual`, which is finite on such data.  The dense QP
route (:func:`project_polytope`) has no run-time caller: it is the test
oracle for the cone projector.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .qp import QpProblem, QpStatus, solve_qp

__all__ = [
    "BoxHyperplaneSet",
    "PolytopeProjector",
    "project_simplex",
    "on_simplex",
    "project_box_hyperplane",
    "project_polytope",
    "solve_polytope_dual",
]


class RankDeficientError(ValueError):
    """The constraint matrix does not have full row rank."""


def _finite(v: np.ndarray, square: float) -> bool:
    # for a finite u, square = ||v - u||^2 is non-finite if v is; an overflow is checked exactly
    return math.isfinite(square) or bool(np.isfinite(v).all())


def _as_vector(v, name: str = "v") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not _finite(arr, float(np.vdot(arr, arr))):  # vdot, unlike @, gives no overflow warning
        raise ValueError(f"{name} must be finite")
    return arr


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the unit simplex.

    Uses the sort-and-threshold method, an exact finite algorithm: the
    output is nonnegative and sums to one up to roundoff.  Up to 8 entries
    the same steps run on Python floats (the same floats, without numpy's
    per-call cost) unless an entry reaches ``2**1000`` or no candidate passes.
    """
    x = _as_vector(v)
    if x.size <= 8:
        u = sorted(x.tolist(), reverse=True)
        passing = [(total - 1.0) / (j + 1.0) for j, total in enumerate(accumulate(u))
                   if u[j] * (j + 1) > total - 1.0]  # running sums in np.cumsum's order
        if passing and max(u[0], -u[-1]) < 2.0**1000:
            return np.maximum(x - passing[-1], 0.0)
    return _simplex_sort(x)


def _simplex_sort(x: np.ndarray) -> np.ndarray:
    u = np.sort(x)[::-1]
    if max(u[0], -u[-1]) < 2.0**1000:  # the sums below stay finite
        cumulative = np.cumsum(u) - 1.0
        rho_candidates = np.nonzero(u * np.arange(1, x.size + 1) > cumulative)[0]
        if rho_candidates.size:  # empty when |u[0]| >= 2**53 rounds u[0] - 1 to u[0]
            rho = rho_candidates[-1]
            return np.maximum(x - cumulative[rho] / (rho + 1.0), 0.0)
    with np.errstate(over="ignore"):  # entries below max(x) - 1 project to 0
        return project_simplex(np.maximum(x - u[0], -1.0))


def on_simplex(v) -> bool:
    """Whether ``v`` lies on the unit simplex up to ``1e-8`` in its sum and
    its least entry (NaN entries are not flagged)."""
    return not (abs(float(np.sum(v)) - 1.0) > 1e-8 or float(np.min(v)) < -1e-8)


@dataclass(frozen=True)
class BoxHyperplaneSet:
    """The multi-kernel SVM dual set ``{0 <= y <= upper, <y, normal> = 0}``.

    ``0 < upper < inf`` and ``normal`` is finite with no zero entry, so
    every coordinate has two knots; the set holds 0, so it is never empty.
    ``normal`` is a read-only copy; built from it once are the projection's
    constants: ``|normal|``, ``||normal||**2`` and the knots' slope changes
    ``(-n_i**2, n_i**2)``.
    """

    upper: float
    normal: np.ndarray

    def __post_init__(self):
        normal = np.array(self.normal, dtype=float)
        if normal.ndim != 1 or normal.size == 0:
            raise ValueError("normal must be a nonempty 1-d vector")
        if not (np.isfinite(normal) & (normal != 0.0)).all():
            raise ValueError("normal must be finite with no zero entry")
        if not 0.0 < self.upper < np.inf:
            raise ValueError(f"upper must be positive and finite, got {self.upper}")
        normal.flags.writeable = False
        self.__dict__.update(normal=normal, _abs_n=np.abs(normal), _nn=float(normal @ normal),
                             _change=np.concatenate((-normal**2, normal**2)))

    @property
    def dim(self) -> int:
        return self.normal.size


def project_box_hyperplane(s: BoxHyperplaneSet, v) -> np.ndarray:
    """Euclidean projection onto a box intersected with a hyperplane:
    ``clip(v - t * normal, 0, upper)`` at the root of the nonincreasing
    ``r(t) = <y(t), normal>``.  Between the knots, where coordinates meet
    bounds, the pattern (the free set, and the bound of each other
    coordinate) is fixed and one division solves ``r = 0``.  The pattern at
    the all-free root ``t0 = <v, normal> / ||normal||**2`` is tried first
    (one Newton step; Cominetti, Mascarenhas and Silva 2014).  Its root
    ``t`` is kept if (a) ``z = v - t * normal`` has that pattern and (b)
    ``|z_i - bound| > 1e-10 |normal_i| scale / slope``, ``scale = sum
    |normal_i| (|v_i| + |z_i| + |y0_i|)``, ``y0 = y(t0)``; this margin is
    computed only once (a) holds.  By (b) each knot has ``|r| > 1e-10
    scale`` (slope times distance next to ``t``, more beyond, as each term
    of ``r`` moves one way).  Direct residuals and ``t`` carry about ``dim
    2**-53 scale`` of rounding, and ``scale / slope >= |t|`` covers the
    knots'.  So for ``dim < 10**5`` the breakpoint search reads each knot's
    sign exactly, brackets ``t`` by the same knots and solves the same
    pattern: the same floats.  From ``10**5`` entries on the search always runs.
    """
    w = _as_vector(v)
    if w.size != s.dim:
        raise ValueError("dimension mismatch with set normal")
    n, upper, abs_n = s.normal, s.upper, s._abs_n
    y0 = np.minimum(np.maximum(w - float(n @ w) / s._nn * n, 0.0), upper)
    free = (y0 > 0.0) & (y0 < upper)
    n_free = n[free]
    slope = float(n_free @ n_free)
    if slope > 0.0 and s.dim < 10**5:
        t = float(n @ np.where(free, w, y0)) / slope
        z = w - t * n
        y = np.minimum(np.maximum(z, 0.0), upper)
        if (y == np.where(free, z, y0)).all():
            scale = float(abs_n @ (np.abs(w) + np.abs(z) + y0))  # y0 >= 0
            if (np.minimum(np.abs(z), np.abs(z - upper)) > 1e-10 * scale / slope * abs_n).all():
                return y
    return _box_hyperplane_search(s, w)


def _box_hyperplane_search(s: BoxHyperplaneSet, w: np.ndarray) -> np.ndarray:
    """Kiwiel's (2008) breakpoint search: cumulative slopes over the sorted
    knots bracket the root, direct residuals confirm the bracket (the sums
    lose digits on wide boxes), and its midpoint gives the pattern."""
    n, upper = s.normal, s.upper
    a, b = w / n, (w - upper) / n
    knots = np.concatenate((np.minimum(a, b), np.maximum(a, b)))
    order = np.argsort(knots)
    knots, change = knots[order], s._change[order]

    def y_at(t: float) -> np.ndarray:
        return np.minimum(np.maximum(w - t * n, 0.0), upper)

    def negative(t: float) -> bool:
        return float(n @ y_at(t)) < 0.0

    steps = np.cumsum(change[:-1]) * np.diff(knots)
    r = float(n @ y_at(knots[0])) + np.concatenate(([0.0], np.cumsum(steps)))
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
    free = (y > 0.0) & (y < upper)
    slope = float(n[free] @ n[free])
    if slope > 0.0:  # otherwise r is constant (zero) on the segment and any t in it is a root
        t = float(n @ np.where(free, w, y)) / slope
    return y_at(t)


def project_polytope(a_matrix, v) -> np.ndarray:
    """Projection onto the cone ``{y : A y >= 0}``, ``A`` a nonempty finite
    2-d array, through the dense QP solver started at the origin: the test
    oracle for the cone projector."""
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("a_matrix must be a nonempty 2-d array")
    if not np.isfinite(a).all():
        raise ValueError("a_matrix must be finite")
    w = _as_vector(v)
    dim = a.shape[1]
    if w.size != dim:
        raise ValueError("dimension mismatch with polytope")
    problem = QpProblem(q_matrix=np.eye(dim), q_vector=-w, ineq_matrix=a,
                        ineq_vector=np.zeros(a.shape[0]))
    result = solve_qp(problem, tol=1e-10, start=np.zeros(dim))
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
    state between calls: one projector is safe to share.  A non-finite ``v``
    raises ``ValueError``; it makes every entry of ``A v`` non-finite."""

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
        if not math.isfinite(c[0]) and not np.isfinite(w).all():
            raise ValueError("v must be finite")
        if c.min() >= 0.0:
            return w.copy(), c
        y = w + self.a.T @ solve_polytope_dual(self.gram, c)
        return y, self.a @ y
