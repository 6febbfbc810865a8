"""Proximal operators and Euclidean projections used by the model problems.

The closed-form projections are exact finite algorithms: onto the simplex
(one sort-and-threshold on Python floats at every size), and onto the
multi-kernel SVM dual set ``{0 <= y <= upper, <y, normal> = 0}``, ``normal``
the +-1 labels (one Newton step, else a binary search over the knots).
Projections onto polyhedra ``{y : A y >= h}`` with full-row-rank ``A`` (the
cone projector, and the cone toy problem's saddle point) go through one dual
active-set kernel, :func:`solve_polytope_dual`, which is finite on such
data.  The dense QP route (:func:`project_polytope`) has no run-time caller:
it is the test oracle for the cone projector.  Iteration-path products call
``ndarray.dot``, ``@``'s BLAS call on a contiguous matrix or its ``.T``, same
floats and less dispatch; a non-contiguous one keeps ``@``, as its floats differ.
"""

import bisect
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


def _finite(v: np.ndarray, total: float) -> bool:
    # ||v - u||^2 (u finite) or <v, n> (+-1 entries n) is non-finite if v is; exact on overflow
    return math.isfinite(total) or bool(np.isfinite(v).all())


def _as_vector(v, name: str = "v", finite: bool = True) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if finite and not _finite(arr, float(np.vdot(arr, arr))):  # vdot: no overflow warning
        raise ValueError(f"{name} must be finite")
    return arr


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the unit simplex.

    Uses the sort-and-threshold method, an exact finite algorithm.  The
    sort, the running sums and the output run on Python floats, cheapest at
    the few entries the model problems send (one per kernel or group); above
    about 64 entries numpy array operations would be faster.  A list of
    Python floats is used as it is, any other input as a float array.  Below
    ``2**20`` in magnitude each output entry and the output's sum lie within
    ``size**2 2**-52 max(1, max|x|)`` of the exact projection's (the output
    has unit scale).  An input that reaches ``2**20`` is first shifted by
    ``max(x)`` and floored at ``-1``, as entries below ``max(x) - 1``
    project to 0: the shift is exact on the entries it keeps when ``|max(x)|
    >= 2``, and rounds each by at most ``2**-53`` otherwise.
    """
    floats = type(v) is list and v and set(map(type, v)) == {float}
    values = v if floats else _as_vector(v, finite=False).tolist()
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ValueError("v must be finite")
    u = sorted(values, reverse=True)
    if max(u[0], -u[-1]) >= 2.0**20:
        with np.errstate(over="ignore"):
            return project_simplex(np.maximum(np.array(values) - u[0], -1.0))
    # running sums in np.cumsum's order; the first candidate always passes
    p = [(total - 1.0) / (j + 1.0) for j, total in enumerate(accumulate(u))
         if u[j] * (j + 1) > total - 1.0][-1]
    return np.array([e - p if e > p else 0.0 for e in values])


def on_simplex(v) -> bool:
    """Whether ``v`` lies on the unit simplex up to ``1e-8`` in its sum and
    its least entry (NaN entries are not flagged)."""
    return not (abs(float(np.sum(v)) - 1.0) > 1e-8 or float(np.min(v)) < -1e-8)


@dataclass(frozen=True, eq=False)
class BoxHyperplaneSet:
    """The multi-kernel SVM dual set ``{0 <= y <= upper, <y, normal> = 0}``.

    ``0 < upper < inf``; every entry of ``normal`` is -1 or +1 (the labels),
    so every coordinate has two knots and ``||normal||**2`` is ``dim``.  The
    set holds 0, so it is never empty.  ``normal`` is a read-only copy.
    """

    upper: float
    normal: np.ndarray

    def __post_init__(self):
        normal = np.array(self.normal, dtype=float)
        if normal.ndim != 1 or normal.size == 0 or not (np.abs(normal) == 1.0).all():
            raise ValueError("normal must be a nonempty 1-d vector of -1 and +1 entries")
        if not 0.0 < self.upper < np.inf:
            raise ValueError(f"upper must be positive and finite, got {self.upper}")
        normal.flags.writeable = False
        object.__setattr__(self, "normal", normal)

    @property
    def dim(self) -> int:
        return self.normal.size


def project_box_hyperplane(s: BoxHyperplaneSet, v) -> np.ndarray:
    """Euclidean projection onto a box intersected with a hyperplane:
    ``clip(v - t * normal, 0, upper)`` at the root of the nonincreasing
    ``r(t) = <y(t), normal>``.  Between the knots, where coordinates meet
    bounds, the pattern (the free set, and the bound of each other
    coordinate) is fixed and one division by its slope, the number of free
    coordinates, solves ``r = 0``.  The pattern at the all-free root ``t0 =
    <v, normal> / dim`` is tried first (one Newton step; Cominetti,
    Mascarenhas and Silva 2014).  Its root ``t`` is kept if (a) ``z = v - t
    * normal`` has that pattern and then (b) ``|z_i - bound| > c = 1e-10
    scale / slope`` for all ``i``, ``scale = sum (|v_i| + |z_i| + y0_i)``,
    ``y0 = y(t0)``.  If ``z0 = v - t0 * normal`` lies inside the box (a
    quarter of a 2,000-step MKSVM run's calls), ``t0`` is the root, ``z =
    y0 = z0`` and (b) is ``min(min z0, upper - max z0) > c``.  There ``0 <
    z_i < upper`` and ``|v_i| <= z_i (1 + 2**-53) + |t0|``, so ``c <= 1e-10
    (3 max z0 + |t0|)`` times about ``1 + dim 2**-53`` for the sum's
    rounding: a margin above twice that passes (b) unsummed.  Neither test
    warns: a sum that overflows is ``inf``, and the search refuses ``v``.
    By (b) each knot has ``|r| > 1e-10 scale`` (slope times distance next
    to ``t``, more beyond, as each term of ``r`` moves one way).  Direct
    residuals and ``t`` carry about ``dim 2**-53 scale`` of rounding, and
    ``scale / slope >= |t|`` covers the knots'.  So for ``dim < 10**5`` the
    breakpoint search reads each knot's sign exactly, brackets ``t`` by the
    same knots and solves the same pattern: the same floats; from ``10**5``
    entries on it always runs.  A finite ``v`` raises ``ValueError`` where ``<v,
    normal>`` overflows and where the search runs on ``max|v| + upper + 1 >=
    2**1024 / (4 dim)`` (``4.5e305`` at 100 entries), overflow or not.  It
    runs at ``|t0| >= 2**970`` and at a one-step ``|z0_i| >= 2**980``: below, no
    difference or sum overflows, so for ``upper < 2**1000 / dim`` numpy never warns.
    """
    w = np.asarray(v, dtype=float)
    if w.ndim != 1 or w.size != s.dim:
        raise ValueError("v must be a nonempty 1-d vector" if w.ndim != 1 or not w.size
                         else "dimension mismatch with set normal")
    n, upper = s.normal, s.upper
    nw = float(np.vdot(n, w))  # vdot, unlike @, gives no warning on a non-finite w
    if not math.isfinite(nw):
        raise ValueError("v overflows in <v, normal>" if _finite(w, nw) else "v must be finite")
    if w.size >= 10**5:
        return _box_hyperplane_search(s, w)
    t0 = nw / w.size
    if not -2.0**970 < t0 < 2.0**970:  # below, a huge w_i minus t0 n_i rounds to w_i
        return _box_hyperplane_search(s, w)
    z = w - t0 * n
    lo, hi = z.min(), z.max()
    if 0.0 < lo and hi < upper:  # all free: t0 is the root and z = y0
        margin = min(lo, upper - hi)
        if margin > 6e-10 * hi + 2e-10 * abs(t0):  # hi < upper: no product overflows
            return z
        with np.errstate(over="ignore"):  # an overflowed sum sends w to the search
            c = 1e-10 * float((np.abs(w) + z + z).sum()) / w.size
        return z if margin > c else _box_hyperplane_search(s, w)
    y0 = np.minimum(np.maximum(z, 0.0), upper)
    free = (y0 > 0.0) & (y0 < upper)
    slope = np.count_nonzero(free)
    if slope and -2.0**980 < lo and hi < 2.0**980:
        z = w - float(n.dot(np.where(free, w, y0))) / slope * n
        y = np.minimum(np.maximum(z, 0.0), upper)
        if (y == np.where(free, z, y0)).all():
            abs_z = np.abs(z)
            scale = float((np.abs(w) + abs_z + y0).sum())
            if (np.minimum(abs_z, np.abs(z - upper)) > 1e-10 * scale / slope).all():
                return y
    return _box_hyperplane_search(s, w)


def _box_hyperplane_search(s: BoxHyperplaneSet, w: np.ndarray) -> np.ndarray:
    """Breakpoint search: a binary search over the sorted knots on direct
    residuals brackets the root, and its midpoint gives the pattern.  Each
    rounded term of ``r`` falls with ``t``, and so does their sum in a
    fixed order, so the knots with ``r < 0`` come last.  It refuses inputs
    where its magnitudes' bound ``4 dim (max|w| + upper + 1)`` overflows."""
    n, upper = s.normal, s.upper
    if not math.isfinite(4.0 * n.size * (float(np.abs(w).max()) + upper + 1.0)):
        raise ValueError("v overflows in the breakpoint search")
    knots = np.sort(np.concatenate((w / n, (w - upper) / n)))

    def y_at(t: float) -> np.ndarray:
        return np.minimum(np.maximum(w - t * n, 0.0), upper)

    # first knot with r < 0; the root lies between it and the knot before,
    # or on an open end segment past the first or the last knot
    j = bisect.bisect_left(knots, True, key=lambda t: float(n.dot(y_at(t))) < 0.0)
    left = knots[j - 1] if j > 0 else knots[0] - 1.0 - abs(knots[0])
    right = knots[j] if j < knots.size else knots[-1] + 1.0 + abs(knots[-1])
    y = y_at(0.5 * (left + right))
    free = (y > 0.0) & (y < upper)
    slope = np.count_nonzero(free)  # 0: r is zero on the segment, and any t in it is a root
    return y_at(float(n.dot(np.where(free, w, y))) / slope) if slope else y


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
            # the block G[idx, idx] by two one-axis gathers, cheaper than np.ix_
            lam[idx] = np.linalg.solve(gram.take(idx, 0).take(idx, 1), -c[idx])
        slack = gram.dot(lam) + c
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
    raises ``ValueError``; it makes every entry of ``A v`` non-finite.
    ``_project`` returns ``(y, A v, inside)``: ``inside`` says that ``A v >=
    0`` was just tested, so that ``y = v`` and ``A v`` is ``A y``; otherwise
    ``y`` comes from the dual kernel and ``A y`` is left to the caller that
    needs it."""

    def __init__(self, a_matrix):
        a = np.array(a_matrix, dtype=float)
        if not np.isfinite(a).all():
            raise ValueError("a_matrix must be finite")
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
        return self._project(v)[0]

    def _project(self, v) -> tuple[np.ndarray, np.ndarray, bool]:
        w = np.asarray(v, dtype=float)
        c = self.a.dot(w)
        if not math.isfinite(c[0]) and not np.isfinite(w).all():
            raise ValueError("v must be finite")
        if np.minimum.reduce(c) >= 0.0:
            return w.copy(), c, True
        return w + self.a.T.dot(solve_polytope_dual(self.gram, c)), c, False
