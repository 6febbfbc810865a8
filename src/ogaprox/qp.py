"""Dense convex quadratic programming by a primal active-set method.

Solves ``min 0.5 u'Qu + q'u  s.t.  G u >= h,  E u = e`` for symmetric
positive semidefinite ``Q``.  Equality constraints are eliminated through
an orthonormal nullspace basis; the inequality core maintains a working
set, takes Newton steps on the reduced subspace and ray steps along
zero-curvature descent directions (which also covers the LP used as the
feasibility phase).  Problems here are small and dense, so factorizations
are recomputed each iteration rather than updated.

Tolerances follow the data scale ``s = max(1, |q|, |h|, |e|)`` (largest
entries): KKT residuals pass at ``tol * s``, complementarity at ``tol * s**2``.

Determinism: blocking constraints and multiplier drops break ties by
lowest constraint index, and all linear algebra is plain LAPACK, so
identical inputs give bit-identical outputs.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QpProblem", "QpResult", "QpStatus", "KktResidual", "solve_qp", "QpUnboundedError"]


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


class QpUnboundedError(RuntimeError):
    """Objective decreases without bound along a feasible ray."""


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Convex QP data: ``min 0.5 u'Qu + q'u`` s.t. ``Gu >= h`` and ``Eu = e``."""

    q_matrix: np.ndarray
    q_vector: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_vector: np.ndarray | None = None
    eq_matrix: np.ndarray | None = None
    eq_vector: np.ndarray | None = None

    def __post_init__(self):
        q_mat = np.asarray(self.q_matrix, dtype=float)
        q_vec = np.asarray(self.q_vector, dtype=float)
        if q_mat.ndim != 2 or q_mat.shape[0] != q_mat.shape[1]:
            raise ValueError("q_matrix must be square")
        n = q_mat.shape[0]
        if q_vec.shape != (n,):
            raise ValueError("q_vector does not match q_matrix")
        sym_err = float(np.max(np.abs(q_mat - q_mat.T))) if n else 0.0
        if sym_err > 1e-12 * max(1.0, float(np.max(np.abs(q_mat)))):
            raise ValueError("q_matrix must be symmetric to 1e-12")
        object.__setattr__(self, "q_matrix", q_mat)
        object.__setattr__(self, "q_vector", q_vec)
        for mat_name, vec_name in (("ineq_matrix", "ineq_vector"), ("eq_matrix", "eq_vector")):
            mat = getattr(self, mat_name)
            vec = getattr(self, vec_name)
            if (mat is None) != (vec is None):
                raise ValueError(f"{mat_name} and {vec_name} must be given together")
            if mat is None:
                continue
            mat = np.asarray(mat, dtype=float)
            vec = np.asarray(vec, dtype=float)
            if mat.ndim != 2 or mat.shape[1] != n or vec.shape != (mat.shape[0],):
                raise ValueError(f"{mat_name}/{vec_name} dimensions inconsistent")
            object.__setattr__(self, mat_name, mat)
            object.__setattr__(self, vec_name, vec)

    @property
    def dim(self) -> int:
        return self.q_matrix.shape[0]

    @property
    def n_ineq(self) -> int:
        return 0 if self.ineq_matrix is None else self.ineq_matrix.shape[0]


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    primal: float
    dual: float
    complementarity: float

    @property
    def max(self) -> float:
        return max(self.stationarity, self.primal, self.dual, self.complementarity)


@dataclass(eq=False)
class QpResult:
    x: np.ndarray
    status: QpStatus
    iterations: int
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    active_set: tuple[int, ...] = ()
    kkt: KktResidual | None = None


def _nullspace(mat: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of ``{p : mat p = 0}`` (rank detected by QR)."""
    if mat.shape[0] == 0:
        return np.eye(n)
    q_full, r = np.linalg.qr(mat.T, mode="complete")
    diag = np.abs(np.diag(r)) if min(r.shape) else np.zeros(0)
    top = float(np.max(diag)) if diag.size else 0.0
    rank = int(np.sum(diag > 1e-11 * max(1.0, top)))
    return q_full[:, rank:]


class _ActiveSetCore:
    """Inequality-constrained core: ``min 0.5 z'Qz + q'z`` s.t. ``Gz >= h``."""

    def __init__(self, q_mat, q_vec, g_mat, h_vec, tol):
        self.q_mat = q_mat
        self.q_vec = q_vec
        self.g_mat = g_mat
        self.h_vec = h_vec
        self.n = q_vec.size
        self.m = h_vec.size
        self.curv_tol = 1e-11 * max(1.0, _absmax(q_mat))
        self.grad_tol = 1e-12 * max(1.0, _absmax(q_vec))
        self.lam_tol = max(tol, 1e-11) * _data_scale(q_vec, h_vec)

    def solve(self, z, working: list[int], max_iter: int):
        n, m = self.n, self.m
        in_working = np.zeros(m, dtype=bool)
        in_working[working] = True
        stalls = 0
        bland = False
        iterations = 0
        while iterations < max_iter:
            iterations += 1
            grad = self.q_mat @ z + self.q_vec
            g_work = self.g_mat[working] if working else np.zeros((0, n))
            # one QR of the working normals serves both the nullspace basis
            # and (when full rank) the multiplier solve below
            if working:
                q_full, r_full = np.linalg.qr(g_work.T, mode="complete")
                diag = np.abs(np.diag(r_full))
                top = float(np.max(diag)) if diag.size else 0.0
                rank = int(np.sum(diag > 1e-11 * max(1.0, top)))
                basis = q_full[:, rank:]
                full_rank = rank == len(working)
            else:
                q_full = r_full = None
                basis = np.eye(n)
                full_rank = True

            p = np.zeros(n)
            alpha_target = 1.0
            if basis.shape[1]:
                rhs = -(basis.T @ grad)
                h_red = basis.T @ self.q_mat @ basis
                evals, evecs = np.linalg.eigh(h_red)
                pos = evals > self.curv_tol
                rhs_eig = evecs.T @ rhs
                flat = rhs_eig.copy()
                flat[pos] = 0.0
                if _absmax(flat) > max(self.grad_tol, 1e-12 * _absmax(rhs)):
                    # descent along (numerically) zero curvature: ray step
                    d = evecs @ flat
                    d /= np.linalg.norm(d)
                    p = basis @ d
                    curv = float(p @ self.q_mat @ p)
                    slope = float(grad @ p)
                    alpha_target = -slope / curv if curv > self.curv_tol else np.inf
                else:
                    coeff = np.zeros_like(rhs_eig)
                    coeff[pos] = rhs_eig[pos] / evals[pos]
                    p = basis @ (evecs @ coeff)

            if alpha_target == 1.0 and _absmax(p) <= 1e-13 * max(1.0, _absmax(z)):
                if not working:
                    return z, QpStatus.OPTIMAL, iterations, working
                if full_rank:
                    w = len(working)
                    lam = np.linalg.solve(r_full[:w, :], q_full[:, :w].T @ grad)
                else:
                    lam, *_ = np.linalg.lstsq(g_work.T, grad, rcond=None)
                neg = np.flatnonzero(lam < -self.lam_tol)
                if neg.size == 0:
                    return z, QpStatus.OPTIMAL, iterations, working
                if bland:
                    drop_pos = min(neg, key=lambda j: working[j])
                else:
                    worst = float(np.min(lam[neg]))
                    near = [j for j in neg if lam[j] <= worst + 1e-12 * abs(worst)]
                    drop_pos = min(near, key=lambda j: working[j])
                removed = working.pop(int(drop_pos))
                in_working[removed] = False
                stalls += 1
                if stalls > 2 * (n + m):
                    bland = True
                continue

            # ratio test over constraints outside the working set
            alpha_block = np.inf
            blocker = -1
            outside = np.flatnonzero(~in_working)
            if outside.size:
                rows = self.g_mat[outside]
                gp = rows @ p
                decreasing = gp < -1e-13 * max(1.0, _absmax(gp))
                if np.any(decreasing):
                    slack = np.maximum(rows[decreasing] @ z - self.h_vec[outside[decreasing]], 0.0)
                    steps = slack / -gp[decreasing]
                    alpha_block = float(np.min(steps))
                    ties = outside[decreasing][steps <= alpha_block * (1 + 1e-12)]
                    blocker = int(ties[0])

            alpha = min(alpha_target, alpha_block)
            if not np.isfinite(alpha):
                raise QpUnboundedError("descent ray leaves the feasible set unbounded")
            if alpha > 0.0:
                z = z + alpha * p
                stalls = 0
            else:
                stalls += 1
                if stalls > 2 * (n + m):
                    bland = True
            if blocker >= 0 and alpha_block <= alpha_target:
                working.append(blocker)
                in_working[blocker] = True
        return z, QpStatus.MAX_ITER, iterations, working


def _absmax(arr) -> float:
    return float(np.max(np.abs(arr), initial=0.0))


def _data_scale(*vectors) -> float:
    return max([1.0] + [_absmax(v) for v in vectors if v is not None])


def _phase_one(g_mat, h_vec, tol, max_iter):
    """Feasible point for ``Gz >= h`` by minimizing the worst violation.

    Returns ``(point, certified_infeasible)``; the point is ``None`` when
    no usable iterate was produced.
    """
    m, n = g_mat.shape
    g_aug = np.hstack([g_mat, np.ones((m, 1))])
    g_aug = np.vstack([g_aug, np.zeros((1, n + 1))])
    g_aug[-1, -1] = 1.0
    h_aug = np.concatenate([h_vec, [0.0]])
    q_vec = np.zeros(n + 1)
    q_vec[-1] = 1.0
    z0 = np.zeros(n + 1)
    z0[-1] = max(0.0, float(np.max(h_vec, initial=0.0))) * (1 + 1e-12) + 1e-12
    core = _ActiveSetCore(np.zeros((n + 1, n + 1)), q_vec, g_aug, h_aug, tol)
    z, status, _, _ = core.solve(z0, [], max(max_iter, 10 * (n + m + 1)))
    slack = float(z[-1])
    feas_tol = 1e-8 * max(1.0, _absmax(h_vec))
    if slack <= feas_tol:
        return z[:n], False
    if status is QpStatus.OPTIMAL:
        return None, True
    return None, False


def solve_qp(
    problem: QpProblem,
    tol: float = 1e-9,
    start: np.ndarray | None = None,
    initial_active: tuple[int, ...] = (),
) -> QpResult:
    """Solve a convex QP; see the module docstring for the method.

    ``start`` may supply a feasible point (skipping the feasibility
    phase) and ``initial_active`` a warm-start working set; both are
    validated before use.  On ``OPTIMAL`` the KKT residuals (stationarity,
    primal feasibility, dual feasibility, complementarity) are within
    ``tol`` relative to the data scale (see the module docstring).  The
    active-set phase takes at most ``10 * (n + m)`` iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = problem.dim
    m = problem.n_ineq
    max_iter = 10 * (n + m)

    q_mat, q_vec = problem.q_matrix, problem.q_vector
    g_mat = problem.ineq_matrix if problem.ineq_matrix is not None else np.zeros((0, n))
    h_vec = problem.ineq_vector if problem.ineq_vector is not None else np.zeros(0)

    # eliminate equality constraints through an orthonormal nullspace basis
    basis = None
    u_part = np.zeros(n)
    if problem.eq_matrix is not None and problem.eq_matrix.shape[0] > 0:
        e_mat, e_vec = problem.eq_matrix, problem.eq_vector
        u_part, *_ = np.linalg.lstsq(e_mat, e_vec, rcond=None)
        eq_err = _absmax(e_mat @ u_part - e_vec)
        if eq_err > 1e-9 * max(1.0, _absmax(e_vec)):
            return QpResult(x=u_part, status=QpStatus.INFEASIBLE, iterations=0)
        basis = _nullspace(e_mat, n)
        if basis.shape[1] == 0:
            feas_tol = max(tol, 1e-11) * max(1.0, _absmax(h_vec))
            if m and float(np.min(g_mat @ u_part - h_vec)) < -feas_tol:
                return QpResult(x=u_part, status=QpStatus.INFEASIBLE, iterations=0)
            return _finish(problem, u_part, QpStatus.OPTIMAL, 0, [], tol)
        red_q = basis.T @ q_mat @ basis
        q_mat = 0.5 * (red_q + red_q.T)
        q_vec = basis.T @ (problem.q_matrix @ u_part + problem.q_vector)
        g_mat = g_mat @ basis
        h_vec = h_vec - (problem.ineq_matrix @ u_part if m else 0.0)
        if start is not None:
            start = basis.T @ (np.asarray(start, dtype=float) - u_part)

    dim = q_vec.size
    if g_mat.shape[0] == 0:
        z, *_ = np.linalg.lstsq(q_mat, -q_vec, rcond=None)
        if _absmax(q_mat @ z + q_vec) > max(tol, 1e-9) * max(1.0, _absmax(q_vec)):
            raise QpUnboundedError("no stationary point without constraints")
        x = u_part + (basis @ z if basis is not None else z)
        return _finish(problem, x, QpStatus.OPTIMAL, 1, [], tol)

    core = _ActiveSetCore(q_mat, q_vec, g_mat, h_vec, tol)
    feas_tol = max(tol, 1e-11) * max(1.0, _absmax(h_vec))
    z0 = None
    if start is not None:
        cand = np.asarray(start, dtype=float)
        if cand.shape == (dim,) and float(np.min(g_mat @ cand - h_vec)) >= -feas_tol:
            z0 = cand
    if z0 is None:
        z0, certified = _phase_one(g_mat, h_vec, tol, max_iter)
        if z0 is None:
            status = QpStatus.INFEASIBLE if certified else QpStatus.MAX_ITER
            return QpResult(x=np.zeros(n), status=status, iterations=max_iter)

    residuals = g_mat @ z0 - h_vec
    act_tol = 1e-9 * max(1.0, _absmax(h_vec))
    working = sorted({int(i) for i in initial_active if 0 <= i < g_mat.shape[0]})
    working = [i for i in working if residuals[i] <= act_tol]

    z, status, iterations, working = core.solve(z0, working, max_iter)
    x = u_part + (basis @ z if basis is not None else z)
    return _finish(problem, x, status, iterations, working, tol)


def _finish(problem, x, status, iterations, working, tol):
    """Recover multipliers in the original space and measure KKT residuals."""
    m = problem.n_ineq
    lam = np.zeros(m)
    grad = problem.q_matrix @ x + problem.q_vector
    if m and working:
        g_work = problem.ineq_matrix[working]
        stack = (
            g_work.T
            if problem.eq_matrix is None
            else np.hstack([g_work.T, problem.eq_matrix.T])
        )
        coef, *_ = np.linalg.lstsq(stack, grad, rcond=None)
        lam[list(working)] = coef[: len(working)]
    eq_mult = np.zeros(0 if problem.eq_matrix is None else problem.eq_matrix.shape[0])
    if eq_mult.size:
        resid = grad - (problem.ineq_matrix.T @ lam if m else 0.0)
        eq_mult, *_ = np.linalg.lstsq(problem.eq_matrix.T, resid, rcond=None)

    stat = grad.copy()
    if m:
        stat -= problem.ineq_matrix.T @ lam
    if eq_mult.size:
        stat -= problem.eq_matrix.T @ eq_mult
    primal = 0.0
    comp = 0.0
    if m:
        slack = problem.ineq_matrix @ x - problem.ineq_vector
        primal = max(0.0, -float(np.min(slack)))
        comp = _absmax(lam * slack)
    if eq_mult.size:
        primal = max(primal, _absmax(problem.eq_matrix @ x - problem.eq_vector))
    kkt = KktResidual(
        stationarity=_absmax(stat),
        primal=primal,
        dual=max(0.0, -float(np.min(lam, initial=0.0))),
        complementarity=comp,
    )
    scale = _data_scale(problem.q_vector, problem.ineq_vector, problem.eq_vector)
    worst = max(kkt.stationarity, kkt.primal, kkt.dual, kkt.complementarity / scale)
    if status is QpStatus.OPTIMAL and worst > tol * scale:
        status = QpStatus.MAX_ITER
    return QpResult(
        x=x,
        status=status,
        iterations=iterations,
        multipliers=lam,
        active_set=tuple(int(i) for i in working),
        kkt=kkt,
    )
