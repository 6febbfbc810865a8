"""Multi-kernel SVM training as a simplex-vs-box saddle problem.

The primal variable ``x`` lives on the unit simplex and weights the
candidate kernels; the dual variable ``y`` is the SVM dual vector
constrained to ``{0 <= y <= C, <y, b> = 0}``.  With the per-kernel
matrices ``M_i`` (label-conjugated, trace-rescaled Gram matrices) the
coupling is ``Phi(x, y) = mu/2 ||x||^2 - 0.5 sum_i x_i y'M_i y + e'y``
restricted to the simplex, and ``g(y) = nu/2 ||y||^2`` restricted to the
box-hyperplane set.
"""

from dataclasses import dataclass

import numpy as np

from ..problem import ProblemConstants, SaddleProblem
from ..prox import BoxHyperplaneSet, on_simplex, project_box_hyperplane, project_simplex

__all__ = [
    "MkSvmProblem",
    "MkSvmPrediction",
    "mksvm_predict",
    "polynomial_kernel",
    "gaussian_kernel",
    "linear_kernel",
    "normalize_kernel",
    "conjugated_kernels",
]

_FEAS_TOL = 1e-8


def polynomial_kernel(features: np.ndarray) -> np.ndarray:
    """Degree-2 polynomial kernel ``(1 + a'a')^2``."""
    return (1.0 + features @ features.T) ** 2


def gaussian_kernel(features: np.ndarray) -> np.ndarray:
    """Gaussian kernel ``exp(-5 ||a - a'||^2)``.

    ``gamma = 5`` corresponds to a squared-exponential with width 1/10
    (read as ``exp(-0.5 ||a-a'||^2 / 0.1)``).
    """
    sq = np.sum(features**2, axis=1)
    dist = sq[:, None] + sq[None, :] - 2.0 * (features @ features.T)
    return np.exp(-5.0 * np.maximum(dist, 0.0))


def linear_kernel(features: np.ndarray) -> np.ndarray:
    return features @ features.T


def normalize_kernel(kernel: np.ndarray) -> np.ndarray:
    """Unit-diagonal rescaling ``K <- D^-1/2 K D^-1/2`` with ``D = diag(K)``.

    Afterwards ``trace(K) = len(K)``.  Requires strictly positive
    diagonal entries.
    """
    diag = np.diag(kernel).copy()
    if np.min(diag) <= 1e-12 * max(1.0, float(np.max(diag))):
        raise ValueError("kernel has (near-)zero diagonal entries; cannot normalize")
    inv_root = 1.0 / np.sqrt(diag)
    return kernel * np.outer(inv_root, inv_root)


def conjugated_kernels(kernels: list[np.ndarray], train_idx: np.ndarray,
                       labels_train: np.ndarray) -> list[np.ndarray]:
    """Per-kernel coupling matrices ``M_i = (c / r_i) diag(b) K_i^tr diag(b)``
    with ``r_i = trace(K_i)`` and ``c = sum_i r_i``."""
    traces = [float(np.trace(k)) for k in kernels]
    c = sum(traces)
    sign = np.outer(labels_train, labels_train)
    out = []
    for kernel, r in zip(kernels, traces):
        block = kernel[np.ix_(train_idx, train_idx)]
        out.append((c / r) * sign * block)
    return out


def spectral_norm(a: np.ndarray) -> float:
    """Power iteration on ``A'A`` (at most 200 steps, stopping at a relative
    change of 1e-12), inflated by 1.001.  The iteration approaches ``||A||``
    from below, so this bounds it only once converged, as it does on the
    symmetric PSD kernel matrices here (``1.001 * lambda_max``)."""
    rng = np.random.Generator(np.random.Philox(12345))
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    value = 0.0
    for _ in range(200):
        w = a.T @ (a @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        value, prev = float(np.sqrt(norm_w)), value
        if abs(value - prev) <= 1e-12 * max(1.0, value):
            break
    return 1.001 * value


class MkSvmProblem(SaddleProblem):
    def __init__(self, m_list, labels, box_c: float, mu: float = 0.0, nu: float = 0.0):
        labels = np.asarray(labels, dtype=float)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be +-1")
        if not 0 < box_c < np.inf:
            raise ValueError(f"box_c must be positive and finite, got {box_c}")
        n = labels.size
        mats = []
        for i, m in enumerate(m_list):
            m = np.asarray(m, dtype=float)
            scale = max(1.0, float(np.max(np.abs(m))))
            if m.shape != (n, n) or float(np.max(np.abs(m - m.T))) > _FEAS_TOL * scale:
                raise ValueError(f"kernel matrix {i} must be symmetric {n}x{n}")
            try:
                np.linalg.cholesky(m + _FEAS_TOL * scale * np.eye(n))
            except np.linalg.LinAlgError:
                raise ValueError(f"kernel matrix {i} is not positive semidefinite") from None
            mats.append(m)
        self.m_stack = np.stack(mats)
        self.box_c = float(box_c)
        self.mu = float(mu)
        self.nu = float(nu)
        self.dim_x = len(mats)
        self.dim_y = n
        self.y_set = BoxHyperplaneSet(lower=0.0, upper=self.box_c, normal=labels, offset=0.0)
        self.labels = self.y_set.normal  # the set's read-only copy, so the two never disagree
        top = max(spectral_norm(m) for m in mats)
        self.constants = ProblemConstants(
            l_yx=self.box_c * np.sqrt(self.dim_x * n) * top,
            l_yy=top, mu=self.mu, nu=self.nu,
        )

    def _check_simplex(self, x):
        if not on_simplex(x):
            raise ValueError("x must lie on the unit simplex")

    def grad_y(self, x, y):
        self._check_simplex(x)
        my = self.m_stack @ y
        return 1.0 - x @ my

    def prox_phi_x(self, tau, y, x):
        return self._prox_x_grad(tau, y, x)[0]

    def _prox_x_grad(self, tau, y, x):
        """``prox_phi_x`` and ``grad_y`` at the new pair from one stacked matvec."""
        my = self.m_stack @ y
        xi = 0.5 * (my @ y)
        z = np.asarray(x, float) + tau * xi
        x_next = project_simplex(z / (1.0 + self.mu * tau) if self.mu else z)
        return x_next, 1.0 - x_next @ my

    def prox_g(self, sigma, v):
        v = np.asarray(v, float)  # v / 1.0 == v: at nu = 0 the division is skipped
        return project_box_hyperplane(self.y_set, v / (1.0 + self.nu * sigma) if self.nu else v)

    def prox_step(self, sigma, v, tau, x):
        """``prox_g``, then ``prox_phi_x`` and ``grad_y`` sharing one stacked matvec."""
        y = self.prox_g(sigma, v)
        return (y, *self._prox_x_grad(tau, y, x))

    def phi_value(self, x, y):
        x = np.asarray(x, float)
        if not on_simplex(x):
            return np.inf
        my = self.m_stack @ y
        return (
            0.5 * self.mu * float(x @ x)
            - 0.5 * float(x @ (my @ y))
            + float(np.sum(y))
        )

    def g_value(self, y):
        y = np.asarray(y, float)
        scale = max(1.0, self.box_c)
        inside = (
            float(np.min(y)) >= -_FEAS_TOL * scale
            and float(np.max(y)) <= self.box_c + _FEAS_TOL * scale
            and abs(float(y @ self.labels)) <= _FEAS_TOL * scale * np.sqrt(y.size)
        )
        if not inside:
            return np.inf
        return 0.5 * self.nu * float(y @ y)

    def sample_point(self, rng):
        x = rng.dirichlet(np.ones(self.dim_x))
        y = project_box_hyperplane(self.y_set, rng.uniform(0.0, self.box_c, self.dim_y))
        return x, y

    def check_start(self, x0, y0):
        super().check_start(x0, y0)
        self._check_simplex(x0)


@dataclass(frozen=True)
class MkSvmPrediction:
    labels: np.ndarray
    j0: int
    gamma: float
    fallback: bool


def mksvm_predict(
    kernels: list[np.ndarray],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    labels_train: np.ndarray,
    alpha: np.ndarray,
    eta: np.ndarray,
    nu: float,
    box_c: float,
) -> MkSvmPrediction:
    """Label the test points with the combined-kernel decision function.

    ``alpha`` is the dual iterate, ``eta`` the kernel combination weights.
    The intercept is anchored at a support vector ``j0`` strictly inside
    the box (band ``[tol, C - tol]`` with ``tol = 1e-4 * C``); when no
    coefficient falls in the band, the most interior one is used and the
    prediction is flagged.  ``sign(0)`` maps to +1.
    """
    alpha = np.asarray(alpha, dtype=float)
    combined_cross = sum(
        e * k[np.ix_(train_idx, test_idx)] for e, k in zip(eta, kernels)
    )
    interior = np.minimum(alpha, box_c - alpha)
    j0 = int(np.argmax(interior))
    fallback = bool(interior[j0] < 1e-4 * box_c)
    combined_j0 = sum(
        e * k[np.ix_(train_idx, train_idx[j0:j0 + 1])][:, 0] for e, k in zip(eta, kernels)
    )
    weights = labels_train * alpha
    gamma = labels_train[j0] * (1.0 - nu * alpha[j0]) - float(weights @ combined_j0)
    scores = weights @ combined_cross + gamma
    labels = np.where(scores >= 0.0, 1.0, -1.0)
    return MkSvmPrediction(labels=labels, j0=j0, gamma=gamma, fallback=fallback)
