"""Multi-kernel SVM training as a simplex-vs-box saddle problem.

The primal variable ``x`` lives on the unit simplex and weights the
candidate kernels; the dual variable ``y`` is the SVM dual vector
constrained to ``{0 <= y <= C, <y, b> = 0}``.  With the per-kernel
matrices ``M_i`` (label-conjugated, trace-rescaled Gram matrices) the
coupling is ``Phi(x, y) = mu/2 ||x||^2 - 0.5 sum_i x_i y'M_i y + e'y``
restricted to the simplex, and ``g(y) = nu/2 ||y||^2`` restricted to the
box-hyperplane set.  A kernel is a square matrix or, with fewer columns than
rows, a factor ``F`` of ``F F'``: every function here reads it by that rule,
and ``MkSvmProblem`` keeps a block that is diagonal to working precision as
the 1-d vector of its diagonal, a third form the shape tells apart.  Its
products call ``ndarray.dot``, on the blocks it owns, C-contiguous, and their
``.T`` views: the same BLAS call as ``@`` with less dispatch, so the same floats.
"""

from dataclasses import dataclass

import numpy as np

from ..problem import ProblemConstants, SaddleProblem
from ..prox import BoxHyperplaneSet, _finite, on_simplex, project_box_hyperplane, project_simplex

__all__ = [
    "MkSvmProblem",
    "MkSvmPrediction",
    "mksvm_predict",
    "polynomial_kernel",
    "gaussian_kernel",
    "linear_kernel",
    "normalize_kernel",
    "kernel_diagonal",
    "build_kernels",
    "conjugated_kernels",
]

_FEAS_TOL = 1e-8


def _is_factor(kernel: np.ndarray) -> bool:
    return kernel.ndim == 2 and kernel.shape[1] < kernel.shape[0]


def kernel_diagonal(kernel: np.ndarray) -> np.ndarray:
    """``diag(K)`` of a kernel or of its factor; its sum is ``trace(K)``."""
    return np.sum(kernel**2, axis=1) if _is_factor(kernel) else np.diag(kernel)


def _block(kernel: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``K[rows, cols]``, C-ordered; a dense kernel is gathered by columns, then rows."""
    return kernel[rows] @ kernel[cols].T if _is_factor(kernel) else kernel[:, cols][rows]


def polynomial_kernel(features: np.ndarray) -> np.ndarray:
    """Degree-2 polynomial kernel ``(1 + a'a')^2``."""
    return (1.0 + features @ features.T) ** 2


def gaussian_kernel(features: np.ndarray) -> np.ndarray:
    """Gaussian kernel ``exp(-5 ||a - a'||^2)``; entries below the smallest normal
    float are 0, so no product with the kernel takes slow subnormal arithmetic.

    ``gamma = 5`` corresponds to a squared-exponential with width 1/10
    (read as ``exp(-0.5 ||a-a'||^2 / 0.1)``).
    """
    sq = np.sum(features**2, axis=1)
    dist = np.add.outer(sq, sq)
    dist -= 2.0 * (features @ features.T)
    np.maximum(dist, 0.0, out=dist)
    dist *= -5.0
    np.exp(dist, out=dist)
    dist[dist < np.finfo(float).tiny] = 0.0
    return dist


def linear_kernel(features: np.ndarray) -> np.ndarray:
    return features @ features.T


def normalize_kernel(kernel: np.ndarray) -> np.ndarray:
    """Unit-diagonal rescaling ``K <- D^-1/2 K D^-1/2`` with ``D = diag(K)``.

    Afterwards ``trace(K) = len(K)``; a factor's rows get unit norm.
    Requires strictly positive diagonal entries.
    """
    diag = kernel_diagonal(kernel)
    if np.min(diag) <= 1e-12 * max(1.0, float(np.max(diag))):
        raise ValueError("kernel has (near-)zero diagonal entries; cannot normalize")
    inv_root = 1.0 / np.sqrt(diag)
    return kernel * (inv_root[:, None] if _is_factor(kernel) else np.outer(inv_root, inv_root))


def build_kernels(features: np.ndarray) -> list[np.ndarray]:
    """The polynomial, Gaussian and linear kernels over all rows, unit-diagonal
    normalized; the linear one is kept as the feature factor when that is thin."""
    thin = features.shape[1] < len(features)
    return [
        normalize_kernel(polynomial_kernel(features)),
        normalize_kernel(gaussian_kernel(features)),
        normalize_kernel(features if thin else linear_kernel(features)),
    ]


def conjugated_kernels(kernels: list[np.ndarray], train_idx: np.ndarray,
                       labels_train: np.ndarray) -> list[np.ndarray]:
    """Per-kernel coupling matrices ``M_i = (c / r_i) diag(b) K_i^tr diag(b)``
    with ``r_i = trace(K_i)`` and ``c = sum_i r_i``; a factor ``F`` thinner than
    the training rows gives the factor ``sqrt(c / r_i) diag(b) F^tr`` of ``M_i``.
    Each block is gathered once and scaled in place; the ``+-1`` label products
    are exact, so it rounds as ``(c / r_i) K_i^tr`` does."""
    traces = [float(np.sum(kernel_diagonal(k))) for k in kernels]
    c = sum(traces)
    mats = []
    for kernel, r in zip(kernels, traces):
        thin = _is_factor(kernel) and kernel.shape[1] < len(train_idx)
        m = kernel[train_idx] if thin else _block(kernel, train_idx, train_idx)
        m *= np.sqrt(c / r) if thin else c / r
        m *= labels_train[:, None]
        if not thin:
            m *= labels_train
        mats.append(m)
    return mats


def spectral_norm(a: np.ndarray) -> float:
    """Power iteration on ``A'A`` (at most 200 steps, stopping at a relative
    change of 1e-12), inflated by 1.001.  The iteration approaches ``||A||``
    from below, so when it has not converged by then the SVD's ``||A||`` is
    inflated instead.  On the symmetric PSD kernel matrices here this is
    ``1.001 * lambda_max``, and on an ``n x r`` factor ``G``
    ``spectral_norm(G)**2 / 1.001 = 1.001 * lambda_max(G G')``."""
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
            return 1.001 * value
    return 1.001 * float(np.linalg.norm(a, 2))


class MkSvmProblem(SaddleProblem):
    def __init__(self, m_list, labels, box_c: float, mu: float = 0.0, nu: float = 0.0):
        labels = np.asarray(labels, dtype=float)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be +-1")
        if not 0 < box_c < np.inf:
            raise ValueError(f"box_c must be positive and finite, got {box_c}")
        n = labels.size
        mats = [np.asarray(m, dtype=float) for m in m_list]
        if not mats:
            raise ValueError("at least one kernel required")
        diagonal = {}  # kernel position -> diagonal of a block kept in that form
        for i, m in enumerate(mats):
            if _is_factor(m) and len(m) == n:  # M_i = m m' is PSD by construction
                if not _finite(m, float(np.vdot(m, m))):
                    raise ValueError(f"kernel matrix {i} must be finite")
                continue
            if m.shape != (n, n):
                raise ValueError(f"kernel matrix {i} must be symmetric {n}x{n}")
            size = np.abs(m)
            scale, diag = max(1.0, float(size.max())), m.diagonal()
            size.flat[:: n + 1] = 0.0  # off-diagonal sums as summed: row sums - |d_i| cancel
            off = size.sum(axis=1)
            del size  # no two n x n temporaries alive at once
            if not _finite(m, float(np.sum(off) + np.sum(np.abs(diag)))):
                raise ValueError(f"kernel matrix {i} must be finite")
            # m - m' is antisymmetric, so its largest entry is its largest magnitude
            if float(np.max(m - m.T)) > _FEAS_TOL * scale:
                raise ValueError(f"kernel matrix {i} must be symmetric {n}x{n}")
            # PSD certificate (Gershgorin): d_i + tol > sum_{j != i} |m_ij| in every row, with
            # tol = _FEAS_TOL * scale and 1 + n 2^-52 for the rounding of n - 1 terms and of both
            # sides, makes m + tol I strictly diagonally dominant, so lambda_min(m) > -tol
            if (diag + _FEAS_TOL * scale > off * (1.0 + n * 2.0**-52)).all():
                # kept as d if off_i <= 2^-60 |d_i|: d * y drops <= 2^-60 |d_i| ||y||_inf, 1/128
                # ulp; the Gaussian block is diagonal only as gamma = 5 (README's Gaussian caveat)
                if (off <= 2.0**-60 * np.abs(diag)).all():
                    diagonal[i] = diag
                continue
            shifted = m.copy()
            shifted.flat[:: n + 1] += _FEAS_TOL * scale
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                raise ValueError(f"kernel matrix {i} is not positive semidefinite") from None
            del shifted  # not alive while the next block is checked or the blocks are copied
        # private read-only copies in kernel order, made once every block has passed
        self._blocks = tuple(diagonal.get(i, m).copy() for i, m in enumerate(mats))
        for m in self._blocks:
            m.flags.writeable = False
        self._factor_t = tuple(m.T if _is_factor(m) else None for m in self._blocks)
        self.box_c = float(box_c)
        self.dim_x = len(mats)
        self.dim_y = n
        self.y_set = BoxHyperplaneSet(upper=self.box_c, normal=labels)
        self.labels = self.y_set.normal  # the set's read-only copy, so the two never disagree
        top = max(spectral_norm(m) ** 2 / 1.001 if _is_factor(m) else spectral_norm(m)
                  for m in mats)  # the blocks as given: no form changes a constant
        self.constants = ProblemConstants(
            l_yx=float(self.box_c * np.sqrt(self.dim_x * n) * top),
            l_yy=top, mu=float(mu), nu=float(nu),
        )

    def _check_simplex(self, x):
        if not on_simplex(x):
            raise ValueError("x must lie on the unit simplex")

    def _kernel_products(self, y):
        """Row ``i`` is ``M_i y``; ``ndim`` is tested first, as ``d.dot(y)`` would be a scalar."""
        return np.array([m * y if m.ndim == 1 else m.dot(y) if t is None else m.dot(t.dot(y))
                         for m, t in zip(self._blocks, self._factor_t)])

    def grad_y(self, x, y):
        self._check_simplex(x)
        my = self._kernel_products(y)
        return 1.0 - np.asarray(x, float).dot(my)

    def prox_phi_x(self, tau, y, x):
        return self._prox_x_grad(tau, y, x)[0]

    def _prox_x_grad(self, tau, y, x):
        """``prox_phi_x`` and ``grad_y`` at the new pair from one coupling pass;
        the few kernel weights step on Python floats, numpy's operations entry by entry."""
        my = self._kernel_products(y)
        xi, d = my.dot(y).tolist(), 1.0 + self.constants.mu * tau  # e / 1.0 == e at mu = 0
        x = x if type(x) is np.ndarray and x.dtype == float else np.asarray(x, float)
        x_next = project_simplex([(a + tau * (0.5 * q)) / d for a, q in zip(x.tolist(), xi)])
        return x_next, 1.0 - x_next.dot(my)

    def prox_g(self, sigma, v):
        nu = self.constants.nu  # v / 1.0 == v: at nu = 0 the projection converts v itself
        w = np.asarray(v, float) / (1.0 + nu * sigma) if nu else v
        return project_box_hyperplane(self.y_set, w)

    def prox_step(self, sigma, v, tau, x):
        """``prox_g``, then ``prox_phi_x`` and ``grad_y`` sharing one coupling pass."""
        y = self.prox_g(sigma, v)
        return (y, *self._prox_x_grad(tau, y, x))

    def phi_value(self, x, y):
        x = np.asarray(x, float)
        if not on_simplex(x):
            return np.inf
        my = self._kernel_products(y)
        return (
            0.5 * self.constants.mu * float(x @ x)
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
        return 0.5 * self.constants.nu * float(y @ y)

    def sample_point(self, rng):
        x = rng.dirichlet(np.ones(self.dim_x))
        y = project_box_hyperplane(self.y_set, rng.uniform(0.0, self.box_c, self.dim_y))
        return x, y

    def check_start(self, x0, y0):
        super().check_start(x0, y0)
        self._check_simplex(x0)


@dataclass(frozen=True, eq=False)
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
    weights: np.ndarray,
    nu: float,
    box_c: float,
) -> MkSvmPrediction:
    """Label the test points with the combined-kernel decision function.

    ``alpha`` is the dual iterate, ``weights`` the solver's kernel weights ``x``; the
    kernels combine as ``eta = c x / r``, undoing :func:`conjugated_kernels`' scaling.
    The intercept is anchored at a support vector ``j0`` strictly inside
    the box (band ``[tol, C - tol]`` with ``tol = 1e-4 * C``); when no
    coefficient falls in the band, the most interior one is used and the
    prediction is flagged.  ``sign(0)`` maps to +1.
    """
    alpha = np.asarray(alpha, dtype=float)
    traces = np.array([np.sum(kernel_diagonal(k)) for k in kernels])
    eta = float(np.sum(traces)) * weights / traces
    combined_cross = sum(e * _block(k, train_idx, test_idx) for e, k in zip(eta, kernels))
    interior = np.minimum(alpha, box_c - alpha)
    j0 = int(np.argmax(interior))
    fallback = bool(interior[j0] < 1e-4 * box_c)
    combined_j0 = sum(
        e * _block(k, train_idx, train_idx[j0:j0 + 1])[:, 0] for e, k in zip(eta, kernels)
    )
    signed = labels_train * alpha
    gamma = labels_train[j0] * (1.0 - nu * alpha[j0]) - float(signed @ combined_j0)
    scores = signed @ combined_cross + gamma
    labels = np.where(scores >= 0.0, 1.0, -1.0)
    return MkSvmPrediction(labels=labels, j0=j0, gamma=gamma, fallback=fallback)
