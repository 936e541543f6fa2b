"""RKHS kernels and the induced Riemannian metric on landmark configurations.

A configuration of N distinct points in R^d carries the block Gram
matrix K_q with blocks k(q_i, q_j) * I_d.  The induced metric is the
cometric G(h, h') = h^T K_q^{-1} h'; the minimal-norm vector field
inducing a tangent h is the kernel expansion with momenta p = K_q^{-1} h,
and ``constrained_infimum`` realizes that infimum independently as a QP,
solving its KKT system with ``np.linalg.solve``.

Since K_q = K ⊗ I_d for the N x N scalar Gram K, every solve reads K
alone (one LU with pivoting, no regularization) and solves the momenta
(N, d) with d right-hand sides.  The landmark oracle does this for a whole
stack of configurations (..., N*d) at once.  A degenerate configuration fails
loudly: non-finite positions raise ValueError, and two landmarks closer
than MIN_SEPARATION or a Gram that is not positive definite raise
DegenerateConfig.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateConfig
from .path_geodesics import MetricOracle, _check_condition

__all__ = [
    "Kernel",
    "gaussian_kernel",
    "sobolev_kernel",
    "LandmarkConfig",
    "gram_assemble",
    "induced_metric",
    "landmark_metric_oracle",
    "admissibility_bound_check",
    "constrained_infimum",
]

MIN_SEPARATION = 1e-8


@dataclass(frozen=True)
class Kernel:
    """Isotropic scalar kernel acting blockwise as k(x, y) * I_d."""

    kind: str
    scale: float = 1.0
    order: int = 1

    def __post_init__(self):
        if self.kind not in ("gaussian", "sobolev"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "sobolev" and self.order not in (1, 2):
            raise ValueError("sobolev kernel supports orders 1 and 2 only")
        if self.scale <= 0:
            raise ValueError("kernel scale must be positive")

    def __call__(self, x, y):
        """Evaluate k on points of shape (..., d); broadcasts."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.linalg.norm(x - y, axis=-1)
        return self.profile(r)

    def profile(self, r):
        """Kernel as a function of the distance r >= 0."""
        r = np.asarray(r, dtype=float) / self.scale
        if self.kind == "gaussian":
            return np.exp(-0.5 * r**2)
        if self.order == 1:
            return 0.5 * np.exp(-np.abs(r))
        return 0.25 * (1.0 + np.abs(r)) * np.exp(-np.abs(r))

    def at_zero(self):
        return float(self.profile(0.0))


def gaussian_kernel(sigma):
    return Kernel(kind="gaussian", scale=float(sigma))


def sobolev_kernel(order):
    return Kernel(kind="sobolev", order=int(order))


@dataclass(frozen=True, eq=False)
class LandmarkConfig:
    """N pairwise-distinct points in R^d, stored as an (N, d) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        _pairwise(pts)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def _pairwise(pts):
    """Differences q_a - q_b (..., N, N, d) and distances (..., N, N) of checked points.

    ``pts`` holds configurations of shape (..., N, d).  Non-finite positions
    raise ValueError; two points of one configuration no further apart
    than MIN_SEPARATION raise DegenerateConfig.  The distances are
    ``np.linalg.norm``'s own operations, so they equal its result bitwise.
    """
    if not np.isfinite(pts).all():
        raise ValueError("landmark positions must be finite")
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    # the off-diagonal distances as a view, with no mask: past entry (0, 0) of a
    # row-major N x N block, rows of N + 1 entries end in the diagonal ones
    lead, n = dist.shape[:-2], dist.shape[-1]
    flat = dist.reshape(lead + (n * n,))[..., 1:]
    off_diagonal = flat.reshape(lead + (n - 1, n + 1))[..., :-1]
    if off_diagonal.size and (separation := off_diagonal.min()) <= MIN_SEPARATION:
        raise DegenerateConfig(
            f"minimum landmark separation {separation:.3e} <= {MIN_SEPARATION:.0e}"
        )
    return diff, dist


@dataclass(frozen=True, eq=False)
class _Factored:
    """Checked geometry and positive definite scalar Gram K of configurations (..., N, d).

    The state keeps its kernel, so it builds ``kernel_gradient`` on first
    use and at most once: a trial energy never reads it.
    """

    kernel: Kernel
    diff: np.ndarray
    dist: np.ndarray
    gram: np.ndarray

    @cached_property
    def kernel_gradient(self):
        return _kernel_gradient(self)


def _factor(kernel, pts):
    """Pairwise differences (..., N, N, d), distances and the scalar Gram K.

    The Cholesky factorization only tests definiteness: a Gram that is not
    positive definite in any configuration raises DegenerateConfig.
    """
    diff, dist = _pairwise(pts)
    gram = kernel.profile(dist)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfig(f"Gram matrix not positive definite: {exc}") from exc
    return _Factored(kernel, diff, dist, gram)


def _solve(gram, rhs):
    """K^{-1} rhs by one batched LU of K, for gram (..., N, N) and rhs (..., N, c).

    Leading axes broadcast against each other.
    """
    return np.linalg.solve(gram, rhs)


def _kernel_gradient(state):
    """Gradient of k(|q_a - q_b|) in q_a at a ``_Factored`` state, shape (..., N, N, d); zero
    for a == b."""
    kernel = state.kernel
    if kernel.kind == "gaussian":
        return -state.gram[..., None] * state.diff / kernel.scale**2
    # diff vanishes on the diagonal, where the Sobolev profile has a kink
    r_safe = np.where(state.dist == 0.0, 1.0, state.dist)[..., None]
    return _profile_derivative(kernel, r_safe) * state.diff / r_safe


def _gram_derivative(state, p):
    """q-gradient (..., N, d) of p^T K(q) p = sum_ab (p_a . p_b) k_ab at a ``_Factored`` state.

    k_ab depends on q_a and q_b, and its q_b-gradient is the q_a-gradient of
    k_ba, so the q_a row is sum_b (p_a . p_b + p_b . p_a) grad_{q_a} k_ab.
    """
    pp = np.einsum("...ad,...bd->...ab", p, p)
    sym = pp + np.swapaxes(pp, -1, -2)
    return np.einsum("...ab,...abd->...ad", sym, state.kernel_gradient)


def _scalar_gram(kernel, points_a, points_b=None):
    b = points_a if points_b is None else points_b
    return kernel(points_a[:, None, :], b[None, :, :])


def gram_assemble(kernel, config):
    """Block Gram matrix (N*d x N*d) with blocks k(q_i, q_j) * I_d."""
    scal = _scalar_gram(kernel, config.points)
    return np.kron(scal, np.eye(config.dim))


def induced_metric(kernel, config, h):
    """Cometric value h^T K_q^{-1} h, the squared norm of the tangent h."""
    h = np.asarray(h, dtype=float).reshape(config.n_points, config.dim)
    return float(np.sum(h * _solve(_factor(kernel, config.points).gram, h)))


def constrained_infimum(kernel, config, h, extra_points):
    """Independent realization of the induced metric as a constrained QP.

    Minimizes the RKHS norm of an expansion over config points plus
    extra_points subject to interpolating h on the configuration, via the
    KKT system.  Must agree with induced_metric.
    """
    h = np.asarray(h, dtype=float).reshape(config.n_points, config.dim)
    z = np.vstack([config.points, np.atleast_2d(np.asarray(extra_points, dtype=float))])
    kzz = _scalar_gram(kernel, z)  # (M, M)
    kqz = _scalar_gram(kernel, config.points, z)  # (N, M)
    m_pts, n_pts = kzz.shape[0], config.n_points
    # KKT: [Kzz  Kqz^T] [mu    ]   [0]
    #      [Kqz  0    ] [lambda] = [h]   (per component)
    kkt = np.zeros((m_pts + n_pts, m_pts + n_pts))
    kkt[:m_pts, :m_pts] = kzz
    kkt[:m_pts, m_pts:] = kqz.T
    kkt[m_pts:, :m_pts] = kqz
    rhs = np.zeros((m_pts + n_pts, config.dim))
    rhs[m_pts:] = h
    sol = np.linalg.solve(kkt, rhs)
    mu = sol[:m_pts]
    return float(np.einsum("ad,ab,bd->", mu, kzz, mu))


def landmark_metric_oracle(kernel, config_dim, n_points):
    """Metric oracle for flattened landmark configurations in R^(N*d).

    The metric is the kernel cometric h^T K(x)^{-1} k.  ``at(x)`` builds
    the N x N scalar Gram K of every configuration in x's leading axes and
    tests it for definiteness (a ``_Factored`` state), and every other
    callable reads that state: the flat map h -> K^{-1} h solves the
    momenta (N, d) with d right-hand sides by one batched LU of K.
    ``speed_gradient`` reads the momentum xi = K^{-1} v that its caller
    passes: since d(K^{-1}) = -K^{-1} dK K^{-1}, the x-gradient of
    v^T K^{-1} v is minus the q-gradient of xi^T K(q) xi
    (``_gram_derivative``).  ``sharp`` is K xi and its derivative
    ``sharp_derivative`` is dK[l] xi, so none of the three solves, and an
    energy gradient or a geodesic acceleration solves only for its momentum
    (Miller-Trouve-Younes, *Geodesic shooting for computational anatomy*,
    2006).  Both derivatives read the kernel gradient (..., N, N, d), which
    the state builds on demand, once: an acceleration builds it once for
    both, and an energy, which reads neither, never.  ``sharp`` reads
    cond(K^{-1} ⊗ I_d) = cond(K) as the end ratio of ``eigvalsh``'s ascending
    output, positive past the Cholesky test.  h, k, l and xi broadcast against x.
    Non-finite positions raise ValueError; landmarks closer than
    MIN_SEPARATION or a Gram that is not positive definite, in any row,
    raise DegenerateConfig.
    """
    d = config_dim
    n = n_points
    m = n * d

    def _split(v):
        v = np.asarray(v, dtype=float)
        return v.reshape(v.shape[:-1] + (n, d))

    def _flat(rows):
        return rows.reshape(rows.shape[:-2] + (m,))

    def at(x):
        return x if isinstance(x, _Factored) else _factor(kernel, _split(x))

    def metric_rows(x, h):
        return _flat(_solve(at(x).gram, _split(h)))

    def sharp(x, xi):
        s = at(x)
        eig = np.linalg.eigvalsh(s.gram)
        _check_condition(np.abs(eig[..., -1] / eig[..., 0]).max())
        return _flat(s.gram @ _split(xi))

    def sharp_derivative(x, l, xi):
        """dK[l] xi, where dK[l]_ab = grad k_ab . (l_a - l_b)."""
        s = at(x)
        l = _split(l)
        dk = np.einsum("...abd,...abd->...ab", s.kernel_gradient,
                       l[..., :, None, :] - l[..., None, :, :])
        return _flat(dk @ _split(xi))

    def speed_gradient(x, v, xi):
        return _flat(-_gram_derivative(at(x), _split(xi)))

    return MetricOracle.from_rows(
        m, at, metric_rows, sharp, sharp_derivative, speed_gradient,
        name=f"landmarks(N={n},d={d},{kernel.kind})",
    )


def _profile_derivative(kernel, r):
    """d/dr of the kernel profile, analytic for both Sobolev kinds (orders 1 and 2)."""
    s = kernel.scale
    rs = r / s
    if kernel.order == 1:
        return -0.5 / s * np.exp(-rs)
    return -0.25 / s * rs * np.exp(-rs)


def admissibility_bound_check(kernel, config, h):
    """Nondegeneracy bound: max_i |h_i| <= sqrt(k(0)) * sqrt(G(h, h))."""
    h_arr = np.asarray(h, dtype=float).reshape(config.n_points, config.dim)
    lhs = float(np.max(np.linalg.norm(h_arr, axis=1)))
    rhs = float(np.sqrt(kernel.at_zero()) * np.sqrt(induced_metric(kernel, config, h_arr)))
    return lhs, rhs
