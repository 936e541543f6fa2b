"""Finite truncations of the Hilbert sphere and the ellipsoid non-attainment.

The sphere is represented extrinsically in R^m.  The metric oracle used
by the geodesic solvers is the product metric dr^2 + g_{S^{m-1}} in polar
form, for which the unit sphere is totally geodesic and sphere distances
equal arccos of the inner product.

The ellipsoid is the image of the sphere under the diagonal scaling with
semi-axes a_0 = 1, a_n = 1 + 2^{-n}; half great circles through e_0 and
-e_0 in the (e_0, e_n)-plane have lengths squeezed between pi and
(1 + 2^{-n}) * pi with no path attaining pi.

The module needs numpy only: scipy's quad loads on the first call of
``grossman_experiment``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .path_geodesics import MetricOracle, _check_condition

__all__ = [
    "EllipsoidSpec",
    "sphere_distance_analytic",
    "sphere_oracle",
    "grossman_experiment",
]


@dataclass(frozen=True)
class EllipsoidSpec:
    """Semi-axes a_0 = 1, a_n = 1 + 2^{-n} for 1 <= n < m."""

    m: int = 24

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("ambient dimension must be >= 2")

    @property
    def semi_axes(self):
        n = np.arange(self.m)
        a = 1.0 + 2.0 ** (-n.astype(float))
        a[0] = 1.0
        return a


def _check_unit(x, tol=1e-10):
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > tol:
        raise ValueError("point is not on the unit sphere")
    return x


def sphere_distance_analytic(x, y):
    """Great-circle distance arccos <x, y> for unit vectors."""
    x = _check_unit(x)
    y = _check_unit(y)
    return float(np.arccos(np.clip(np.dot(x, y), -1.0, 1.0)))


def sphere_oracle(m):
    """Oracle for the polar product metric dr^2 + g_{S^{m-1}} on R^m \\ {0}.

    G_x(h, k) = <h, k>/r^2 + <h, x><k, x> (r^2 - 1)/r^4, r = |x|.  On the
    unit sphere this restricts to the ambient inner product and great
    circles at r = 1 are geodesics.  The Gram is 1/r^2 across x and 1 along
    it, so ``sharp`` is r^2 xi - (r^2 - 1) <xi, x> x / r^2 and the condition
    number is max(r^2, 1/r^2).  ``sharp_derivative`` differentiates that
    along l, and ``speed_gradient`` is the x-gradient of G_x(v, v) at fixed
    v.  The per-point state is x itself.  m < 2 raises ValueError.
    """
    if m < 2:
        raise ValueError(f"sphere oracle needs m >= 2, got m = {m}")

    def at(x):
        return np.asarray(x)

    def metric_rows(x, h):
        r2 = np.sum(x * x, axis=-1)[..., None]
        hx = np.sum(h * x, axis=-1)[..., None]
        return h / r2 + hx * x * (r2 - 1.0) / r2**2

    def sharp(x, xi):
        r2 = np.sum(x * x, axis=-1)[..., None]
        _check_condition(np.max(np.maximum(r2, 1.0 / r2)))
        xix = np.sum(xi * x, axis=-1)[..., None]
        return r2 * xi - (r2 - 1.0) * xix * x / r2

    def sharp_derivative(x, l, xi):
        r2 = np.sum(x * x, axis=-1)[..., None]
        lx = np.sum(l * x, axis=-1)[..., None]
        xil = np.sum(xi * l, axis=-1)[..., None]
        xix = np.sum(xi * x, axis=-1)[..., None]
        return 2.0 * lx * (xi - xix * x / r2**2) - (1.0 - 1.0 / r2) * (xil * x + xix * l)

    def speed_gradient(x, v, xi):
        r2 = np.sum(x * x, axis=-1)[..., None]
        vv = np.sum(v * v, axis=-1)[..., None]
        vx = np.sum(v * x, axis=-1)[..., None]
        t = 1.0 / r2 - 1.0 / r2**2
        # G = |v|^2 / r^2 + t <v, x>^2: |v|^2 d(1/r^2) + 2 t <v, x> v + <v, x>^2 dt
        rows = vv * (-2.0 / r2**2) * x
        rows = rows + t * (vx * v + vx * v)
        rows = rows + vx * vx * (-2.0 / r2**2 + 4.0 / r2**3) * x
        return rows

    return MetricOracle.from_rows(
        m, at, metric_rows, sharp, sharp_derivative, speed_gradient,
        name=f"sphere(m={m})",
    )


# lengths exceed pi by about (pi/2) 2^-n, 1.5e-6 at n = 20, and must decrease strictly in n
QUAD_TOL = 1e-12


def grossman_experiment(spec, n_list):
    """Lengths of the half-great-circle family F(c_n), via adaptive quadrature.

    Each row is (n, length, (1 + 2^{-n}) * pi).  The lengths strictly
    decrease in n, stay above pi, and respect the displayed bound.  Raises
    NonConvergence where quad's error estimate fails its own acceptance test.
    """
    # local: scipy.integrate outweighs all other imports, and only this function needs it
    from scipy.integrate import quad

    a = spec.semi_axes
    rows = []
    for n in n_list:
        if not 1 <= n < spec.m:
            raise ValueError(f"plane index {n} outside ambient dimension {spec.m}")
        an = a[n]

        def integrand(t, an=an):
            return np.pi * np.sqrt(np.sin(np.pi * t) ** 2 + an**2 * np.cos(np.pi * t) ** 2)

        length, abserr = quad(integrand, 0.0, 1.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
        if abserr > max(QUAD_TOL, QUAD_TOL * length):
            raise NonConvergence(f"quad error estimate {abserr:.2e} at n = {n} exceeds QUAD_TOL "
                                 f"{QUAD_TOL:.0e} (absolute and relative)")
        rows.append((int(n), float(length), float((1.0 + 2.0 ** (-n)) * np.pi)))
    return rows
