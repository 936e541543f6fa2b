"""Finite truncations of the Hilbert sphere and the ellipsoid non-attainment.

The sphere is represented extrinsically in R^m.  The metric oracle used
by the geodesic solvers is the product metric dr^2 + g_{S^{m-1}} in polar
form, for which the unit sphere is totally geodesic and sphere distances
equal arccos of the inner product.

The ellipsoid is the image of the sphere under the diagonal scaling with
semi-axes a_0 = 1, a_n = 1 + 2^{-n}; half great circles through e_0 and
-e_0 in the (e_0, e_n)-plane have lengths squeezed between pi and
(1 + 2^{-n}) * pi with no path attaining pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

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
    number is max(r^2, 1/r^2).  The per-point state is x itself.
    """

    def at(x):
        return np.asarray(x)

    def metric_rows(x, h):
        r2 = np.sum(x * x, axis=-1)[..., None]
        hx = np.sum(h * x, axis=-1)[..., None]
        return h / r2 + hx * x * (r2 - 1.0) / r2**2

    def variation_rows(x, h, k):
        r2 = np.sum(x * x, axis=-1)[..., None]
        hk = np.sum(h * k, axis=-1)[..., None]
        hx = np.sum(h * x, axis=-1)[..., None]
        kx = np.sum(k * x, axis=-1)[..., None]
        t = 1.0 / r2 - 1.0 / r2**2
        # gradients in l of ds, dt terms: ds = -2<x,l>/r^4 etc.
        rows = hk * (-2.0 / r2**2) * x
        rows = rows + t * (kx * h + hx * k)
        rows = rows + hx * kx * (-2.0 / r2**2 + 4.0 / r2**3) * x
        return rows

    def flat_derivative(x, l, h):
        r2 = np.sum(x * x, axis=-1)[..., None]
        lx = np.sum(l * x, axis=-1)[..., None]
        hx = np.sum(h * x, axis=-1)[..., None]
        hl = np.sum(h * l, axis=-1)[..., None]
        t = 1.0 / r2 - 1.0 / r2**2
        # d/de of 1/r^2 and of t along l, with d(r^2) = 2 <x, l>
        rows = lx * (-2.0 / r2**2) * h
        rows = rows + t * (hl * x + hx * l)
        rows = rows + hx * lx * (-2.0 / r2**2 + 4.0 / r2**3) * x
        return rows

    def sharp(x, xi):
        r2 = np.sum(x * x, axis=-1)[..., None]
        _check_condition(np.max(np.maximum(r2, 1.0 / r2)))
        xix = np.sum(xi * x, axis=-1)[..., None]
        return r2 * xi - (r2 - 1.0) * xix * x / r2

    return MetricOracle.from_rows(
        m, at, metric_rows, variation_rows, sharp, flat_derivative, name=f"sphere(m={m})"
    )


# lengths exceed pi by about (pi/2) 2^-n, 1.5e-6 at n = 20, and must decrease strictly in n
QUAD_TOL = 1e-12


def grossman_experiment(spec, n_list):
    """Lengths of the half-great-circle family F(c_n), via adaptive quadrature.

    Each row is (n, length, (1 + 2^{-n}) * pi).  The lengths strictly
    decrease in n, stay above pi, and respect the displayed bound.  Raises
    NonConvergence where quad's error estimate fails its own acceptance test.
    """
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
