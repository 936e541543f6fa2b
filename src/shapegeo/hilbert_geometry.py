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

from typing import NamedTuple

import numpy as np

from .errors import SingularGram
from .path_geodesics import MetricOracle, _check_condition

__all__ = [
    "sphere_distance_analytic",
    "sphere_oracle",
    "grossman_experiment",
]


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


class _SphereState(NamedTuple):
    """Points x (..., m) and their r^2 = |x|^2 (..., 1)."""

    x: np.ndarray
    r2: np.ndarray


def sphere_oracle(m):
    """Oracle for the polar product metric dr^2 + g_{S^{m-1}} on R^m \\ {0}.

    G_x(h, k) = <h, k>/r^2 + <h, x><k, x> (r^2 - 1)/r^4, r = |x|.  On the
    unit sphere this restricts to the ambient inner product and great
    circles at r = 1 are geodesics.  The Gram is 1/r^2 across x and 1 along
    it, so ``sharp`` is r^2 xi - (r^2 - 1) <xi, x> x / r^2 and the condition
    number is max(r^2, 1/r^2).  ``sharp_derivative`` differentiates that
    along l, and ``speed_gradient`` is the x-gradient of G_x(v, v) at fixed
    v.  The per-point state holds x and r^2; ``at`` raises ``SingularGram``
    at the origin, where the condition number is infinite and the polar
    metric is not defined.  m < 2 raises ValueError.
    """
    if m < 2:
        raise ValueError(f"sphere oracle needs m >= 2, got m = {m}")

    def at(x):
        if isinstance(x, _SphereState):
            return x
        x = np.asarray(x)
        r2 = np.sum(x * x, axis=-1)[..., None]
        if np.any(r2 == 0.0):
            raise SingularGram("metric Gram condition number inf at the origin, "
                               "where the polar metric dr^2 + g_S is not defined")
        return _SphereState(x, r2)

    def metric_rows(x, h):
        x, r2 = at(x)
        hx = np.sum(h * x, axis=-1)[..., None]
        return h / r2 + hx * x * (r2 - 1.0) / r2**2

    def sharp(x, xi):
        x, r2 = at(x)
        _check_condition(np.max(np.maximum(r2, 1.0 / r2)))
        xix = np.sum(xi * x, axis=-1)[..., None]
        return r2 * xi - (r2 - 1.0) * xix * x / r2

    def sharp_derivative(x, l, xi):
        x, r2 = at(x)
        lx = np.sum(l * x, axis=-1)[..., None]
        xil = np.sum(xi * l, axis=-1)[..., None]
        xix = np.sum(xi * x, axis=-1)[..., None]
        return 2.0 * lx * (xi - xix * x / r2**2) - (1.0 - 1.0 / r2) * (xil * x + xix * l)

    def speed_gradient(x, v, xi):
        x, r2 = at(x)
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


def grossman_experiment(m, n_list):
    """Lengths of the half-great-circle family F(c_n) of the ellipsoid in R^m, in closed form.

    F(c_n) is s -> (cos s, a sin s), 0 <= s <= pi, a = 1 + 2^{-n}, of length
    int_0^pi sqrt(sin^2 s + a^2 cos^2 s) ds = 2a int_0^{pi/2} sqrt(1 - k2 sin^2 s) ds
    = 2a E(k2), k2 = 1 - a^{-2}.  E comes from the arithmetic-geometric mean
    (Abramowitz-Stegun 17.6): a_0 = 1, b_0 = sqrt(1 - k2), c_0^2 = k2, then
    (a, b, c) <- ((a + b)/2, sqrt(ab), (a - b)/2), E = pi/(2 a_inf) (1 - sum_j
    2^{j-1} c_j^2).  As c_{j+1} = c_j^2/(4 a_{j+1}), a - b squares each pass until
    rounding leaves a and b, both in [2/3, 1], an ulp apart; so the loop ends at
    max(a - b) <= 2 eps (4 passes at n = 1), and the terms it omits are < 2^j eps^2.

    Rows are (n, length, (1 + 2^{-n}) pi), strictly decreasing in n, above pi and
    within the bound.  m < 2, or n outside 1 <= n < m or above 48, raises ValueError.
    """
    if m < 2:
        raise ValueError(f"ambient dimension m = {m} must be >= 2")
    n = np.asarray(n_list, dtype=int)
    for k in n:
        if not 1 <= k < m:
            raise ValueError(f"plane index {k} outside ambient dimension {m}")
        # consecutive lengths differ by about pi 2^(-n-2): 6.3 ulp(pi) at n = 48 and 3.1 at
        # n = 49, while each length is off by up to 1.9 ulp, so past 48 they need not decrease
        if k > 48:
            raise ValueError(f"plane index {k} > 48: rows past 48 are not resolved in doubles")
    axis = 1.0 + 2.0 ** (-n.astype(float))
    k2 = 1.0 - axis**-2.0
    a, b, total, weight = np.ones_like(k2), np.sqrt(1.0 - k2), k2 / 2, 0.5
    while np.any(a - b > 2 * np.finfo(float).eps):
        a, b, c = (a + b) / 2, np.sqrt(a * b), (a - b) / 2
        weight *= 2
        total += weight * c**2
    lengths = 2 * axis * (np.pi / (2 * a) * (1 - total))
    return [(int(k), float(L), float(bound)) for k, L, bound in zip(n, lengths, axis * np.pi)]
