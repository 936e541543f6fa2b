"""Discretized immersed closed curves in R^d with the L^2 metric.

A curve is a PeriodicFunction with d >= 2 whose derivative never
vanishes on the grid.  The metric is

    G_c(h, k) = integral <h, k> |c'| dtheta,

its directional variation in direction l is

    D_{c,l}G(h, k) = integral <h, k> <l', c'> / |c'| dtheta,

both evaluated by the trapezoid rule with spectral derivatives; the
variation in adjoint form, as <l, -d/dtheta(<h, k> c' / |c'|)>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotImmersed
from .periodic_core import PeriodicFunction, differentiate, evaluate_spectral, transform

__all__ = [
    "IMMERSION_TOL",
    "Curve",
    "CurveTangent",
    "tangent",
    "l2_rows",
    "l2_variation_rows",
    "l2_metric",
    "l2_metric_variation",
    "reparametrize",
    "reparametrize_tangent",
]

# Absolute tolerance on the speed below which a curve is rejected.
IMMERSION_TOL = 1e-10


def tangent(values):
    """c' and |c'| of curves (..., d, n); raises NotImmersed at |c'| <= IMMERSION_TOL."""
    cp = differentiate(values)
    speed = np.sqrt(np.add.reduce(cp * cp, axis=-2))  # np.linalg.norm's own operations
    slowest = speed.min()
    if slowest <= IMMERSION_TOL:
        raise NotImmersed(f"speed minimum {slowest:.3e} <= {IMMERSION_TOL:.0e}")
    return cp, speed


def l2_rows(speed, h):
    """Flat map of the L^2 metric, (2 pi / n) h |c'|, on (..., d, n) tangents."""
    return 2.0 * np.pi / speed.shape[-1] * h * speed[..., None, :]


def l2_variation_rows(cp, speed, h, k):
    """x-gradient of the flat map paired with k, -(2 pi / n) d/dtheta(<h, k> c' / |c'|)."""
    hk = np.sum(h * k, axis=-2)
    return -differentiate(2.0 * np.pi / speed.shape[-1] * (hk / speed)[..., None, :] * cp)


@dataclass(frozen=True, eq=False)
class Curve:
    """Immersed closed curve; caches the nodal speed |c'(theta_j)|."""

    pos: PeriodicFunction
    speed: np.ndarray = field(init=False, repr=False)
    deriv: PeriodicFunction = field(init=False, repr=False)

    def __post_init__(self):
        if self.pos.dim < 2:
            raise ValueError("curves must have codomain dimension >= 2")
        cp, speed = tangent(self.pos.values)
        object.__setattr__(self, "deriv", PeriodicFunction(self.grid, cp))
        object.__setattr__(self, "speed", speed)

    @property
    def grid(self):
        return self.pos.grid

    @property
    def dim(self):
        return self.pos.dim

    @classmethod
    def from_callable(cls, func, n_samples, dim):
        return cls(PeriodicFunction.from_callable(func, n_samples, dim=dim))


@dataclass(frozen=True, eq=False)
class CurveTangent:
    """Tangent vector at a curve: a function on the same grid and codomain."""

    base: Curve
    h: PeriodicFunction

    def __post_init__(self):
        if self.h.grid.n_samples != self.base.grid.n_samples:
            raise ValueError("tangent grid does not match base curve grid")
        if self.h.dim != self.base.dim:
            raise ValueError("tangent dimension does not match base curve")


def _check_same_base(c, *tangents):
    for t in tangents:
        if t.base is not c and not np.array_equal(t.base.pos.values, c.pos.values):
            raise ValueError("tangents are not based at the curve c")


def l2_metric(c, h, k):
    """Trapezoid quadrature of <h, k> |c'| dtheta."""
    _check_same_base(c, h, k)
    return float(np.sum(k.h.values * l2_rows(c.speed, h.h.values)))


def l2_metric_variation(c, l, h, k):
    """Directional derivative of the L^2 metric in curve direction l."""
    _check_same_base(c, l, h, k)
    rows = l2_variation_rows(c.deriv.values, c.speed, h.h.values, k.h.values)
    return float(np.sum(l.h.values * rows))


def reparametrize(c, phi):
    """Compose c with a circle diffeomorphism via trigonometric interpolation."""
    angles = phi.values
    vals = evaluate_spectral(transform(c.pos), angles)
    return Curve(PeriodicFunction(c.grid, vals))


def reparametrize_tangent(h, phi):
    """Compose a tangent field with a circle diffeomorphism."""
    angles = phi.values
    vals = evaluate_spectral(transform(h.h), angles)
    base = reparametrize(h.base, phi)
    return CurveTangent(base, PeriodicFunction(h.h.grid, vals))

