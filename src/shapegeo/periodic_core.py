"""Spectral representation of smooth periodic functions on the circle.

Functions are stored as uniform samples on a power-of-two grid together
with their discrete Fourier coefficients.  The Fourier convention is

    fhat_k = (1/2pi) * integral f(theta) exp(-ik theta) dtheta,

approximated by the trapezoid rule, with wavenumbers k in
{-n/2+1, ..., n/2}.  With this normalization the constant function 1 has
fhat_0 = 1 and <1,1>_{H^q} = 1 for every q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PeriodicGrid",
    "PeriodicFunction",
    "SpectralCoeffs",
    "transform",
    "inverse_transform",
    "compress",
    "evaluate_spectral",
    "differentiate",
    "derivative",
    "sobolev_inner_product",
    "sobolev_inner_product_integer",
    "sup_norm",
]


def _check_power_of_two(n):
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 4, got {n}")


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid theta_j = 2*pi*j/n on [0, 2*pi)."""

    n_samples: int

    def __post_init__(self):
        _check_power_of_two(self.n_samples)

    @property
    def nodes(self):
        n = self.n_samples
        return 2.0 * np.pi * np.arange(n) / n

    @property
    def wavenumbers(self):
        """Integer wavenumbers in fft storage order, Nyquist at +n/2."""
        n = self.n_samples
        k = np.arange(n)
        k[k > n // 2] -= n
        return k


@dataclass(frozen=True)
class PeriodicFunction:
    """d-valued function on the circle stored as samples of shape (d, n)."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.shape[1] != self.grid.n_samples:
            raise ValueError(
                f"values have {vals.shape[1]} samples, grid has {self.grid.n_samples}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self):
        return self.values.shape[0]

    @classmethod
    def from_callable(cls, func, n_samples, dim=None):
        grid = PeriodicGrid(n_samples)
        vals = np.asarray(func(grid.nodes), dtype=float)
        if dim is not None:
            vals = vals.reshape(dim, n_samples)
        return cls(grid, vals)


@dataclass(frozen=True)
class SpectralCoeffs:
    """Complex Fourier coefficients per component in fft storage order."""

    grid: PeriodicGrid
    coeffs: np.ndarray = field(repr=False)


def _check_compat(f, g):
    if f.grid.n_samples != g.grid.n_samples:
        raise ValueError("grid sizes do not match")
    if f.dim != g.dim:
        raise ValueError("codomain dimensions do not match")


def transform(f):
    """Samples -> Fourier coefficients (trapezoid rule for fhat_k)."""
    n = f.grid.n_samples
    return SpectralCoeffs(f.grid, np.fft.fft(f.values, axis=-1) / n)


def compress(c, rel_tol=1e-14):
    """Zero out coefficients below rel_tol times the largest magnitude.

    Band-limited data gains nothing, but off-grid evaluation of smooth
    functions becomes much cheaper because evaluate_spectral skips the
    zeroed modes.
    """
    mag = np.abs(c.coeffs)
    top = np.max(mag)
    if top == 0.0:
        return c
    coeffs = np.where(mag > rel_tol * top, c.coeffs, 0.0)
    return SpectralCoeffs(c.grid, coeffs)


def inverse_transform(c):
    """Fourier coefficients -> samples."""
    n = c.grid.n_samples
    vals = np.fft.ifft(c.coeffs * n, axis=-1).real
    return PeriodicFunction(c.grid, vals)


def evaluate_spectral(c, theta):
    """Evaluate the trigonometric interpolant of real data at angles theta.

    The Nyquist coefficient is split evenly between +n/2 and -n/2, which
    makes the interpolant real and exact on the grid nodes.
    """
    theta = np.asarray(theta, dtype=float)
    n = c.grid.n_samples
    k = c.grid.wavenumbers
    coeffs = c.coeffs.copy()
    nyq = coeffs[..., n // 2].copy()
    coeffs[..., n // 2] = 0.0
    # only synthesize the modes that are actually present
    active = np.any(coeffs != 0.0, axis=tuple(range(coeffs.ndim - 1)))
    if not np.any(active):
        active[n // 2 + 1 if n > 2 else 0] = True  # keep at least one column
    phases = np.exp(1j * np.multiply.outer(theta, k[active]))
    out = np.tensordot(coeffs[..., active], phases, axes=([-1], [-1])).real
    out = out + np.multiply.outer(nyq.real, np.cos(0.5 * n * theta))
    return out


def differentiate(values, order=1):
    """Fourier multiplier (ik)^order along the last axis of real samples.

    Batched over leading axes and computed with rfft/irfft.  Order >= 1 is
    the spectral derivative; order -1 is the mean-free periodic
    antiderivative.  The k = 0 mode is always zeroed, and odd orders zero
    the Nyquist mode to keep the result real.
    """
    if order == 0 or int(order) != order:
        raise ValueError("order must be a nonzero integer")
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    factor = np.zeros(k.size, dtype=complex)
    factor[1:] = 1j**order * k[1:] ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(values, axis=-1) * factor, n, axis=-1)


def derivative(f, order=1):
    """Spectral derivative fhat_k -> (ik)^order fhat_k of a PeriodicFunction.

    Odd orders zero the Nyquist mode (see ``differentiate``); inputs are
    assumed band-limited so that mode is negligible anyway.
    """
    if order < 1 or int(order) != order:
        raise ValueError("order must be a positive integer")
    return PeriodicFunction(f.grid, differentiate(f.values, order))


def sobolev_inner_product(f, g, q):
    """Mode-sum H^q pairing: sum_k (1+k^2)^q fhat_k conj(ghat_k).

    q = 0 recovers the (1/2pi)-normalized L^2 pairing.
    """
    if q < 0:
        raise ValueError("negative Sobolev order not supported")
    _check_compat(f, g)
    fc = transform(f).coeffs
    gc = transform(g).coeffs
    k = f.grid.wavenumbers
    w = (1.0 + k.astype(float) ** 2) ** q
    return float(np.sum(w * (fc * np.conj(gc)).real))


def sobolev_inner_product_integer(f, g, q):
    """Derivative-form pairing (1/2pi) * integral (f g + f^(q) g^(q)) dtheta.

    At q = 0 the derivative term coincides with the base term and is not
    double counted, so the form reduces to the plain L^2 pairing and the
    two Sobolev forms agree.  For q >= 1 the pairing is equivalent (but
    not equal) to the mode-sum form; the squared-norm ratio is bounded by
    the extremes of (1 + k^(2q)) / (1+k^2)^q over the active modes.
    """
    if q < 0 or int(q) != q:
        raise ValueError("order must be a nonnegative integer")
    _check_compat(f, g)
    base = sobolev_inner_product(f, g, 0)
    if q == 0:
        return base
    fq = derivative(f, q)
    gq = derivative(g, q)
    return base + sobolev_inner_product(fq, gq, 0)


def sup_norm(f):
    """Max over the grid of the Euclidean norm of the d-vector."""
    return float(np.max(np.linalg.norm(f.values, axis=0)))
