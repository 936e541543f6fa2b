"""Spectral representation of smooth periodic functions on the circle.

Functions are stored as uniform samples on a power-of-two grid together
with their discrete Fourier coefficients.  The Fourier convention is

    fhat_k = (1/2pi) * integral f(theta) exp(-ik theta) dtheta,

approximated by the trapezoid rule, with wavenumbers k in
{-n/2+1, ..., n/2}.  With this normalization the constant function 1 has
fhat_0 = 1 and <1,1>_{H^q} = 1 for every q.
"""

from __future__ import annotations

import functools
import math
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SpectralCoeffs:
    """Complex Fourier coefficients per component in fft storage order.

    The first ``evaluate_spectral`` call keeps its coefficient-only work, a
    (rows, B, M) table of the folded coefficients (see ``_spectral_plan``),
    on the object, so ``coeffs`` must not be written in place after that;
    every function here makes new coefficients.
    """

    grid: PeriodicGrid
    coeffs: np.ndarray = field(repr=False)
    _plan: tuple = field(default=None, init=False, repr=False)


def _check_compat(f, g):
    if f.grid.n_samples != g.grid.n_samples:
        raise ValueError("grid sizes do not match")
    if f.dim != g.dim:
        raise ValueError("codomain dimensions do not match")


def transform(f):
    """Samples -> Fourier coefficients (trapezoid rule for fhat_k)."""
    n = f.grid.n_samples
    return SpectralCoeffs(f.grid, np.fft.fft(f.values, axis=-1) / n)


def compress(c):
    """Zero out coefficients at or below the rounding level of ``transform``.

    The FFT of n samples carries errors of about n * eps times the largest
    coefficient, so every coefficient no larger than n * eps * max|c_k| is
    taken as rounding noise and zeroed, with n = c.grid.n_samples.
    Band-limited data gains nothing, but off-grid evaluation of smooth
    functions becomes much cheaper: evaluate_spectral's sum and its power
    tables end at the highest nonzero mode.  The result is a new object
    with its own evaluate_spectral plan, so a caller that evaluates one
    function many times keeps the result rather than compressing again
    (CircleDiffeo and CircleField keep theirs).
    """
    mag = np.abs(c.coeffs)
    threshold = c.grid.n_samples * np.finfo(float).eps * np.max(mag)
    return SpectralCoeffs(c.grid, np.where(mag > threshold, c.coeffs, 0.0))


def inverse_transform(c):
    """Fourier coefficients -> samples."""
    n = c.grid.n_samples
    vals = np.fft.ifft(c.coeffs * n, axis=-1).real
    return PeriodicFunction(c.grid, vals)


def _powers(w, count):
    """w^0, ..., w^(count-1) stacked along a new first axis, by cumulative products."""
    table = np.empty((count,) + w.shape, dtype=complex)
    table[0] = 1.0
    for a in range(1, count):
        table[a] = table[a - 1] * w
    return table


def _spectral_plan(c):
    """The part of ``evaluate_spectral`` that depends on the coefficients alone.

    Returns (table, lead): the folded coefficients as a zero-padded
    (rows, B, M) array with table[r, b, a] = d_{bM+a} for bM + a <= k_max,
    and the leading shape coeffs.shape[:-1].
    """
    n = c.grid.n_samples
    coeffs = c.coeffs.reshape(-1, n)
    folded = coeffs[:, : n // 2 + 1].astype(complex)
    folded[:, 1 : n // 2] += np.conj(coeffs[:, : n // 2 : -1])
    folded[:, n // 2] = coeffs[:, n // 2].real
    k_max = int(max(np.flatnonzero(np.any(folded != 0.0, axis=0)), default=0))
    m = math.isqrt(k_max) + 1  # ceil(sqrt(k_max + 1))
    table = np.zeros((folded.shape[0], (k_max // m + 1) * m), dtype=complex)
    table[:, : k_max + 1] = folded[:, : k_max + 1]
    return table.reshape(folded.shape[0], -1, m), c.coeffs.shape[:-1]


def evaluate_spectral(c, theta):
    """Evaluate the trigonometric interpolant of real data at angles theta.

    Returns Re sum_k c_k exp(ik theta), of shape coeffs.shape[:-1] +
    theta.shape, with the Nyquist coefficient split evenly between +n/2
    and -n/2, which makes the interpolant real and exact on the grid nodes.

    Each -k is folded onto +k: d_0 = c_0, d_k = c_k + conj(c_{-k}) for
    0 < k < n/2 and d_{n/2} = Re c_{n/2}, so the result is
    Re sum_{k >= 0} d_k z^k with z = exp(i theta).  This identity holds for
    the real part of any coefficients, Hermitian or not.  With k_max the
    highest mode with a nonzero d_k in some row, M = ceil(sqrt(k_max + 1))
    and B = k_max div M + 1, the sum is sum_{b < B} (z^M)^b p_b(z) with
    p_b(z) = sum_{a < M} d_{bM+a} z^a, the baby-step/giant-step scheme of
    Paterson and Stockmeyer (1973): the baby powers z^a (a < M) and the
    giant powers (z^M)^b (b < B) are cumulative products from one complex
    exponential per point, and one matrix product with the baby table gives
    every p_b of every row.  No phase z^k is formed, so time and memory per
    point grow as M + B, not as k_max.  A term d_k z^k takes at most M + B
    multiplications, plus a length-M sum and then a length-B sum, rather
    than one exp(ik theta) (M + B = 23 at k_max = 128); its rounding still
    grows about as k eps, as (z^M)^b raises that of z^M to the b-th power.

    The fold and the table depend on c alone.  The first call on c keeps
    them on it, so repeated calls on one c, such as the stages of a flow,
    only build the two power tables and take one product.
    """
    theta = np.asarray(theta, dtype=float)
    if c._plan is None:
        object.__setattr__(c, "_plan", _spectral_plan(c))
    table, lead = c._plan
    z = np.exp(1j * theta).reshape(-1)
    baby = _powers(z, table.shape[2])
    giant = _powers(baby[-1] * z, table.shape[1])
    inner = table @ baby
    inner *= giant
    # copy the real part out, so the result is contiguous and the complex sum is freed
    return inner.sum(axis=-2).reshape(lead + theta.shape).real.copy()


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
    spectrum = np.fft.rfft(values, axis=-1)
    spectrum *= _multiplier(n, order)
    return np.fft.irfft(spectrum, n, axis=-1)


@functools.lru_cache(maxsize=32, typed=True)
def _multiplier(n, order):
    """The read-only rfft multiplier of ``differentiate`` on n samples, one per (n, order)."""
    k = np.arange(n // 2 + 1, dtype=float)
    factor = np.zeros(k.size, dtype=complex)
    factor[1:] = 1j**order * k[1:] ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[-1] = 0.0
    factor.flags.writeable = False
    return factor


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
    if not 0 <= q < np.inf:
        raise ValueError(f"Sobolev order q = {q}: must be nonnegative and finite")
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
