"""Generic geodesic machinery over any space exposing a metric oracle.

A path is a uniform time discretization x_0 .. x_T of [0, 1].  Energy
uses midpoint quadrature,

    E = 1/2 * sum_i G((x_i + x_{i+1})/2, v_i, v_i) * dt,   v_i = (x_{i+1} - x_i)/dt,

length the square-rooted integrand.  The boundary-value solver minimizes
E over the interior points by limited-memory BFGS with Armijo
backtracking (Nocedal, *Updating quasi-Newton matrices with limited
storage*, Math. Comp. 1980), in the H^1-in-time inner product: its initial
inverse Hessian is gamma L^{-1}, where L = (1/dt) tridiag(-1, 2, -1) is the
Gram matrix of the H^1 inner product <u', w'> dt on paths with fixed
endpoints.  Alone, L^{-1} g of the Euclidean gradient g is the Sobolev
gradient (Neuberger, *Sobolev Gradients and Differential Equations*, 1997;
Sundaramoorthi-Yezzi-Mennucci, *Sobolev active contours*, 2007), the Newton
step for a metric near the identity.  The last few gradient changes
correct it for the metric's dependence on x, which L^{-1} cannot see, and
gamma rescales it to the metric's size.  The initial-value solver
takes fixed classical RK4 steps on the state (x, v).  Each stage gets the
acceleration from the cometric, read from one per-point oracle state: the
momentum xi = metric_rows(x, v) follows Hamilton's equations of
H = 1/2 <xi, sharp(x, xi)> (Miller-Trouve-Younes, *Geodesic shooting for
computational anatomy*, 2006), and v = sharp(x, xi), so the acceleration
takes the derivative ``sharp_derivative`` of the inverse flat map and the
x-gradient of H, with no Gram matrix formed.  Both solvers read the metric's
x-dependence from one derivative, the speed gradient grad_x G_x(v, v): the
energy gradient sums it over midpoints, and grad_x H = -1/2 of it at
v = sharp(x, xi), since the inverse Gram has derivative -G^{-1} dG G^{-1}.
"""

from __future__ import annotations

import logging
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .curves import l2_rows, l2_variation_rows, tangent
from .errors import ShapeGeoError, SingularGram
from .periodic_core import differentiate

__all__ = [
    "MetricOracle",
    "Path",
    "GeodesicReport",
    "euclidean_oracle",
    "path_energy",
    "path_length",
    "energy_gradient",
    "SolverOptions",
    "bvp_minimize",
    "geodesic_acceleration",
    "ivp_shoot",
    "curve_space_oracle",
    "vanishing_distance_experiment",
]

_log = logging.getLogger("shapegeo")


@dataclass
class MetricOracle:
    """A weak Riemannian metric on R^dim: its flat map, the inverse, and their derivatives.

    An oracle writes five callables; all but ``at`` broadcast over leading
    axes of their (..., dim) arguments:

    - ``at(x)``, the per-point state that the other four read: c' and |c'|
      on curves, the pairwise geometry and scalar Gram K on landmarks,
      x and |x|^2 on the sphere, and x itself on the flat oracle.
      ``at(at(x)) is at(x)``, so every callable, the derived ones too,
      takes either the array x or its state;
    - ``metric_rows(x, h)``, the flat map h -> G_x(h, .), as the vector
      (G(x, h, e_j))_j;
    - ``sharp(x, xi)``, the inverse of the flat map, solving
      metric_rows(x, h) = xi for h.  It raises ``SingularGram`` when the
      2-norm condition number of the Gram, which each oracle knows in
      closed form, is not finite or exceeds ``COND_LIMIT``;
    - ``sharp_derivative(x, l, xi)`` = d/de sharp(x + e*l, xi) at e = 0;
    - ``speed_gradient(x, v, xi)``, the x-gradient (DG(x, e_j, v, v))_j of
      the squared speed, where DG(x, l, h, k) = d/de G(x + e*l, h, k) at
      e = 0.  The caller passes v with its momentum xi = metric_rows(x, v),
      so an oracle reads whichever side costs less: landmarks the momentum,
      the others v.

    ``from_rows`` derives the rest: ``variation_rows(x, h, k)``, the
    x-gradient (DG(x, e_j, h, k))_j, by polarization,
    1/4 [S(h + k) - S(h - k)] with S(w) = speed_gradient(x, w, metric_rows(x, w));
    ``metric`` G(x, h, k) = h . metric_rows(x, k), ``variation``
    DG(x, l, h, k) = l . variation_rows(x, h, k), and ``gram(x)``, the
    (dim, dim) matrix metric_rows(x, I).  Every callable is a field rather
    than a method so that ``dataclasses.replace`` can wrap or substitute
    each one on a copy (a per-call tracer does, and so do tests that fail
    one metric call).  The derived fields call the rows they were built
    from, not the fields, so wrapping one field never reroutes another.
    """

    dim: int
    metric: Callable
    variation: Callable
    metric_rows: Callable
    variation_rows: Callable
    gram: Callable
    at: Callable
    sharp: Callable
    sharp_derivative: Callable
    speed_gradient: Callable
    name: str = "oracle"

    @classmethod
    def from_rows(cls, dim, at, metric_rows, sharp, sharp_derivative, speed_gradient, name):
        def metric(x, h, k):
            return (h * metric_rows(x, k)).sum(axis=-1)

        def variation_rows(x, h, k):
            x = at(x)
            plus, minus = h + k, h - k
            return 0.25 * (speed_gradient(x, plus, metric_rows(x, plus))
                           - speed_gradient(x, minus, metric_rows(x, minus)))

        def variation(x, l, h, k):
            return (l * variation_rows(x, h, k)).sum(axis=-1)

        def gram(x):
            return metric_rows(x, np.eye(dim))

        return cls(dim, metric, variation, metric_rows, variation_rows, gram, at, sharp,
                   sharp_derivative, speed_gradient, name)

    def G(self, x, h, k):
        return self.metric(x, h, k)


def _check_condition(cond):
    """Raise ``SingularGram`` unless the Gram condition number cond is finite and <= COND_LIMIT."""
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularGram(f"metric Gram condition number {cond:.3e} > {COND_LIMIT:.0e}")


def _check_n_steps(n_steps):
    """Raise ValueError unless n_steps is a positive integer."""
    if not isinstance(n_steps, numbers.Integral) or n_steps < 1:
        raise ValueError(f"n_steps = {n_steps!r}: must be an integer >= 1")


def euclidean_oracle(m, weight=1.0):
    """Flat oracle G(x, h, k) = sum_j weight_j h_j k_j on R^m.

    ``weight`` is a scalar or an (m,) array of positive weights; a weight
    that is not positive and finite raises ValueError.
    """
    if not np.all(np.isfinite(weight)) or np.min(weight) <= 0.0:
        raise ValueError(f"weight = {weight!r}: every weight must be positive and finite")
    cond = float(np.max(weight) / np.min(weight))

    def at(x):
        return np.asarray(x)

    def metric_rows(x, h):
        return weight * np.broadcast_to(h, np.broadcast_shapes(np.shape(x), np.shape(h)))

    def sharp(x, xi):
        _check_condition(cond)
        return np.broadcast_to(xi, np.broadcast_shapes(np.shape(x), np.shape(xi))) / weight

    def sharp_derivative(x, l, xi):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(l), np.shape(xi)))

    def speed_gradient(x, v, xi):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v)))

    return MetricOracle.from_rows(m, at, metric_rows, sharp, sharp_derivative, speed_gradient,
                                  name=f"euclidean(m={m})")


@dataclass(frozen=True, eq=False)
class Path:
    """Points x_0 .. x_T at uniform times t_i = i/T.

    A path keeps the oracle state of its midpoints once an energy, gradient
    or length has computed it (see ``_midpoint_state``), so ``points`` must
    not be written in place after that; every solver here writes to a copy.
    """

    points: np.ndarray = field(repr=False)
    _midpoints: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("path needs at least two points of shape (T+1, m)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("path points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n_steps(self):
        return self.points.shape[0] - 1

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def times(self):
        return np.linspace(0.0, 1.0, self.points.shape[0])

    @classmethod
    def linear(cls, x_start, x_end, n_steps):
        _check_n_steps(n_steps)
        t = np.linspace(0.0, 1.0, n_steps + 1)[:, None]
        return cls((1 - t) * np.asarray(x_start) + t * np.asarray(x_end))


@dataclass
class GeodesicReport:
    """Outcome of one BVP solve.

    ``reason`` says why the solve stopped: ``tol`` (the gradient norm fell
    below the tolerance), ``max_iter`` (the iteration budget ran out) or
    ``line_search`` (no trial step of an iteration decreased the energy
    enough).  ``grad_norm`` is the norm of the energy gradient at the
    returned path.  ``energy_evals`` counts the path energies computed, the
    initial one included; ``backtracks`` counts the rejected trial steps.
    """

    energy: float
    length: float
    grad_norm: float
    iterations: int
    reason: str
    backtracks: int
    energy_evals: int

    @property
    def converged(self):
        """Whether the solve stopped because the gradient norm met the tolerance."""
        return self.reason == "tol"


def _midpoint_state(path, oracle):
    """(oracle.at(midpoints), velocities, dt) of a path.

    The result is kept on the path for the ``at`` of the last oracle that
    asked, so the energy of an accepted trial, the gradient at that path and
    its final length share one state.
    """
    memo = path._midpoints
    if memo is None or memo[0] is not oracle.at:
        pts = path.points
        dt = 1.0 / path.n_steps
        mids = 0.5 * (pts[:-1] + pts[1:])
        vels = (pts[1:] - pts[:-1]) / dt
        memo = (oracle.at, oracle.at(mids), vels, dt)
        object.__setattr__(path, "_midpoints", memo)
    return memo[1:]


def path_energy(path, oracle):
    """Midpoint-quadrature Riemannian path energy."""
    state, vels, dt = _midpoint_state(path, oracle)
    vals = oracle.G(state, vels, vels)
    return float(0.5 * np.sum(vals) * dt)


def path_length(path, oracle):
    """Midpoint-quadrature Riemannian path length."""
    state, vels, dt = _midpoint_state(path, oracle)
    vals = oracle.G(state, vels, vels)
    return float(np.sum(np.sqrt(np.maximum(vals, 0.0))) * dt)


def energy_gradient(path, oracle):
    """Gradient of path_energy with respect to the interior points.

    Returns an array of shape (T-1, m); endpoints are held fixed.
    """
    state, vels, dt = _midpoint_state(path, oracle)
    g_rows = oracle.metric_rows(state, vels)                 # (T, m): G(m_i, v_i, e_j)
    dg_rows = oracle.speed_gradient(state, vels, g_rows)     # (T, m): DG(m_i, e_j, v_i, v_i)
    grad = g_rows[:-1] - g_rows[1:]
    grad = grad + 0.25 * dt * (dg_rows[:-1] + dg_rows[1:])
    return grad


# Armijo line search: sufficient-decrease constant, step shrink factor and
# trial steps per iteration before the solve stops.
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 40
# Step and gradient-change pairs (s, y) that the L-BFGS direction remembers.
LBFGS_MEMORY = 8
# Each oracle's sharp rejects a Gram whose condition number exceeds this.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class SolverOptions:
    """Gradient-norm tolerance and iteration budget of ``bvp_minimize``.

    A negative or non-finite ``tol`` or a ``max_iter`` that is not a
    non-negative integer raises ValueError that names the field.  The
    options are frozen, so no assignment gets past that check.
    """

    tol: float = 1e-8
    max_iter: int = 20000

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol = {self.tol}: must be finite and >= 0")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ValueError(f"max_iter = {self.max_iter!r}: must be an integer >= 0")


def _inverse_time_laplacian(n_steps):
    """Inverse of L = (1/dt) tridiag(-1, 2, -1) on the n_steps - 1 interior points.

    L is the Gram matrix of the H^1 path inner product sum_i <u'_i, w'_i> dt
    with u, w zero at both endpoints, and its inverse is the discrete
    Green's function of -d^2/dt^2 with Dirichlet conditions:
    (L^{-1})_ij = min(i, j) (T - max(i, j)) / T^2 for T = n_steps.
    """
    i = np.arange(1, n_steps)
    return np.minimum.outer(i, i) * (n_steps - np.maximum.outer(i, i)) / float(n_steps) ** 2


def _lbfgs_direction(grad, pairs, inverse_laplacian):
    """H g by the two-loop recursion over ``pairs`` (Nocedal-Wright, *Numerical
    Optimization*, 2006, algorithm 7.4), from H_0 = gamma L^{-1} of the newest pair.

    Each pair is (s, y, 1 / s.y, gamma), oldest first; with none, H g = L^{-1} g.
    """
    q = grad
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        alpha = rho * np.vdot(s, q)
        q = q - alpha * y
        alphas.append(alpha)
    direction = inverse_laplacian @ q
    if pairs:
        direction *= pairs[-1][3]
    for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
        direction += (alpha - rho * np.vdot(y, direction)) * s
    return direction


def bvp_minimize(x_start, x_end, oracle, init, opts=None):
    """Minimize path energy with fixed endpoints by Armijo line searches.

    Each iteration takes the Euclidean energy gradient g over the interior
    points, once, at the accepted path, and steps along the L-BFGS
    direction p = H g of the last ``LBFGS_MEMORY`` pairs (s, y) of accepted
    steps and gradient changes, kept only where s . y > 1e-12 |s| |y|, so H
    stays positive definite.  H starts from gamma L^{-1}, the inverse
    H^1-in-time Gram (see ``_inverse_time_laplacian``) scaled by
    gamma = s.y / y.L^{-1}y of the newest pair, so the first iteration steps
    along the Sobolev gradient L^{-1} g.  A direction whose slope g . p is
    not positive clears the pairs and falls back to L^{-1} g.  Every
    iteration's first trial step is 1, a quasi-Newton step.  The solve
    converges when |g| < ``opts.tol``.

    Before the first iteration both endpoints pass through ``oracle.at``,
    so an endpoint outside the space raises the oracle's typed error, such
    as ``DegenerateConfig`` for coincident landmarks, ``NotImmersed`` for a
    collapsed curve or ``SingularGram`` for the sphere's origin.  An ``init`` of fewer than two steps has no interior
    point to move and raises ValueError.  With the "shapegeo" logger at
    DEBUG, each iteration logs its energy, |g|, accepted step, backtracks
    and the pairs held.  Returns the final path and a ``GeodesicReport``,
    whose ``reason`` says why the solve stopped; a solve that stops short
    raises nothing.
    """
    opts = opts or SolverOptions()
    if init.n_steps < 2:
        raise ValueError(f"initial path has n_steps = {init.n_steps}; the BVP needs at least 2 "
                         "steps, so that the path has an interior point")
    pts = init.points.copy()
    if not (np.allclose(pts[0], x_start) and np.allclose(pts[-1], x_end)):
        raise ValueError("initial path does not respect the endpoints")
    pts[0] = x_start
    pts[-1] = x_end
    # an endpoint outside the space raises the oracle's typed error
    oracle.at(pts[0])
    oracle.at(pts[-1])

    path = Path(pts)
    energy = path_energy(path, oracle)
    energy_evals = 1
    backtracks = 0
    inverse_laplacian = _inverse_time_laplacian(path.n_steps)
    pairs = deque(maxlen=LBFGS_MEMORY)
    trace = _log.isEnabledFor(logging.DEBUG)
    iterations = 0
    reason = "max_iter"
    grad = energy_gradient(path, oracle)
    for iterations in range(1, opts.max_iter + 1):
        grad_norm = float(np.sqrt(np.sum(grad * grad)))
        if grad_norm < opts.tol:
            reason = "tol"
            break
        direction = _lbfgs_direction(grad, pairs, inverse_laplacian)
        slope = float(np.vdot(grad, direction))
        if not slope > 0.0:
            pairs.clear()
            direction = inverse_laplacian @ grad
            slope = float(np.vdot(grad, direction))
        step = 1.0
        for attempt in range(MAX_BACKTRACKS):
            trial = path.points.copy()
            trial[1:-1] -= step * direction
            trial_path = Path(trial)
            energy_evals += 1
            try:
                trial_energy = path_energy(trial_path, oracle)
            except ShapeGeoError:
                # the trial left the space (e.g. a non-immersed curve): backtrack
                trial_energy = np.inf
            if trial_energy <= energy - ARMIJO_C1 * step * slope:
                path, energy = trial_path, trial_energy
                break
            backtracks += 1
            step *= ARMIJO_SHRINK
        else:
            reason = "line_search"
            break
        new_grad = energy_gradient(path, oracle)
        # s = x - x_new and y = g - g_new: the usual pair negated, which H g does not see
        s, y = step * direction, grad - new_grad
        sy = np.vdot(s, y)
        if sy > 1e-12 * np.sqrt(np.vdot(s, s) * np.vdot(y, y)):
            pairs.append((s, y, 1.0 / sy, sy / np.vdot(y, inverse_laplacian @ y)))
        if trace:
            _log.debug("bvp iteration %d: energy %.17g, |g| %.3e, step %.3e, %d backtracks, "
                       "%d pairs", iterations, energy, grad_norm, step, attempt, len(pairs))
        grad = new_grad
    else:
        # the budget ran out: report the gradient at the path that is returned
        grad_norm = float(np.sqrt(np.sum(grad * grad)))
        if grad_norm < opts.tol:
            reason = "tol"

    report = GeodesicReport(
        energy=energy,
        length=path_length(path, oracle),
        grad_norm=grad_norm,
        iterations=iterations,
        reason=reason,
        backtracks=backtracks,
        energy_evals=energy_evals,
    )
    return path, report


def geodesic_acceleration(x, v, oracle):
    """The acceleration -Gamma_x(v, v) of the geodesic through x with velocity v.

    Along the geodesic the momentum xi = metric_rows(x, v) follows
    d/dt xi = -grad_x H = 1/2 speed_gradient(x, v, xi) and v = sharp(x, xi),
    so the acceleration is
    sharp_derivative(x, v, xi) + sharp(x, 1/2 speed_gradient(x, v, xi)),
    all read from one ``oracle.at(x)``.  Non-finite x or v raise ValueError,
    and a Gram past ``COND_LIMIT`` raises ``SingularGram`` from ``sharp``.
    """
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ValueError("geodesic acceleration needs finite x and v")
    state = oracle.at(x)
    xi = oracle.metric_rows(state, v)
    return (oracle.sharp_derivative(state, v, xi)
            + oracle.sharp(state, 0.5 * oracle.speed_gradient(state, v, xi)))


def _rk4_step(f, x, dt, k1):
    """One classical RK4 step of size dt from x, given its first stage k1 = f(x)."""
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ivp_shoot(x0, v0, oracle, n_steps):
    """Integrate the geodesic equation over t in [0, 1] by n_steps classical RK4
    steps on y = (x, v), at the fixed step 1/n_steps.

    A fixed step has no error control, and nothing checks the shot's growth:
    a diverged shot is returned as a path, without error.  An 8-step shot of
    32 Gaussian (sigma = 1) landmarks from a jittered unit grid, at
    velocities 0.3 * N(0, 1), can end with coordinates of order 1e16 (9.1e15
    in one such shot).  Compare a shot with one of more steps before reading
    it as a geodesic.  An ``n_steps`` that is not a positive integer raises
    ValueError.
    """
    _check_n_steps(n_steps)
    x = np.asarray(x0, dtype=float)
    dim = x.size

    def rate(y):
        return np.concatenate([y[dim:], geodesic_acceleration(y[:dim], y[dim:], oracle)])

    y = np.concatenate([x, np.asarray(v0, dtype=float)])
    dt = 1.0 / n_steps
    pts = np.empty((n_steps + 1, dim))
    pts[0] = x
    for i in range(n_steps):
        y = _rk4_step(rate, y, dt, rate(y))
        pts[i + 1] = y[:dim]
    return Path(pts)


# ---------------------------------------------------------------------------
# L^2 curve-space oracle and the vanishing-distance experiment
# ---------------------------------------------------------------------------


class _CurveState(NamedTuple):
    """c' (..., 2, n) and |c'| (..., n) of flattened curves, from ``curves.tangent``."""

    cp: np.ndarray
    speed: np.ndarray


def curve_space_oracle(n_samples):
    """Oracle for flattened plane curves under the L^2 metric G = int <h,k> |c'|.

    Points are plane curves flattened to vectors of length 2 * n_samples
    (component-major).  ``at`` runs ``curves.tangent``, which keeps iterates
    immersed (the L^2 metric rewards degenerating curves); the flat map is
    ``curves.l2_rows`` and the speed gradient ``curves.l2_variation_rows``
    at h = k = v on that state.  The flat map (2 pi / n) h |c'| is diagonal,
    so ``sharp`` divides by it, its condition number is
    max|c'| / min|c'|, and ``sharp_derivative`` is ``sharp`` with 1/|c'|
    replaced by its derivative -<l', c'>/|c'|^3.
    """
    m = 2 * n_samples

    def _curve(x):
        x = np.asarray(x)
        return x.reshape(x.shape[:-1] + (2, n_samples))

    def _flat(c):
        return c.reshape(c.shape[:-2] + (m,))

    def at(x):
        return x if isinstance(x, _CurveState) else _CurveState(*tangent(_curve(x)))

    def metric_rows(x, h):
        return _flat(l2_rows(at(x).speed, _curve(h)))

    def sharp(x, xi):
        speed = at(x).speed
        _check_condition(np.max(np.max(speed, axis=-1) / np.min(speed, axis=-1)))
        return _flat(_curve(xi) / (2.0 * np.pi / n_samples * speed[..., None, :]))

    def sharp_derivative(x, l, xi):
        cp, speed = at(x)
        inverse_speed_rate = -np.sum(differentiate(_curve(l)) * cp, axis=-2) / speed**3
        return _flat(_curve(xi) * (inverse_speed_rate / (2.0 * np.pi / n_samples))[..., None, :])

    def speed_gradient(x, v, xi):
        return _flat(l2_variation_rows(*at(x), _curve(v), _curve(v)))

    return MetricOracle.from_rows(
        m, at, metric_rows, sharp, sharp_derivative, speed_gradient,
        name=f"l2-curves(n={n_samples},d=2)",
    )


def _bandlimited_triangle(theta, teeth, n_modes):
    """Triangle wave with `teeth` periods, unit amplitude, Fourier-truncated."""
    out = np.zeros_like(theta)
    j = 0
    while True:
        harmonic = (2 * j + 1) * teeth
        if harmonic > n_modes:
            break
        out += (-1) ** j * np.sin(harmonic * theta) / (2 * j + 1) ** 2
        j += 1
    return out * 8.0 / np.pi**2


# The endpoint curve of the vanishing-distance experiment is the unit circle
# translated by this vector.
TRANSLATION = (0.5, 0.0)


def _sawtooth_homotopy(n_samples, n_steps, teeth, amplitude):
    """Path from the unit circle to its translate with a mid-path sawtooth."""
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    circle = np.stack([np.cos(theta), np.sin(theta)])
    normal = circle  # outward unit normal of the unit circle
    t = np.linspace(0.0, 1.0, n_steps + 1)
    saw = _bandlimited_triangle(theta, teeth, n_samples // 4)
    pts = np.empty((n_steps + 1, 2 * n_samples))
    for i, ti in enumerate(t):
        bump = amplitude * np.sin(np.pi * ti)
        curve = circle + ti * np.asarray(TRANSLATION)[:, None] + bump * saw * normal
        pts[i] = curve.reshape(-1)
    return Path(pts)


def vanishing_distance_experiment(
    levels=3,
    base_samples=64,
    base_steps=16,
    control=False,
    opts=None,
):
    """Achieved path lengths between the unit circle and its translate.

    Level i uses teeth k = 4**i, grid n = base_samples * 2**min(i, 2) and
    n_steps = base_steps * 2**min(i, 2), and makes one ``bvp_minimize``
    solve from the sawtooth homotopy.  The levels are independent solves,
    so nothing builds a decrease into the sequence: the phenomenon shows as
    an observed strict decrease of the lengths in k.  The L^2 energy has no
    minimizer, and its solves stop at the iteration budget on paths that
    are still getting shorter.  Returns one (teeth, length, report) row per
    level, where report is the level's ``GeodesicReport``.

    With ``control=True`` the flat metric (2 pi / n) <h, k> is used
    instead.  Its energy is a quadratic minimized by the straight
    translation, so each solve stops on ``tol`` at the flat distance
    0.5 sqrt(2 pi) between the endpoint curves.

    ValueError, naming the key, rejects ``levels`` below 3, a
    ``base_steps`` below 2 (a path with no interior point) and a last
    level whose sawtooth has no harmonic on its grid (k > n // 4).  Teeth
    grow 4-fold per level and n at most 2-fold, so the last level is the
    first to lose its harmonic.
    """
    if levels < 3:
        raise ValueError("levels must be >= 3")
    if base_steps < 2:
        raise ValueError(f"base_steps = {base_steps}: the BVP needs at least 2 steps per path")
    last = levels - 1
    n_last = base_samples * 2 ** min(last, 2)
    if 4**last > n_last // 4:
        raise ValueError(f"base_samples = {base_samples}, levels = {levels}: the last level's "
                         f"sawtooth of {4**last} teeth needs teeth <= n // 4 = {n_last // 4}")
    opts = opts or SolverOptions(tol=1e-6, max_iter=4000)
    rows = []
    for i in range(levels):
        teeth = 4**i
        scale = 2 ** min(i, 2)
        n = base_samples * scale
        oracle = euclidean_oracle(2 * n, weight=2.0 * np.pi / n) if control else curve_space_oracle(n)
        init = _sawtooth_homotopy(n, base_steps * scale, teeth, 0.25 / teeth)
        _, report = bvp_minimize(init.points[0], init.points[-1], oracle, init=init, opts=opts)
        rows.append((teeth, report.length, report))
    return rows
