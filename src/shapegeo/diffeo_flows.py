"""Diffeomorphisms of the circle and the line, and their flows.

Circle maps are stored as lifts phi(x) = x + f(x) with periodic
displacement f and 1 + f' > 0; the displacement is wrapped by a multiple
of 2*pi so its mean lies in [-pi, pi).  One embedded Dormand-Prince 5(4)
loop integrates any 1-D state, the node positions of a flow: a step is
accepted when its error estimate is at most 1e-11 * (max|x| + 1), every
trial step sizes the next from that estimate, and the last stage of a step
is the first of the next (Dormand & Prince, J. Comput. Appl. Math. 6, 1980;
Hairer-Norsett-Wanner, *Solving ODEs I*, II.4-II.5).  Real-line flows run
on a finite window, and leaving it is the loop's event, reported as blow-up
data at the time the first point leaves, not as an error.  The three root
searches (inverse maps, periodic points, event times) share one bisection.
An exhausted step budget, or a bisection whose brackets stop narrowing
above its tolerance, raises NonConvergence.  A flow's field is a callable
x -> u(x): a CircleField on the circle, any numpy function on the line.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import NonConvergence, StepCollapse, VanishingField
from .periodic_core import (
    PeriodicFunction,
    PeriodicGrid,
    compress,
    derivative,
    differentiate,
    evaluate_spectral,
    transform,
)

__all__ = [
    "CircleDiffeo",
    "CircleField",
    "RealGrid",
    "TimeDependentField",
    "FlowResult",
    "flow_autonomous",
    "flow_time_dependent",
    "conjugate_to_rotation",
    "exp_noninjectivity_demo",
    "nonsurjectivity_candidate",
    "isolated_periodic_points",
    "membership_check",
    "compose",
    "invert",
]

TWO_PI = 2.0 * np.pi
_log = logging.getLogger("shapegeo")


def _wrap_mean(values):
    """Shift by a multiple of 2*pi so the mean displacement is in [-pi, pi)."""
    shift = TWO_PI * np.floor((np.mean(values) + np.pi) / TWO_PI)
    return values - shift


@dataclass(frozen=True, eq=False)
class CircleDiffeo:
    """Orientation-preserving circle map via its lift displacement."""

    disp: PeriodicFunction

    def __post_init__(self):
        if self.disp.dim != 1:
            raise ValueError("displacement must be scalar-valued")
        wrapped = PeriodicFunction(self.disp.grid, _wrap_mean(self.disp.values))
        dprime = derivative(wrapped, 1).values[0]
        if np.min(1.0 + dprime) <= 0.0:
            raise StepCollapse(
                f"orientation check failed: min(1 + f') = {np.min(1.0 + dprime):.3e}"
            )
        object.__setattr__(self, "disp", wrapped)

    @property
    def grid(self):
        return self.disp.grid

    @property
    def values(self):
        """Lift values phi(theta_j) = theta_j + f(theta_j)."""
        return self.grid.nodes + self.disp.values[0]

    @classmethod
    def identity(cls, n_samples):
        grid = PeriodicGrid(n_samples)
        return cls(PeriodicFunction(grid, np.zeros((1, n_samples))))

    @classmethod
    def rotation(cls, alpha, n_samples):
        grid = PeriodicGrid(n_samples)
        return cls(PeriodicFunction(grid, np.full((1, n_samples), float(alpha))))

    @cached_property
    def _disp_field(self):
        """The displacement as a CircleField, evaluated off the grid with one
        set of compressed coefficients for every evaluation of this map."""
        return CircleField(self.disp)

    def __call__(self, x):
        """Evaluate the lift at arbitrary points."""
        x = np.asarray(x, dtype=float)
        return x + self._disp_field(x)


@dataclass(frozen=True, eq=False)
class CircleField:
    """Vector field on the circle (radians per unit time)."""

    u: PeriodicFunction

    def __post_init__(self):
        if self.u.dim != 1:
            raise ValueError("circle fields are scalar-valued")

    @property
    def grid(self):
        return self.u.grid

    @classmethod
    def from_callable(cls, func, n_samples):
        return cls(PeriodicFunction.from_callable(func, n_samples, dim=1))

    @cached_property
    def _coeffs(self):
        """Compressed coefficients of the field, one set for every evaluation."""
        return compress(transform(self.u))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return evaluate_spectral(self._coeffs, x)[0]


def compose(phi, psi):
    """Composition phi o psi of circle diffeomorphisms."""
    if phi.grid.n_samples != psi.grid.n_samples:
        raise ValueError("grids do not match")
    f_at_psi = phi._disp_field(psi.values)
    disp = psi.disp.values[0] + f_at_psi
    return CircleDiffeo(PeriodicFunction(psi.grid, disp[None, :]))


def _bisect(upper, lo, hi, tol):
    """Halve all brackets [lo, hi] together, hi moving to the midpoint where upper(mid)
    holds, until the widest is below tol.  NonConvergence when a halving narrows no
    bracket: tol is below floating-point resolution there, or a bracket is not finite."""
    width = hi - lo
    while True:
        mid = 0.5 * (lo + hi)
        up = upper(mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        narrowed = hi - lo
        if np.max(narrowed) < tol:
            return lo, hi
        if not np.any(narrowed < width):
            raise NonConvergence(f"bracket width {float(np.max(narrowed)):.3e} >= {tol:.1e} "
                                 "and a halving narrowed no bracket")
        width = narrowed


# bracket width invert bisects down to
INVERT_TOL = 1e-12


def invert(phi):
    """Inverse circle diffeomorphism via monotone bisection per node.

    Solves y + f(y) = theta_j on the lift.  The bracket comes from the
    sampled displacement range; the interpolant can overshoot its samples,
    so an end that misses the root moves by 2*pi, more than a lift's
    displacement varies.  Raises NonConvergence if the brackets stop
    narrowing while one is still INVERT_TOL wide or wider.
    """
    nodes = phi.grid.nodes
    f = phi.disp.values[0]
    disp = phi._disp_field
    lo = nodes - np.max(f) - 1e-9
    hi = nodes - np.min(f) + 1e-9
    g_lo, g_hi = np.stack([lo, hi]) + disp(np.stack([lo, hi])) - nodes
    lo = np.where(g_lo > 0.0, lo - TWO_PI, lo)
    hi = np.where(g_hi > 0.0, hi, hi + TWO_PI)
    lo, hi = _bisect(lambda y: y + disp(y) - nodes > 0.0, lo, hi, INVERT_TOL)
    y = 0.5 * (lo + hi)
    return CircleDiffeo(PeriodicFunction(phi.grid, (y - nodes)[None, :]))


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


# Dormand-Prince 5(4): row i gives stage i + 2 from stages 1 .. i + 1; the last
# row is the 5th-order weights, so the 7th stage is f at the new point.
_DP_A = [np.array(row) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
# 5th-order minus 4th-order weights, over all 7 stages
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dp5_step(f, x, dt, k1):
    """One Dormand-Prince 5(4) step of size dt from the 1-D state x, given
    its first stage k1 = f(x).

    Returns the 5th-order solution y, its stage f(y) (the next step's first
    stage) and the sup-norm of the embedded error estimate.
    """
    k = np.empty((7, x.size))
    k[0] = k1
    for i, row in enumerate(_DP_A):
        y = x + dt * (row @ k[:i + 1])
        k[i + 1] = f(y)
    return y, k[6], dt * float(np.max(np.abs(_DP_E @ k)))


# nodes of every RealGrid: the flow start points and the membership_check
# samples, which take a finite-difference derivative over them
REAL_GRID_NODES = 2048


@dataclass(frozen=True)
class RealGrid:
    """Uniform working window [-half_width, half_width] on the line, sampled
    at REAL_GRID_NODES nodes."""

    half_width: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.half_width < np.inf:
            raise ValueError(f"half_width = {self.half_width}: must be positive and finite")

    @property
    def nodes(self):
        return np.linspace(-self.half_width, self.half_width, REAL_GRID_NODES)


@dataclass(frozen=True, eq=False)
class TimeDependentField:
    """Piecewise-constant-in-time field: knots t_0 < ... < t_K and one
    field per interval [t_i, t_{i+1}), each a callable x -> u(x) on 1-D
    arrays (a CircleField on a PeriodicGrid).  A field that is not callable,
    or on a RealGrid is not finite at every node, raises ValueError."""

    knots: np.ndarray
    fields: Sequence
    grid: object  # RealGrid or PeriodicGrid

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if not np.all(np.isfinite(knots)) or np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be finite and strictly increasing")
        if len(self.fields) != len(knots) - 1:
            raise ValueError("need one field per knot interval")
        for t0, t1, f in zip(knots, knots[1:], self.fields):
            if not callable(f):
                raise ValueError(f"the field on [{t0}, {t1}) is not callable: pass x -> u(x)")
            if isinstance(self.grid, RealGrid) and not np.all(np.isfinite(f(self.grid.nodes))):
                raise ValueError(f"the field on [{t0}, {t1}) is not finite at every grid node")
        object.__setattr__(self, "knots", knots)

    @classmethod
    def uniform(cls, fields, grid, t_end=1.0):
        """Equal intervals from t = 0 to t_end, one per field."""
        knots = np.linspace(0.0, t_end, len(fields) + 1)
        return cls(knots, list(fields), grid)

    def reversed(self):
        """The time-reversed field t -> -u(t_end - t) on the same knots."""
        t0, t1 = self.knots[0], self.knots[-1]
        knots = t0 + t1 - self.knots[::-1]
        fields = [lambda x, f=f: -f(x) for f in self.fields[::-1]]
        return TimeDependentField(knots, fields, self.grid)


@dataclass(eq=False)
class FlowResult:
    """Final map samples, or blow_up_time when a trajectory escapes (blow_up then
    holds); accepted and rejected steps, max_err (largest accepted error estimate)."""

    final_map: Optional[np.ndarray]
    blow_up_time: Optional[float] = None
    steps: int = 0
    rejected: int = 0
    max_err: float = 0.0

    @property
    def blow_up(self):
        return self.blow_up_time is not None


MAX_SUBSTEPS = 2**20
# smallest substep tried before the embedded error check gives up
MIN_STEP = 1e-12
# first trial step of a flow; later steps are sized from the embedded error estimate
BASE_STEP = 1.0 / 256.0
# each accepted step's embedded error estimate is at most TOL * (max|x| + 1)
TOL = 1e-11
# bracket width in time the event bisection stops at
EXIT_TOL = 1e-9


def _integrate(rate, x, t, t_end, proposal, result, leaves=None):
    """Integrate d/dt x = rate(x) on the 1-D state x from t towards t_end, adding
    its steps, rejected steps and largest accepted error estimate to result.

    A Dormand-Prince 5(4) step is accepted when its embedded error estimate
    err = |y5 - y4| is at most TOL * scale, scale = max|x| + 1; the 5th-order
    solution is kept, and its last stage is the next step's first.  Every
    trial step of size dt proposes dt * min(5, max(0.2, 0.9 * (TOL * scale /
    err)^(1/5))) (5 * dt when err = 0) for the next; a rejected step retries
    at the smaller of that and dt / 2, and no step passes t_end or moves a
    component more than 0.05 * scale.  Where the event predicate leaves
    first holds at the end of an accepted step, bisecting that step locates
    the time it starts to hold.  Returns (x, t, proposal) at t_end, or
    (None, event time, proposal).  A step failing at MIN_STEP, more than
    MAX_SUBSTEPS steps in result, or an event bisection that stops narrowing
    above EXIT_TOL raise NonConvergence: a solver that cannot finish has not
    found an event.
    """
    k1 = rate(x)
    while t < t_end - 1e-14:
        scale = np.max(np.abs(x)) + 1.0
        dt = min(t_end - t, proposal, 0.05 * scale / (np.max(np.abs(k1)) + 1e-30))
        while True:
            y, k_last, err = _dp5_step(rate, x, dt, k1)
            growth = 0.9 * (TOL * scale / err) ** 0.2 if err > 0.0 else 5.0
            proposal = dt * min(5.0, max(0.2, growth))
            if err <= TOL * scale:
                break
            if dt <= MIN_STEP:
                raise NonConvergence(f"embedded error estimate {err:.3e} > {TOL * scale:.3e} "
                                     f"at step {dt:.1e} <= MIN_STEP, t = {t:.6f}")
            dt = min(proposal, 0.5 * dt)
            result.rejected += 1
        t += dt
        result.steps += 1
        result.max_err = max(result.max_err, err)
        if leaves is not None and leaves(y):
            lo, hi = _bisect(lambda s: leaves(_dp5_step(rate, x, s, k1)[0]),
                             0.0, dt, EXIT_TOL)
            return None, t - dt + 0.5 * (lo + hi), proposal
        x, k1 = y, k_last
        if result.steps > MAX_SUBSTEPS:
            raise NonConvergence(f"{result.steps} substeps exceed MAX_SUBSTEPS at t = {t:.6f} "
                                 f"of {t_end:.6f}; last embedded error estimate {err:.3e}")
    return x, t, proposal


def flow_time_dependent(u, x0=None):
    """Integrate the non-autonomous flow d/dt phi = u(t) o phi.

    Starts at x0 or the nodes of u.grid with a first trial step of
    BASE_STEP, and runs _integrate on each knot interval's field, called as
    it is, in turn; the time and the step proposal carry across knots.  On
    real-line grids the event is leaving the working window |x| <=
    half_width, which marks the result as blown up, and a start point
    outside the window raises ValueError.  Each flow that returns logs its
    steps, rejected and max_err at DEBUG on the "shapegeo" logger.
    """
    grid = u.grid
    x = np.array(grid.nodes if x0 is None else np.atleast_1d(x0), dtype=float)
    leaves = None
    if not isinstance(grid, PeriodicGrid):
        leaves = lambda y: not np.max(np.abs(y)) <= grid.half_width
        if leaves(x):
            start = x[int(np.argmax(np.abs(x)))]
            raise ValueError(f"start point x0 = {float(start)} lies outside the window "
                             f"|x| <= half_width = {float(grid.half_width)}")
    result = FlowResult(None)
    t, proposal = float(u.knots[0]), BASE_STEP
    for u_i, t_next in zip(u.fields, u.knots[1:]):
        x, t, proposal = _integrate(u_i, x, t, t_next, proposal, result, leaves)
        if x is None:
            result.blow_up_time = t
            break
    result.final_map = x
    _log.debug("flow: %d steps, %d rejected, max embedded error %.3e",
               result.steps, result.rejected, result.max_err)
    return result


def flow_autonomous(u, t):
    """Time-t flow of an autonomous circle field (the exponential map at t).

    This is flow_time_dependent on the one-interval field u over [0, |t|],
    time-reversed when t < 0, so every accepted step's embedded
    Dormand-Prince error estimate is at most TOL * (max|x| + 1) on the
    lifted node positions x, and each step is sized from the last estimate.
    """
    t = float(t)
    if t == 0.0:
        return CircleDiffeo.identity(u.grid.n_samples)
    tf = TimeDependentField.uniform([u], u.grid, abs(t))
    if t < 0.0:
        tf = tf.reversed()
    end = flow_time_dependent(tf).final_map
    return CircleDiffeo(PeriodicFunction(u.grid, (end - u.grid.nodes)[None, :]))


# ---------------------------------------------------------------------------
# Exponential-map constructions on Diff(S^1)
# ---------------------------------------------------------------------------

VANISHING_TOL = 1e-8


def conjugate_to_rotation(u):
    """Conjugating diffeomorphism eta and rotation speed c for a nowhere
    vanishing field: eta(x) = c * int_0^x dy/u(y), c = 2*pi / int dx/u.

    Guarantee: eta o flow_t(u) o eta^{-1} is the rotation by c*t.
    """
    vals = u.u.values[0]
    if np.min(np.abs(vals)) <= VANISHING_TOL:
        raise VanishingField(
            f"min |u| = {np.min(np.abs(vals)):.3e} <= {VANISHING_TOL:.0e}"
        )
    g = 1.0 / vals
    c = 1.0 / float(np.mean(g))
    osc = differentiate(g, -1)  # periodic antiderivative of g - mean(g)
    eta_disp = c * (osc - osc[0])  # eta(x) - x, with eta(0) = 0
    eta = CircleDiffeo(PeriodicFunction(u.grid, eta_disp[None, :]))
    return eta, c


def exp_noninjectivity_demo(psi, n):
    """Field u(x) = (2*pi/n) psi'(psi^{-1}(x)) whose time-1 flow is the
    rotation by 2*pi/n for every 2*pi/n-periodic psi.

    The order n is any nonzero integer; a negative n rotates backwards.
    Returns (u, err) with err the sup-distance between the computed flow
    and the rotation.
    """
    if n == 0:
        raise ValueError("rotation order must be nonzero")
    grid = psi.grid
    nodes = grid.nodes
    shift = TWO_PI / n
    # periodicity defect of psi: psi(x + 2*pi/n) - psi(x) - 2*pi/n
    defect = np.max(np.abs(psi._disp_field(nodes + shift) - psi.disp.values[0]))
    if defect > 1e-8:
        raise ValueError(f"psi is not 2*pi/{n}-periodic (defect {defect:.3e})")
    psi_inv = invert(psi)
    dpsi = CircleField(derivative(psi.disp, 1))
    u_vals = shift * (1.0 + dpsi(psi_inv.values))
    u = CircleField(PeriodicFunction(grid, u_vals[None, :]))
    phi = flow_autonomous(u, 1.0)
    err = float(np.max(np.abs(_wrap_angle(phi.values - nodes - shift))))
    return u, err


def _wrap_angle(x):
    return (np.asarray(x) + np.pi) % TWO_PI - np.pi


def nonsurjectivity_candidate(n, eps, n_samples=256):
    """The map phi(x) = x + 2*pi/n + eps*sin(n x): fixed-point free with
    isolated periodic points, hence not a time-1 flow of any field.

    Requires n >= 1, |eps| < 2/n and, for phi to be a diffeomorphism on the
    grid, |eps| * n < 1.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    if abs(eps) >= 2.0 / n:
        raise ValueError(f"|eps| must be < 2/n = {2.0 / n:.4f}")
    grid = PeriodicGrid(n_samples)
    disp = TWO_PI / n + eps * np.sin(n * grid.nodes)
    phi = CircleDiffeo(PeriodicFunction(grid, disp[None, :]))
    if np.min(disp) <= 0.0 or np.max(disp) >= TWO_PI:
        raise ValueError("candidate has fixed points")
    return phi


# sign-change scan: a spacing of 2 pi / 4096 is far below the pi / n between periodic points
PERIODIC_SCAN_SAMPLES = 4096
# bracket width where bisection stops, far below the 1e-6 the points are checked to
PERIODIC_POINT_TOL = 1e-10


def isolated_periodic_points(phi, n):
    """Fixed points of phi^n for n >= 1, by dense sampling and bisection.

    The displacement of the composed map is wrapped to mean in [-pi, pi),
    which removes the full 2*pi winding of phi^n; its fixed points on the
    circle are the zeros of that wrapped displacement.  Raises
    NonConvergence if the brackets stop narrowing above PERIODIC_POINT_TOL.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    power = phi
    for _ in range(n - 1):
        power = compose(phi, power)
    disp = power._disp_field
    x = np.linspace(0.0, TWO_PI, PERIODIC_SCAN_SAMPLES + 1)
    vals = disp(x)
    fa, fb = vals[:-1], vals[1:]
    exact = fa == 0.0
    bracket = ~exact & (fa * fb < 0.0)
    roots = x[:-1].copy()
    if np.any(bracket):
        # the root sits where the displacement leaves the sign it has at lo
        sign = np.sign(fa[bracket])
        lo, hi = _bisect(lambda mid: sign * disp(mid) <= 0.0,
                         x[:-1][bracket], x[1:][bracket], PERIODIC_POINT_TOL)
        roots[bracket] = 0.5 * (lo + hi)
    return roots[exact | bracket]


# ---------------------------------------------------------------------------
# Sobolev-diffeomorphism membership proxy on the line
# ---------------------------------------------------------------------------


# |f| at the window ends, which stand in for infinity, up to which f counts as decayed
DECAY_TOL = 1e-6


def membership_check(f_samples, grid):
    """1-D proxy for Id + H^q membership: boundary decay and 1 + f' > 0."""
    f = np.asarray(f_samples, dtype=float)
    nodes = grid.nodes
    if f.shape != nodes.shape:
        raise ValueError("displacement samples do not match the grid")
    if abs(f[0]) > DECAY_TOL or abs(f[-1]) > DECAY_TOL:
        raise ValueError(
            f"displacement does not decay at the window boundary "
            f"(|f| = {max(abs(f[0]), abs(f[-1])):.2e} > DECAY_TOL {DECAY_TOL:.0e})"
        )
    fprime = np.gradient(f, nodes)
    return bool(np.min(1.0 + fprime) > 0.0)
