"""Diffeomorphisms of the circle and the line, and their flows.

Circle maps are stored as lifts phi(x) = x + f(x) with periodic
displacement f and 1 + f' > 0; the displacement is wrapped by a multiple
of 2*pi so its mean lies in [-pi, pi).  One loop of embedded 8th-order
Dormand-Prince steps (DOP853) integrates any 1-D state, the node positions
of a flow: a step is accepted when its error estimate is at most 1e-11 *
(max|x| + 1), moves no component more than 0.05 * (max|x| + 1), a cap
that alone sizes the first, and sizes the next from its estimate (Prince
& Dormand, J. Comput. Appl. Math. 7, 1981; Hairer-Norsett-Wanner, *Solving
ODEs I*, II.4-II.5 and II.10).  Real-line flows run on a finite window,
and leaving it is the loop's event, reported as blow-up data at the time
the first point leaves, not as an error.  The three root searches (inverse
maps, periodic points, event times) share one bisection.  An exhausted step
budget, or a bisection whose brackets stop narrowing above its tolerance,
raises NonConvergence.  A flow's field is a callable x -> u(x): a
CircleField on the circle, any numpy function on the line.
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


# DOP853, the Dormand-Prince 8(5,3) pair (Prince & Dormand, J. Comput. Appl. Math. 7,
# 1981), with the digits of Hairer's dop853.f (scipy/integrate/_ivp/dop853_coefficients.py,
# BSD, has the same): row i gives stage i + 2 from stages 1 .. i + 1.
_DOP_A = [np.array(row) for row in (
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
)]
# 8th-order weights of the 12 stages
_DOP_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2])
# 8th-order minus 5th-order weights, and 8th-order minus 3rd-order weights (b - bhh,
# bhh the 3rd-order weights); the stage f(y) at the new point has weight 0 in both
_DOP_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1])
_DOP_E3 = _DOP_B - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1])


def _dop853_step(f, x, dt, k1):
    """One DOP853 step of size dt from the 1-D state x, given its first stage k1 = f(x).

    Returns the 8th-order solution y, from 11 evaluations of f, and Hairer's combined
    error estimate dt * e5^2 / sqrt(e5^2 + 0.01 * e3^2), with e5 and e3 the sup-norms
    of the 5th- and 3rd-order embedded differences.
    """
    k = np.empty((12, x.size))
    k[0] = k1
    for i, row in enumerate(_DOP_A):
        k[i + 1] = f(x + dt * (row @ k[:i + 1]))
    y = x + dt * (_DOP_B @ k)
    e5 = float(np.max(np.abs(_DOP_E5 @ k)))
    e3 = float(np.max(np.abs(_DOP_E3 @ k)))
    denom = np.hypot(e5, 0.1 * e3)
    return y, 0.0 if denom == 0.0 else dt * e5 * (e5 / denom)


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
# each accepted step's embedded error estimate is at most TOL * (max|x| + 1)
TOL = 1e-11
# bracket width in time the event bisection stops at
EXIT_TOL = 1e-9


def _integrate(rate, x, t, t_end, result, leaves=None):
    """Integrate d/dt x = rate(x) on the 1-D state x from t towards t_end, adding
    its steps, rejected steps and largest accepted error estimate to result.

    A DOP853 step is accepted when its error estimate err is at most TOL *
    scale, scale = max|x| + 1: Hairer's combined estimate dt * e5^2 /
    sqrt(e5^2 + 0.01 * e3^2) from the sup-norms e5 and e3 of the 5th- and
    3rd-order embedded differences.  The 8th-order solution y is kept.  The
    rate at a step's start is the first stage of every trial from there, so
    a trial step costs 11 rate evaluations and an accepted step 1 more.  No
    step passes t_end or moves a component more than 0.05 * scale, a cap
    that alone sizes the first trial step.  Every trial step of size dt
    proposes dt * min(5, max(0.2, 0.9 * (TOL * scale / err)^(1/8))) (5 * dt
    when err = 0) for the next; a rejected step retries at the smaller of
    that and dt / 2.  Where the event predicate leaves first holds at the
    end of an accepted step, bisecting that step locates the time it starts
    to hold.  Returns (x, t) at t_end, or (None, event time).  A step
    failing at MIN_STEP, more than MAX_SUBSTEPS steps in result, or an event
    bisection that stops narrowing above EXIT_TOL raise NonConvergence: a
    solver that cannot finish has not found an event.
    """
    proposal = np.inf
    while t < t_end - 1e-14:
        k1 = rate(x)
        scale = np.max(np.abs(x)) + 1.0
        dt = min(t_end - t, proposal, 0.05 * scale / (np.max(np.abs(k1)) + 1e-30))
        while True:
            y, err = _dop853_step(rate, x, dt, k1)
            growth = 0.9 * (TOL * scale / err) ** 0.125 if err > 0.0 else 5.0
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
            lo, hi = _bisect(lambda s: leaves(_dop853_step(rate, x, s, k1)[0]),
                             0.0, dt, EXIT_TOL)
            return None, t - dt + 0.5 * (lo + hi)
        x = y
        if result.steps > MAX_SUBSTEPS:
            raise NonConvergence(f"{result.steps} substeps exceed MAX_SUBSTEPS at t = {t:.6f} "
                                 f"of {t_end:.6f}; last embedded error estimate {err:.3e}")
    return x, t


def flow_time_dependent(u, x0=None):
    """Integrate the non-autonomous flow d/dt phi = u(t) o phi.

    Starts at x0 or the nodes of u.grid and runs _integrate on each knot
    interval's field, called as it is, in turn; its movement cap sizes each
    interval's first trial step.  On real-line grids the event is leaving
    the working window |x| <= half_width, which marks the result as blown
    up, and a start point outside the window raises ValueError.  Each flow
    that returns logs steps, rejected and max_err at DEBUG on "shapegeo".
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
    t = float(u.knots[0])
    for u_i, t_next in zip(u.fields, u.knots[1:]):
        x, t = _integrate(u_i, x, t, t_next, result, leaves)
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
    time-reversed when t < 0, so every accepted step's DOP853 error
    estimate is at most TOL * (max|x| + 1) on the lifted node positions x,
    and each step is sized from the last estimate.
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
