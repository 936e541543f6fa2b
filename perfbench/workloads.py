"""The four benchmark workloads, their seeded inputs and reference checks.

Each workload groups CLI subcommands and direct solver calls so that a
different shapegeo module does most of the work:

- ``sphere-geodesics``: many small BVP solves over the analytic O(m) sphere
  oracle; the Armijo loop in ``path_geodesics`` and the oracle in
  ``hilbert_geometry`` take the time.
- ``landmark-geodesics``: the same solver, but ``kernel_metrics`` (one Gram
  assembly and Cholesky per midpoint per oracle call) takes the time, so
  comparing it with ``sphere-geodesics`` separates fewer iterations from
  cheaper iterations.
- ``curve-l2``: the solver over the FFT-based L^2 curve oracle, which has no
  minimizer; a solver change that speeds up the sphere can lengthen the
  vanishing-distance bound here.
- ``circle-flows``: ``periodic_core.evaluate_spectral`` driven by fixed-step
  RK4 on grid-sized calls, plus the periodic-point search on 1-30 point
  calls; it calls nothing in ``path_geodesics``.

Every random input is drawn from the workload seed.  Tasks call shapegeo
through module attributes only, so the tracer's wrappers see every call.
A task returns its outputs; its check, run outside the timed region,
returns a list of failure messages.  Tolerances are those of the test
suite, except where a comment gives a new one.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from shapegeo import curves, diffeo_flows, hilbert_geometry, kernel_metrics
from shapegeo import path_geodesics as pg
from shapegeo import periodic_core as pc
from shapegeo.experiments import cli

# New tolerances (none has a test-suite counterpart); fixed before timing.
# Scaled-circle L^2 geodesic: implicit midpoint, 20 steps, error ~1e-5.
CURVE_IVP_RADIUS_TOL = 1e-4
# N=32 landmark shot: spread max/min - 1 of G(x, v, v) along the discrete path.
LANDMARK_SPEED_SPREAD_TOL = 1e-2
# Reparametrization invariance of the L^2 metric at n=256 (spectral composition).
REPARAM_INVARIANCE_TOL = 1e-8
# l2_metric against curve_space_oracle.metric, two implementations of one sum.
L2_ORACLE_AGREEMENT_TOL = 1e-12


@dataclass
class Task:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


@dataclass
class Workload:
    name: str
    tasks: list
    # oracles built during set-up; the traced run swaps in traced copies
    oracles: dict = field(default_factory=dict)


def _experiment(name, out_dir, **overrides):
    config = dict(cli.EXPERIMENTS[name][1])
    config.update(overrides)
    columns, rows = cli.run_experiment(name, config, os.path.join(out_dir, name))
    return {"rows": rows}


def _fail_if(condition, message):
    return [message] if condition else []


def _warm_io(out_dir):
    cli.run_experiment("sobolev-props", {"n_samples": 8, "k_max": 1, "seed": 0},
                       os.path.join(out_dir, "warm-up"))


# ---------------------------------------------------------------------------
# sphere-geodesics
# ---------------------------------------------------------------------------


def _check_grossman(out):
    rows = out["rows"]
    lengths = [r[1] for r in rows]
    squeeze = all(np.pi < length <= bound + 1e-9 for _, length, bound in rows)
    decreasing = all(a > b for a, b in zip(lengths, lengths[1:]))
    return _fail_if(not (squeeze and decreasing),
                    f"grossman: squeeze={squeeze}, strictly decreasing={decreasing}")


def _check_sphere_pair(out):
    err = abs(out["length"] - out["exact"])
    return _fail_if(not err < 1e-3, f"sphere pair: |len - arccos| = {err:.3e} (tol 1e-3)")


def sphere_geodesics(seed, out_dir):
    """The sphere-bvp subcommand at its defaults, one task per pair, plus grossman.

    The pairs, oracle, initial paths and solver options are those of
    ``shapegeo sphere-bvp --set seed=SEED``; solving them as separate tasks
    lets the calibration run between pairs.  tol and max_iter stay at the
    defaults, so cap hits show.
    """
    config = dict(cli.EXPERIMENTS["sphere-bvp"][1], seed=seed)
    m = config["m"]
    oracles = {"sphere": hilbert_geometry.sphere_oracle(m)}
    rng = np.random.default_rng(config["seed"])
    pairs = []
    for _ in range(config["n_pairs"]):
        x = rng.normal(size=m)
        x /= np.linalg.norm(x)
        y = rng.normal(size=m)
        y /= np.linalg.norm(y)
        pairs.append((x, y))

    def solve(x, y, max_iter=config["max_iter"]):
        init = pg.Path.linear(x, y, config["n_steps"])
        # project the chord onto the sphere, as the subcommand does
        init = pg.Path(init.points / np.linalg.norm(init.points, axis=1, keepdims=True))
        opts = pg.SolverOptions(tol=config["tol"], max_iter=max_iter)
        path, _ = pg.bvp_minimize(x, y, oracles["sphere"], init=init, opts=opts)
        return {"length": pg.path_length(path, oracles["sphere"]),
                "exact": hilbert_geometry.sphere_distance_analytic(x, y)}

    solve(*pairs[0], max_iter=3)
    _warm_io(out_dir)
    tasks = [Task(f"sphere-pair-{i:02d}", functools.partial(solve, x, y), _check_sphere_pair)
             for i, (x, y) in enumerate(pairs)]
    tasks.append(Task("grossman", lambda: _experiment("grossman", out_dir), _check_grossman))
    return Workload("sphere-geodesics", tasks, oracles)


# ---------------------------------------------------------------------------
# landmark-geodesics
# ---------------------------------------------------------------------------


def _spaced_grid(rng, nx, ny, sigma):
    """Jittered nx x ny grid: pairwise spacing stays >= 1.1 sigma."""
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    pts = 1.5 * sigma * np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts + rng.uniform(-0.2 * sigma, 0.2 * sigma, size=pts.shape)


def _landmark_path(rows):
    """(T+1, 2) path points from the landmark-geodesic table rows (t, i, x)."""
    return np.array([r[2] for r in rows]).reshape(-1, 2)


def landmark_geodesics(seed, out_dir):
    sigma = 1.0
    kernel = kernel_metrics.gaussian_kernel(sigma)
    oracles = {
        "two": kernel_metrics.landmark_metric_oracle(kernel, 1, 2),
        "eight": kernel_metrics.landmark_metric_oracle(kernel, 2, 8),
        "thirtytwo": kernel_metrics.landmark_metric_oracle(kernel, 2, 32),
    }
    rng8 = np.random.default_rng([seed, 8])
    q8_start = _spaced_grid(rng8, 4, 2, sigma).reshape(-1)
    q8_end = q8_start + rng8.uniform(-0.4, 0.4, size=q8_start.shape)
    rng32 = np.random.default_rng([seed, 32])
    q32 = _spaced_grid(rng32, 8, 4, sigma).reshape(-1)
    v32 = 0.3 * rng32.normal(size=q32.shape)
    pg.ivp_shoot(q32, v32, oracles["thirtytwo"], 1)
    _warm_io(out_dir)
    state = {}

    def two_landmarks():
        out = _experiment("landmark-geodesic", out_dir)
        state["path"] = _landmark_path(out["rows"])
        return out

    def permuted():
        config = cli.EXPERIMENTS["landmark-geodesic"][1]
        swapped = {"q1_start": config["q2_start"], "q2_start": config["q1_start"],
                   "q1_end": config["q2_end"], "q2_end": config["q1_end"]}
        out = _experiment("landmark-geodesic", os.path.join(out_dir, "permuted"), **swapped)
        out["path"] = _landmark_path(out["rows"])
        out["reference"] = state["path"]
        return out

    def check_permuted(out):
        o = oracles["two"]
        a = pg.path_length(pg.Path(out["reference"]), o)
        b = pg.path_length(pg.Path(out["path"]), o)
        return _fail_if(not abs(a - b) < 1e-8,
                        f"permuted landmarks: length difference {abs(a - b):.2e} (tol 1e-8)")

    def shoot_two():
        path = state["path"]
        n_steps = path.shape[0] - 1
        # second-order one-sided estimate of the initial velocity
        v0 = (4.0 * path[1] - 3.0 * path[0] - path[2]) * (n_steps / 2.0)
        shot = pg.ivp_shoot(path[0], v0, oracles["two"], 256)
        return {"end": shot.points[-1], "target": path[-1]}

    def check_shoot_two(out):
        err = np.linalg.norm(out["end"] - out["target"])
        return _fail_if(not err < 1e-3, f"two-landmark BVP->IVP endpoint error {err:.2e} (tol 1e-3)")

    def bvp_eight():
        o = oracles["eight"]
        init = pg.Path.linear(q8_start, q8_end, 16)
        opts = pg.SolverOptions(tol=1e-6, max_iter=100)
        path, report = pg.bvp_minimize(q8_start, q8_end, o, init=init, opts=opts)
        return {"initial_energy": pg.path_energy(init, o),
                "energy": report.energy, "length": report.length}

    def check_bvp_eight(out):
        ok = (out["energy"] < out["initial_energy"]
              and out["length"] ** 2 <= 2.0 * out["energy"] + 1e-9)
        return _fail_if(not ok, f"N=8 BVP: energy {out['initial_energy']:.6f} -> "
                                f"{out['energy']:.6f}, length {out['length']:.6f}")

    def shoot_thirtytwo():
        shot = pg.ivp_shoot(q32, v32, oracles["thirtytwo"], 8)
        return {"points": shot.points}

    def check_thirtytwo(out):
        pts = out["points"]
        dt = 1.0 / (pts.shape[0] - 1)
        mids = 0.5 * (pts[1:] + pts[:-1])
        vels = (pts[1:] - pts[:-1]) / dt
        speed = oracles["thirtytwo"].G(mids, vels, vels)
        spread = np.max(speed) / np.min(speed) - 1.0
        return _fail_if(not spread < LANDMARK_SPEED_SPREAD_TOL,
                        f"N=32 shot: discrete speed spread {spread:.2e} "
                        f"(tol {LANDMARK_SPEED_SPREAD_TOL:.0e})")

    tasks = [
        # checked through the permuted solve and the shot from its velocity
        Task("landmark-geodesic", two_landmarks, lambda out: []),
        Task("landmark-geodesic-permuted", permuted, check_permuted),
        Task("landmark-ivp", shoot_two, check_shoot_two),
        Task("landmark-bvp-n8", bvp_eight, check_bvp_eight),
        Task("landmark-ivp-n32", shoot_thirtytwo, check_thirtytwo),
    ]
    return Workload("landmark-geodesics", tasks, oracles)


# ---------------------------------------------------------------------------
# curve-l2
# ---------------------------------------------------------------------------


def _check_vanishing(out):
    rows = out["rows"]
    l2 = [r[1] for r in rows]
    flat = [r[2] for r in rows]
    decreasing = all(a > b for a, b in zip(l2, l2[1:]))
    spread = max(flat) - min(flat)
    return _fail_if(not (decreasing and spread <= 1e-9),
                    f"vanishing-l2: strictly decreasing={decreasing}, "
                    f"flat spread {spread:.2e} (tol 1e-9)")


def _random_trig(rng, n, amplitude, max_mode=6):
    """Random planar trigonometric polynomial of modes <= max_mode on n nodes."""
    theta = pc.PeriodicGrid(n).nodes
    vals = amplitude * rng.normal(size=(2, 1)) * np.ones(n)
    for k in range(1, max_mode + 1):
        a, b = rng.normal(size=(2, 2)) * amplitude / k
        vals += a[:, None] * np.cos(k * theta) + b[:, None] * np.sin(k * theta)
    return vals


CURVE_BATCH = 24


def curve_l2(seed, out_dir):
    n_ivp, n_batch_grid = 128, 256
    oracles = {"ivp": pg.curve_space_oracle(n_ivp),
               "batch": pg.curve_space_oracle(n_batch_grid)}
    theta = pc.PeriodicGrid(n_ivp).nodes
    circle = np.stack([np.cos(theta), np.sin(theta)]).reshape(-1)
    rng = np.random.default_rng([seed, 256])
    grid = pc.PeriodicGrid(n_batch_grid)
    circle_vals = np.stack([np.cos(grid.nodes), np.sin(grid.nodes)])
    batch = []
    for _ in range(CURVE_BATCH):
        # perturbed unit circle; the perturbation keeps the speed near 1
        c = curves.Curve(pc.PeriodicFunction(
            grid, circle_vals + _random_trig(rng, n_batch_grid, 0.02)))
        l, h, k = (curves.CurveTangent(c, pc.PeriodicFunction(grid, _random_trig(rng, n_batch_grid, 1.0)))
                   for _ in range(3))
        mode = int(rng.integers(1, 3))
        amp = rng.uniform(0.1, 0.3) / mode
        disp = amp * np.sin(mode * grid.nodes + rng.uniform(0.0, 2.0 * np.pi))
        phi = diffeo_flows.CircleDiffeo(pc.PeriodicFunction(grid, disp[None, :]))
        batch.append((c, l, h, k, phi))
    pg.ivp_shoot(circle, 0.5 * circle, oracles["ivp"], 1)
    _warm_io(out_dir)

    def shoot_circle():
        shot = pg.ivp_shoot(circle, 0.5 * circle, oracles["ivp"], 20)
        return {"points": shot.points}

    def check_shoot_circle(out):
        pts = out["points"]
        radii = np.linalg.norm(pts.reshape(pts.shape[0], 2, n_ivp), axis=1)
        t = np.linspace(0.0, 1.0, pts.shape[0])
        # L^2 geodesic through scaled circles: r(t)^(3/2) = 1 + 0.75 t
        err = np.max(np.abs(radii - ((1.0 + 0.75 * t) ** (2.0 / 3.0))[:, None]))
        return _fail_if(not err < CURVE_IVP_RADIUS_TOL,
                        f"curve IVP radius error {err:.2e} (tol {CURVE_IVP_RADIUS_TOL:.0e})")

    def metric_batch():
        out = []
        for c, l, h, k in (b[:4] for b in batch):
            out.append((curves.l2_metric(c, h, k), curves.l2_metric_variation(c, l, h, k)))
        invariance = []
        for c, _, h, _, phi in batch:
            h2 = curves.reparametrize_tangent(h, phi)
            invariance.append((curves.l2_metric(c, h, h), curves.l2_metric(h2.base, h2, h2)))
        return {"values": out, "invariance": invariance}

    def check_metric_batch(out):
        failures = []
        eps = 1e-5
        for (c, l, h, k, _), (g, dg) in zip(batch, out["values"]):
            x, hx, kx = (v.reshape(-1) for v in (c.pos.values, h.h.values, k.h.values))
            ref = oracles["batch"].metric(x, hx, kx)
            if abs(g - ref) > L2_ORACLE_AGREEMENT_TOL * max(1.0, abs(ref)):
                failures.append(f"l2_metric {g!r} vs curve_space_oracle {ref!r}")
            shifted = [curves.Curve(pc.PeriodicFunction(grid, c.pos.values + s * l.h.values))
                       for s in (eps, -eps)]
            fd = [curves.l2_metric(cs, curves.CurveTangent(cs, h.h), curves.CurveTangent(cs, k.h))
                  for cs in shifted]
            fd = (fd[0] - fd[1]) / (2.0 * eps)
            if abs(dg - fd) / max(1.0, abs(fd)) >= 1e-6:
                failures.append(f"l2_metric_variation {dg!r} vs finite difference {fd!r}")
        for a, b in out["invariance"]:
            if abs(a - b) / a >= REPARAM_INVARIANCE_TOL:
                failures.append(f"reparametrization changed the L2 norm: {a!r} -> {b!r}")
        return failures

    tasks = [
        Task("vanishing-l2", lambda: _experiment("vanishing-l2", out_dir, max_iter=300), _check_vanishing),
        Task("curve-ivp", shoot_circle, check_shoot_circle),
        Task("curve-metric-batch", metric_batch, check_metric_batch),
    ]
    return Workload("curve-l2", tasks, oracles)


# ---------------------------------------------------------------------------
# circle-flows
# ---------------------------------------------------------------------------


def _check_exp_circle(out):
    c, c_exact, conj_err, err1, err2, sep = out["rows"][0]
    ok = abs(c - c_exact) < 1e-9 and conj_err < 1e-6 and err1 < 1e-6 and err2 < 1e-6 and sep > 0.01
    return _fail_if(not ok, f"exp-circle: c err {abs(c - c_exact):.1e}, conjugation {conj_err:.1e}, "
                            f"flows {err1:.1e} {err2:.1e}, separation {sep:.3f}")


def _check_blowup(out):
    err = out["rows"][0][3]
    return _fail_if(not err < 1e-3, f"blowup: time error {err:.2e} (tol 1e-3)")


def _check_lddmm(out):
    err = max(r[3] for r in out["rows"])
    return _fail_if(not err < 1e-6, f"lddmm-flow: return error {err:.2e} (tol 1e-6)")


def _check_sobolev(out):
    failures = []
    for k, q, a, b, ratio, weight in out["rows"]:
        if q <= 1 and abs(a - b) > 1e-12 * max(1.0, abs(a)):
            failures.append(f"sobolev-props: forms differ at k={k}, q={q}: {a!r} vs {b!r}")
        if q == 2 and abs(ratio - weight) > 1e-12 * max(1.0, weight):
            failures.append(f"sobolev-props: q=2 ratio {ratio!r} vs {weight!r} at k={k}")
    return failures


CANDIDATES = ((3, 0.1), (5, 0.05))


def _periodic_points():
    return {"points": [diffeo_flows.isolated_periodic_points(
        diffeo_flows.nonsurjectivity_candidate(n, eps), n) for n, eps in CANDIDATES]}


def _check_periodic_points(out):
    failures = []
    for (n, eps), pts in zip(CANDIDATES, out["points"]):
        expect = np.arange(2 * n) * np.pi / n
        if len(pts) != 2 * n or np.max(np.abs(np.sort(pts) - expect)) >= 1e-6:
            failures.append(f"periodic points of candidate ({n}, {eps}): {np.sort(pts)}")
    return failures


def circle_flows(seed, out_dir):
    # no input of these tasks is random: the seed changes nothing here
    u = diffeo_flows.CircleField.from_callable(lambda th: 1.0 + 0.5 * np.sin(th), 16)
    diffeo_flows.flow_autonomous(u, 0.01)
    _warm_io(out_dir)
    tasks = [
        Task("exp-circle", lambda: _experiment("exp-circle", out_dir), _check_exp_circle),
        Task("blowup", lambda: _experiment("blowup", out_dir), _check_blowup),
        Task("lddmm-flow", lambda: _experiment("lddmm-flow", out_dir), _check_lddmm),
        Task("sobolev-props", lambda: _experiment("sobolev-props", out_dir), _check_sobolev),
        Task("periodic-points", _periodic_points, _check_periodic_points),
    ]
    return Workload("circle-flows", tasks)


WORKLOADS = {
    "sphere-geodesics": sphere_geodesics,
    "landmark-geodesics": landmark_geodesics,
    "curve-l2": curve_l2,
    "circle-flows": circle_flows,
}
