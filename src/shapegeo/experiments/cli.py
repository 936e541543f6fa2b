"""Command-line experiment runner.

Usage: ``shapegeo <subcommand> [--config FILE] [--set key=value]... [--out DIR]``

Each subcommand writes table.csv, plot.svg and manifest.txt into the
output directory, which then holds that run's files only (error.txt alone
after a numerical failure).  The manifest is itself a valid config file, so
``shapegeo <subcommand> --config OUT/manifest.txt`` reproduces the table
exactly; ``sphere-bvp``, the one subcommand with random input, takes its
seed from the config like any other key.  Each config value is read as
its default's type.  Exit codes: 0 success, 2 config error (also a value
that does not read as that type, a non-finite value, a table without rows, a
value the experiment rejects, or a config whose phenomenon cannot occur: no
window exit by t_end, a mode the grid cannot resolve), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .. import curves, diffeo_flows, hilbert_geometry, kernel_metrics
from .. import path_geodesics as pg
from .. import periodic_core as pc
from ..errors import DegenerateConfig, ShapeGeoError, StepCollapse
from .io import ConfigError, atomic_write_text, load_config_file, parse_overrides
from .io import svg_plot, write_csv, write_manifest

__all__ = ["main", "run_experiment", "EXPERIMENTS"]


# ---------------------------------------------------------------------------
# Experiment implementations: config -> (columns, rows, extras, plot); extras
# become manifest comments and plot holds the keyword arguments of svg_plot
# ---------------------------------------------------------------------------


def _run_grossman(config):
    m, n_min, n_max = config["m"], config["n_min"], config["n_max"]
    keys = f"m = {m}, n_min = {n_min}, n_max = {n_max} for grossman"
    if n_max < n_min:
        raise ConfigError(f"{keys}: no plane index n_min <= n <= n_max")
    try:  # both check their arguments before any arithmetic
        spec = hilbert_geometry.EllipsoidSpec(m=m)
        table = hilbert_geometry.grossman_experiment(spec, range(n_min, n_max + 1))
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None
    columns = ["n", "length", "bound"]
    rows = [list(r) for r in table]
    ns = [r[0] for r in rows]
    plot = dict(
        series=[
            ("Len(F c_n)", ns, [r[1] for r in rows]),
            ("(1+2^-n) pi", ns, [r[2] for r in rows]),
        ],
        title="Ellipsoid half-great-circle lengths",
        xlabel="n",
        ylabel="length",
        hlines=[("pi", float(np.pi))],
    )
    return columns, rows, {}, plot


def _run_vanishing_l2(config):
    opts = pg.SolverOptions(tol=config["tol"], max_iter=config["max_iter"])
    tables = {
        label: pg.vanishing_distance_experiment(
            levels=config["levels"], base_samples=config["base_samples"],
            base_steps=config["base_steps"], control=control, opts=opts,
        )
        for label, control in (("l2", False), ("flat", True))
    }
    columns = ["teeth", "l2_length", "flat_length"]
    rows = [
        [teeth, length, flat]
        for (teeth, length, _), (_, flat, _) in zip(tables["l2"], tables["flat"])
    ]
    # each level's solve: did it converge, and if not, why it stopped
    extras = {}
    for label, table in tables.items():
        for teeth, _, report in table:
            extras[f"{label}_converged_teeth_{teeth}"] = report.converged
            extras[f"{label}_reason_teeth_{teeth}"] = report.reason
    plot = dict(
        series=[
            ("L2 metric", [r[0] for r in rows], [r[1] for r in rows]),
            ("flat control", [r[0] for r in rows], [r[2] for r in rows]),
        ],
        title="Vanishing L2 geodesic distance",
        xlabel="sawtooth teeth",
        ylabel="achieved path length",
    )
    return columns, rows, extras, plot


def _run_sphere_bvp(config):
    m = config["m"]
    if config["n_pairs"] < 1 or config["seed"] < 0:
        raise ConfigError(f"n_pairs = {config['n_pairs']}, seed = {config['seed']} for "
                          "sphere-bvp: need n_pairs >= 1 and seed >= 0")
    rng = np.random.default_rng(config["seed"])
    oracle = hilbert_geometry.sphere_oracle(m)
    opts = pg.SolverOptions(tol=config["tol"], max_iter=config["max_iter"])
    columns = ["pair", "length", "analytic", "abs_err"]
    rows = []
    unconverged = iterations = 0
    for i in range(config["n_pairs"]):
        x = rng.normal(size=m)
        x /= np.linalg.norm(x)
        y = rng.normal(size=m)
        y /= np.linalg.norm(y)
        init = pg.Path.linear(x, y, config["n_steps"])
        # project the chord onto the sphere so all iterates start near it
        pts = init.points / np.linalg.norm(init.points, axis=1, keepdims=True)
        _, report = pg.bvp_minimize(x, y, oracle, init=pg.Path(pts), opts=opts)
        unconverged += not report.converged
        iterations += report.iterations
        length = report.length
        exact = hilbert_geometry.sphere_distance_analytic(x, y)
        rows.append([i, length, exact, abs(length - exact)])
    plot = dict(
        series=[("abs error", [r[0] for r in rows], [max(r[3], 1e-17) for r in rows])],
        title="Sphere BVP vs arccos distance",
        xlabel="pair index",
        ylabel="absolute error",
        logy=True,
    )
    extras = {"unconverged_pairs": unconverged, "bvp_iterations": iterations}
    return columns, rows, extras, plot


def _check_resolved(name, key, mode, n):
    """A grid of n nodes resolves the modes |k| < n // 2; sin(n x / 2) vanishes on its nodes."""
    if abs(mode) >= n // 2:
        raise ConfigError(f"{key} = {mode}, n_samples = {n} for {name}: the grid resolves "
                          f"modes |k| < n_samples // 2 = {n // 2} only")


def _run_exp_circle(config):
    n = config["n_samples"]
    if config["rotation_order"] == 0:
        raise ConfigError("rotation_order = 0 for exp-circle: must be nonzero")
    _check_resolved("exp-circle", "rotation_order", config["rotation_order"], n)
    u = diffeo_flows.CircleField.from_callable(
        lambda th: 1.0 + 0.5 * np.sin(th), n
    )
    eta, c = diffeo_flows.conjugate_to_rotation(u)
    phi = diffeo_flows.flow_autonomous(u, 1.0)
    rot = diffeo_flows.CircleDiffeo.rotation(c, n)
    conj = diffeo_flows.compose(
        diffeo_flows.invert(eta), diffeo_flows.compose(rot, eta)
    )
    conj_err = float(
        np.max(np.abs(diffeo_flows._wrap_angle(conj.values - phi.values)))
    )
    grid = pc.PeriodicGrid(n)
    order = config["rotation_order"]

    def make_psi(key):
        disp = config[key] * np.sin(order * grid.nodes)
        try:
            return diffeo_flows.CircleDiffeo(pc.PeriodicFunction(grid, disp[None, :]))
        except StepCollapse as exc:
            raise ConfigError(f"{key} = {config[key]}, rotation_order = {order} for "
                              f"exp-circle: psi is no circle diffeomorphism, {exc}") from None

    u1, err1 = diffeo_flows.exp_noninjectivity_demo(make_psi("amplitude_1"), order)
    u2, err2 = diffeo_flows.exp_noninjectivity_demo(make_psi("amplitude_2"), order)
    field_sep = float(np.max(np.abs(u1.u.values - u2.u.values)))
    columns = [
        "c",
        "c_exact",
        "conjugation_sup_err",
        "flow_err_1",
        "flow_err_2",
        "field_separation",
    ]
    rows = [[c, float(np.sqrt(0.75)), conj_err, err1, err2, field_sep]]
    nodes = grid.nodes
    plot = dict(
        series=[
            ("u = 1 + 0.5 sin", nodes, u.u.values[0]),
            ("u1 (noninjectivity)", nodes, u1.u.values[0]),
            ("u2 (noninjectivity)", nodes, u2.u.values[0]),
        ],
        title="Exponential-map constructions on Diff(S1)",
        xlabel="theta",
        ylabel="field value",
    )
    return columns, rows, {}, plot


def _flow_stats(result, prefix=""):
    """A FlowResult's step statistics as manifest comments."""
    return {f"{prefix}steps": result.steps, f"{prefix}rejected": result.rejected,
            f"{prefix}max_err": result.max_err}


def _run_blowup(config):
    grid = diffeo_flows.RealGrid(half_width=config["half_width"])
    # a product of Python floats overflows to inf without the warning that numpy gives
    if not np.isfinite(grid.half_width * grid.half_width):
        raise ConfigError(f"half_width = {grid.half_width} for blowup: the field x^2 "
                          "overflows at the window's ends")
    x0, t_end = config["x0"], config["t_end"]
    # exact time at which x0 / (1 - x0 t) leaves the window, so solver_err is the integrator's;
    # for x0 <= 0 it never does
    exact = 1.0 / x0 if x0 > 0.0 else np.inf
    window_exit = exact - 1.0 / config["half_width"]
    if not window_exit < t_end:
        raise ConfigError(f"x0 = {x0}, t_end = {t_end}, half_width = {grid.half_width} for "
                          "blowup: x0 / (1 - x0 t) does not leave the window by t_end")
    tf = diffeo_flows.TimeDependentField.uniform([np.square], grid, t_end)
    result = diffeo_flows.flow_time_dependent(tf, x0=np.array([x0]))
    if not result.blow_up:
        raise ShapeGeoError("expected blow-up was not observed")
    columns = ["x0", "blow_up_time", "exact", "abs_err", "window_exit", "solver_err"]
    rows = [
        [
            x0,
            result.blow_up_time,
            exact,
            abs(result.blow_up_time - exact),
            window_exit,
            abs(result.blow_up_time - window_exit),
        ]
    ]
    # trajectory of the analytic solution up to the window exit
    ts = np.linspace(0.0, result.blow_up_time, 200)
    xs = x0 / (1.0 - ts * x0)
    plot = dict(
        series=[("x(t) = x0/(1 - t x0)", ts, xs)],
        title="Finite-time blow-up of dx/dt = x^2",
        xlabel="t",
        ylabel="x",
        logy=True,
    )
    return columns, rows, _flow_stats(result), plot


def _run_landmark_geodesic(config):
    try:
        kernel = kernel_metrics.gaussian_kernel(config["sigma"])
    except ValueError as exc:
        raise ConfigError(f"sigma = {config['sigma']} for landmark-geodesic: {exc}") from None
    start = np.array([config["q1_start"], config["q2_start"]])
    end = np.array([config["q1_end"], config["q2_end"]])
    oracle = kernel_metrics.landmark_metric_oracle(kernel, 1, 2)
    # coincident landmarks are no point of landmark space, so such an endpoint is bad input
    for side, point in (("start", start), ("end", end)):
        try:
            oracle.at(point)
        except DegenerateConfig as exc:
            raise ConfigError(f"q1_{side} = {point[0]}, q2_{side} = {point[1]} for "
                              f"landmark-geodesic: {exc}") from None
    opts = pg.SolverOptions(tol=config["tol"], max_iter=config["max_iter"])
    init = pg.Path.linear(start, end, config["n_steps"])
    path, report = pg.bvp_minimize(start, end, oracle, init=init, opts=opts)
    columns = ["t", "i", "x1"]
    rows = []
    times = path.times
    for j, t in enumerate(times):
        for i in range(2):
            rows.append([t, i, path.points[j, i]])
    plot = dict(
        series=[
            ("landmark 1", times, path.points[:, 0]),
            ("landmark 2", times, path.points[:, 1]),
        ],
        title="Two-landmark geodesic (Gaussian kernel)",
        xlabel="t",
        ylabel="position",
    )
    extras = {"geodesic_length": report.length, "converged": report.converged}
    return columns, rows, extras, plot


def _run_lddmm_flow(config):
    if config["n_probe"] < 1:
        raise ConfigError(f"n_probe = {config['n_probe']} for lddmm-flow: must be >= 1")
    grid = diffeo_flows.RealGrid(half_width=config["half_width"])
    fields = [
        lambda x: np.sin(x) * np.exp(-0.1 * x**2),
        lambda x: np.cos(2.0 * x) * np.exp(-0.1 * x**2),
    ]
    tf = diffeo_flows.TimeDependentField.uniform(fields, grid)
    probe = np.linspace(-3.0, 3.0, config["n_probe"])
    fwd = diffeo_flows.flow_time_dependent(tf, x0=probe)
    back = diffeo_flows.flow_time_dependent(tf.reversed(), x0=fwd.final_map)
    if fwd.blow_up or back.blow_up:
        raise ShapeGeoError("decaying-field flow unexpectedly left the window")
    columns = ["x0", "x_forward", "x_return", "return_err"]
    rows = [
        [probe[i], fwd.final_map[i], back.final_map[i], abs(back.final_map[i] - probe[i])]
        for i in range(len(probe))
    ]
    plot = dict(
        series=[
            ("forward flow", probe, fwd.final_map),
            ("after reversal", probe, back.final_map),
            ("identity", probe, probe),
        ],
        title="Time-dependent flow and its reversal",
        xlabel="x0",
        ylabel="position",
    )
    extras = {**_flow_stats(fwd, "forward_"), **_flow_stats(back, "return_")}
    return columns, rows, extras, plot


def _run_sobolev_props(config):
    n = config["n_samples"]
    if config["k_max"] < 0:
        raise ConfigError(f"k_max = {config['k_max']} for sobolev-props: must be >= 0")
    _check_resolved("sobolev-props", "k_max", config["k_max"], n)
    columns = ["k", "q", "mode_sum", "integer_form", "ratio", "weight"]
    rows = []
    for k in range(0, config["k_max"] + 1):
        f = pc.PeriodicFunction.from_callable(
            (lambda th, k=k: np.cos(k * th)), n
        )
        for q in (0, 1, 2):
            a = pc.sobolev_inner_product(f, f, q)
            b = pc.sobolev_inner_product_integer(f, f, q)
            if q == 0:
                weight = 1.0  # both forms are the plain L^2 pairing
            else:
                weight = (1.0 + float(k) ** (2 * q)) / (1.0 + float(k) ** 2) ** q
            rows.append([k, q, a, b, b / a, weight])
    ks = sorted(set(r[0] for r in rows))
    plot = dict(
        series=[(f"ratio at q={q}", ks, [r[4] for r in rows if r[1] == q]) for q in (0, 1, 2)],
        title="Integer-form / mode-sum ratio per single mode",
        xlabel="mode k",
        ylabel="ratio",
    )
    return columns, rows, {}, plot


EXPERIMENTS = {
    "grossman": (
        _run_grossman,
        {"m": 24, "n_min": 1, "n_max": 20},
    ),
    "vanishing-l2": (
        _run_vanishing_l2,
        {
            "levels": 3,
            "base_samples": 64,
            "base_steps": 16,
            "tol": 1e-6,
            "max_iter": 4000,
        },
    ),
    "sphere-bvp": (
        _run_sphere_bvp,
        {
            "m": 10,
            "n_pairs": 20,
            "n_steps": 48,
            "tol": 1e-6,
            "max_iter": 3000,
            "seed": 42,
        },
    ),
    "exp-circle": (
        _run_exp_circle,
        {
            "n_samples": 256,
            "rotation_order": 3,
            "amplitude_1": 0.05,
            "amplitude_2": 0.08,
        },
    ),
    "blowup": (
        _run_blowup,
        {
            "x0": 2.0,
            "half_width": 10000.0,
            "t_end": 1.0,
        },
    ),
    "landmark-geodesic": (
        _run_landmark_geodesic,
        {
            "sigma": 1.0,
            "q1_start": -2.0,
            "q2_start": 2.0,
            "q1_end": -1.0,
            "q2_end": 3.0,
            "n_steps": 16,
            "tol": 1e-6,
            "max_iter": 20000,
        },
    ),
    "lddmm-flow": (
        _run_lddmm_flow,
        {"half_width": 10.0, "n_probe": 61},
    ),
    "sobolev-props": (
        _run_sobolev_props,
        {"n_samples": 64, "k_max": 8},
    ),
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _assemble_config(name, args):
    defaults = EXPERIMENTS[name][1]
    texts = load_config_file(args.config) if args.config is not None else {}
    file_experiment = texts.pop("experiment", name)
    if file_experiment != name:
        raise ConfigError(f"config file is for {file_experiment}, not {name}")
    texts.update(parse_overrides(args.set or []))
    unknown = set(texts) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {name}: {', '.join(sorted(unknown))}"
        )
    config = dict(defaults)
    for key, text in texts.items():
        kind = type(defaults[key])
        try:
            config[key] = kind(text)
        except ValueError:
            raise ConfigError(f"{key} = {text!r} for {name}: expected {kind.__name__}") from None
        if kind is float and not np.isfinite(config[key]):
            raise ConfigError(f"{key} = {text!r} for {name}: expected a finite value")
    return config


# a run leaves the first three, or error.txt alone when it fails numerically
ARTIFACTS = ("table.csv", "plot.svg", "manifest.txt", "error.txt")
NUMERICAL_FAILURES = (ShapeGeoError, FloatingPointError, np.linalg.LinAlgError)


def run_experiment(name, config, out_dir):
    """Run one experiment into out_dir, which then holds this run's files only."""
    runner = EXPERIMENTS[name][0]
    os.makedirs(out_dir, exist_ok=True)
    for artifact in ARTIFACTS:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, artifact))
    try:
        columns, rows, extras, plot = runner(config)
    except NUMERICAL_FAILURES as exc:
        with contextlib.suppress(OSError):  # best effort: the failure itself is raised
            atomic_write_text(os.path.join(out_dir, "error.txt"),
                              f"error_type = {type(exc).__name__}\nmessage = {exc}\n")
        raise
    write_csv(os.path.join(out_dir, "table.csv"), columns, rows)
    svg_plot(os.path.join(out_dir, "plot.svg"), **plot)
    write_manifest(os.path.join(out_dir, "manifest.txt"), name, config, extras)
    return columns, rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="shapegeo",
        description="Weak-Riemannian-geometry experiment runner.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="key=value",
            help="config override (repeatable, later wins)",
        )
        p.add_argument("--out", default=None, help="output directory")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(exc.code) if exc.code else 0

    name = args.experiment
    out_dir = args.out if args.out is not None else os.path.join("out", name)
    try:
        run_experiment(name, _assemble_config(name, args), out_dir)
    except NUMERICAL_FAILURES as exc:  # LinAlgError is also a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and the library's own input checks
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
