"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.
"""

import time

import numpy as np
import pytest

from shapegeo import curves, diffeo_flows, hilbert_geometry, kernel_metrics
from shapegeo import path_geodesics as pg
from shapegeo import periodic_core as pc
from shapegeo.errors import DegenerateConfig


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_acceptance_01_grossman_ellipsoid():
    t0 = time.time()
    spec = hilbert_geometry.EllipsoidSpec(m=24)
    table = hilbert_geometry.grossman_experiment(spec, range(1, 21))
    elapsed = time.time() - t0
    lengths = [row[1] for row in table]
    squeeze = all(np.pi < length <= bound + 1e-9 for _, length, bound in table)
    decreasing = all(a > b for a, b in zip(lengths, lengths[1:]))
    ok = squeeze and decreasing and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"pi < Len <= (1+2^-n)pi for n=1..20 (squeeze={squeeze}, "
        f"strictly decreasing={decreasing}), runtime {elapsed:.2f}s < 5s",
    )


def test_acceptance_02_sphere_bvp_oracle():
    t0 = time.time()
    rng = np.random.default_rng(42)
    m = 10
    oracle = hilbert_geometry.sphere_oracle(m)
    opts = pg.SolverOptions(tol=1e-6, max_iter=3000)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=m)
        x /= np.linalg.norm(x)
        y = rng.normal(size=m)
        y /= np.linalg.norm(y)
        init = pg.Path.linear(x, y, 48)
        pts = init.points / np.linalg.norm(init.points, axis=1, keepdims=True)
        path, _ = pg.bvp_minimize(x, y, oracle, init=pg.Path(pts), opts=opts)
        err = abs(
            pg.path_length(path, oracle)
            - hilbert_geometry.sphere_distance_analytic(x, y)
        )
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"20 random pairs (m=10, seed 42): max |len - arccos| = {worst:.2e} < 1e-3, "
        f"runtime {elapsed:.1f}s < 30s",
    )


def test_acceptance_03_vanishing_l2_distance():
    rows = pg.vanishing_distance_experiment(levels=3)
    teeth = [r[0] for r in rows]
    lengths = [r[1] for r in rows]
    control = [r[1] for r in pg.vanishing_distance_experiment(levels=3, control=True)]
    strictly_decreasing = all(a > b for a, b in zip(lengths, lengths[1:]))
    flat_pinned = max(control) - min(control) <= 1e-9
    ok = teeth == [1, 4, 16] and strictly_decreasing and flat_pinned
    _verdict(
        3,
        ok,
        f"L2 lengths at k={teeth}: {[f'{v:.6f}' for v in lengths]} strictly "
        f"decreasing={strictly_decreasing}; flat control spread "
        f"{max(control) - min(control):.2e} <= 1e-9",
    )


def test_acceptance_04_metric_variation_gradient_check():
    eps = 1e-5
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 64
        base = curves.Curve.from_callable(
            lambda t: np.stack([np.cos(t), np.sin(t)]), n, dim=2
        )
        nodes = base.grid.nodes

        def random_field():
            vals = np.zeros((2, n))
            for i in range(2):
                vals[i] = rng.normal()
                for k in range(1, 7):
                    vals[i] += rng.normal() * np.cos(k * nodes)
                    vals[i] += rng.normal() * np.sin(k * nodes)
            return pc.PeriodicFunction(base.grid, vals)

        l, h, k = (curves.CurveTangent(base, random_field()) for _ in range(3))
        got = curves.l2_metric_variation(base, l, h, k)
        cp = curves.Curve(pc.PeriodicFunction(base.grid, base.pos.values + eps * l.h.values))
        cm = curves.Curve(pc.PeriodicFunction(base.grid, base.pos.values - eps * l.h.values))
        fd = (
            curves.l2_metric(cp, curves.CurveTangent(cp, h.h), curves.CurveTangent(cp, k.h))
            - curves.l2_metric(cm, curves.CurveTangent(cm, h.h), curves.CurveTangent(cm, k.h))
        ) / (2 * eps)
        worst = max(worst, abs(got - fd) / max(1.0, abs(fd)))
    ok = worst < 1e-6
    _verdict(
        4,
        ok,
        f"l2_metric_variation vs central differences on 100 seeded configs: "
        f"max relative error {worst:.2e} < 1e-6",
    )


def test_acceptance_05_energy_gradient_and_cauchy_schwarz():
    rng = np.random.default_rng(0)
    n = 16
    oracle = pg.curve_space_oracle(n)
    nodes = 2 * np.pi * np.arange(n) / n
    circle = np.stack([np.cos(nodes), np.sin(nodes)]).reshape(-1)
    pts = np.array(
        [circle + 0.05 * s * rng.normal(size=2 * n) for s in np.linspace(0, 1, 6)]
    )
    pts[0] = circle
    path = pg.Path(pts)
    grad = pg.energy_gradient(path, oracle)
    eps = 1e-6
    worst = 0.0
    for _ in range(30):
        i = int(rng.integers(1, 5))
        j = int(rng.integers(0, 2 * n))
        plus, minus = pts.copy(), pts.copy()
        plus[i, j] += eps
        minus[i, j] -= eps
        fd = (
            pg.path_energy(pg.Path(plus), oracle)
            - pg.path_energy(pg.Path(minus), oracle)
        ) / (2 * eps)
        worst = max(worst, abs(grad[i - 1, j] - fd) / max(1.0, abs(fd)))
    cs_ok = True
    for _ in range(50):
        sph = hilbert_geometry.sphere_oracle(5)
        p = rng.normal(size=(10, 5))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        rp = pg.Path(p)
        cs_ok = cs_ok and (
            pg.path_length(rp, sph) ** 2 <= 2 * pg.path_energy(rp, sph) + 1e-9
        )
    ok = worst < 1e-6 and cs_ok
    _verdict(
        5,
        ok,
        f"energy_gradient vs finite differences: max relative error {worst:.2e} "
        f"< 1e-6; Len^2 <= 2E on all evaluated paths: {cs_ok}",
    )


def test_acceptance_06_exponential_map_constructions():
    n = 256
    u = diffeo_flows.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), n)
    eta, c = diffeo_flows.conjugate_to_rotation(u)
    c_err = abs(c - np.sqrt(0.75))
    phi = diffeo_flows.flow_autonomous(u, 1.0)
    rot = diffeo_flows.CircleDiffeo.rotation(c, n)
    conj = diffeo_flows.compose(diffeo_flows.invert(eta), diffeo_flows.compose(rot, eta))
    conj_err = float(
        np.max(np.abs(diffeo_flows._wrap_angle(conj.values - phi.values)))
    )
    grid = pc.PeriodicGrid(n)

    def psi(amp):
        return diffeo_flows.CircleDiffeo(
            pc.PeriodicFunction(grid, (amp * np.sin(3 * grid.nodes))[None, :])
        )

    u1, err1 = diffeo_flows.exp_noninjectivity_demo(psi(0.05), 3)
    u2, err2 = diffeo_flows.exp_noninjectivity_demo(psi(0.08), 3)
    sep = float(np.max(np.abs(u1.u.values - u2.u.values)))
    ok = c_err < 1e-9 and conj_err < 1e-6 and err1 < 1e-6 and err2 < 1e-6 and sep > 0.01
    _verdict(
        6,
        ok,
        f"c = sqrt(0.75) +- {c_err:.1e} (<1e-9), conjugation sup-error "
        f"{conj_err:.1e} < 1e-6; two fields sup-distance {sep:.3f} > 0.01 with "
        f"flow errors {err1:.1e}, {err2:.1e} < 1e-6",
    )


def test_acceptance_07_blow_up():
    grid = diffeo_flows.RealGrid(half_width=1e4)
    tf = diffeo_flows.TimeDependentField.uniform([np.square], grid)
    result = diffeo_flows.flow_time_dependent(tf, x0=np.array([2.0]))
    err = abs(result.blow_up_time - 0.5) if result.blow_up else np.inf
    ok = result.blow_up and err < 1e-3
    _verdict(
        7,
        ok,
        f"u = x^2 from x0 = 2: blow-up reported at t = "
        f"{result.blow_up_time:.6f} = 0.500 +- {err:.1e} (tol 1e-3)",
    )


def test_acceptance_08_kernel_metric():
    rng = np.random.default_rng(2024)
    kernels = [kernel_metrics.gaussian_kernel(1.0), kernel_metrics.sobolev_kernel(1),
               kernel_metrics.sobolev_kernel(2)]
    spd_ok, min_eig = True, np.inf
    for i in range(1000):
        kernel = kernels[i % 3]
        while True:
            pts = rng.uniform(-3, 3, size=(int(rng.integers(2, 6)), int(rng.integers(1, 4))))
            try:
                cfg = kernel_metrics.LandmarkConfig(pts)
                break
            except DegenerateConfig:
                continue
        w = np.linalg.eigvalsh(kernel_metrics.gram_assemble(kernel, cfg))
        spd_ok = spd_ok and w.min() > 0
        min_eig = min(min_eig, w.min())
    qp_worst = 0.0
    bound_ok = True
    for seed in range(20):
        rng2 = np.random.default_rng(seed)
        kernel = kernels[seed % 3]
        n = int(rng2.integers(2, 6))
        cfg = kernel_metrics.LandmarkConfig(rng2.uniform(-3, 3, size=(n, 2)))
        h = rng2.normal(size=(n, 2))
        direct = kernel_metrics.induced_metric(kernel, cfg, h)
        qp = kernel_metrics.constrained_infimum(
            kernel, cfg, h, rng2.uniform(-4, 4, size=(4, 2))
        )
        qp_worst = max(qp_worst, abs(direct - qp) / max(1.0, abs(direct)))
        lhs, rhs = kernel_metrics.admissibility_bound_check(kernel, cfg, h)
        bound_ok = bound_ok and lhs <= rhs + 1e-10
    oracle = kernel_metrics.landmark_metric_oracle(kernel_metrics.gaussian_kernel(1.0), 1, 2)
    opts = pg.SolverOptions(tol=1e-7, max_iter=20000)
    a, b = np.array([-2.0, 2.0]), np.array([-1.0, 3.0])
    p1, _ = pg.bvp_minimize(a, b, oracle, init=pg.Path.linear(a, b, 16), opts=opts)
    p2, _ = pg.bvp_minimize(
        a[::-1].copy(), b[::-1].copy(), oracle,
        init=pg.Path.linear(a[::-1], b[::-1], 16), opts=opts,
    )
    perm_err = abs(pg.path_length(p1, oracle) - pg.path_length(p2, oracle))
    ok = spd_ok and qp_worst < 1e-8 and bound_ok and perm_err < 1e-8
    _verdict(
        8,
        ok,
        f"Gram SPD on 1000 configs (min eig {min_eig:.2e}); QP infimum agreement "
        f"{qp_worst:.1e} < 1e-8; C = sqrt(k(0)) bound holds: {bound_ok}; "
        f"permutation distance error {perm_err:.1e} < 1e-8",
    )


def test_acceptance_09_flow_group_property():
    grid = diffeo_flows.RealGrid()
    x = grid.nodes
    cases = [
        [lambda y: 0.5 * np.sin(y) * np.exp(-0.5 * y**2)],
        [lambda y: np.sin(y) * np.exp(-0.5 * y**2), lambda y: np.cos(2 * y) * np.exp(-0.5 * y**2)],
    ]
    worst = 0.0
    member_ok = True
    for fields in cases:
        tf = diffeo_flows.TimeDependentField.uniform(fields, grid)
        fwd = diffeo_flows.flow_time_dependent(tf)
        back = diffeo_flows.flow_time_dependent(tf.reversed(), x0=fwd.final_map)
        worst = max(worst, float(np.max(np.abs(back.final_map - x))))
        member_ok = member_ok and diffeo_flows.membership_check(
            fwd.final_map - x, grid
        )
    ok = worst < 1e-6 and member_ok
    _verdict(
        9,
        ok,
        f"forward + reversed flow returns to identity: sup-error {worst:.1e} "
        f"< 1e-6; membership_check on all flow outputs: {member_ok}",
    )


def test_acceptance_10_sobolev_module():
    n = 64
    forms_ok = True
    ratio_ok = True
    for k in range(0, 9):
        f = pc.PeriodicFunction.from_callable((lambda t, k=k: np.cos(k * t)), n)
        for q in (0, 1):
            a = pc.sobolev_inner_product(f, f, q)
            b = pc.sobolev_inner_product_integer(f, f, q)
            forms_ok = forms_ok and abs(a - b) <= 1e-12 * max(1.0, abs(a))
        a2 = pc.sobolev_inner_product(f, f, 2)
        b2 = pc.sobolev_inner_product_integer(f, f, 2)
        w = (1.0 + float(k) ** 4) / (1.0 + float(k) ** 2) ** 2
        ratio_ok = ratio_ok and abs(b2 / a2 - w) <= 1e-12 * max(1.0, w)
    rng = np.random.default_rng(11)
    q = 1
    ks = pc.PeriodicGrid(n).wavenumbers.astype(float)
    const = np.sqrt(np.sum((1.0 + ks**2) ** (-q)))
    embed_ok = True
    for _ in range(500):
        coeffs = np.zeros((1, n), dtype=complex)
        coeffs[0, 0] = rng.normal()
        for k in rng.integers(1, 16, size=5):
            amp = rng.normal() + 1j * rng.normal()
            coeffs[0, k] += amp
            coeffs[0, -k] += np.conj(amp)
        f = pc.inverse_transform(pc.SpectralCoeffs(pc.PeriodicGrid(n), coeffs))
        lhs = pc.sup_norm(f)
        rhs = const * np.sqrt(pc.sobolev_inner_product(f, f, q))
        embed_ok = embed_ok and lhs <= rhs + 1e-12
    ok = forms_ok and ratio_ok and embed_ok
    _verdict(
        10,
        ok,
        f"mode-sum and derivative forms agree at q in {{0,1}} for single modes: "
        f"{forms_ok}; q=2 ratio equals (1+k^4)/(1+k^2)^2: {ratio_ok}; embedding "
        f"sup|f| <= C_1 |f|_H1 with C_1 = {const:.6f} on 500 random functions: {embed_ok}",
    )
