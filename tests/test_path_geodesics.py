"""Generic geodesic machinery: energy, gradients, BVP/IVP solvers."""

import dataclasses

import numpy as np
import pytest

from shapegeo import hilbert_geometry, path_geodesics as pg
from shapegeo.errors import DegenerateConfig, NonConvergence, SingularGram


def sphere_point(rng, m):
    x = rng.normal(size=m)
    return x / np.linalg.norm(x)


class TestEnergyAndLength:
    def test_constant_path(self):
        oracle = pg.euclidean_oracle(3)
        path = pg.Path(np.tile(np.array([1.0, 2.0, 3.0]), (5, 1)))
        assert pg.path_energy(path, oracle) == 0.0
        assert pg.path_length(path, oracle) == 0.0

    def test_straight_line_flat(self):
        v = np.array([1.0, -2.0, 0.5])
        oracle = pg.euclidean_oracle(3)
        path = pg.Path.linear(np.zeros(3), v, 10)
        assert abs(pg.path_energy(path, oracle) - 0.5 * np.dot(v, v)) < 1e-14
        assert abs(pg.path_length(path, oracle) - np.linalg.norm(v)) < 1e-14

    def test_great_circle_energy(self):
        m = 10
        oracle = hilbert_geometry.sphere_oracle(m)
        t = np.linspace(0, 1, 65)
        pts = np.zeros((65, m))
        pts[:, 0] = np.cos(np.pi / 2 * t)
        pts[:, 1] = np.sin(np.pi / 2 * t)
        energy = pg.path_energy(pg.Path(pts), oracle)
        assert abs(energy - np.pi**2 / 8) < 1e-3

    def test_time_warp_preserves_length_not_energy(self):
        v = np.array([2.0, 1.0])
        oracle = pg.euclidean_oracle(2)
        t = np.linspace(0, 1, 33)
        uniform = pg.Path(np.outer(t, v))
        warped = pg.Path(np.outer(t**2, v))
        assert abs(pg.path_length(warped, oracle) - pg.path_length(uniform, oracle)) < 1e-8
        assert pg.path_energy(warped, oracle) > pg.path_energy(uniform, oracle) + 0.1

    def test_cauchy_schwarz_on_random_paths(self):
        rng = np.random.default_rng(0)
        oracle = hilbert_geometry.sphere_oracle(5)
        for _ in range(20):
            pts = rng.normal(size=(12, 5))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            path = pg.Path(pts)
            length = pg.path_length(path, oracle)
            energy = pg.path_energy(path, oracle)
            assert length**2 <= 2 * energy + 1e-9


class TestEnergyGradient:
    def test_zero_on_straight_line(self):
        oracle = pg.euclidean_oracle(4)
        path = pg.Path.linear(np.zeros(4), np.ones(4), 16)
        grad = pg.energy_gradient(path, oracle)
        assert np.max(np.abs(grad)) < 1e-13

    def test_matches_fd_on_curve_space_oracle(self):
        rng = np.random.default_rng(1)
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
        for trial in range(10):
            i = rng.integers(1, 5)
            j = rng.integers(0, 2 * n)
            plus = pts.copy()
            plus[i, j] += eps
            minus = pts.copy()
            minus[i, j] -= eps
            fd = (
                pg.path_energy(pg.Path(plus), oracle)
                - pg.path_energy(pg.Path(minus), oracle)
            ) / (2 * eps)
            assert abs(grad[i - 1, j] - fd) / max(1.0, abs(fd)) < 1e-6

    def test_matches_fd_on_sphere_oracle(self):
        rng = np.random.default_rng(2)
        m = 6
        oracle = hilbert_geometry.sphere_oracle(m)
        pts = rng.normal(size=(8, m))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        path = pg.Path(pts)
        grad = pg.energy_gradient(path, oracle)
        eps = 1e-6
        for trial in range(10):
            i = rng.integers(1, 7)
            j = rng.integers(0, m)
            plus = pts.copy()
            plus[i, j] += eps
            minus = pts.copy()
            minus[i, j] -= eps
            fd = (
                pg.path_energy(pg.Path(plus), oracle)
                - pg.path_energy(pg.Path(minus), oracle)
            ) / (2 * eps)
            assert abs(grad[i - 1, j] - fd) / max(1.0, abs(fd)) < 1e-6

    def test_fd_fallback_when_variation_missing(self):
        base = pg.euclidean_oracle(3)
        no_var = pg.MetricOracle(dim=3, metric=base.metric, name="no-var")
        path = pg.Path.linear(np.zeros(3), np.ones(3), 8)
        grad = pg.energy_gradient(path, no_var)
        assert np.max(np.abs(grad)) < 1e-8
        with pytest.raises(ValueError):
            pg.energy_gradient(path, no_var, allow_fd=False)


class TestBVP:
    def test_identical_endpoints(self):
        oracle = pg.euclidean_oracle(2)
        x = np.array([1.0, 1.0])
        path, report = pg.bvp_minimize(x, x, oracle, init=pg.Path.linear(x, x, 8))
        assert report.converged
        assert report.energy < 1e-14

    def test_init_must_respect_endpoints(self):
        oracle = pg.euclidean_oracle(2)
        with pytest.raises(ValueError):
            pg.bvp_minimize(
                np.zeros(2),
                np.ones(2),
                oracle,
                init=pg.Path.linear(np.zeros(2), 2 * np.ones(2), 8),
            )

    def test_sphere_random_pair_matches_arccos(self):
        rng = np.random.default_rng(42)
        m = 10
        oracle = hilbert_geometry.sphere_oracle(m)
        opts = pg.SolverOptions(tol=1e-6, max_iter=3000)
        x, y = sphere_point(rng, m), sphere_point(rng, m)
        init = pg.Path.linear(x, y, 48)
        pts = init.points / np.linalg.norm(init.points, axis=1, keepdims=True)
        path, _ = pg.bvp_minimize(x, y, oracle, init=pg.Path(pts), opts=opts)
        exact = hilbert_geometry.sphere_distance_analytic(x, y)
        assert abs(pg.path_length(path, oracle) - exact) < 1e-3

    def test_translated_circles_beat_initializer(self):
        n = 32
        oracle = pg.curve_space_oracle(n)
        nodes = 2 * np.pi * np.arange(n) / n
        a = np.stack([np.cos(nodes), np.sin(nodes)]).reshape(-1)
        b = a.copy()
        b[:n] += 0.5
        init = pg.Path.linear(a, b, 8)
        init_length = pg.path_length(init, oracle)
        path, _ = pg.bvp_minimize(
            a, b, oracle, init=init, opts=pg.SolverOptions(tol=1e-6, max_iter=500)
        )
        assert pg.path_length(path, oracle) <= init_length + 1e-12

    def test_nonconvergence_raises_with_payload(self):
        oracle = hilbert_geometry.sphere_oracle(4)
        rng = np.random.default_rng(3)
        x, y = sphere_point(rng, 4), sphere_point(rng, 4)
        opts = pg.SolverOptions(tol=1e-14, max_iter=2, raise_on_failure=True)
        with pytest.raises(NonConvergence) as excinfo:
            pg.bvp_minimize(x, y, oracle, init=pg.Path.linear(x, y, 8), opts=opts)
        assert excinfo.value.path is not None
        assert excinfo.value.report is not None
        assert not excinfo.value.report.converged


class TestLineSearchErrors:
    """The first Armijo trial energy of a flat solve fails."""

    @staticmethod
    def _solve(failure):
        """Solve with the first trial raising ``failure``, or, for a number, returning it."""
        flat = pg.euclidean_oracle(2)
        calls = []

        def metric(x, h, k):
            calls.append(None)
            if len(calls) == 2:  # call 1 is the initial energy
                if isinstance(failure, Exception):
                    raise failure
                return np.full(np.shape(x)[:-1], failure)
            return flat.metric(x, h, k)

        oracle = dataclasses.replace(flat, metric=metric)
        a, b = np.zeros(2), np.ones(2)
        pts = pg.Path.linear(a, b, 8).points
        pts[1:-1, 1] += 0.3 * np.sin(np.pi * np.linspace(0, 1, 9)[1:-1])
        opts = pg.SolverOptions(tol=1e-8, max_iter=2000)
        return pg.bvp_minimize(a, b, oracle, init=pg.Path(pts), opts=opts)

    def test_shapegeo_error_counts_as_backtrack(self):
        path, report = self._solve(DegenerateConfig("coincident landmarks"))
        ref_path, ref_report = self._solve(np.inf)
        assert report.converged
        assert report.iterations == ref_report.iterations
        assert np.array_equal(path.points, ref_path.points)

    def test_other_errors_propagate(self):
        with pytest.raises(RuntimeError, match="oracle bug"):
            self._solve(RuntimeError("oracle bug"))


class TestIVP:
    def test_zero_velocity_constant(self):
        oracle = hilbert_geometry.sphere_oracle(4)
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        path = pg.ivp_shoot(x0, np.zeros(4), oracle, 16)
        assert np.max(np.abs(path.points - x0)) < 1e-12

    def test_euclidean_straight_line(self):
        oracle = pg.euclidean_oracle(3)
        v = np.array([1.0, 2.0, -0.5])
        path = pg.ivp_shoot(np.zeros(3), v, oracle, 32)
        assert np.max(np.abs(path.points[-1] - v)) < 1e-10

    def test_sphere_quarter_circle(self):
        m = 10
        oracle = hilbert_geometry.sphere_oracle(m)
        x0 = np.zeros(m)
        x0[0] = 1.0
        v0 = np.zeros(m)
        v0[1] = np.pi / 2
        path = pg.ivp_shoot(x0, v0, oracle, 256)
        target = np.zeros(m)
        target[1] = 1.0
        assert np.linalg.norm(path.points[-1] - target) < 1e-4

    def test_bvp_ivp_consistency(self):
        rng = np.random.default_rng(4)
        m = 10
        oracle = hilbert_geometry.sphere_oracle(m)
        x, y = sphere_point(rng, m), sphere_point(rng, m)
        init = pg.Path.linear(x, y, 48)
        pts = init.points / np.linalg.norm(init.points, axis=1, keepdims=True)
        path, _ = pg.bvp_minimize(
            x, y, oracle, init=pg.Path(pts), opts=pg.SolverOptions(tol=1e-6, max_iter=3000)
        )
        # second-order one-sided estimate of the initial velocity
        p0, p1, p2 = path.points[0], path.points[1], path.points[2]
        v0 = (4.0 * p1 - 3.0 * p0 - p2) * (path.n_steps / 2.0)
        shot = pg.ivp_shoot(x, v0, oracle, 256)
        assert np.linalg.norm(shot.points[-1] - y) < 1e-3

    def test_singular_gram(self):
        def metric(x, h, k):
            h, k = np.broadcast_arrays(h, k)
            w = np.array([1.0, 1e-14])
            return np.sum(w * h * k, axis=-1)

        def variation(x, l, h, k):
            shape = np.broadcast_shapes(x.shape, l.shape, h.shape, k.shape)
            return np.zeros(shape[:-1])

        oracle = pg.MetricOracle(dim=2, metric=metric, variation=variation)
        with pytest.raises(SingularGram):
            pg.ivp_shoot(np.zeros(2), np.ones(2), oracle, 4)


class TestDistance:
    def test_zero_distance_to_self(self):
        oracle = pg.euclidean_oracle(2)
        x = np.array([0.3, -0.7])
        assert pg.distance_estimate(x, x, oracle, init=pg.Path.linear(x, x, 4)) < 1e-12

    def test_symmetric_on_sphere(self):
        rng = np.random.default_rng(5)
        m = 6
        oracle = hilbert_geometry.sphere_oracle(m)
        opts = pg.SolverOptions(tol=1e-6, max_iter=3000)
        x, y = sphere_point(rng, m), sphere_point(rng, m)

        def dist(a, b):
            init = pg.Path.linear(a, b, 32)
            pts = init.points / np.linalg.norm(init.points, axis=1, keepdims=True)
            return pg.distance_estimate(a, b, oracle, init=pg.Path(pts), opts=opts)

        assert abs(dist(x, y) - dist(y, x)) < 1e-3

    def test_triangle_inequality_on_sphere(self):
        rng = np.random.default_rng(6)
        m = 5
        oracle = hilbert_geometry.sphere_oracle(m)
        opts = pg.SolverOptions(tol=1e-6, max_iter=3000)
        x, y, z = (sphere_point(rng, m) for _ in range(3))

        def dist(a, b):
            init = pg.Path.linear(a, b, 32)
            pts = init.points / np.linalg.norm(init.points, axis=1, keepdims=True)
            return pg.distance_estimate(a, b, oracle, init=pg.Path(pts), opts=opts)

        assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-3


class TestPathContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            pg.Path(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            pg.Path(np.array([[0.0, np.inf], [1.0, 2.0]]))

    def test_refine_keeps_endpoints(self):
        path = pg.Path.linear(np.zeros(2), np.ones(2), 4)
        fine = path.refine(16)
        assert fine.n_steps == 16
        assert np.allclose(fine.points[0], path.points[0])
        assert np.allclose(fine.points[-1], path.points[-1])


class TestVanishingDistanceSetup:
    def test_levels_validated(self):
        with pytest.raises(ValueError):
            pg.vanishing_distance_experiment(levels=2)

    def test_flat_oracle_distance_is_resolution_independent(self):
        for n in (16, 32, 64):
            oracle = pg.flat_curve_oracle(n)
            nodes = 2 * np.pi * np.arange(n) / n
            a = np.stack([np.cos(nodes), np.sin(nodes)]).reshape(-1)
            b = a.copy()
            b[:n] += 0.5
            line = pg.Path.linear(a, b, 8)
            expect = np.sqrt(2 * np.pi) * 0.5
            assert abs(pg.path_length(line, oracle) - expect) < 1e-12
