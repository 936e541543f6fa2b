"""Generic geodesic machinery: energy, gradients, BVP/IVP solvers."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegeo import hilbert_geometry, kernel_metrics as km, path_geodesics as pg
from shapegeo.errors import DegenerateConfig, NotImmersed, SingularGram


def sphere_point(rng, m):
    x = rng.normal(size=m)
    return x / np.linalg.norm(x)


@st.composite
def sphere_shot(draw):
    """A unit x in R^m, 3 <= m <= 10, and a tangent v at x with |v| in [0.1, 3]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = sphere_point(rng, draw(st.integers(3, 10)))
    w = rng.normal(size=x.size)
    w -= (w @ x) * x
    return x, draw(st.floats(0.1, 3.0)) * w / np.linalg.norm(w)


def curve_point(rng, n=16):
    """Unit circle on n nodes, flattened, with a small random perturbation."""
    nodes = 2 * np.pi * np.arange(n) / n
    return np.stack([np.cos(nodes), np.sin(nodes)]).reshape(-1) + 0.02 * rng.normal(size=2 * n)


def landmark_point(rng):
    """Four planar landmarks on a jittered 2 x 2 grid of spacing 1.5, flattened."""
    sites = 1.5 * np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return (sites + rng.uniform(-0.3, 0.3, size=sites.shape)).reshape(-1)


def hamiltonian(oracle, x, xi):
    """H(x, xi) = 1/2 <xi, sharp(x, xi)>, batched over leading axes."""
    return 0.5 * np.sum(xi * oracle.sharp(x, xi), axis=-1)


# every oracle family, with a sampler of points in its domain
ORACLES = {
    "euclidean": (pg.euclidean_oracle(3), lambda rng: rng.normal(size=3)),
    "weighted": (pg.euclidean_oracle(16, weight=2 * np.pi / 8), lambda rng: rng.normal(size=16)),
    "sphere": (hilbert_geometry.sphere_oracle(5), lambda rng: rng.normal(size=5)),
    "curves": (pg.curve_space_oracle(16), curve_point),
    "gaussian": (km.landmark_metric_oracle(km.gaussian_kernel(1.0), 2, 4), landmark_point),
    "sobolev1": (km.landmark_metric_oracle(km.sobolev_kernel(1), 2, 4), landmark_point),
    "sobolev2": (km.landmark_metric_oracle(km.sobolev_kernel(2), 2, 4), landmark_point),
}


@pytest.mark.parametrize("case", ORACLES.values(), ids=ORACLES.keys())
class TestOracleContract:
    """G, DG and the Gram that MetricOracle.from_rows derives from an oracle's rows."""

    def test_dg_matches_fd(self, case):
        oracle, point = case
        rng = np.random.default_rng(11)
        eps = 1e-6
        for _ in range(5):
            x = point(rng)
            l, h, k = (rng.normal(size=x.shape) for _ in range(3))
            fd = (oracle.G(x + eps * l, h, k) - oracle.G(x - eps * l, h, k)) / (2 * eps)
            assert abs(oracle.variation(x, l, h, k) - fd) < 1e-6 * max(1.0, abs(fd))

    def test_gram(self, case):
        oracle, point = case
        x = point(np.random.default_rng(12))
        gram = oracle.gram(x)
        eye = np.eye(oracle.dim)
        direct = np.array([[oracle.G(x, a, b) for b in eye] for a in eye])
        scale = max(1.0, np.max(np.abs(direct)))
        assert gram.shape == (oracle.dim, oracle.dim)
        assert np.max(np.abs(gram - gram.T)) < 1e-12 * scale
        assert np.max(np.abs(gram - direct)) < 1e-12 * scale

    @pytest.mark.parametrize("stacked_x", [True, False], ids=["stacked-x", "one-x"])
    def test_batched_calls(self, case, stacked_x):
        """(T, m) calls, with T points or one shared by all rows, match 1-D calls row by row."""
        oracle, point = case
        rng = np.random.default_rng(9)
        xs = np.stack([point(rng) for _ in range(5)])
        l, h, k = (rng.normal(size=xs.shape) for _ in range(3))
        if not stacked_x:
            xs = np.broadcast_to(xs[0], xs.shape)
        x = xs if stacked_x else xs[0]
        batched = {
            "metric": oracle.metric(x, h, k),
            "variation": oracle.variation(x, l, h, k),
            "metric_rows": oracle.metric_rows(x, h),
            "variation_rows": oracle.variation_rows(x, h, k),
            "speed_gradient": oracle.speed_gradient(x, h, oracle.metric_rows(x, h)),
        }
        for i, xi in enumerate(xs):
            single = {
                "metric": oracle.metric(xi, h[i], k[i]),
                "variation": oracle.variation(xi, l[i], h[i], k[i]),
                "metric_rows": oracle.metric_rows(xi, h[i]),
                "variation_rows": oracle.variation_rows(xi, h[i], k[i]),
                "speed_gradient": oracle.speed_gradient(xi, h[i], oracle.metric_rows(xi, h[i])),
            }
            assert isinstance(single["metric"], float)
            assert isinstance(single["variation"], float)
            for name, value in single.items():
                scale = max(1.0, np.max(np.abs(value)))
                assert np.max(np.abs(batched[name][i] - value)) < 1e-12 * scale, name

    def test_state_calls_equal_array_calls(self, case):
        """Rows, G, DG, the speed gradient and the Gram read from ``at(x)`` are the calls on x,
        bit for bit."""
        oracle, point = case
        rng = np.random.default_rng(13)
        for x in (point(rng), np.stack([point(rng) for _ in range(4)])):
            state = oracle.at(x)
            assert oracle.at(state) is state
            l, h, k = (rng.normal(size=x.shape) for _ in range(3))
            for name, args in [
                ("metric_rows", (h,)),
                ("variation_rows", (h, k)),
                ("G", (h, k)),
                ("variation", (l, h, k)),
                ("speed_gradient", (h, oracle.metric_rows(x, h))),
            ]:
                call = getattr(oracle, name)
                assert np.array_equal(call(state, *args), call(x, *args)), name
        assert np.array_equal(oracle.gram(oracle.at(x[0])), oracle.gram(x[0]))

    def test_sharp_inverts_the_flat_map(self, case):
        oracle, point = case
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = point(rng)
            h = rng.normal(size=x.shape)
            back = oracle.sharp(oracle.at(x), oracle.metric_rows(x, h))
            assert np.max(np.abs(back - h)) <= 1e-12 * np.max(np.abs(h))

    def test_flat_derivative_matches_fd(self, case):
        """The derivative of the flat map along l, read from the variation as DG(x, l, h, I),
        matches central differences of ``metric_rows``."""
        oracle, point = case
        rng = np.random.default_rng(15)
        eps = 1e-6
        for _ in range(5):
            x = point(rng)
            l, h = (rng.normal(size=x.shape) for _ in range(2))
            plus, minus = oracle.metric_rows(x + eps * l, h), oracle.metric_rows(x - eps * l, h)
            fd = (plus - minus) / (2 * eps)
            exact = oracle.variation(oracle.at(x), l, h, np.eye(oracle.dim))
            assert np.max(np.abs(exact - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_sharp_derivative_matches_fd(self, case):
        oracle, point = case
        rng = np.random.default_rng(18)
        eps = 1e-6
        for _ in range(5):
            x = point(rng)
            l, xi = (rng.normal(size=x.shape) for _ in range(2))
            fd = (oracle.sharp(x + eps * l, xi) - oracle.sharp(x - eps * l, xi)) / (2 * eps)
            exact = oracle.sharp_derivative(oracle.at(x), l, xi)
            assert np.max(np.abs(exact - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_speed_gradient_matches_fd(self, case):
        """speed_gradient(x, v, metric_rows(x, v)) is the x-gradient of G(x, v, v)."""
        oracle, point = case
        rng = np.random.default_rng(19)
        eps = 1e-6
        for _ in range(5):
            x = point(rng)
            v = rng.normal(size=x.shape)
            steps = eps * np.eye(oracle.dim)
            fd = (oracle.G(x + steps, v, v) - oracle.G(x - steps, v, v)) / (2 * eps)
            exact = oracle.speed_gradient(oracle.at(x), v, oracle.metric_rows(x, v))
            assert np.max(np.abs(exact - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_cometric_gradient_matches_fd(self, case):
        """The x-gradient of 1/2 <xi, sharp(x, xi)> is -1/2 speed_gradient(x, sharp(x, xi), xi)."""
        oracle, point = case
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(5):
            x = point(rng)
            xi = rng.normal(size=x.shape)
            steps = eps * np.eye(oracle.dim)
            fd = (hamiltonian(oracle, x + steps, xi) - hamiltonian(oracle, x - steps, xi)) / (2 * eps)
            state = oracle.at(x)
            exact = -0.5 * oracle.speed_gradient(state, oracle.sharp(state, xi), xi)
            assert np.max(np.abs(exact - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 10.0))
    def test_variation_rows_polarize_speed_gradient(self, case, seed, scale):
        """The derived variation_rows(x, h, h) = speed_gradient(x, h, metric_rows(x, h)), to 1e-12."""
        oracle, point = case
        rng = np.random.default_rng(seed)
        x = point(rng)
        h = scale * rng.normal(size=x.shape)
        reference = oracle.speed_gradient(x, h, oracle.metric_rows(x, h))
        derived = oracle.variation_rows(x, h, h)
        assert np.max(np.abs(derived - reference)) <= 1e-12 * max(np.max(np.abs(reference)), 1e-300)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), speed=st.floats(0.01, 10.0))
    def test_acceleration_matches_gram_solve(self, case, seed, speed):
        """The acceleration equals the dense Gram formula it replaced, to 1e-10 relative."""
        oracle, point = case
        rng = np.random.default_rng(seed)
        x = point(rng)
        v = speed * rng.normal(size=x.shape)
        gram = oracle.gram(x)
        assert np.linalg.cond(gram) < pg.COND_LIMIT
        rhs = 0.5 * (2.0 * oracle.variation(x, v, v, np.eye(oracle.dim)) - oracle.variation_rows(x, v, v))
        reference = -np.linalg.solve(gram, rhs)
        accel = pg.geodesic_acceleration(x, v, oracle)
        scale = max(np.max(np.abs(reference)), 1e-300)
        assert np.max(np.abs(accel - reference)) <= 1e-10 * scale

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["x", "v"])
    def test_acceleration_rejects_non_finite_input(self, case, bad, where):
        """The acceleration, and so a shot from a non-finite x0 or v0, raises ValueError."""
        oracle, point = case
        rng = np.random.default_rng(16)
        x = point(rng)
        v = rng.normal(size=x.shape)
        (x if where == "x" else v)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            pg.geodesic_acceleration(x, v, oracle)
        with pytest.raises(ValueError, match="finite"):
            pg.ivp_shoot(x, v, oracle, 2)


class TestEuclideanOracle:
    @pytest.mark.parametrize("weight", [-1.0, 0.0, np.nan, np.inf, np.array([1.0, -2.0])])
    def test_euclidean_weights_must_be_positive_and_finite(self, weight):
        with pytest.raises(ValueError, match="positive and finite"):
            pg.euclidean_oracle(2, weight=weight)


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

    def test_init_needs_an_interior_point(self):
        oracle = pg.euclidean_oracle(2)
        with pytest.raises(ValueError, match="n_steps = 1"):
            pg.bvp_minimize(np.zeros(2), np.ones(2), oracle,
                            init=pg.Path.linear(np.zeros(2), np.ones(2), 1))

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

    def test_flat_solve_is_one_newton_step(self):
        """On a unit flat metric the Sobolev direction L^{-1} g is the exact Newton step."""
        oracle = pg.euclidean_oracle(3)
        a, b = np.zeros(3), np.array([1.0, -2.0, 0.5])
        pts = pg.Path.linear(a, b, 12).points
        s = np.linspace(0.0, 1.0, 13)[1:-1]
        pts[1:-1] += np.outer(np.sin(np.pi * s), [0.4, 0.3, -0.2])
        pts[1:-1] += np.outer(s**2 * (1 - s), [1.0, 0.0, 2.0])
        opts = pg.SolverOptions(tol=1e-10)
        _, report = pg.bvp_minimize(a, b, oracle, init=pg.Path(pts), opts=opts)
        # the Hessian is exactly L: the first step lands, the second iteration meets tol
        assert (report.reason, report.iterations, report.backtracks) == ("tol", 2, 0)
        assert abs(report.energy - 0.5 * np.dot(b, b)) < 1e-12

    def test_trace_logs_each_step_at_debug(self, caplog):
        """One DEBUG record per accepted step, with energy, |g|, step, backtracks and pairs."""
        oracle = hilbert_geometry.sphere_oracle(4)
        rng = np.random.default_rng(3)
        x, y = sphere_point(rng, 4), sphere_point(rng, 4)
        init = pg.Path.linear(x, y, 8)
        opts = pg.SolverOptions(tol=1e-8)
        with caplog.at_level(logging.INFO, logger="shapegeo"):
            pg.bvp_minimize(x, y, oracle, init=init, opts=opts)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="shapegeo"):
            _, report = pg.bvp_minimize(x, y, oracle, init=init, opts=opts)
        assert report.converged
        messages = [r.getMessage() for r in caplog.records if r.name == "shapegeo"]
        assert len(messages) == report.iterations - 1
        assert messages[0].startswith("bvp iteration 1: energy ")
        assert "|g|" in messages[0] and "step" in messages[0]
        assert messages[0].endswith("backtracks, 1 pairs")
        assert messages[-1].endswith(f"{min(report.iterations - 1, pg.LBFGS_MEMORY)} pairs")


class TestEndpoints:
    """Both endpoints pass through ``oracle.at`` before the first iteration."""

    @staticmethod
    def _problem(kind):
        rng = np.random.default_rng(11)
        if kind == "euclidean":
            return pg.euclidean_oracle(3), rng.normal(size=3), rng.normal(size=3)
        if kind == "sphere":
            return hilbert_geometry.sphere_oracle(5), sphere_point(rng, 5), sphere_point(rng, 5)
        if kind == "curve":
            return pg.curve_space_oracle(16), curve_point(rng), curve_point(rng)
        oracle = km.landmark_metric_oracle(km.gaussian_kernel(1.0), 2, 4)
        return oracle, landmark_point(rng), landmark_point(rng)

    @pytest.mark.parametrize("kind", ["euclidean", "sphere", "curve", "landmark"])
    def test_endpoints_reach_at_first(self, kind):
        oracle, a, b = self._problem(kind)
        seen = []

        def at(x):
            seen.append(np.array(x, dtype=float))
            return oracle.at(x)

        traced = dataclasses.replace(oracle, at=at)
        pg.bvp_minimize(a, b, traced, init=pg.Path.linear(a, b, 4),
                        opts=pg.SolverOptions(max_iter=1))
        assert np.array_equal(seen[0], a) and np.array_equal(seen[1], b)

    def test_coincident_landmarks_raise(self):
        """Two landmarks at one site: the interior of the path is fine, the start is not."""
        oracle = km.landmark_metric_oracle(km.gaussian_kernel(1.0), 1, 2)
        a, b = np.array([2.0, 2.0]), np.array([-1.0, 3.0])
        with pytest.raises(DegenerateConfig, match="separation"):
            pg.bvp_minimize(a, b, oracle, init=pg.Path.linear(a, b, 16))

    def test_collapsed_curve_raises(self):
        """A curve shrunk to a point is not immersed; the path from it is, past its start."""
        n = 16
        oracle = pg.curve_space_oracle(n)
        a = np.zeros(2 * n)
        b = curve_point(np.random.default_rng(2), n)
        with pytest.raises(NotImmersed):
            pg.bvp_minimize(a, b, oracle, init=pg.Path.linear(a, b, 8))


    def test_sphere_origin_raises(self):
        """The polar metric dr^2 + g_S is not defined at r = 0, where every direction
        is a different point; the segment from it has r > 0 past its start."""
        e1 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(SingularGram, match="origin"):
            pg.bvp_minimize(np.zeros(3), e1, hilbert_geometry.sphere_oracle(3),
                            init=pg.Path.linear(np.zeros(3), e1, 8))

class TestInverseTimeLaplacian:
    @pytest.mark.parametrize("n_steps", [2, 3, 16, 48])
    def test_closed_form_matches_dense_inverse(self, n_steps):
        k = n_steps - 1
        lap = n_steps * (2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1))  # (1/dt) tridiag
        inverse = pg._inverse_time_laplacian(n_steps)
        assert np.max(np.abs(inverse - np.linalg.inv(lap))) < 1e-12


class TestStopReason:
    """Why a solve stopped, and its work counts, as the report gives them."""

    @staticmethod
    def _bent_flat_solve(opts, metric=None):
        flat = pg.euclidean_oracle(2)
        oracle = flat if metric is None else dataclasses.replace(flat, metric=metric)
        a, b = np.zeros(2), np.ones(2)
        pts = pg.Path.linear(a, b, 8).points
        pts[1:-1, 1] += 0.3 * np.sin(np.pi * np.linspace(0, 1, 9)[1:-1])
        return pg.bvp_minimize(a, b, oracle, init=pg.Path(pts), opts=opts)

    def test_tol(self):
        _, report = self._bent_flat_solve(pg.SolverOptions(tol=1e-8))
        assert (report.reason, report.converged) == ("tol", True)
        assert report.grad_norm < 1e-8
        # every iteration but the last accepts one trial
        assert report.energy_evals == 1 + (report.iterations - 1) + report.backtracks

    def test_max_iter(self):
        oracle = hilbert_geometry.sphere_oracle(4)
        rng = np.random.default_rng(3)
        x, y = sphere_point(rng, 4), sphere_point(rng, 4)
        opts = pg.SolverOptions(tol=1e-14, max_iter=2)
        _, report = pg.bvp_minimize(x, y, oracle, init=pg.Path.linear(x, y, 8), opts=opts)
        assert (report.reason, report.converged, report.iterations) == ("max_iter", False, 2)
        assert report.energy_evals == 1 + 2 + report.backtracks

    def test_budget_report_describes_the_returned_path(self):
        """A solve stopped by its budget reports the gradient norm of the path it returns."""
        rng = np.random.default_rng(42)
        m = 10
        oracle = hilbert_geometry.sphere_oracle(m)
        x, y = sphere_point(rng, m), sphere_point(rng, m)
        pts = pg.Path.linear(x, y, 48).points
        init = pg.Path(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        opts = pg.SolverOptions(tol=1e-6, max_iter=5)
        path, report = pg.bvp_minimize(x, y, oracle, init=init, opts=opts)
        grad = pg.energy_gradient(path, oracle)
        assert (report.reason, report.iterations) == ("max_iter", 5)
        assert report.grad_norm == float(np.sqrt(np.sum(grad * grad)))

    def test_last_step_that_meets_tol_converges(self):
        """One Newton step solves the flat problem, so a budget of one iteration converges."""
        _, report = self._bent_flat_solve(pg.SolverOptions(tol=1e-8, max_iter=1))
        assert (report.reason, report.converged, report.iterations) == ("tol", True, 1)
        assert report.grad_norm < 1e-8

    def test_line_search(self):
        """Every trial energy is inf, so the first iteration exhausts its backtracks."""
        calls = []

        def metric(x, h, k):
            calls.append(None)
            if len(calls) == 1:  # the initial energy
                return pg.euclidean_oracle(2).metric(x, h, k)
            return np.full(np.shape(x)[:-1], np.inf)

        _, report = self._bent_flat_solve(pg.SolverOptions(tol=1e-8), metric)
        assert (report.reason, report.converged, report.iterations) == ("line_search", False, 1)
        assert report.backtracks == pg.MAX_BACKTRACKS
        assert report.energy_evals == 1 + pg.MAX_BACKTRACKS
        assert np.isfinite(report.energy)


class TestScipyCrossCheck:
    """L-BFGS-B on path_energy, with energy_gradient as its Jacobian, finds the same minimum."""

    @staticmethod
    def _lbfgs_energy(oracle, init):
        from scipy.optimize import minimize

        def energy_and_gradient(z):
            pts = init.points.copy()
            pts[1:-1] = z.reshape(init.n_steps - 1, init.dim)
            path = pg.Path(pts)
            return pg.path_energy(path, oracle), pg.energy_gradient(path, oracle).ravel()

        result = minimize(
            energy_and_gradient, init.points[1:-1].ravel(), jac=True, method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 20000},
        )
        assert result.success, result.message
        return result.fun

    def _check(self, x, y, oracle, init, opts):
        _, report = pg.bvp_minimize(x, y, oracle, init=init, opts=opts)
        assert report.converged
        reference = self._lbfgs_energy(oracle, init)
        assert abs(report.energy - reference) <= 1e-8 * abs(reference)

    def test_sphere_bvp_pair(self):
        """The first pair of ``shapegeo sphere-bvp`` at its defaults."""
        rng = np.random.default_rng(42)
        m = 10
        x, y = sphere_point(rng, m), sphere_point(rng, m)
        init = pg.Path.linear(x, y, 48)
        init = pg.Path(init.points / np.linalg.norm(init.points, axis=1, keepdims=True))
        opts = pg.SolverOptions(tol=1e-6, max_iter=3000)
        self._check(x, y, hilbert_geometry.sphere_oracle(m), init, opts)

    def test_two_landmarks(self):
        """The pair of ``shapegeo landmark-geodesic`` at its defaults."""
        oracle = km.landmark_metric_oracle(km.gaussian_kernel(1.0), 1, 2)
        a, b = np.array([-2.0, 2.0]), np.array([-1.0, 3.0])
        opts = pg.SolverOptions(tol=1e-6, max_iter=20000)
        self._check(a, b, oracle, pg.Path.linear(a, b, 16), opts)


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

    def test_sphere_quarter_circle_fourth_order(self):
        # RK4: halving the step divides the endpoint error by 2^4 = 16
        m = 10
        oracle = hilbert_geometry.sphere_oracle(m)
        x0, v0, target = np.zeros(m), np.zeros(m), np.zeros(m)
        x0[0] = 1.0
        v0[1] = np.pi / 2
        target[1] = 1.0
        err = [np.linalg.norm(pg.ivp_shoot(x0, v0, oracle, n).points[-1] - target) for n in (16, 32)]
        assert err[0] / err[1] >= 12.0

    @settings(max_examples=100, deadline=None)
    @given(sphere_shot())
    def test_sphere_great_circle_property(self, shot):
        # the geodesic from x with velocity v is cos(t|v|) x + sin(t|v|) v/|v|
        x, v = shot
        speed = np.linalg.norm(v)
        path = pg.ivp_shoot(x, v, hilbert_geometry.sphere_oracle(x.size), 64)
        target = np.cos(speed) * x + np.sin(speed) * v / speed
        assert np.linalg.norm(path.points[-1] - target) < 1e-6

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
        oracle = pg.euclidean_oracle(2, weight=np.array([1.0, 1e-14]))
        with pytest.raises(SingularGram):
            pg.ivp_shoot(np.zeros(2), np.ones(2), oracle, 4)

    @pytest.mark.parametrize("n_steps", [0, -1, 2.5])
    def test_n_steps_must_be_a_positive_integer(self, n_steps):
        with pytest.raises(ValueError, match=f"n_steps = {n_steps}"):
            pg.ivp_shoot(np.zeros(2), np.ones(2), pg.euclidean_oracle(2), n_steps)


class TestSingularGram:
    """Where the metric is too ill-conditioned for a shot to be trusted, and just short of it."""

    def test_sphere_near_the_origin(self):
        # the Gram is 1/r^2 across x and 1 along it: cond 1e14 at r = 1e-7
        with pytest.raises(SingularGram):
            pg.ivp_shoot(np.array([1e-7, 0.0, 0.0]), np.array([0.0, 1e-7, 0.0]),
                         hilbert_geometry.sphere_oracle(3), 64)

    def test_sphere_below_the_limit(self):
        # cond 1e10 at r = 1e-5; the geodesic circles at radius r at unit angular speed
        r = 1e-5
        path = pg.ivp_shoot(np.array([r, 0.0, 0.0]), np.array([0.0, r, 0.0]),
                            hilbert_geometry.sphere_oracle(3), 64)
        t = path.times
        circle = r * np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        assert np.max(np.abs(path.points - circle)) < 1e-6 * r

    @pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
    def test_landmark_gate_at_its_boundary(self, factor, raises):
        # a Gaussian (sigma = 1) pair r apart on the line has K = [[1, k], [k, 1]],
        # k = exp(-r^2 / 2), so cond K = (1 + k) / (1 - k)
        cond = factor * pg.COND_LIMIT
        r = np.sqrt(-2.0 * np.log1p(-2.0 / (cond + 1.0)))
        oracle = km.landmark_metric_oracle(km.gaussian_kernel(1.0), 1, 2)
        x, v = np.array([0.0, r]), np.array([1.0, -1.0])
        if raises:
            with pytest.raises(SingularGram,
                               match=r"^metric Gram condition number 2\.\d{3}e\+12 > 1e\+12$"):
                pg.geodesic_acceleration(x, v, oracle)
        else:
            assert np.isfinite(pg.geodesic_acceleration(x, v, oracle)).all()

    def test_nearly_coincident_landmarks(self):
        # two Gaussian landmarks 1e-6 apart: K has eigenvalues 2 and 5e-13, cond 4e12
        oracle = km.landmark_metric_oracle(km.gaussian_kernel(1.0), 2, 2)
        x = np.array([0.0, 0.0, 1e-6, 0.0])
        with pytest.raises(SingularGram):
            pg.ivp_shoot(x, np.array([1.0, 0.0, -1.0, 0.0]), oracle, 4)


class TestLandmarkShooting:
    """Geodesic shooting on Gaussian kernel landmarks."""

    @staticmethod
    def _eight_gaussian_landmarks():
        """Eight planar landmarks on a jittered 4 x 2 grid of unit spacing and a velocity."""
        rng = np.random.default_rng(7)
        sites = np.array([[i, j] for i in range(4) for j in range(2)], dtype=float)
        x0 = (sites + rng.uniform(-0.2, 0.2, size=sites.shape)).reshape(-1)
        oracle = km.landmark_metric_oracle(km.gaussian_kernel(1.0), 2, 8)
        return oracle, x0, 0.5 * rng.normal(size=x0.shape)

    def test_bvp_ivp_consistency(self):
        """The pair of ``shapegeo landmark-geodesic`` at its defaults, shot from its BVP."""
        oracle = km.landmark_metric_oracle(km.gaussian_kernel(1.0), 1, 2)
        a, b = np.array([-2.0, 2.0]), np.array([-1.0, 3.0])
        opts = pg.SolverOptions(tol=1e-6, max_iter=20000)
        path, report = pg.bvp_minimize(a, b, oracle, init=pg.Path.linear(a, b, 16), opts=opts)
        assert report.converged
        # second-order one-sided estimate of the initial velocity
        p0, p1, p2 = path.points[0], path.points[1], path.points[2]
        v0 = (4.0 * p1 - 3.0 * p0 - p2) * (path.n_steps / 2.0)
        shot = pg.ivp_shoot(a, v0, oracle, 256)
        assert np.linalg.norm(shot.points[-1] - b) < 1e-3

    def test_hamiltonian_is_conserved(self):
        """H = 1/2 <xi, sharp(x, xi)> stays at its start along an N = 8 Gaussian shot.

        xi at each interior point is metric_rows of the velocity from a fourth-order
        central difference of the shot's points.
        """
        oracle, x0, v0 = self._eight_gaussian_landmarks()
        n_steps = 128
        pts = pg.ivp_shoot(x0, v0, oracle, n_steps).points
        vels = (pts[:-4] - 8.0 * pts[1:-3] + 8.0 * pts[3:-1] - pts[4:]) * (n_steps / 12.0)
        start = hamiltonian(oracle, x0, oracle.metric_rows(x0, v0))
        along = hamiltonian(oracle, pts[2:-2], oracle.metric_rows(pts[2:-2], vels))
        assert np.max(np.abs(along - start)) < 1e-6 * start

    def test_fourth_order(self):
        """Halving the step divides the endpoint error by at least 12 (2^4 = 16 for RK4)."""
        oracle, x0, v0 = self._eight_gaussian_landmarks()
        reference = pg.ivp_shoot(x0, v0, oracle, 1024).points[-1]
        err = [np.linalg.norm(pg.ivp_shoot(x0, v0, oracle, n).points[-1] - reference)
               for n in (16, 32)]
        assert err[0] / err[1] >= 12.0

    def test_one_solve_per_stage(self, monkeypatch):
        """Each RK4 stage solves once, for its momentum xi = metric_rows(x, v)."""
        solves = []

        def counted(gram, rhs):
            solves.append(rhs.shape)
            return solve(gram, rhs)

        solve = km._solve
        monkeypatch.setattr(km, "_solve", counted)
        oracle, x0, v0 = self._eight_gaussian_landmarks()
        pg.ivp_shoot(x0, v0, oracle, 3)
        assert solves == [(8, 2)] * 4 * 3

    def test_energy_gradient_solves_once(self, monkeypatch):
        """A landmark energy gradient solves once, for the momenta of all its midpoints."""
        solves = []

        def counted(gram, rhs):
            solves.append(rhs.shape)
            return solve(gram, rhs)

        solve = km._solve
        monkeypatch.setattr(km, "_solve", counted)
        oracle, x0, v0 = self._eight_gaussian_landmarks()
        pg.energy_gradient(pg.Path.linear(x0, x0 + 0.3 * v0, 5), oracle)
        assert solves == [(5, 8, 2)]

    def test_kernel_gradient_once_per_state(self, monkeypatch):
        """An acceleration builds the kernel gradient once for its two readers; an energy never."""
        built = []

        def counted(state):
            built.append(state.diff.shape)
            return kernel_gradient(state)

        kernel_gradient = km._kernel_gradient
        monkeypatch.setattr(km, "_kernel_gradient", counted)
        oracle, x0, v0 = self._eight_gaussian_landmarks()
        pg.geodesic_acceleration(x0, v0, oracle)
        assert built == [(8, 8, 2)]
        pg.path_energy(pg.Path.linear(x0, x0 + 0.3 * v0, 5), oracle)
        assert built == [(8, 8, 2)]

    def test_bvp_stops_on_tol(self):
        """The N = 8 solve meets the default tol 1e-8 in at most 150 L-BFGS iterations."""
        oracle, x0, v0 = self._eight_gaussian_landmarks()
        a, b = x0, x0 + 0.5 * v0
        _, report = pg.bvp_minimize(a, b, oracle, init=pg.Path.linear(a, b, 16))
        assert report.reason == "tol"
        assert report.iterations <= 150
        # every iteration but the last accepts one trial
        assert report.energy_evals == 1 + (report.iterations - 1) + report.backtracks


class TestDistance:
    def test_zero_distance_to_self(self):
        oracle = pg.euclidean_oracle(2)
        x = np.array([0.3, -0.7])
        assert pg.bvp_minimize(x, x, oracle, init=pg.Path.linear(x, x, 4))[1].length < 1e-12

    def test_symmetric_on_sphere(self):
        rng = np.random.default_rng(5)
        m = 6
        oracle = hilbert_geometry.sphere_oracle(m)
        opts = pg.SolverOptions(tol=1e-6, max_iter=3000)
        x, y = sphere_point(rng, m), sphere_point(rng, m)

        def dist(a, b):
            init = pg.Path.linear(a, b, 32)
            pts = init.points / np.linalg.norm(init.points, axis=1, keepdims=True)
            return pg.bvp_minimize(a, b, oracle, init=pg.Path(pts), opts=opts)[1].length

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
            return pg.bvp_minimize(a, b, oracle, init=pg.Path(pts), opts=opts)[1].length

        assert dist(x, z) <= dist(x, y) + dist(y, z) + 1e-3


class TestPathContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            pg.Path(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            pg.Path(np.array([[0.0, np.inf], [1.0, 2.0]]))

    @pytest.mark.parametrize("n_steps", [0, -3, 4.0])
    def test_linear_needs_a_positive_integer_n_steps(self, n_steps):
        with pytest.raises(ValueError, match=f"n_steps = {n_steps}"):
            pg.Path.linear(np.zeros(2), np.ones(2), n_steps)


class TestSolverOptions:
    @pytest.mark.parametrize("field, value", [
        ("tol", -1.0), ("tol", np.inf), ("tol", np.nan),
        ("max_iter", -5), ("max_iter", 2.5),
    ])
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} = "):
            pg.SolverOptions(**{field: value})

    def test_zero_budget_and_tolerance_accepted(self):
        opts = pg.SolverOptions(tol=0.0, max_iter=0)
        assert (opts.tol, opts.max_iter) == (0.0, 0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            pg.SolverOptions().max_iter = -1


class TestVanishingDistanceSetup:
    def test_flat_control_stops_on_tol_at_the_flat_distance(self):
        """The flat energy is a quadratic minimized by the straight translation."""
        opts = pg.SolverOptions(tol=1e-6, max_iter=5)
        rows = pg.vanishing_distance_experiment(levels=3, base_samples=16, base_steps=4,
                                                control=True, opts=opts)
        for _, length, report in rows:
            assert report.reason == "tol"
            assert abs(length - 0.5 * np.sqrt(2 * np.pi)) < 1e-12

    def test_benchmark_budget_keeps_the_vanishing_gate(self):
        """At the benchmark's budget the L^2 lengths fall strictly in k and the
        flat control stays pinned, as the curve-l2 workload checks."""
        opts = pg.SolverOptions(tol=1e-6, max_iter=300)
        l2 = [r[1] for r in pg.vanishing_distance_experiment(levels=3, opts=opts)]
        flat = [r[1] for r in pg.vanishing_distance_experiment(levels=3, control=True, opts=opts)]
        assert all(a > b for a, b in zip(l2, l2[1:])), l2
        assert max(flat) - min(flat) <= 1e-9

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            pg.vanishing_distance_experiment(levels=2)

    def test_flat_oracle_distance_is_resolution_independent(self):
        for n in (16, 32, 64):
            oracle = pg.euclidean_oracle(2 * n, weight=2 * np.pi / n)
            nodes = 2 * np.pi * np.arange(n) / n
            a = np.stack([np.cos(nodes), np.sin(nodes)]).reshape(-1)
            b = a.copy()
            b[:n] += 0.5
            line = pg.Path.linear(a, b, 8)
            expect = np.sqrt(2 * np.pi) * 0.5
            assert abs(pg.path_length(line, oracle) - expect) < 1e-12
