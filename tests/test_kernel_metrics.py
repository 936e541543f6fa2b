"""RKHS kernels and the induced landmark metric."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapegeo import kernel_metrics as km
from shapegeo import path_geodesics as pg
from shapegeo.errors import DegenerateConfig

KERNELS = {
    "gaussian": km.gaussian_kernel(1.0),
    "sobolev1": km.sobolev_kernel(1),
    "sobolev2": km.sobolev_kernel(2),
}


def random_config(rng, n, d, spread=3.0):
    while True:
        pts = rng.uniform(-spread, spread, size=(n, d))
        try:
            return km.LandmarkConfig(pts)
        except DegenerateConfig:
            continue


@st.composite
def spaced_oracle_inputs(draw):
    """Kernel, flattened configuration with separation >= 0.9, and l, h, k."""
    kernel = draw(st.sampled_from(sorted(KERNELS)))
    n, d = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    sites = draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=n, max_size=n, unique=True))
    jitter = draw(arrays(float, (n, d), elements=st.floats(-0.3, 0.3)))
    x = (1.5 * np.array(sites, dtype=float) + jitter).reshape(-1)
    l, h, k = (draw(arrays(float, n * d, elements=st.floats(-2.0, 2.0))) for _ in range(3))
    return km.landmark_metric_oracle(KERNELS[kernel], d, n), x, l, h, k


class TestKernels:
    def test_gaussian_at_zero(self):
        assert km.gaussian_kernel(2.0).at_zero() == 1.0

    def test_sobolev_greens_functions(self):
        assert abs(km.sobolev_kernel(1).profile(0.0) - 0.5) < 1e-15
        assert abs(km.sobolev_kernel(2).profile(0.0) - 0.25) < 1e-15
        r = 1.3
        assert abs(km.sobolev_kernel(1).profile(r) - 0.5 * np.exp(-r)) < 1e-15
        assert abs(
            km.sobolev_kernel(2).profile(r) - 0.25 * (1 + r) * np.exp(-r)
        ) < 1e-15

    def test_invalid_kernels_rejected(self):
        with pytest.raises(ValueError):
            km.Kernel(kind="matern")
        with pytest.raises(ValueError):
            km.sobolev_kernel(3)
        with pytest.raises(ValueError):
            km.gaussian_kernel(-1.0)


class TestGram:
    def test_spd_over_many_random_configs(self):
        rng = np.random.default_rng(0)
        kernels = [km.gaussian_kernel(1.0), km.sobolev_kernel(1), km.sobolev_kernel(2)]
        min_eig = np.inf
        for i in range(300):
            kernel = kernels[i % 3]
            cfg = random_config(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            # the block Gram K ⊗ I_d has the scalar Gram's spectrum
            gram = kernel(cfg.points[:, None, :], cfg.points[None, :, :])
            assert np.max(np.abs(gram - gram.T)) < 1e-14
            w = np.linalg.eigvalsh(gram)  # independent eigensolve oracle
            assert w.min() > 0
            min_eig = min(min_eig, w.min())
        assert min_eig > 0

    def test_degenerate_config_rejected(self):
        with pytest.raises(DegenerateConfig):
            km.LandmarkConfig(np.array([[0.0, 0.0], [0.0, 1e-9]]))


class TestLiftAndMetric:
    def test_lift_interpolates(self):
        """The field z -> sum_b k(z, x_b) p_b of the momenta p = K^{-1} h takes the value h at x."""
        rng = np.random.default_rng(1)
        kernel = km.sobolev_kernel(2)
        cfg = random_config(rng, 4, 2)
        h = rng.normal(size=(4, 2))
        oracle = km.landmark_metric_oracle(kernel, 2, 4)
        p = oracle.metric_rows(cfg.points.reshape(-1), h.reshape(-1)).reshape(4, 2)
        field = kernel(cfg.points[:, None, :], cfg.points[None, :, :]) @ p
        assert np.max(np.abs(field - h)) < 1e-10

    def test_metric_is_rkhs_norm_of_lift(self):
        rng = np.random.default_rng(2)
        kernel = km.gaussian_kernel(1.5)
        cfg = random_config(rng, 5, 2)
        h = rng.normal(size=(5, 2))
        oracle = km.landmark_metric_oracle(kernel, 2, 5)
        p = oracle.metric_rows(cfg.points.reshape(-1), h.reshape(-1)).reshape(5, 2)  # K^{-1} h
        a = km.induced_metric(kernel, cfg, h)
        b = np.sum(p * (kernel(cfg.points[:, None, :], cfg.points[None, :, :]) @ p))  # p^T K_q p
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_constrained_qp_realizes_the_infimum(self):
        rng = np.random.default_rng(3)
        for kernel in (km.gaussian_kernel(1.0), km.sobolev_kernel(1)):
            cfg = random_config(rng, 4, 2)
            h = rng.normal(size=(4, 2))
            extra = rng.uniform(-4, 4, size=(5, 2))
            direct = km.induced_metric(kernel, cfg, h)
            qp = km.constrained_infimum(kernel, cfg, h, extra)
            assert abs(direct - qp) < 1e-8 * max(1.0, abs(direct))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        kernel = km.gaussian_kernel(1.0)
        cfg = random_config(rng, 5, 2)
        h = rng.normal(size=(5, 2))
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        shift = np.array([2.0, -1.0])
        moved = km.LandmarkConfig(cfg.points @ rot.T + shift)
        a = km.induced_metric(kernel, cfg, h)
        b = km.induced_metric(kernel, moved, h @ rot.T)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_admissibility_bound(self):
        rng = np.random.default_rng(6)
        for kernel in (km.gaussian_kernel(0.7), km.sobolev_kernel(2)):
            for _ in range(50):
                cfg = random_config(rng, int(rng.integers(2, 6)), 2)
                h = rng.normal(size=(cfg.n_points, 2))
                lhs, rhs = km.admissibility_bound_check(kernel, cfg, h)
                assert lhs <= rhs + 1e-10

    def test_merging_landmarks_blow_up(self):
        kernel = km.gaussian_kernel(1.0)
        h = np.array([[1.0], [-1.0]])
        prev = None
        for eps in 2.0 ** -np.arange(0, 8):
            cfg = km.LandmarkConfig(np.array([[0.0], [eps]]))
            val = km.induced_metric(kernel, cfg, h)
            if prev is not None:
                assert val > prev
            prev = val


@st.composite
def landmark_stacks(draw):
    """Configurations (..., N, d), 1 <= N <= 5, whose points may lie within MIN_SEPARATION."""
    lead = draw(st.sampled_from([(), (3,), (2, 2)]))
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    coords = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 5e-9, 1e-8, 1.5e-8, 1.0]))
    return draw(arrays(float, lead + (n, d), elements=coords))


class TestPairwise:
    @settings(max_examples=200, deadline=None)
    @given(landmark_stacks())
    @example(np.ones((4, 1, 3)))  # one landmark per configuration
    @example(np.array([[0.0], [km.MIN_SEPARATION], [1.0]]))  # the bound itself is degenerate
    def test_distances_and_separation(self, pts):
        """Distances equal np.linalg.norm's bit for bit; DegenerateConfig exactly when the
        smallest off-diagonal distance is <= MIN_SEPARATION."""
        diff = pts[..., :, None, :] - pts[..., None, :, :]
        norm = np.linalg.norm(diff, axis=-1)
        off_diagonal = norm[..., ~np.eye(pts.shape[-2], dtype=bool)]
        if off_diagonal.size and off_diagonal.min() <= km.MIN_SEPARATION:
            with pytest.raises(DegenerateConfig):
                km._pairwise(pts)
        else:
            got_diff, dist = km._pairwise(pts)
            assert got_diff.tobytes() == diff.tobytes()
            assert dist.tobytes() == norm.tobytes()


class TestLandmarkOracle:
    def test_variation_matches_fd(self):
        rng = np.random.default_rng(7)
        for kernel in (km.gaussian_kernel(1.0), km.sobolev_kernel(2)):
            oracle = km.landmark_metric_oracle(kernel, 2, 4)
            x = random_config(rng, 4, 2).points.reshape(-1)
            l, h, k = (rng.normal(size=8) for _ in range(3))
            eps = 1e-6
            fd = (oracle.G(x + eps * l, h, k) - oracle.G(x - eps * l, h, k)) / (2 * eps)
            assert abs(oracle.variation(x, l, h, k) - fd) < 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
    def test_rows_consistent(self, kernel):
        rng = np.random.default_rng(8)
        oracle = km.landmark_metric_oracle(kernel, 2, 3)
        x = random_config(rng, 3, 2).points.reshape(-1)
        h, k = rng.normal(size=6), rng.normal(size=6)
        eye = np.eye(6)
        rows = oracle.metric_rows(x, h)
        assert np.max(np.abs(rows - [oracle.G(x, h, e) for e in eye])) < 1e-12
        vrows = oracle.variation_rows(x, h, k)
        assert np.max(np.abs(vrows - [oracle.variation(x, e, h, k) for e in eye])) < 1e-11

    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
    def test_variation_rows_same_tangent_twice(self, kernel):
        """Passing h as both tangents equals passing an equal copy, bit for bit."""
        rng = np.random.default_rng(15)
        oracle = km.landmark_metric_oracle(kernel, 2, 4)
        for x in (random_config(rng, 4, 2).points.reshape(-1),
                  np.stack([random_config(rng, 4, 2).points.reshape(-1) for _ in range(3)])):
            h = rng.normal(size=x.shape)
            once = oracle.variation_rows(x, h, h)
            assert np.array_equal(once, oracle.variation_rows(x, h, h.copy()))

    @settings(max_examples=60, deadline=None)
    @given(spaced_oracle_inputs())
    def test_metric_and_variation_contract_their_rows(self, inputs):
        oracle, x, l, h, k = inputs
        rows = oracle.metric_rows(x, k)
        g = oracle.G(x, h, k)
        assert abs(g - h @ rows) <= 1e-12 * max(1.0, np.abs(h) @ np.abs(rows))
        vrows = oracle.variation_rows(x, h, k)
        dg = oracle.variation(x, l, h, k)
        assert abs(dg - l @ vrows) <= 1e-12 * max(1.0, np.abs(l) @ np.abs(vrows))

    @pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
    @pytest.mark.parametrize("n, d", [(1, 2), (2, 1), (5, 3)])
    def test_metric_rows_match_dense_inverse(self, kernel, n, d):
        """K^{-1} ⊗ I_d applied to h, from a dense inverse, for a stack of 3 configurations."""
        rng = np.random.default_rng(11)
        oracle = km.landmark_metric_oracle(kernel, d, n)
        sites = [rng.permutation(5**d)[:n] for _ in range(3)]
        grid = np.stack(np.meshgrid(*[np.arange(5.0)] * d, indexing="ij"), axis=-1).reshape(-1, d)
        pts = np.stack([1.5 * grid[s] + rng.uniform(-0.3, 0.3, size=(n, d)) for s in sites])
        x, h = pts.reshape(3, n * d), rng.normal(size=(3, n * d))
        rows = oracle.metric_rows(x, h)
        for row, p, hh in zip(rows, pts, h):
            gram = kernel(p[:, None, :], p[None, :, :])
            expect = np.kron(np.linalg.inv(gram), np.eye(d)) @ hh
            assert np.linalg.norm(row - expect) <= 1e-12 * np.linalg.norm(expect)

    @settings(max_examples=60, deadline=None)
    @given(spaced_oracle_inputs())
    def test_condition_read_equals_abs_max_min(self, inputs):
        """sharp's condition number is the abs / max / min eigenvalue ratio, bit for bit."""
        oracle, x, _, h, _ = inputs
        # a stack of two configurations, the second spread further apart
        x = np.stack([x, 1.5 * x])
        read = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(km, "_check_condition", read.append)
            oracle.sharp(x, h)
        eig = np.abs(np.linalg.eigvalsh(oracle.at(x).gram))
        assert read == [(eig.max(axis=-1) / eig.min(axis=-1)).max()]

    def test_degenerate_row_in_batch_rejected(self):
        rng = np.random.default_rng(10)
        oracle = km.landmark_metric_oracle(km.gaussian_kernel(1.0), 2, 3)
        x = np.stack([random_config(rng, 3, 2).points.reshape(-1) for _ in range(4)])
        x[2, 2:4] = x[2, 0:2]  # row 2: landmark 1 on top of landmark 0
        h = rng.normal(size=x.shape)
        calls = [
            lambda: oracle.metric(x, h, h),
            lambda: oracle.variation(x, h, h, h),
            lambda: oracle.metric_rows(x, h),
            lambda: oracle.variation_rows(x, h, h),
        ]
        for call in calls:
            with pytest.raises(DegenerateConfig):
                call()

    def test_two_landmark_geodesic_and_permutation(self):
        kernel = km.gaussian_kernel(1.0)
        oracle = km.landmark_metric_oracle(kernel, 1, 2)
        opts = pg.SolverOptions(tol=1e-7, max_iter=20000)
        a = np.array([-2.0, 2.0])
        b = np.array([-1.0, 3.0])
        path, report = pg.bvp_minimize(a, b, oracle, init=pg.Path.linear(a, b, 16), opts=opts)
        assert report.converged
        d_ab = pg.path_length(path, oracle)
        path2, report2 = pg.bvp_minimize(
            a[::-1].copy(), b[::-1].copy(), oracle,
            init=pg.Path.linear(a[::-1], b[::-1], 16), opts=opts,
        )
        assert abs(d_ab - pg.path_length(path2, oracle)) < 1e-8
        # far-separated landmarks barely interact: length close to flat motion
        flat = np.sqrt(np.sum((b - a) ** 2))
        assert d_ab > 0
        assert abs(d_ab - flat) < 0.2 * flat
