"""Sphere distances, the sphere metric oracle, and the ellipsoid squeeze."""

import numpy as np
import pytest

from shapegeo import hilbert_geometry as hg
from shapegeo.errors import NonConvergence


def gauss_legendre_length_oracle(a_n, order=60):
    """Independent fixed-order Gauss-Legendre quadrature of the arc length."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)
    integrand = np.pi * np.sqrt(np.sin(np.pi * t) ** 2 + a_n**2 * np.cos(np.pi * t) ** 2)
    return 0.5 * float(np.sum(weights * integrand))


class TestCharts:
    def test_rejects_off_sphere_points(self):
        with pytest.raises(ValueError):
            hg.sphere_distance_analytic(np.array([2.0, 0.0]), np.array([1.0, 0.0]))

    def test_analytic_distance(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        assert abs(hg.sphere_distance_analytic(e0, e1) - np.pi / 2) < 1e-14


class TestSphereOracle:
    def test_restricts_to_ambient_inner_product_on_sphere(self):
        rng = np.random.default_rng(1)
        oracle = hg.sphere_oracle(6)
        x = rng.normal(size=6)
        x /= np.linalg.norm(x)
        h = rng.normal(size=6)
        k = rng.normal(size=6)
        assert abs(oracle.G(x, h, k) - np.dot(h, k)) < 1e-12

    def test_variation_matches_fd(self):
        rng = np.random.default_rng(2)
        oracle = hg.sphere_oracle(5)
        x = rng.normal(size=5)
        x /= np.linalg.norm(x)
        l, h, k = (rng.normal(size=5) for _ in range(3))
        eps = 1e-6
        fd = (oracle.G(x + eps * l, h, k) - oracle.G(x - eps * l, h, k)) / (2 * eps)
        assert abs(oracle.DG(x, l, h, k) - fd) < 1e-7

    def test_rows_consistent(self):
        rng = np.random.default_rng(3)
        oracle = hg.sphere_oracle(5)
        x = rng.normal(size=5)
        h, k = rng.normal(size=5), rng.normal(size=5)
        eye = np.eye(5)
        rows = oracle.metric_rows(x, h)
        assert np.max(np.abs(rows - [oracle.G(x, h, e) for e in eye])) < 1e-12
        vrows = oracle.variation_rows(x, h, k)
        assert np.max(np.abs(vrows - [oracle.DG(x, e, h, k) for e in eye])) < 1e-12

    def test_gram_matches_metric(self):
        rng = np.random.default_rng(4)
        oracle = hg.sphere_oracle(4)
        x = rng.normal(size=4)
        gram = oracle.gram(x)
        eye = np.eye(4)
        direct = np.array([[oracle.G(x, a, b) for b in eye] for a in eye])
        assert np.max(np.abs(gram - direct)) < 1e-12


class TestEllipsoid:
    def test_semi_axes(self):
        spec = hg.EllipsoidSpec(m=6)
        assert np.allclose(spec.semi_axes, [1, 1.5, 1.25, 1.125, 1.0625, 1.03125])

    def test_grossman_lengths_against_independent_oracle(self):
        spec = hg.EllipsoidSpec(m=24)
        table = hg.grossman_experiment(spec, range(1, 21))
        for n, length, bound in table:
            oracle = gauss_legendre_length_oracle(spec.semi_axes[n])
            assert abs(length - oracle) < 1e-12
            assert np.pi < length <= bound
        lengths = [row[1] for row in table]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_grossman_rejects_bad_index(self):
        spec = hg.EllipsoidSpec(m=4)
        with pytest.raises(ValueError):
            hg.grossman_experiment(spec, [4])

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_grossman_quadrature_budget(self, monkeypatch):
        # 1e-17 is below double-precision roundoff, so quad's error estimate cannot meet it
        monkeypatch.setattr(hg, "QUAD_TOL", 1e-17)
        with pytest.raises(NonConvergence, match="QUAD_TOL"):
            hg.grossman_experiment(hg.EllipsoidSpec(), [5])
