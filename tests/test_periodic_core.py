"""Spectral core: transforms, derivatives, Sobolev pairings."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegeo import diffeo_flows
from shapegeo import periodic_core as pc


def random_bandlimited(rng, n, max_mode, dim=1):
    """Real band-limited function with modes up to max_mode."""
    coeffs = np.zeros((dim, n), dtype=complex)
    for i in range(dim):
        coeffs[i, 0] = rng.normal()
        for k in rng.integers(1, max_mode + 1, size=4):
            a = rng.normal() + 1j * rng.normal()
            coeffs[i, k] += a
            coeffs[i, -k] += np.conj(a)
    return pc.inverse_transform(pc.SpectralCoeffs(pc.PeriodicGrid(n), coeffs))


def dft_oracle(values, n):
    """Direct O(n^2) summation oracle for the forward transform."""
    theta = 2.0 * np.pi * np.arange(n) / n
    k = np.concatenate([np.arange(0, n // 2 + 1), np.arange(-n // 2 + 1, 0)])
    k = np.fft.fftfreq(n, d=1.0 / n)  # standard FFT ordering
    out = np.zeros((values.shape[0], n), dtype=complex)
    for i in range(values.shape[0]):
        for j, kk in enumerate(k):
            out[i, j] = np.sum(values[i] * np.exp(-1j * kk * theta)) / n
    return out


class TestGridAndTransform:
    def test_grid_rejects_non_power_of_two(self):
        for bad in (0, 3, 6, 100):
            with pytest.raises(ValueError):
                pc.PeriodicGrid(bad)

    def test_nodes_uniform(self):
        g = pc.PeriodicGrid(8)
        assert np.allclose(g.nodes, 2 * np.pi * np.arange(8) / 8)
        assert np.all(np.diff(g.nodes) > 0)

    def test_constant_coefficients(self):
        f = pc.PeriodicFunction.from_callable(lambda t: np.ones_like(t), 16)
        c = pc.transform(f)
        assert abs(c.coeffs[0, 0] - 1.0) < 1e-14
        assert np.max(np.abs(c.coeffs[0, 1:])) < 1e-14

    def test_cosine_coefficients(self):
        f = pc.PeriodicFunction.from_callable(np.cos, 16)
        c = pc.transform(f)
        assert abs(c.coeffs[0, 1] - 0.5) < 1e-14
        assert abs(c.coeffs[0, -1] - 0.5) < 1e-14

    def test_transform_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        f = random_bandlimited(rng, 32, 8, dim=2)
        ours = pc.transform(f).coeffs
        oracle = dft_oracle(f.values, 32)
        assert np.max(np.abs(ours - oracle)) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        f = random_bandlimited(rng, 64, 16, dim=3)
        back = pc.inverse_transform(pc.transform(f))
        rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        f = pc.PeriodicFunction(pc.PeriodicGrid(32), rng.normal(size=(1, 32)))
        c = pc.transform(f).coeffs[0]
        for k in range(1, 16):
            assert abs(c[k] - np.conj(c[-k])) < 1e-13


def direct_spectral_sum(coeffs, theta):
    """Re sum_k c_k exp(ik theta) over the fft wavenumbers, one mode at a time, the
    Nyquist coefficient split evenly between +n/2 and -n/2."""
    n = coeffs.shape[-1]
    split = coeffs.copy()
    split[..., n // 2] *= 0.5
    out = np.zeros(coeffs.shape[:-1] + theta.shape)
    for j, k in zip([*range(n), n // 2], [*pc.PeriodicGrid(n).wavenumbers, -(n // 2)]):
        out += np.multiply.outer(split[..., j], np.exp(1j * k * theta)).real
    return out


@st.composite
def spectral_cases(draw):
    """Coefficients (d, n) and lifted angles in [-4pi, 4pi] of shape (), (P,) or (2, P)."""
    d = draw(st.integers(1, 3))
    n = 2 ** draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["hermitian", "general", "sparse", "nyquist", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
    if kind == "hermitian":
        coeffs = np.fft.fft(rng.normal(size=(d, n)), axis=-1) / n
    elif kind == "sparse":
        coeffs[rng.random(size=(d, n)) < 0.8] = 0.0
    elif kind == "nyquist":
        coeffs[:, np.arange(n) != n // 2] = 0.0
    elif kind == "zero":
        coeffs[:] = 0.0
    points = draw(st.integers(1, 40))
    shape = draw(st.sampled_from([(), (points,), (2, points)]))
    theta = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, size=shape)
    return pc.SpectralCoeffs(pc.PeriodicGrid(n), coeffs), theta


class TestEvaluateSpectral:
    @settings(max_examples=200, deadline=None)
    @given(spectral_cases())
    def test_matches_direct_sum(self, case):
        c, theta = case
        got = pc.evaluate_spectral(c, theta)
        expect = direct_spectral_sum(c.coeffs, theta)
        assert got.shape == c.coeffs.shape[:-1] + theta.shape
        scale = np.sum(np.abs(c.coeffs), axis=-1).reshape((-1,) + (1,) * theta.ndim)
        assert np.all(np.abs(got - expect) <= 1e-12 * scale)

    def test_interpolation_exact_on_nodes(self):
        rng = np.random.default_rng(3)
        f = random_bandlimited(rng, 32, 8)
        vals = pc.evaluate_spectral(pc.transform(f), f.grid.nodes)
        assert np.max(np.abs(vals - f.values)) < 1e-12

    def test_interpolation_off_grid(self):
        f = pc.PeriodicFunction.from_callable(
            lambda t: np.sin(3 * t) + 0.2 * np.cos(5 * t), 64
        )
        theta = np.random.default_rng(4).uniform(0, 2 * np.pi, 50)
        vals = pc.evaluate_spectral(pc.transform(f), theta)[0]
        assert np.max(np.abs(vals - (np.sin(3 * theta) + 0.2 * np.cos(5 * theta)))) < 1e-12

    def test_compress_preserves_interpolant(self):
        f = pc.PeriodicFunction.from_callable(lambda t: np.exp(np.cos(t)), 128)
        theta = np.linspace(0, 2 * np.pi, 17)
        full = pc.evaluate_spectral(pc.transform(f), theta)
        trimmed = pc.evaluate_spectral(pc.compress(pc.transform(f)), theta)
        assert np.max(np.abs(full - trimmed)) < 1e-12


def paterson_stockmeyer_sum(c, theta):
    """evaluate_spectral with no kept plan: the fold, the zero-padded (rows, B, M)
    table of d_{bM+a} and the sum over b of (z^M)^b p_b(z), all redone from the
    coefficients on every call."""
    theta = np.asarray(theta, dtype=float)
    n = c.grid.n_samples
    coeffs = c.coeffs.reshape(-1, n)
    folded = coeffs[:, : n // 2 + 1].astype(complex)
    folded[:, 1 : n // 2] += np.conj(coeffs[:, : n // 2 : -1])
    folded[:, n // 2] = coeffs[:, n // 2].real
    modes = np.flatnonzero(np.any(folded != 0.0, axis=0))
    k_max = int(modes[-1]) if modes.size else 0
    m = math.isqrt(k_max) + 1
    table = np.zeros((folded.shape[0], k_max // m + 1, m), dtype=complex)
    for k in range(k_max + 1):
        table[:, k // m, k % m] = folded[:, k]

    def powers(w, count):
        table = np.empty((count,) + w.shape, dtype=complex)
        table[0] = 1.0
        for a in range(1, count):
            table[a] = table[a - 1] * w
        return table

    z = np.exp(1j * theta).reshape(-1)
    baby = powers(z, m)
    giant = powers(baby[-1] * z, k_max // m + 1)
    inner = table @ baby
    inner *= giant
    return inner.sum(axis=-2).reshape(c.coeffs.shape[:-1] + theta.shape).real.copy()


@st.composite
def plan_cases(draw):
    """Coefficients of leading shape (), (1,), (2,) or (3, 2), and two angle arrays
    of different shapes among (), (P,) and (2, P)."""
    lead = draw(st.sampled_from([(), (1,), (2,), (3, 2)]))
    n = 2 ** draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["general", "sparse", "zero", "nyquist"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=lead + (n,)) + 1j * rng.normal(size=lead + (n,))
    if kind == "sparse":
        coeffs[rng.random(size=coeffs.shape) < 0.8] = 0.0
    elif kind == "zero":
        coeffs[:] = 0.0
    elif kind == "nyquist":
        coeffs[..., np.arange(n) != n // 2] = 0.0
    points = draw(st.integers(1, 300))
    first, second = draw(st.permutations([(), (points,), (2, points)]))[:2]
    thetas = [rng.uniform(-4.0 * np.pi, 4.0 * np.pi, size=shape) for shape in (first, second)]
    return pc.SpectralCoeffs(pc.PeriodicGrid(n), coeffs), thetas


class TestSpectralPlan:
    @settings(max_examples=200, deadline=None)
    @given(plan_cases())
    def test_kept_plan_is_bitwise_the_paterson_stockmeyer_sum(self, case):
        """The first call, a second call at the same angles and a third at angles of
        another shape all equal the formula that folds on every call, bit for bit."""
        c, (theta, other) = case
        expect = paterson_stockmeyer_sum(c, theta)
        first = pc.evaluate_spectral(c, theta)
        plan = c._plan
        assert plan is not None
        assert np.array_equal(first, expect) and first.shape == expect.shape
        assert np.array_equal(pc.evaluate_spectral(c, theta), expect)
        got = pc.evaluate_spectral(c, other)
        assert c._plan is plan
        assert np.array_equal(got, paterson_stockmeyer_sum(c, other))
        assert got.shape == c.coeffs.shape[:-1] + other.shape

    @settings(max_examples=200, deadline=None)
    @given(plan_cases())
    def test_matches_the_mode_by_mode_sum(self, case):
        """Within 2 (M + B)^2 eps (sum_k |d_k| + sum_k |c_k|) per row of the sum taken
        mode by mode: a first-order rounding bound, with u = eps / 2 and each complex
        product off by at most sqrt(5) u < 1.2 eps.  evaluate_spectral forms the term
        d_k z^k, k = bM + a, by a chain of about k + b + 1 < MB + B products and adds it
        in a length-M and a length-B sum: off by at most 1.2 (MB + 2B + M + 4) eps |d_k|.
        The reference rounds k theta, off by |k theta| u <= 2 pi MB eps for
        |theta| <= 4 pi and |k| <= k_max < MB, and adds at most 2 MB terms: off by at
        most 7.3 MB eps |c_k|.  Both fit, as 4 MB <= (M + B)^2 and M + B >= 3 once
        k_max >= 1; at k_max = 0 both sides are exact."""
        c, (theta, _) = case
        eps = np.finfo(float).eps
        n = c.grid.n_samples
        active = np.any(c.coeffs.reshape(-1, n) != 0.0, axis=0)
        k_max = int(np.max(np.abs(c.grid.wavenumbers)[active], initial=0))
        m = math.isqrt(k_max) + 1
        size = m + k_max // m + 1
        folded = np.abs(c.coeffs[..., : n // 2 + 1].astype(complex))
        folded[..., 1 : n // 2] = np.abs(c.coeffs[..., 1 : n // 2]
                                         + np.conj(c.coeffs[..., : n // 2 : -1]))
        folded[..., n // 2] = np.abs(c.coeffs[..., n // 2].real)
        bound = 2 * size**2 * eps * (folded.sum(axis=-1) + np.abs(c.coeffs).sum(axis=-1))
        err = np.abs(pc.evaluate_spectral(c, theta) - direct_spectral_sum(c.coeffs, theta))
        assert np.all(err <= bound.reshape(bound.shape + (1,) * theta.ndim))

    def test_scan_call_holds_no_phase_table(self):
        """One call at the PERIODIC_SCAN_SAMPLES + 1 points of isolated_periodic_points,
        on the fifth power of nonsurjectivity_candidate(5, 0.05) that it scans, peaks
        below (M + 3B) P complex entries: the baby table, the giant table and the B
        partial sums per point, with B P to spare, 2.95 MB at M = 12, B = 11.  A table
        of every active mode's phase at every point on top of them does not fit."""
        phi = diffeo_flows.nonsurjectivity_candidate(5, 0.05)
        power = phi
        for _ in range(4):
            power = diffeo_flows.compose(phi, power)
        c = power._disp_field._coeffs
        k_max = int(np.max(np.abs(c.grid.wavenumbers)[np.any(c.coeffs != 0.0, axis=0)]))
        m = math.isqrt(k_max) + 1
        giants = k_max // m + 1
        assert (m, giants) == (12, 11)
        x = np.linspace(0.0, 2.0 * np.pi, diffeo_flows.PERIODIC_SCAN_SAMPLES + 1)
        tracemalloc.start()
        try:
            pc.evaluate_spectral(c, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (m + 3 * giants) * x.size * np.dtype(complex).itemsize


class TestDerivative:
    def test_constant(self):
        f = pc.PeriodicFunction.from_callable(lambda t: np.ones_like(t), 16)
        assert np.max(np.abs(pc.derivative(f, 1).values)) < 1e-14

    def test_sin_to_cos(self):
        f = pc.PeriodicFunction.from_callable(np.sin, 64)
        d = pc.derivative(f, 1)
        assert np.max(np.abs(d.values[0] - np.cos(d.grid.nodes))) < 1e-12

    def test_second_derivative_vs_fd_oracle(self):
        # finite differences on a 4x finer grid
        n, fine = 64, 256
        f = pc.PeriodicFunction.from_callable(lambda t: np.cos(3 * t), n)
        d2 = pc.derivative(f, 2).values[0]
        nodes_fine = 2 * np.pi * np.arange(fine) / fine
        vals_fine = np.cos(3 * nodes_fine)
        h = 2 * np.pi / fine
        fd = (np.roll(vals_fine, -1) - 2 * vals_fine + np.roll(vals_fine, 1)) / h**2
        assert np.max(np.abs(d2 - fd[:: fine // n])) < 1e-2
        assert np.max(np.abs(d2 + 9 * np.cos(3 * f.grid.nodes))) < 1e-10

    def test_invalid_order(self):
        f = pc.PeriodicFunction.from_callable(np.sin, 16)
        with pytest.raises(ValueError):
            pc.derivative(f, 0)

    def test_skew_adjoint_against_l2(self):
        rng = np.random.default_rng(5)
        f = random_bandlimited(rng, 64, 12)
        g = random_bandlimited(rng, 64, 12)
        a = pc.sobolev_inner_product(pc.derivative(f, 1), g, 0)
        b = pc.sobolev_inner_product(f, pc.derivative(g, 1), 0)
        assert abs(a + b) < 1e-10


@st.composite
def nyquist_free_samples(draw):
    """Real samples (*lead, n) with random modes below Nyquist, n in 8..256."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n = draw(st.integers(8, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = rng.normal(size=lead + (n // 2 + 1,)) + 1j * rng.normal(size=lead + (n // 2 + 1,))
    if n % 2 == 0:
        spec[..., -1] = 0.0
    return np.fft.irfft(spec, n, axis=-1)


class TestDifferentiate:
    @settings(max_examples=60, deadline=None)
    @given(nyquist_free_samples(), st.sampled_from([-1, 1, 2, 3]))
    def test_batched_equals_row_by_row(self, v, order):
        got = pc.differentiate(v, order)
        rows = v.reshape(-1, v.shape[-1])
        expect = np.stack([pc.differentiate(r, order) for r in rows]).reshape(v.shape)
        assert got.shape == v.shape
        assert np.max(np.abs(got - expect)) <= 1e-14 * max(1.0, np.max(np.abs(expect)))

    @settings(max_examples=60, deadline=None)
    @given(nyquist_free_samples())
    def test_antiderivative_inverts_derivative_on_mean_free_part(self, v):
        back = pc.differentiate(pc.differentiate(v, -1), 1)
        assert np.max(np.abs(back - (v - v.mean(axis=-1, keepdims=True)))) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(nyquist_free_samples(), st.integers(0, 2**32 - 1))
    def test_skew_adjoint(self, v, seed):
        u = np.random.default_rng(seed).normal(size=v.shape)
        uv, du = u * pc.differentiate(v), pc.differentiate(u) * v
        assert abs(np.sum(uv) + np.sum(du)) <= 1e-12 * (np.sum(np.abs(uv)) + np.sum(np.abs(du)))

    def test_invalid_order(self):
        for order in (0, 1.5):
            with pytest.raises(ValueError):
                pc.differentiate(np.ones(8), order)


class TestSobolevPairings:
    def test_constant_all_orders(self):
        one = pc.PeriodicFunction.from_callable(lambda t: np.ones_like(t), 32)
        for q in (0, 0.5, 1, 2, 3):
            assert abs(pc.sobolev_inner_product(one, one, q) - 1.0) < 1e-13

    def test_sin_closed_form(self):
        sin = pc.PeriodicFunction.from_callable(np.sin, 64)
        for q in (0, 1, 2, 3):
            assert abs(pc.sobolev_inner_product(sin, sin, q) - 2.0 ** (q - 1)) < 1e-12

    def test_sin_cos_orthogonal(self):
        sin = pc.PeriodicFunction.from_callable(np.sin, 64)
        cos = pc.PeriodicFunction.from_callable(np.cos, 64)
        assert abs(pc.sobolev_inner_product(sin, cos, 1)) < 1e-13

    def test_fractional_orders_closed_form(self):
        """||cos k theta||^2 = (1 + k^2)^q / 2 under the 1/2pi normalization, k < n/2."""
        for q in (0.25, 0.5, 0.75):
            for k in range(1, 16):
                f = pc.PeriodicFunction.from_callable(lambda t, k=k: np.cos(k * t), 32)
                exact = (1.0 + k**2) ** q / 2.0
                assert abs(pc.sobolev_inner_product(f, f, q) - exact) <= 1e-14 * exact

    def test_negative_order_rejected(self):
        f = pc.PeriodicFunction.from_callable(np.sin, 16)
        with pytest.raises(ValueError):
            pc.sobolev_inner_product(f, f, -1)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            pc.sobolev_inner_product(f, f, np.nan)
        with pytest.raises(ValueError):
            pc.sobolev_inner_product_integer(f, f, -1)

    def test_integer_form_hand_values(self):
        sin = pc.PeriodicFunction.from_callable(np.sin, 64)
        cos2 = pc.PeriodicFunction.from_callable(lambda t: np.cos(2 * t), 64)
        assert abs(pc.sobolev_inner_product_integer(sin, sin, 1) - 1.0) < 1e-12
        assert abs(pc.sobolev_inner_product_integer(cos2, cos2, 1) - 2.5) < 1e-12
        assert abs(pc.sobolev_inner_product_integer(cos2, cos2, 2) - 8.5) < 1e-12
        assert abs(pc.sobolev_inner_product(cos2, cos2, 2) - 12.5) < 1e-12

    def test_forms_agree_at_q0_and_q1_single_modes(self):
        for k in range(0, 6):
            f = pc.PeriodicFunction.from_callable(
                (lambda t, k=k: np.cos(k * t)), 64
            )
            for q in (0, 1):
                a = pc.sobolev_inner_product(f, f, q)
                b = pc.sobolev_inner_product_integer(f, f, q)
                assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_norm_ratio_within_weight_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = random_bandlimited(rng, 64, 10)
            q = 2
            a = pc.sobolev_inner_product(f, f, q)
            b = pc.sobolev_inner_product_integer(f, f, q)
            k = np.arange(0, 11, dtype=float)
            w = (1.0 + k ** (2 * q)) / (1.0 + k**2) ** q
            assert np.min(w) - 1e-10 <= b / a <= np.max(w) + 1e-10

    def test_bilinearity_and_symmetry(self):
        rng = np.random.default_rng(7)
        f = random_bandlimited(rng, 32, 8)
        g = random_bandlimited(rng, 32, 8)
        h = random_bandlimited(rng, 32, 8)
        for ip in (
            lambda a, b: pc.sobolev_inner_product(a, b, 1.5),
            lambda a, b: pc.sobolev_inner_product_integer(a, b, 2),
        ):
            assert abs(ip(f, g) - ip(g, f)) < 1e-12
            lhs = ip(pc.PeriodicFunction(f.grid, 2.0 * f.values + g.values), h)
            assert abs(lhs - 2.0 * ip(f, h) - ip(g, h)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(8)
        f = random_bandlimited(rng, 64, 12, dim=2)
        g = random_bandlimited(rng, 64, 12, dim=2)
        integrand = np.sum(f.values * g.values, axis=0)
        quad = np.sum(integrand) / 64  # (1/2pi) * trapezoid on the periodic grid
        mode = pc.sobolev_inner_product(f, g, 0)
        assert abs(quad - mode) < 1e-10 * max(1.0, abs(mode))


class TestSupNormAndMultiply:
    def test_sup_norm_values(self):
        zero = pc.PeriodicFunction(pc.PeriodicGrid(32), np.zeros((1, 32)))
        assert pc.sup_norm(zero) == 0.0
        sin = pc.PeriodicFunction.from_callable(np.sin, 256)
        assert abs(pc.sup_norm(sin) - 1.0) < 1.0 / 256**2 + 1e-12

    def test_sup_norm_vs_dense_oracle(self):
        rng = np.random.default_rng(9)
        f = random_bandlimited(rng, 64, 8)
        dense = np.linspace(0, 2 * np.pi, 64 * 16, endpoint=False)
        oracle = np.max(np.abs(pc.evaluate_spectral(pc.transform(f), dense)))
        assert pc.sup_norm(f) <= oracle + 1e-12
        assert oracle - pc.sup_norm(f) < 1e-2 * max(1.0, oracle)

    def test_algebra_constant_stable_under_refinement(self):
        # empirical H^1 algebra constant stays within +-20% from n=64 to n=256
        def empirical_constant(n, rng):
            best = 0.0
            for _ in range(200):
                f = random_bandlimited(rng, n, 8)
                g = random_bandlimited(rng, n, 8)
                fg = pc.PeriodicFunction(f.grid, f.values * g.values)
                num = np.sqrt(pc.sobolev_inner_product(fg, fg, 1))
                den = np.sqrt(pc.sobolev_inner_product(f, f, 1)) * np.sqrt(
                    pc.sobolev_inner_product(g, g, 1)
                )
                best = max(best, num / den)
            return best

        c64 = empirical_constant(64, np.random.default_rng(10))
        c256 = empirical_constant(256, np.random.default_rng(10))
        assert abs(c64 - c256) / c64 < 0.2


class TestEmbedding:
    def test_sup_norm_bounded_by_hq_norm_with_mode_sum_constant(self):
        rng = np.random.default_rng(11)
        n, q = 64, 1
        ks = pc.PeriodicGrid(n).wavenumbers.astype(float)
        const = np.sqrt(np.sum((1.0 + ks**2) ** (-q)))
        for _ in range(500):
            f = random_bandlimited(rng, n, 15)
            lhs = pc.sup_norm(f)
            rhs = const * np.sqrt(pc.sobolev_inner_product(f, f, q))
            assert lhs <= rhs + 1e-12
