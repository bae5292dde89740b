import math

import numpy as np
import pytest
from scipy import integrate

from helpers import (
    allocating_gaussian,
    axis_angle_difference_deg,
    compose_covariance,
    covariance_ring,
    max_rel_error,
    random_decomposition,
    render_anisotropic,
    render_isotropic,
)
from hmuq.gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    _gaussian,
    population_distribution,
    render_with_param_gradients,
    sample_gaussian,
)

PEAK_G100_S3 = 100.0 / (2.0 * math.pi * 9.0)  # 1.7683882565766149


class TestCompose:
    def test_axis_aligned(self):
        m = compose_covariance(CovarianceDecomposition(0.0, 2.0, 1.0))
        np.testing.assert_allclose(m, [[4.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_isotropy_kills_rotation(self):
        m = compose_covariance(CovarianceDecomposition(math.pi / 4, 1.0, 1.0))
        np.testing.assert_allclose(m, np.eye(2), atol=1e-14)

    def test_quarter_turn_swaps_axes(self):
        m = compose_covariance(CovarianceDecomposition(math.pi / 2, 2.0, 1.0))
        np.testing.assert_allclose(m, [[1.0, 0.0], [0.0, 4.0]], atol=1e-14)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            compose_covariance(CovarianceDecomposition(0.0, 0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            compose_covariance(CovarianceDecomposition(0.0, 2.0, -1.0))

    def test_determinant_is_squared_product(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = random_decomposition(rng)
            det = np.linalg.det(compose_covariance(d))
            assert det == pytest.approx((d.sigma_maj * d.sigma_min) ** 2, rel=1e-9)


class TestDecompose:
    """population_distribution on point sets whose population covariance is exact."""

    def test_axis_aligned(self):
        _, d = population_distribution(covariance_ring(CovarianceDecomposition(0.0, 2.0, 1.0)))
        assert d.theta == pytest.approx(0.0, abs=1e-12)
        assert d.sigma_maj == pytest.approx(2.0)
        assert d.sigma_min == pytest.approx(1.0)

    def test_isotropic_tie_break(self):
        ring = covariance_ring(CovarianceDecomposition(0.7, 1.0, 1.0), phase=0.3)
        _, d = population_distribution(ring)
        assert d.theta == 0.0
        assert d.sigma_maj == pytest.approx(1.0)
        assert d.sigma_min == pytest.approx(1.0)

    def test_round_trip_identity(self):
        # a ring of covariance m reproduces m over 1000 seeded SPD samples
        rng = np.random.default_rng(42)
        for _ in range(1000):
            d = random_decomposition(rng, 0.5, 8.0)
            pts = covariance_ring(d, rng.uniform(0.0, 2.0 * np.pi)) + rng.uniform(-50, 50, 2)
            _, back = population_distribution(pts)
            np.testing.assert_allclose(compose_covariance(back), compose_covariance(d),
                                       atol=1e-10)

    def test_decompose_compose_canonical_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            d = random_decomposition(rng).canonical()
            _, d2 = population_distribution(covariance_ring(d, rng.uniform(0.0, 2.0 * np.pi)))
            assert d2.sigma_maj == pytest.approx(d.sigma_maj, rel=1e-9)
            assert d2.sigma_min == pytest.approx(d.sigma_min, rel=1e-9)
            if d.ratio > 1.001:
                assert axis_angle_difference_deg(d2.theta_deg, d.theta_deg) < 1e-6

    @pytest.mark.filterwarnings("error")  # no numpy warning before the error
    def test_non_finite_point_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError, match="must be finite"):
                population_distribution([(0.0, 0.0), (1.0, bad), (2.0, 1.0)])

    def test_collinear_points_give_zero_minor(self):
        for pts in ([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)],
                    [(1.0, -1.0), (1.0, 3.0), (1.0, 5.0), (1.0, 6.0)],
                    [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
                    [(3.0, 4.0)] * 3):
            _, d = population_distribution(pts)
            assert d.sigma_min == 0.0
        _, d = population_distribution([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
        assert d.sigma_maj == pytest.approx(math.sqrt(8.0 / 3.0))
        assert d.theta == 0.0


class TestRender:
    def test_peak_value(self):
        g = AnisotropicGaussian((16.0, 16.0), CovarianceDecomposition(0.0, 3.0, 3.0), 100.0)
        h = render_anisotropic(g, (33, 33))
        assert h[16, 16] == pytest.approx(PEAK_G100_S3, rel=1e-12)

    def test_isotropic_peak_and_sigma_falloff(self):
        h = render_isotropic((16.0, 16.0), 3.0, 100.0, (33, 33))
        peak = h[16, 16]
        assert peak == pytest.approx(PEAK_G100_S3, rel=1e-12)
        assert h[16, 19] == pytest.approx(peak * math.exp(-0.5), rel=1e-12)

    def test_mass_matches_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the analytic density
        gamma = 100.0
        for theta, maj, mnr in [(0.5, 2.5, 1.5), (-1.0, 4.0, 1.6), (0.0, 1.5, 1.5)]:
            mean = (40.0, 40.0)
            c, s = math.cos(theta), math.sin(theta)

            def density(y, x):
                dx, dy = x - mean[0], y - mean[1]
                u1, u2 = c * dx + s * dy, -s * dx + c * dy
                return (gamma / (2 * math.pi * maj * mnr)
                        * math.exp(-0.5 * ((u1 / maj) ** 2 + (u2 / mnr) ** 2)))

            lim = 8 * maj
            oracle, _ = integrate.dblquad(density, mean[0] - lim, mean[0] + lim,
                                          mean[1] - lim, mean[1] + lim, epsabs=1e-9)
            g = AnisotropicGaussian(mean, CovarianceDecomposition(theta, maj, mnr), gamma)
            pixel_mass = render_anisotropic(g, (81, 81)).sum()
            assert oracle == pytest.approx(gamma, rel=1e-6)
            assert pixel_mass == pytest.approx(oracle, rel=5e-3)

    def test_reduces_to_isotropic(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sigma = rng.uniform(1.0, 5.0)
            theta = rng.uniform(-np.pi / 2, np.pi / 2)
            mean = tuple(rng.uniform(10, 22, size=2))
            g = AnisotropicGaussian(mean, CovarianceDecomposition(theta, sigma, sigma), 100.0)
            ha = render_anisotropic(g, (32, 32))
            hi = render_isotropic(mean, sigma, 100.0, (32, 32))
            np.testing.assert_allclose(ha, hi, atol=1e-12)

    def test_invariant_under_half_turn(self):
        g1 = AnisotropicGaussian((15.2, 17.8), CovarianceDecomposition(0.4, 4.0, 2.0), 100.0)
        g2 = AnisotropicGaussian((15.2, 17.8), CovarianceDecomposition(0.4 + math.pi, 4.0, 2.0), 100.0)
        np.testing.assert_allclose(render_anisotropic(g1, (40, 40)),
                                   render_anisotropic(g2, (40, 40)), atol=1e-12)

    def test_sigma_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            render_isotropic((5.0, 5.0), 0.0, 100.0, (11, 11))


class TestParamGradients:
    def test_isotropic_theta_gradient_is_zero(self):
        g = AnisotropicGaussian((16.0, 16.0), CovarianceDecomposition(0.3, 3.0, 3.0), 100.0)
        dtheta, _, _ = render_with_param_gradients(g, (33, 33))[1:]
        assert np.abs(dtheta).max() == 0.0

    def test_peak_shrinks_with_sigma_maj(self):
        g = AnisotropicGaussian((16.0, 16.0), CovarianceDecomposition(0.0, 3.0, 2.0), 100.0)
        _, dmaj, _ = render_with_param_gradients(g, (33, 33))[1:]
        assert dmaj[16, 16] < 0.0

    def test_matches_finite_differences(self):
        # central differences with step 1e-4 over 100 seeded parameter draws
        rng = np.random.default_rng(11)
        step = 1e-4
        shape = (40, 40)
        for _ in range(100):
            d = random_decomposition(rng, 1.0, 8.0)
            mean = tuple(rng.uniform(12, 28, size=2))
            g = AnisotropicGaussian(mean, d, 100.0)
            dtheta, dmaj, dmin = render_with_param_gradients(g, shape)[1:]

            def render(theta=d.theta, maj=d.sigma_maj, mnr=d.sigma_min):
                gg = AnisotropicGaussian(mean, CovarianceDecomposition(theta, maj, mnr), 100.0)
                return render_anisotropic(gg, shape)

            fd_theta = (render(theta=d.theta + step) - render(theta=d.theta - step)) / (2 * step)
            fd_maj = (render(maj=d.sigma_maj + step) - render(maj=d.sigma_maj - step)) / (2 * step)
            fd_min = (render(mnr=d.sigma_min + step) - render(mnr=d.sigma_min - step)) / (2 * step)
            assert max_rel_error(fd_theta, dtheta) < 1e-4
            assert max_rel_error(fd_maj, dmaj) < 1e-4
            assert max_rel_error(fd_min, dmin) < 1e-4


class TestKernelInPlace:
    """gauss._gaussian writes in place; the allocating kernel is its oracle."""

    @staticmethod
    def offsets(rng, flat):
        mx, my = rng.uniform(-5.0, 45.0, size=2)
        if flat:  # a fit window, as fitting._solve lays it out
            x0, y0 = rng.integers(0, 20, size=2)
            w, h = rng.integers(1, 30, size=2)
            xs = np.tile(np.arange(x0, x0 + w, dtype=np.float64), h)
            ys = np.repeat(np.arange(y0, y0 + h, dtype=np.float64), w)
            return xs - mx, ys - my
        h, w = rng.integers(1, 48, size=2)  # a grid, as render_anisotropic lays it out
        return (np.arange(w, dtype=np.float64)[None, :] - mx,
                np.arange(h, dtype=np.float64)[:, None] - my)

    @pytest.mark.parametrize("flat", [False, True], ids=["grid", "window"])
    def test_bit_identical_to_allocating_oracle(self, flat):
        rng = np.random.default_rng(71 + flat)
        for _ in range(200):
            dx, dy = self.offsets(rng, flat)
            args = (dx, dy, rng.uniform(-math.pi, math.pi), *np.exp(rng.uniform(-1.0, 2.5, size=2)),
                    rng.uniform(0.1, 200.0))
            for kind, count in (({}, 1), ({"gradients": True}, 4), ({"mean_gradients": True}, 6)):
                ref = allocating_gaussian(*args, **kind)
                ref = ref if count > 1 else (ref,)
                got = _gaussian(*args, **kind)
                got = got if count > 1 else (got,)
                # preallocated rows in another order, filled with NaN beforehand
                buf = np.full((count, *np.broadcast_shapes(dx.shape, dy.shape)), np.nan)
                rows = [buf[k] for k in reversed(range(count))]
                _gaussian(*args, **kind, out=rows)
                for k in range(count):
                    assert np.array_equal(got[k], ref[k]), (kind, k)
                    assert np.array_equal(rows[k], ref[k]), (kind, k)


class TestSampling:
    def test_moments_recover_parameters(self):
        d = CovarianceDecomposition(0.6, 4.0, 1.5)
        g = AnisotropicGaussian((10.0, -3.0), d, 1.0)
        pts = sample_gaussian(g, 1_000_000, seed=123)
        mean = pts.mean(axis=0)
        assert np.abs(mean - np.array([10.0, -3.0])).max() < 0.01
        cov = np.cov(pts.T, bias=True)
        expected = compose_covariance(d)
        assert np.abs(cov - expected).max() < 0.02 * np.abs(expected).max()

    def test_deterministic_per_seed(self):
        g = AnisotropicGaussian((0.0, 0.0), CovarianceDecomposition(0.1, 2.0, 1.0), 1.0)
        p1 = sample_gaussian(g, 1, seed=9)
        p2 = sample_gaussian(g, 1, seed=9)
        np.testing.assert_array_equal(p1, p2)
        p3 = sample_gaussian(g, 1, seed=10)
        assert not np.array_equal(p1, p3)
