import math
import warnings

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from helpers import (
    allocating_gaussian,
    allocating_soft_l1,
    axis_angle_difference_deg,
    max_rel_error,
    mgrid_fit_operands,
    padded_smooth3,
    random_decomposition,
    render_anisotropic,
    render_isotropic,
    scipy_solve,
    svd_solve,
)
from hmuq import fitting
from hmuq.fitting import (
    FitDegenerateError,
    _model,
    argmax_coord,
    fit_gaussian,
)
from hmuq.gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    render_with_param_gradients,
)


def add_impulses(values, mean, n, rng, radius=(8.0, 15.0)):
    """Set n pixels at the given radius band from `mean` to the heatmap maximum."""
    out = values.copy()
    peak = values.max()
    count = 0
    while count < n:
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rad = rng.uniform(*radius)
        x = int(round(mean[0] + rad * math.cos(ang)))
        y = int(round(mean[1] + rad * math.sin(ang)))
        if 0 <= x < values.shape[1] and 0 <= y < values.shape[0]:
            out[y, x] = peak
            count += 1
    return out


class TestArgmax:
    def test_rendered_gaussian_at_grid_point(self):
        h = render_isotropic((20.0, 13.0), 3.0, 100.0, (40, 40))
        assert argmax_coord(h) == (20, 13)

    def test_tie_breaks_on_row_then_column(self):
        values = np.zeros((12, 12))
        values[7, 3] = 5.0  # (x=3, y=7)
        values[2, 9] = 5.0  # (x=9, y=2): smaller row wins
        assert argmax_coord(values) == (9, 2)

    def test_uniform_zero_returns_origin(self):
        assert argmax_coord(np.zeros((5, 8))) == (0, 0)

    def test_stack_breaks_ties_per_grid(self):
        # ties in different places of different grids, and one all-zero grid
        stack = np.zeros((2, 3, 12, 10))
        stack[0, 0, [7, 2], [3, 9]] = 5.0
        stack[0, 1, 4, [8, 1]] = 2.0
        stack[1, 0, [0, 11], [9, 0]] = 1.0
        stack[1, 2, 6, 6] = 3.0
        x, y = argmax_coord(stack)
        assert x.dtype == y.dtype == np.intp
        assert x.tolist() == [[9, 1, 0], [9, 0, 6]]
        assert y.tolist() == [[2, 4, 0], [0, 0, 6]]
        assert argmax_coord(stack[1, 0]) == (9, 0)


class TestSmoothing:
    """fitting._smooth3 is 9 times scipy's 3x3 uniform filter up to rounding,
    with the same argmax; scipy is the oracle."""

    @staticmethod
    def grids():
        rng = np.random.default_rng(11)
        for _ in range(200):
            h, w = rng.integers(1, 71, size=2)
            yield rng.normal(size=(h, w)) * 10.0 ** rng.uniform(-5, 5)
        yield from (rng.random((1, 1)), rng.random((1, 9)), rng.random((9, 1)))

    def test_matches_scipy(self):
        for values in self.grids():
            expected = 9.0 * uniform_filter(values, size=3, mode="nearest")
            got = fitting._smooth3(values)
            scale = np.abs(values).max()
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * scale)
            assert np.argmax(got) == np.argmax(expected), values.shape


class TestFitRoundTrip:
    def test_recovers_generating_parameters(self):
        g = AnisotropicGaussian((32.3, 30.7),
                                CovarianceDecomposition(math.radians(25.0), 4.0, 2.0), 100.0)
        res = fit_gaussian(render_anisotropic(g, (64, 64)))
        assert res.converged
        f = res.gaussian
        assert math.hypot(f.mean[0] - 32.3, f.mean[1] - 30.7) < 0.01
        assert f.decomp.sigma_maj == pytest.approx(4.0, rel=0.01)
        assert f.decomp.sigma_min == pytest.approx(2.0, rel=0.01)
        assert axis_angle_difference_deg(f.decomp.theta_deg, 25.0) < 0.5

    def test_isotropic_ratio_near_one(self):
        res = fit_gaussian(render_isotropic((32.0, 32.0), 3.0, 100.0, (64, 64)))
        assert 1.0 <= res.gaussian.decomp.ratio <= 1.02

    def test_noiseless_residual_norm_small(self):
        h = render_isotropic((30.0, 31.5), 2.5, 100.0, (64, 64))
        res = fit_gaussian(h)
        assert res.residual_norm < 1e-6 * h.max()

    def test_robust_to_impulse_outliers(self):
        g = AnisotropicGaussian((32.3, 30.7),
                                CovarianceDecomposition(math.radians(25.0), 4.0, 2.0), 100.0)
        clean = render_anisotropic(g, (64, 64))
        rng = np.random.default_rng(3)
        noisy = add_impulses(clean, (32.3, 30.7), 5, rng)
        robust = fit_gaussian(noisy)
        err_robust = math.hypot(robust.gaussian.mean[0] - 32.3, robust.gaussian.mean[1] - 30.7)
        # plain least squares over the whole grid, from the fit's start point
        x0, y0 = argmax_coord(fitting._smooth3(noisy))
        p0 = np.array([x0, y0, 0.0, math.log(3.0), math.log(3.0),
                       math.log(noisy[y0, x0] * 2 * math.pi * 9.0)])
        ys, xs = np.mgrid[0:64, 0:64].astype(np.float64)
        plain = scipy_solve(xs.ravel(), ys.ravel(), noisy.ravel(), p0, fitting.MAX_NFEV,
                            loss="linear")
        err_plain = math.hypot(plain.x[0] - 32.3, plain.x[1] - 30.7)
        assert err_robust < 0.1
        assert err_robust < err_plain

    def test_degenerate_heatmap_rejected(self):
        with pytest.raises(FitDegenerateError):
            fit_gaussian(np.zeros((16, 16)))
        spike = np.zeros((16, 16))
        spike[8, 8] = 1.0
        with pytest.raises(FitDegenerateError):
            fit_gaussian(spike)

    @pytest.mark.parametrize("values, message", [
        (np.ones(16), "2-D grid"),
        (np.zeros((0, 16)), "2-D grid"),
        (np.where(np.eye(16) > 0, np.nan, 1.0), "finite"),
    ])
    def test_malformed_heatmap_rejected(self, values, message):
        with pytest.raises(InvalidParameterError, match=message):
            fit_gaussian(values)

    def test_iteration_budget_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_NFEV", 2)
        h = render_isotropic((32.0, 32.0), 4.0, 100.0, (64, 64))
        res = fit_gaussian(h)
        assert not res.converged
        # one solve, stopped by the budget
        assert res.iterations <= fitting.MAX_NFEV

    @pytest.mark.parametrize("x, y, sigma_maj, converged", [
        (-0.5, 47.5, math.hypot(48, 64), True),  # on the bounds
        (20.0, 30.0, math.hypot(48, 64) * (1 + 1e-12), False),  # wider than the diagonal
        (-0.5 - 1e-9, 30.0, 4.0, False),  # left of the grid
        (63.5 + 1e-9, 30.0, 4.0, False),
        (20.0, -0.5 - 1e-9, 4.0, False),  # above it
        (20.0, 47.5 + 1e-9, 4.0, False),
        (math.nan, 30.0, 4.0, False),
    ])
    def test_runaway_solution_reports_unconverged(self, monkeypatch, x, y, sigma_maj, converged):
        # a solve that met its tolerance at a point describing no peak of the 48x64 grid
        p = np.array([x, y, 0.3, math.log(sigma_maj), math.log(2.0), 0.0])
        monkeypatch.setattr(fitting, "_solve", lambda xs, ys, data, p0, n: (p, data, 5, 2))
        h = render_isotropic((32.0, 24.0), 3.0, 100.0, (48, 64))
        res = fit_gaussian(h)
        assert res.converged is converged
        assert res.gaussian.mean == (x, y) or math.isnan(x)


class TestFitJacobian:
    def test_matches_finite_differences(self):
        # every row the solver fills (mean x, mean y, theta, log sigma_maj,
        # log sigma_min, log amplitude) on a flattened 31x31 window
        ys, xs = np.mgrid[5:36, 7:38]
        xs = xs.ravel().astype(np.float64)
        ys = ys.ravel().astype(np.float64)
        rng = np.random.default_rng(23)
        step = 1e-5
        checked = 0
        while checked < 20:
            d = random_decomposition(rng, 1.5, 6.0)
            if d.ratio < 1.3:
                continue
            p = np.array([rng.uniform(18.0, 26.0), rng.uniform(16.0, 24.0), d.theta,
                          math.log(d.sigma_maj), math.log(d.sigma_min), math.log(100.0)])
            jac = np.full((6, xs.size), np.nan)
            _model(p, xs, ys, jac)
            hi, lo = np.empty((2, 6, xs.size))  # _model returns a row of its jac
            for k in range(6):
                e = np.zeros(6)
                e[k] = step
                fd = (_model(p + e, xs, ys, hi) - _model(p - e, xs, ys, lo)) / (2 * step)
                assert max_rel_error(fd, jac[k]) < 1e-6, f"row {k}"
            checked += 1

    def test_rows_are_the_training_kernel(self):
        # p = (mx, my, theta, log a, log b, log amp) and the Gaussian of exp of the
        # same floats: the loss's four maps are the fit's value and its theta,
        # log a and log b rows, bit for bit, at the same pixel centres
        rng = np.random.default_rng(29)
        shape = (30, 32)
        ys, xs = np.mgrid[:shape[0], :shape[1]].astype(np.float64).reshape(2, -1)
        jac = np.empty((6, xs.size))
        for _ in range(50):
            p = np.array([*rng.uniform(4.0, 26.0, 2), rng.uniform(-1.5, 1.5),
                          *rng.uniform(0.0, 2.0, 2), rng.uniform(3.0, 6.0)])
            decomp = CovarianceDecomposition(p[2], math.exp(p[3]), math.exp(p[4]))
            g = AnisotropicGaussian((p[0], p[1]), decomp, math.exp(p[5]))
            value = _model(p, xs, ys, jac)
            for k, (got, want) in enumerate(zip(render_with_param_gradients([g], shape),
                                                (value, jac[2], jac[3], jac[4]))):
                assert np.array_equal(got.ravel(), want), k


def noisy_anisotropic(rng, shape=(64, 64), mean=None):
    """A rendered anisotropic Gaussian with additive noise and impulse outliers,
    by default centered within 8 px of the middle of a 64x64 grid."""
    d = random_decomposition(rng, 1.5, 6.0, max_ratio=3.0)
    if mean is None:
        mean = (rng.uniform(24.0, 40.0), rng.uniform(24.0, 40.0))
    clean = render_anisotropic(AnisotropicGaussian(mean, d, 100.0), shape)
    noisy = clean + rng.normal(0.0, 0.01 * clean.max(), shape)
    return add_impulses(noisy, mean, 4, rng)


def noisy_near_isotropic(rng, ratio, noise, shape=(64, 64)):
    """A rendered Gaussian with axis ratio `ratio` and additive noise of
    `noise` times its peak, centered within 8 px of the middle of the grid."""
    sigma = rng.uniform(2.0, 5.0)
    d = CovarianceDecomposition(rng.uniform(-1.5, 1.5), sigma * ratio, sigma)
    mean = (rng.uniform(24.0, 40.0), rng.uniform(24.0, 40.0))
    clean = render_anisotropic(AnisotropicGaussian(mean, d, 100.0), shape)
    return clean + rng.normal(0.0, noise * clean.max(), shape)


class TestSolverOracle:
    """fitting._solve restates scipy's trust-region solver; scipy is the oracle."""

    @staticmethod
    def recorded_solves(monkeypatch, heatmaps):
        calls = []
        solve = fitting._solve

        def recording(xs, ys, data, p0, max_nfev):
            out = solve(xs, ys, data, p0, max_nfev)
            calls.append(((xs, ys, data, p0.copy(), max_nfev), out))
            return out

        monkeypatch.setattr(fitting, "_solve", recording)
        for h in heatmaps:
            fit_gaussian(h)
        return calls

    @staticmethod
    def assert_matches(args, out):
        x, fun, nfev, status = out
        ref = scipy_solve(*args)
        assert np.abs(x - ref.x).max() <= 1e-9
        assert (nfev, status) == (ref.nfev, ref.status)
        assert np.abs(fun - ref.fun).max() <= 1e-12

    def test_matches_scipy_on_noisy_heatmaps(self, monkeypatch):
        # one solve per fit, from the moment start on its pixels
        rng = np.random.default_rng(41)
        heatmaps = [noisy_anisotropic(rng) for _ in range(12)]
        calls = self.recorded_solves(monkeypatch, heatmaps)
        assert len(calls) == 12
        for args, out in calls:
            self.assert_matches(args, out)

    def test_matches_scipy_on_noisy_near_isotropic_heatmaps(self, monkeypatch):
        # where theta is barely determined, J^T J is closest to its floor; a
        # solve may take the eigendecomposition at some points and the SVD at others
        rng = np.random.default_rng(42)
        heatmaps = [noisy_near_isotropic(rng, ratio, noise)
                    for ratio in (1 + 1e-6, 1 + 1e-4, 1.01) for noise in (1e-3, 1e-2)
                    for _ in range(2)]
        calls = self.recorded_solves(monkeypatch, heatmaps)
        assert len(calls) == 12
        for args, out in calls:
            self.assert_matches(args, out)

    def test_ill_conditioned_solve_takes_the_svd(self, monkeypatch):
        # noiseless and exactly isotropic: theta's Jacobian column vanishes at
        # the solution, J^T J falls below its floor, and every accepted point
        # takes the SVD branch, bit for bit the SVD-only solve (scipy's
        # evaluation count differs here already with the SVD, so it is not asked)
        g = AnisotropicGaussian((32.0, 32.0), CovarianceDecomposition(0.0, 3.0, 3.0), 100.0)
        args = self.recorded_solves(monkeypatch, [render_anisotropic(g, (64, 64))])[0][0]
        svd, svds = np.linalg.svd, []

        def counting_svd(*a, **kw):
            svds.append(a[0].shape)
            return svd(*a, **kw)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        x, fun, nfev, status = fitting._solve(*args)
        assert svds
        monkeypatch.setattr(np.linalg, "svd", svd)
        ref_x, ref_fun, ref_nfev, ref_status = svd_solve(*args)
        assert np.array_equal(x, ref_x) and np.array_equal(fun, ref_fun)
        assert (nfev, status) == (ref_nfev, ref_status)

    def test_budget_stop_matches_scipy(self, monkeypatch):
        solve = fitting._solve
        rng = np.random.default_rng(43)
        calls = self.recorded_solves(monkeypatch, [noisy_anisotropic(rng)])
        args = calls[0][0][:4] + (3,)  # the fit's pixels and start, 3 evaluations
        out = solve(*args)
        assert out[2:] == (3, 0)  # budget spent, not converged
        self.assert_matches(args, out)

    def test_no_signal_solve_warns_nothing(self):
        # far from the 8x8 grid the model and every residual are 0, and the step
        # meets 0/0 as scipy's does: the same evaluations and status, no warning
        ys, xs = np.mgrid[0:8, 0:8].reshape(2, -1).astype(np.float64)
        args = (xs, ys, np.zeros(64), np.array([1000.0, 1000.0, 0, 0, 0, 0]), 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fitting._solve(*args)
        with np.errstate(divide="ignore", invalid="ignore"):  # scipy's own 0/0
            self.assert_matches(args, out)


class TestSetUpOracle:
    """fit_gaussian builds the solve's start and pixels on a filled buffer and
    broadcast ranges; the np.pad and np.mgrid set-up of tests/helpers.py is the
    oracle: _solve must get its operands bit for bit and give the same fits."""

    @staticmethod
    def heatmaps():
        rng = np.random.default_rng(53)
        yield from (noisy_anisotropic(rng) for _ in range(12))
        # peaks within 2 px of each border and each corner
        for mx in (0.6, 31.7, 62.2):
            for my in (-0.4, 32.3, 61.4):
                if (mx, my) != (31.7, 32.3):
                    yield noisy_anisotropic(rng, mean=(mx, my))
        yield noisy_anisotropic(rng, (16, 16), mean=(7.3, 8.6))
        yield noisy_anisotropic(rng, (40, 64), mean=(45.2, 14.7))
        yield noisy_anisotropic(rng, (64, 24), mean=(11.8, 29.1))  # narrower than the window

    def test_solver_gets_the_mgrid_operands(self, monkeypatch):
        heatmaps = list(self.heatmaps())
        fits = [fit_gaussian(h) for h in heatmaps]
        solve = fitting._solve
        calls = TestSolverOracle.recorded_solves(monkeypatch, heatmaps)
        assert len(calls) == len(heatmaps)
        for h, fit, (args, _) in zip(heatmaps, fits, calls):
            assert np.array_equal(fitting._smooth3(h), padded_smooth3(h)), h.shape
            want = mgrid_fit_operands(h)
            for got, expected in zip(args[:4], want):
                assert got.dtype == expected.dtype and np.array_equal(got, expected), h.shape
            monkeypatch.setattr(fitting, "_solve", lambda *_: solve(*want, fitting.MAX_NFEV))
            assert fit_gaussian(h) == fit


def start_sigmas_sq(xs, ys, p0):
    """Squared distance of pixels (xs, ys) from the start mean of p0, in start sigmas."""
    mx, my, theta, log_a, log_b = p0[:5]
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = xs - mx, ys - my
    return ((c * dx + s * dy) / math.exp(log_a)) ** 2 + ((c * dy - s * dx) / math.exp(log_b)) ** 2


class TestStartEllipse:
    """The solve fits the pixels within WINDOW_SIGMAS start sigmas of the start
    mean, not the square box around them."""

    def test_solves_on_the_pixels_of_the_start_ellipse(self, monkeypatch):
        rng = np.random.default_rng(41)
        heatmaps = [noisy_anisotropic(rng) for _ in range(12)]
        calls = TestSolverOracle.recorded_solves(monkeypatch, heatmaps)
        limit = fitting.WINDOW_SIGMAS ** 2
        grid_y, grid_x = np.mgrid[0:64, 0:64]
        for h, ((xs, ys, data, p0, _), _) in zip(heatmaps, calls):
            assert start_sigmas_sq(xs, ys, p0).max() <= limit * (1 + 1e-12)
            assert np.array_equal(data, h[ys.astype(int), xs.astype(int)])
            # and no pixel of the grid inside the ellipse is left out
            inside = start_sigmas_sq(grid_x, grid_y, p0) < limit * (1 - 1e-12)
            assert xs.size >= np.count_nonzero(inside)

    def test_spike_outside_the_ellipse_is_ignored(self):
        # the start extents are 6.7 and 2.9 px, so (86, 86) is in the corner of the
        # +-33 px box, 8.4 start sigmas out and outside the 31x31 start window
        g = AnisotropicGaussian((64.3, 63.7), CovarianceDecomposition(0.0, 7.0, 3.0), 100.0)
        clean = render_anisotropic(g, (128, 128))
        spiked = clean.copy()
        spiked[86, 86] = clean.max()
        assert fit_gaussian(spiked) == fit_gaussian(clean)

    def test_corner_peak_at_the_smallest_extents(self, monkeypatch):
        h = render_isotropic((-0.1, -0.1), 0.7, 100.0, (16, 16))
        [((xs, _, _, p0, _), _)] = TestSolverOracle.recorded_solves(monkeypatch, [h])
        assert np.exp(p0[3:5]) == pytest.approx([fitting.MIN_SIGMA] * 2)
        assert xs.size >= 8
        res = fit_gaussian(h)
        assert res.converged
        assert res.gaussian.mean == pytest.approx((-0.1, -0.1), abs=1e-6)


class TestMomentStart:
    """The fit starts from the moments of the window around the maximum and
    runs one solve."""

    def test_one_solve_per_fit_and_fewer_evaluations(self, monkeypatch):
        rng = np.random.default_rng(41)
        heatmaps = [noisy_anisotropic(rng) for _ in range(12)]
        fits = [fit_gaussian(h) for h in heatmaps]
        assert len(TestSolverOracle.recorded_solves(monkeypatch, heatmaps)) == 12
        assert all(f.converged for f in fits)
        # 7.17 evaluations per fit here; a 10-evaluation warm-up before the solve took 10.08
        assert np.mean([f.iterations for f in fits]) <= 8.5

    def test_one_pixel_ridge_has_finite_start(self):
        h = np.zeros((32, 32))
        h[16, 8:24] = 1.0  # the moments give sigma_min = 0
        res = fit_gaussian(h)
        assert res.converged
        assert res.gaussian.mean == pytest.approx((15.5, 16.0), abs=1e-6)
        assert res.gaussian.decomp.sigma_min < 0.5 < 5.0 < res.gaussian.decomp.sigma_maj

    def test_no_positive_pixel_near_the_maximum_is_degenerate(self):
        # six peaks, each ringed by -9, leave the smoothed maximum at the zero
        # corner (multiples of 9 keep the box sums exact), and its window has
        # no positive pixel to take moments of
        h = np.zeros((64, 64))
        for k in range(6):
            y, x = 40 + 8 * (k // 3), 34 + 8 * (k % 3)
            h[y - 1:y + 2, x - 1:x + 2] = -9.0
            h[y, x] = 9.0
        with pytest.raises(FitDegenerateError, match="positive"):
            fit_gaussian(h)


class TestFitInPlaceOracle:
    """The solver's arithmetic writes in place; with the allocating kernel and
    soft-L1 of tests/helpers.py patched in, every fit must come out the same."""

    def test_fits_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(47)
        heatmaps = [noisy_anisotropic(rng) for _ in range(24)]
        fits = [fit_gaussian(h) for h in heatmaps]

        def oracle_kernel(*args, out=None, **kind):
            terms = allocating_gaussian(*args, **kind)
            for row, values in zip(out, terms):
                row[...] = values
            return terms

        monkeypatch.setattr(fitting, "_gaussian", oracle_kernel)
        monkeypatch.setattr(fitting, "_soft_l1", allocating_soft_l1)
        assert [fit_gaussian(h) for h in heatmaps] == fits


class TestFitInvariances:
    def test_translation_equivariance(self):
        d = CovarianceDecomposition(0.5, 3.5, 2.0)
        base = fit_gaussian(render_anisotropic(AnisotropicGaussian((30.4, 29.6), d, 100.0), (64, 64)))
        shifted = fit_gaussian(render_anisotropic(AnisotropicGaussian((37.4, 24.6), d, 100.0), (64, 64)))
        assert shifted.gaussian.mean[0] - base.gaussian.mean[0] == pytest.approx(7.0, abs=1e-6)
        assert shifted.gaussian.mean[1] - base.gaussian.mean[1] == pytest.approx(-5.0, abs=1e-6)
        for attr in ("theta", "sigma_maj", "sigma_min"):
            assert getattr(shifted.gaussian.decomp, attr) == pytest.approx(
                getattr(base.gaussian.decomp, attr), abs=1e-6)

    def test_rotation_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = random_decomposition(rng, 2.0, 6.0)
            if d.ratio < 1.5:
                continue
            delta = rng.uniform(-0.6, 0.6)
            g0 = AnisotropicGaussian((40.0, 40.0), d, 100.0)
            g1 = AnisotropicGaussian(
                (40.0, 40.0),
                CovarianceDecomposition(d.theta + delta, d.sigma_maj, d.sigma_min), 100.0)
            t0 = fit_gaussian(render_anisotropic(g0, (80, 80))).gaussian.decomp.theta_deg
            t1 = fit_gaussian(render_anisotropic(g1, (80, 80))).gaussian.decomp.theta_deg
            assert axis_angle_difference_deg(t1 - t0, math.degrees(delta)) < 0.5

    def test_large_sigma_window_regrow(self):
        # the start window is sized for sigma=3; the fit's window, sized from the
        # start's moments, must reach sigma=8
        g = AnisotropicGaussian((80.0, 78.5), CovarianceDecomposition(0.8, 8.0, 5.0), 100.0)
        res = fit_gaussian(render_anisotropic(g, (160, 160)))
        assert res.gaussian.decomp.sigma_maj == pytest.approx(8.0, rel=0.01)
        assert res.gaussian.decomp.sigma_min == pytest.approx(5.0, rel=0.01)

