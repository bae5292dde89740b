"""Robust anisotropic Gaussian fitting to predicted heatmaps.

The fitted mean is the landmark prediction and the fitted covariance is its
per-sample uncertainty.  Fitting minimizes soft-L1 robustified residuals
between the rendered Gaussian model and the heatmap with a trust-region
least-squares solver, starting from the heatmap maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.optimize import least_squares

from .gauss import (
    TWO_PI,
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    _gaussian,
)

INIT_SIGMA = 3.0


class FitDegenerateError(RuntimeError):
    """The heatmap does not carry enough signal to constrain a 6-parameter fit."""


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 200
    tolerance: float = 1e-8          # relative cost decrease / step tolerance
    robust_loss_scale: float = 1.0   # soft-L1 scale, in heatmap intensity units
    window_halfwidth_sigmas: float = 5.0

    def validate(self) -> None:
        if self.max_iterations <= 0 or self.tolerance <= 0 \
                or self.robust_loss_scale <= 0 or self.window_halfwidth_sigmas <= 0:
            raise ValueError(f"all fit configuration values must be positive: {self}")


@dataclass
class FitResult:
    gaussian: AnisotropicGaussian
    residual_norm: float
    iterations: int
    converged: bool


def argmax_coord(h: np.ndarray) -> tuple[int, int]:
    """(x, y) of the maximum pixel; ties break to the smallest row, then column."""
    row, col = np.unravel_index(np.argmax(h), np.shape(h))
    return int(col), int(row)


def _window(shape, center, halfwidth):
    h, w = shape
    x0 = max(0, int(math.floor(center[0] - halfwidth)))
    x1 = min(w - 1, int(math.ceil(center[0] + halfwidth)))
    y0 = max(0, int(math.floor(center[1] - halfwidth)))
    y1 = min(h - 1, int(math.ceil(center[1] + halfwidth)))
    return x0, x1, y0, y1


def _model(p, xs, ys, mean_gradients=False):
    """The Gaussian with solver parameters p at pixel centers (xs, ys)."""
    mx, my, theta, log_a, log_b, log_amp = p
    return _gaussian(xs - mx, ys - my, theta, math.exp(log_a), math.exp(log_b),
                     math.exp(log_amp), mean_gradients=mean_gradients)


def _jacobian(p, xs, ys):
    """d model / d(mean x, mean y, theta, log sigma_maj, log sigma_min, log amplitude)."""
    h, dtheta, dlog_a, dlog_b, dmx, dmy = _model(p, xs, ys, mean_gradients=True)
    return np.column_stack((dmx, dmy, dtheta, dlog_a, dlog_b, h))


def _solve(values, p0, window, cfg, max_nfev):
    x0, x1, y0, y1 = window
    patch = values[y0:y1 + 1, x0:x1 + 1]
    ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
    xs = xs.ravel().astype(np.float64)
    ys = ys.ravel().astype(np.float64)
    data = patch.ravel()
    return least_squares(
        lambda p: _model(p, xs, ys) - data, p0, jac=lambda p: _jacobian(p, xs, ys),
        method="trf", loss="soft_l1", f_scale=cfg.robust_loss_scale,
        xtol=cfg.tolerance, ftol=cfg.tolerance, gtol=None,
        max_nfev=max_nfev)


def fit_gaussian(h: np.ndarray, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit mean, covariance and amplitude of an anisotropic Gaussian to a heatmap.

    Initialized at the heatmap maximum with sigma_maj = sigma_min = 3, theta = 0
    and the amplitude implied by the peak value.  Sigmas and amplitude are
    optimized in log space; the fit runs on a window of +-window_halfwidth_sigmas
    times the current extent around the maximum, re-cropped once after 10
    solver iterations.  Raises InvalidParameterError unless h is a non-empty
    2-D grid of finite values, and FitDegenerateError when fewer than 6 pixels
    rise above 1% of the maximum (6 free parameters).
    """
    cfg.validate()
    values = np.asarray(h, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise InvalidParameterError(f"heatmap must be a 2-D grid, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise InvalidParameterError("heatmap values must be finite")
    peak = values.max()
    if peak <= 0 or np.count_nonzero(values > 0.01 * peak) < 6:
        raise FitDegenerateError(
            "need at least 6 pixels above 1% of the heatmap maximum to fit")

    # initialize at the maximum of a 3x3-smoothed copy: an isolated spike must
    # not hijack the start point, while a true peak moves by at most a pixel
    x0, y0 = argmax_coord(uniform_filter(values, size=3, mode="nearest"))
    amp0 = values[y0, x0] if values[y0, x0] > 0 else peak
    p = np.array([x0, y0, 0.0,
                  math.log(INIT_SIGMA), math.log(INIT_SIGMA),
                  math.log(amp0 * TWO_PI * INIT_SIGMA ** 2)])

    window = _window(values.shape, (x0, y0), cfg.window_halfwidth_sigmas * INIT_SIGMA)
    warmup = min(10, cfg.max_iterations)
    res = _solve(values, p, window, cfg, warmup)
    iterations = res.nfev

    sigma_est = max(math.exp(res.x[3]), math.exp(res.x[4]))
    new_window = _window(values.shape, (res.x[0], res.x[1]),
                         cfg.window_halfwidth_sigmas * max(sigma_est, INIT_SIGMA))
    budget = max(cfg.max_iterations - iterations, 1)
    res = _solve(values, res.x, new_window, cfg, budget)
    iterations += res.nfev

    mx, my, theta, log_a, log_b, log_amp = res.x
    decomp = CovarianceDecomposition(theta, math.exp(log_a), math.exp(log_b)).canonical()
    gaussian = AnisotropicGaussian((float(mx), float(my)), decomp, math.exp(log_amp))
    residual_norm = float(np.linalg.norm(res.fun))
    converged = res.status > 0
    return FitResult(gaussian, residual_norm, iterations, converged)
