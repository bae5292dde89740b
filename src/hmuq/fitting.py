"""Robust anisotropic Gaussian fitting to predicted heatmaps.

The fitted mean is the landmark prediction and the fitted covariance is its
per-sample uncertainty.  Fitting minimizes soft-L1 robustified residuals
between the heatmap and the model, gauss's kernel with log extents as in
training, from a start at the image moments around its maximum, over the
pixels within WINDOW_SIGMAS start sigmas of the start mean (an ellipse), in
one run of `_solve`: scipy's trust-region reflective least-squares method
(`least_squares(method="trf")` without bounds, exact steps after Moré 1978)
restated for this problem, with the step's SVD of the Jacobian J taken from
the 6 x 6 matrix J^T J where it can be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauss import (
    MAX_LOG_EXTENT,
    TWO_PI,
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    _gaussian,
    decompose,
)

INIT_SIGMA = 3.0      # the start window: +-WINDOW_SIGMAS * INIT_SIGMA around the maximum
MOMENT_FLOOR = 0.14   # its pixels weigh max(value - MOMENT_FLOOR * window maximum, 0)
MOMENT_SCALE = 1.3    # start extents: the weighted moment extents times this,
MIN_SIGMA = 0.5       # and at least this (a one-pixel-wide ridge has sigma_min 0)
MAX_NFEV = 200        # model evaluations of one fit
TOLERANCE = 1e-8      # relative cost decrease and step tolerance
EIGH_FLOOR = 1e-8     # the step uses the SVD of J where eig(J^T J) has min <= this * max
WINDOW_SIGMAS = 5.0   # the fitted pixels lie within this many start sigmas of the start mean
EPS = np.finfo(np.float64).eps


class FitDegenerateError(RuntimeError):
    """The heatmap does not carry enough signal to constrain a 6-parameter fit."""


@dataclass
class FitResult:
    """A fitted Gaussian; `iterations` counts the model evaluations of its solve."""

    gaussian: AnisotropicGaussian
    residual_norm: float
    iterations: int
    converged: bool


def argmax_coord(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of the maximum pixel of each (H, W) grid of a (..., H, W) array,
    each intp of shape (...); ties break to the smallest row, then column."""
    h = np.asarray(h)
    row, col = np.divmod(h.reshape(*h.shape[:-2], -1).argmax(axis=-1), h.shape[-1])
    return col, row


def _smooth3(values):
    """3x3 box sums with edge values repeated past the border: 9 times
    scipy.ndimage.uniform_filter(values, size=3, mode="nearest") up to
    rounding.  Only its argmax is read."""
    p = np.empty((values.shape[0] + 2, values.shape[1] + 2), values.dtype)
    p[1:-1, 1:-1] = values  # then the edge rows and columns, as np.pad(mode="edge")
    p[0, 1:-1], p[-1, 1:-1] = values[0], values[-1]
    p[:, 0], p[:, -1] = p[:, 1], p[:, -2]
    rows = p[:-2] + p[1:-1] + p[2:]
    return rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]


def _window(shape, center, halfwidth):
    h, w = shape
    x0 = max(0, int(math.floor(center[0] - halfwidth)))
    x1 = min(w - 1, int(math.ceil(center[0] + halfwidth)))
    y0 = max(0, int(math.floor(center[1] - halfwidth)))
    y1 = min(h - 1, int(math.ceil(center[1] + halfwidth)))
    return x0, x1, y0, y1


def _model(p, xs, ys, jac):
    """The Gaussian with solver parameters p at pixel centers (xs, ys); the
    rows of jac, a (6, m) array, receive its derivatives by p[0], ..., p[5]."""
    mx, my, theta, log_a, log_b, log_amp = p
    rows = [jac[k] for k in (5, 2, 3, 4, 0, 1)]  # the kernel's order
    return _gaussian(xs - mx, ys - my, theta, math.exp(log_a), math.exp(log_b),
                     math.exp(log_amp), mean_gradients=True, out=rows)[0]


def _norm(v):
    """np.linalg.norm of a 1-D vector (the same sqrt of the dot product), without its overhead."""
    return math.sqrt(v @ v)


def _soft_l1(f):
    """Cost, Jacobian row weights and rescaled residuals of the soft-L1 loss
    rho(z) = 2 (sqrt(1 + z) - 1) at z = f^2 (scale 1, in heatmap intensity units).

    The operations are scipy's, in its order: rounding decides theta in a
    near-isotropic fit, and the algebraically equal weights t^(-3/4), t = 1 + z,
    moved such fits by up to 1e-4 px and changed their evaluation counts.
    """
    t = np.square(f)  # positional outputs and .sum(): numpy's faster paths
    np.add(1, t, t)  # t = 1 + f ** 2
    tmp = np.sqrt(t)
    cost = 0.5 * np.multiply(2, np.subtract(tmp, 1, tmp), tmp).sum()
    rho1 = t ** -0.5
    # weight = rho1 + 2 * (-0.5 * t ** -1.5) * f ** 2, in tmp
    np.multiply(2, np.multiply(-0.5, np.power(t, -1.5, tmp), tmp), tmp)
    weight = np.add(rho1, np.multiply(tmp, np.square(f, t), tmp), tmp)
    weight[weight < EPS] = EPS
    weight **= 0.5
    return cost, weight, np.multiply(f, np.divide(rho1, weight, rho1), rho1)


def _trust_step(uf, s, vt, delta, alpha, m):
    """Moré's step for min |J p + f| subject to |p| <= delta, from J's singular
    values s (descending), right singular vectors vt and uf = U^T f; alpha is the
    Levenberg-Marquardt parameter, found to 1% of delta in at most 10 Newton iterations."""
    suf = s * uf
    full_rank = m >= vt.shape[1] and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -vt.T @ (uf / s)
        if _norm(p) <= delta:
            return p, 0.0

    def phi(alpha):
        denom = s ** 2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - delta, -(suf ** 2 / denom ** 3).sum() / p_norm

    upper = _norm(suf) / delta
    lower = 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    elif alpha == 0:
        alpha = max(0.001 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, (lower * upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        ratio = value / slope
        lower = max(lower, alpha - ratio)
        alpha -= (value + delta) * ratio / delta
        if abs(value) < 0.01 * delta:
            break
    p = -vt.T @ (suf / (s ** 2 + alpha))
    return p * (delta / _norm(p)), alpha


@np.errstate(divide="ignore", invalid="ignore")  # 0/0 in _trust_step, as in scipy's solver
def _solve(xs, ys, data, p0, max_nfev):
    """Soft-L1 trust-region fit of the model to the heatmap values `data` at
    pixel centers (xs, ys), three flat arrays.

    Restates scipy.optimize.least_squares(method="trf", loss="soft_l1",
    tr_solver="exact", x_scale=1, gtol=None) with xtol = ftol = TOLERANCE
    and f_scale = 1: Moré's step, the 0.25/0.75 radius update and scipy's
    stop tests.  At each accepted point the step's s and vt come from eigh of
    J^T J for the loss-scaled Jacobian J, and U^T f = vt @ J^T f / s; where
    J^T J is too ill-conditioned for that (EIGH_FLOOR), from the SVD of J as in
    scipy.  Returns (x, residuals at x, function evaluations counting the
    initial one, status): 2 ftol, 3 xtol, 4 both, 0 budget spent.
    """
    jac, jac_new = np.empty((2, 6, data.size))  # a rejected trial fills the spare one

    x = np.array(p0, dtype=np.float64)
    fun = _model(x, xs, ys, jac) - data
    nfev = 1
    delta = _norm(x) or 1.0
    alpha = 0.0
    status = 0
    cost, weight, f = _soft_l1(fun)
    while not status and nfev < max_nfev:
        jac *= weight  # J = jac.T, its rows scaled by the loss weights
        J = jac.T
        g = J.T @ f
        lam, v = np.linalg.eigh(jac @ J)  # ascending
        if lam[0] > EIGH_FLOOR * lam[-1]:
            s, vt = np.sqrt(lam[::-1]), v[:, ::-1].T
            uf = (vt @ g) / s
        else:
            u, s, vt = np.linalg.svd(J, full_matrices=False)
            uf = u.T @ f
        reduction = -1.0
        while reduction <= 0 and nfev < max_nfev:
            step, alpha = _trust_step(uf, s, vt, delta, alpha, data.size)
            js = J @ step
            predicted = -(0.5 * (js @ js) + step @ g)
            x_new = x + step
            nfev += 1
            step_norm = _norm(step)
            # a log extent past MAX_LOG_EXTENT counts as a non-finite model, unevaluated
            if (max(abs(x_new[3]), abs(x_new[4])) > MAX_LOG_EXTENT
                    or not np.isfinite(fun_new := _model(x_new, xs, ys, jac_new) - data).all()):
                delta = 0.25 * step_norm
                continue
            cost_new, weight_new, f_new = _soft_l1(fun_new)
            reduction = cost - cost_new
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1.0 if predicted == reduction == 0 else 0.0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                delta_new = 2.0 * delta
            ftol_met = reduction < TOLERANCE * cost and ratio > 0.25
            xtol_met = step_norm < TOLERANCE * (TOLERANCE + _norm(x))
            status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3 if xtol_met else 0
            if status:
                break
            alpha *= delta / delta_new
            delta = delta_new
        if reduction <= 0:
            break
        x, fun, cost, weight, f = x_new, fun_new, cost_new, weight_new, f_new
        jac, jac_new = jac_new, jac
    return x, fun, nfev, status


def fit_gaussian(h: np.ndarray) -> FitResult:
    """Fit mean, covariance and amplitude of an anisotropic Gaussian to a heatmap.

    Starts from the weighted mean and covariance of the window around the
    smoothed maximum (see the constants), and the amplitude that puts the
    model's peak at the window maximum; then runs one solve of at most
    MAX_NFEV evaluations on the pixels within WINDOW_SIGMAS start sigmas of
    the start mean, with sigmas and amplitude in log space.  A fit that met a
    tolerance but is wider than the grid's diagonal or centered off the grid
    (more than half a pixel past its outer pixel centres) is not converged.  Raises
    InvalidParameterError unless h is a non-empty 2-D grid of finite values,
    and FitDegenerateError when fewer than 6 pixels rise above 1% of the
    maximum (6 free parameters) or the start window has no positive pixel.
    """
    values = np.asarray(h, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise InvalidParameterError(f"heatmap must be a 2-D grid, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise InvalidParameterError("heatmap values must be finite")
    peak = values.max()
    if peak <= 0 or np.count_nonzero(values > 0.01 * peak) < 6:
        raise FitDegenerateError(
            "need at least 6 pixels above 1% of the heatmap maximum to fit")

    # the start window is centered on the maximum of a 3x3-smoothed copy, which an
    # isolated spike cannot hijack; the floor keeps the background out of the moments
    x0, x1, y0, y1 = _window(values.shape, argmax_coord(_smooth3(values)),
                             WINDOW_SIGMAS * INIT_SIGMA)
    patch = values[y0:y1 + 1, x0:x1 + 1]
    top = patch.max()
    if top <= 0:
        raise FitDegenerateError("no pixel near the smoothed heatmap maximum is positive")
    weight = np.maximum(patch - MOMENT_FLOOR * top, 0.0).ravel()
    pixels = np.empty((2, *patch.shape))  # rows x, y
    pixels[0], pixels[1] = np.arange(x0, x1 + 1), np.arange(y0, y1 + 1)[:, None]
    pixels = pixels.reshape(2, -1)
    mean = pixels @ weight / weight.sum()
    centered = pixels - mean[:, None]
    start = decompose((centered * weight) @ centered.T / weight.sum())
    a, b = (max(MOMENT_SCALE * sigma, MIN_SIGMA) for sigma in (start.sigma_maj, start.sigma_min))
    p = np.array([*mean, start.theta, math.log(a), math.log(b), math.log(top * TWO_PI * a * b)])
    # the pixels of the box around the start ellipse that lie inside it
    x0, x1, y0, y1 = _window(values.shape, mean, WINDOW_SIGMAS * a)
    x, y = np.arange(x0, x1 + 1, dtype=np.float64), np.arange(y0, y1 + 1, dtype=np.float64)
    dx, dy = x - mean[0], (y - mean[1])[:, None]  # a row and a column: the box by broadcasting
    c, s = math.cos(start.theta), math.sin(start.theta)
    inside = ((c * dx + s * dy) / a) ** 2 + ((c * dy - s * dx) / b) ** 2 <= WINDOW_SIGMAS ** 2
    rows, cols = inside.nonzero()  # row-major, as a boolean mask selects
    data = values[y0:y1 + 1, x0:x1 + 1][inside]
    p, fun, iterations, status = _solve(x[cols], y[rows], data, p, MAX_NFEV)

    mx, my, theta, log_a, log_b, log_amp = p
    decomp = CovarianceDecomposition(theta, math.exp(log_a), math.exp(log_b)).canonical()
    gaussian = AnisotropicGaussian((float(mx), float(my)), decomp, math.exp(log_amp))
    on_grid = all(-0.5 <= c <= n - 0.5 for c, n in zip(gaussian.mean, values.shape[::-1]))
    converged = status > 0 and on_grid and decomp.sigma_maj <= math.hypot(*values.shape)
    return FitResult(gaussian, float(np.linalg.norm(fun)), iterations, converged)
