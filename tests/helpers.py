"""Shared helpers for the test suite: the Gaussian renderers, the covariance
composer and the axis-angle difference that only tests use, losses, scipy's
least-squares solver, and the elementwise covariance-gradient sums, allocating
Gaussian kernel, row-wise normal draw, per-landmark loss loop, soft-L1 loss,
fit set-up and SVD-only solve that serve as independent oracles for the
anisotropic code paths, and the whole-matrix convolution products that are
the oracle of the banded ones."""

import math

import numpy as np
from scipy.optimize import least_squares

from hmuq.fitting import (
    EPS,
    INIT_SIGMA,
    MIN_SIGMA,
    MOMENT_FLOOR,
    MOMENT_SCALE,
    TOLERANCE,
    WINDOW_SIGMAS,
    _model,
    _norm,
    _soft_l1,
    _trust_step,
    _window,
)
from hmuq.gauss import (
    MAX_LOG_EXTENT,
    TWO_PI,
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    _gaussian,
    decompose,
    render_with_param_gradients,
)
from hmuq.nets import _row_patches
from hmuq.trainer import aniso_loss_gradients


def three_product_conv(x, w):
    """nets._conv3x3 as three whole-matrix products, one per kernel row, each
    added into the output after the first: the oracle that the banded products
    must match bit for bit.  Returns the (H*W, Cout) output and the row patches."""
    h, wd = x.shape[:2]
    n = h * wd
    rows = _row_patches(x)
    k = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(3, -1, w.shape[0])
    y = rows[:n] @ k[0]
    y += rows[wd:wd + n] @ k[1]
    y += rows[2 * wd:] @ k[2]
    return y, rows


def render_anisotropic(g: AnisotropicGaussian, grid_shape: tuple[int, int]) -> np.ndarray:
    """Render amplitude/(2 pi sqrt|S|) exp(-(x-mu)^T S^-1 (x-mu) / 2) on an (H, W) grid."""
    return render_with_param_gradients([g], grid_shape)[0][0]


def render_one(g: AnisotropicGaussian, grid_shape: tuple[int, int]):
    """h, dh/dtheta, dh/dlog sigma_maj and dh/dlog sigma_min of one Gaussian on
    an (H, W) grid, from one kernel call with scalar parameters: the oracle of
    each layer of render_with_param_gradients' stacks."""
    d = g.decomp
    return _gaussian(np.arange(grid_shape[1], dtype=np.float64)[None, :] - g.mean[0],
                     np.arange(grid_shape[0], dtype=np.float64)[:, None] - g.mean[1],
                     d.theta, d.sigma_maj, d.sigma_min, g.amplitude)


def compose_covariance(d: CovarianceDecomposition) -> np.ndarray:
    """Covariance matrix R(theta) diag(sigma_maj^2, sigma_min^2) R(theta)^T."""
    d.validate()
    if d.sigma_maj <= 0 or d.sigma_min <= 0:
        raise InvalidParameterError(
            f"sigmas must be > 0 to compose a covariance, got ({d.sigma_maj}, {d.sigma_min})")
    c, s = math.cos(d.theta), math.sin(d.theta)
    r = np.array([[c, -s], [s, c]])
    star = np.diag([d.sigma_maj ** 2, d.sigma_min ** 2])
    return r @ star @ r.T


def axis_angle_difference_deg(a_deg: float, b_deg: float) -> float:
    """Absolute difference of two axis angles in degrees, modulo the 180-degree period."""
    d = abs(a_deg - b_deg) % 180.0
    return min(d, 180.0 - d)


def render_isotropic(mean, sigma, gamma, grid_shape):
    """Render an isotropic Gaussian with extent sigma and total mass gamma."""
    if not sigma > 0:
        raise InvalidParameterError(f"sigma must be > 0, got {sigma}")
    g = AnisotropicGaussian(mean, CovarianceDecomposition(0.0, sigma, sigma), gamma)
    return render_anisotropic(g, grid_shape)


def render_targets(coords, decomps, gamma, shape):
    """Stack of target heatmaps, one per landmark, on an (H, W) grid."""
    out = np.empty((len(decomps), *shape))
    for i, d in enumerate(decomps):
        out[i] = render_anisotropic(AnisotropicGaussian(tuple(coords[i]), d, gamma), shape)
    return out


def loss_learned_aniso(pred, coords, decomps, alpha, gamma):
    """Pixel loss with anisotropic targets plus alpha * sum sigma_maj_i * sigma_min_i."""
    return aniso_loss_gradients(pred, coords, decomps, alpha, gamma)[0]


def summed_covariance_gradients(pred, coords, decomps, alpha, gamma):
    """aniso_loss_gradients' cov_grads from elementwise sums -2 * (r * d).sum() of
    each residual r and rendered derivative map d, with the sums 2 * |r * d|.sum()
    that bound the rounding of any other summation order."""
    grads, scales = np.empty((len(decomps), 3)), np.empty((len(decomps), 3))
    for i, dec in enumerate(decomps):
        g = AnisotropicGaussian(tuple(coords[i]), dec, gamma)
        target, *maps = render_one(g, pred.shape[1:])
        r = pred[i] - target
        grads[i] = [-2.0 * (r * d).sum() for d in maps]
        scales[i] = [2.0 * np.abs(r * d).sum() for d in maps]
    grads[:, 1:] += np.array([[alpha * d.sigma_maj * d.sigma_min] for d in decomps])
    return grads, scales


def allocating_gaussian(dx, dy, theta, a, b, amp, mean_gradients=False):
    """gauss._gaussian with a fresh array for every operation: the oracle that
    the in-place kernel must match bit for bit (same arguments, no `out`).
    (N, 1, 1) parameters take each Gaussian's scalars in scalar arithmetic."""

    def scalars(theta, a, b, amp):
        return math.cos(theta), math.sin(theta), amp / (TWO_PI * a * b), a ** 2, b ** 2

    if isinstance(theta, np.ndarray):
        c, s, norm, a2, b2 = np.array(
            [scalars(*p) for p in zip(theta.flat, a.flat, b.flat, amp.flat)]).T.reshape(5, -1, 1, 1)
    else:
        c, s, norm, a2, b2 = scalars(theta, a, b, amp)
    u1 = c * dx + s * dy
    u2 = -s * dx + c * dy
    q1 = (u1 / a) ** 2
    q2 = (u2 / b) ** 2
    h = norm * np.exp(-0.5 * (q1 + q2))
    out = (h, h * u1 * u2 * (1.0 / b2 - 1.0 / a2), h * (q1 - 1.0), h * (q2 - 1.0))
    if not mean_gradients:
        return out
    return out + (h * (c * u1 / a2 - s * u2 / b2), h * (s * u1 / a2 + c * u2 / b2))


def rowwise_sample(g: AnisotropicGaussian, n: int, seed) -> np.ndarray:
    """(z * (sigma_maj, sigma_min)) R^T + mean on one standard-normal (n, 2)
    draw, each operation over whole rows: the oracle that gauss.sample_gaussian's
    column-contiguous draw must match bit for bit."""
    d = g.decomp
    z = np.random.default_rng(seed).standard_normal((n, 2)) * (d.sigma_maj, d.sigma_min)
    c, s = math.cos(d.theta), math.sin(d.theta)
    return z @ np.array([[c, -s], [s, c]]).T + g.mean


def looped_loss_gradients(pred, coords, decomps, alpha, gamma):
    """trainer.aniso_loss_gradients one landmark at a time, each target from its
    own kernel call: the oracle that the stacked loss must match bit for bit."""
    loss = 0.0
    cov_grads = np.empty((len(decomps), 3))
    dpred = np.empty_like(pred)
    for i, d in enumerate(decomps):
        g = AnisotropicGaussian(tuple(coords[i]), d, gamma)
        target, dtheta, dlog_maj, dlog_min = render_one(g, pred.shape[1:])
        r = pred[i] - target
        reg = alpha * d.sigma_maj * d.sigma_min
        loss += (r ** 2).sum() + reg
        dpred[i] = 2.0 * r
        cov_grads[i, 0] = -2.0 * (r.ravel() @ dtheta.ravel())
        cov_grads[i, 1] = -2.0 * (r.ravel() @ dlog_maj.ravel()) + reg
        cov_grads[i, 2] = -2.0 * (r.ravel() @ dlog_min.ravel()) + reg
    return float(loss), cov_grads, dpred


def allocating_soft_l1(f):
    """fitting._soft_l1 with a fresh array for every operation, in scipy's
    formulas at f_scale = 1: the oracle that the in-place version must match
    bit for bit."""
    t = 1 + f ** 2
    cost = 0.5 * np.sum(2 * (t ** 0.5 - 1))
    rho1 = t ** -0.5
    weight = rho1 + 2 * (-0.5 * t ** -1.5) * f ** 2
    weight[weight < EPS] = EPS
    weight **= 0.5
    return cost, weight, f * (rho1 / weight)


def padded_smooth3(values):
    """fitting._smooth3 on an np.pad(mode="edge") copy: the oracle that its
    buffer, filled edge by edge, must match bit for bit."""
    p = np.pad(values, 1, mode="edge")
    rows = p[:-2] + p[1:-1] + p[2:]
    return rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]


def mgrid_fit_operands(h):
    """The (xs, ys, data, p0) that fitting.fit_gaussian passes to _solve, built
    on np.pad and np.mgrid grids: the oracle that the fit's set-up must match
    bit for bit, pixel order and dtypes included."""
    values = np.asarray(h, dtype=np.float64)
    smooth = padded_smooth3(values)
    row, col = np.unravel_index(np.argmax(smooth), smooth.shape)
    x0, x1, y0, y1 = _window(values.shape, (int(col), int(row)), WINDOW_SIGMAS * INIT_SIGMA)
    patch = values[y0:y1 + 1, x0:x1 + 1]
    top = patch.max()
    weight = np.maximum(patch - MOMENT_FLOOR * top, 0.0).ravel()
    pixels = np.mgrid[y0:y1 + 1, x0:x1 + 1][::-1].reshape(2, -1)  # rows x, y
    mean = pixels @ weight / weight.sum()
    centered = pixels - mean[:, None]
    start = decompose((centered * weight) @ centered.T / weight.sum())
    a, b = (max(MOMENT_SCALE * sigma, MIN_SIGMA) for sigma in (start.sigma_maj, start.sigma_min))
    p0 = np.array([*mean, start.theta, math.log(a), math.log(b), math.log(top * TWO_PI * a * b)])
    x0, x1, y0, y1 = _window(values.shape, mean, WINDOW_SIGMAS * a)
    box = np.mgrid[y0:y1 + 1, x0:x1 + 1][::-1].astype(np.float64)  # x, y
    dx, dy = box[0] - mean[0], box[1] - mean[1]
    c, s = math.cos(start.theta), math.sin(start.theta)
    inside = ((c * dx + s * dy) / a) ** 2 + ((c * dy - s * dx) / b) ** 2 <= WINDOW_SIGMAS ** 2
    xs, ys = box[:, inside]
    return xs, ys, values[y0:y1 + 1, x0:x1 + 1][inside], p0


@np.errstate(divide="ignore", invalid="ignore")
def svd_solve(xs, ys, data, p0, max_nfev):
    """fitting._solve with the step's s, vt and U^T f from the SVD of the
    loss-scaled Jacobian at every accepted point: the oracle that the solve
    must match bit for bit wherever it takes its SVD branch."""
    jac, jac_new = np.empty((2, 6, data.size))
    x = np.array(p0, dtype=np.float64)
    fun = _model(x, xs, ys, jac) - data
    nfev = 1
    delta = _norm(x) or 1.0
    alpha = 0.0
    status = 0
    cost, weight, f = _soft_l1(fun)
    while not status and nfev < max_nfev:
        jac *= weight
        J = jac.T
        g = J.T @ f
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


def scipy_solve(xs, ys, data, p0, max_nfev, loss="soft_l1"):
    """scipy's trust-region soft-L1 fit of fitting._model to the heatmap values
    `data` at pixel centers (xs, ys): the oracle of fitting._solve, with the
    same stop tolerances and budget.  loss="linear" makes it a plain
    least-squares fit."""

    def jac(p):
        out = np.empty((6, xs.size))
        _model(p, xs, ys, out)
        return out.T

    scratch = np.empty((6, xs.size))  # the rows the residuals do not read
    return least_squares(
        lambda p: _model(p, xs, ys, scratch) - data, p0, jac=jac,
        method="trf", loss=loss, xtol=TOLERANCE, ftol=TOLERANCE, gtol=None,
        max_nfev=max_nfev)


def _check_pred(pred, count):
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 3 or pred.shape[0] != count:
        raise InvalidParameterError(
            f"expected {count} predicted heatmaps, got array of shape {pred.shape}")
    return pred


def loss_fixed(pred, coords, sigma, gamma):
    """Pixel-wise squared-error loss against isotropic targets of extent sigma."""
    coords = np.asarray(coords, dtype=np.float64)
    pred = _check_pred(pred, len(coords))
    decomps = [CovarianceDecomposition(0.0, sigma, sigma)] * len(coords)
    targets = render_targets(coords, decomps, gamma, pred.shape[1:])
    return float(((pred - targets) ** 2).sum())


def loss_learned_iso(pred, coords, sigmas, alpha, gamma):
    """Pixel loss with per-landmark isotropic targets plus alpha * sum sigma_i^2."""
    coords = np.asarray(coords, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    pred = _check_pred(pred, len(coords))
    if sigmas.shape != (len(coords),):
        raise InvalidParameterError("one sigma per landmark required")
    decomps = [CovarianceDecomposition(0.0, s, s) for s in sigmas]
    targets = render_targets(coords, decomps, gamma, pred.shape[1:])
    return float(((pred - targets) ** 2).sum() + alpha * (sigmas ** 2).sum())


def random_decomposition(rng, sigma_lo=1.0, sigma_hi=8.0, max_ratio=None):
    """Random canonical decomposition with sigmas in [sigma_lo, sigma_hi]."""
    while True:
        sigmas = np.exp(rng.uniform(np.log(sigma_lo), np.log(sigma_hi), size=2))
        maj, mnr = max(sigmas), min(sigmas)
        if max_ratio is None or maj / mnr <= max_ratio:
            break
    theta = rng.uniform(-np.pi / 2, np.pi / 2)
    return CovarianceDecomposition(theta, maj, mnr)


def max_rel_error(approx, exact):
    """Infinity-norm error of `approx` against `exact`, relative to max |exact|."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = np.abs(exact).max()
    if scale == 0.0:
        return np.abs(approx).max()
    return np.abs(approx - exact).max() / scale


# Target per-landmark observer-spread decompositions (mm) for the
# multi-observer fixture.  Landmarks 0 and 3 pin the strongly anisotropic
# and the near-isotropic regimes; the rest fill in intermediate spreads.
INTEROBS_TARGETS_MM = (
    CovarianceDecomposition(np.radians(39.33), 0.9752, 0.3794),
    CovarianceDecomposition(np.radians(-44.30), 2.4058, 1.1348),
    CovarianceDecomposition(np.radians(20.97), 1.8861, 1.2408),
    CovarianceDecomposition(np.radians(-60.34), 0.5372, 0.4840),
    CovarianceDecomposition(np.radians(-13.98), 1.2845, 0.8797),
)

OBSERVER_IDS = tuple(f"obs_{k:02d}" for k in range(11))


def covariance_ring(d: CovarianceDecomposition, phase=0.0, n=11) -> np.ndarray:
    """n points around 0 whose population covariance is that of `d` to rounding.

    The points are sqrt(2) * (cos, sin) at n >= 3 equally spaced angles from
    `phase`, mapped through the decomposition: the population covariance of
    such a ring is the identity for any phase.
    """
    angles = 2.0 * np.pi * np.arange(n) / n + phase
    ring = np.sqrt(2.0) * np.column_stack([np.cos(angles), np.sin(angles)])
    c, s = np.cos(d.theta), np.sin(d.theta)
    scale_rot = np.array([[c * d.sigma_maj, -s * d.sigma_min],
                          [s * d.sigma_maj, c * d.sigma_min]])
    return ring @ scale_rot.T


def write_interobserver_fixture(out_dir, num_images=100, seed=202):
    """Synthetic multi-observer dataset whose per-image covariance is exact.

    Each image/landmark pair gets 11 observer points, a `covariance_ring` of
    the target decomposition at a random phase, so every image reproduces the
    target covariance to rounding and aggregate statistics over images match
    the targets with near-zero spread.
    """
    from hmuq.dataio import AnnotationRow, write_dataset

    rng = np.random.default_rng(seed)
    size = 96
    spacing = 0.1  # mm per px
    centers = np.array([(40.0, 40.0), (56.0, 40.0), (40.0, 56.0),
                        (56.0, 56.0), (48.0, 48.0)])
    ids = [f"img_{i:03d}" for i in range(num_images)]
    images = [np.zeros((size, size)) for _ in ids]
    rows = []
    for image_id in ids:
        for j, d in enumerate(INTEROBS_TARGETS_MM):
            mean = centers[j] + rng.uniform(-2.0, 2.0, size=2)
            pts = mean + covariance_ring(d, rng.uniform(0.0, 2.0 * np.pi)) / spacing
            rows.extend(AnnotationRow(image_id, j, obs, float(x), float(y))
                        for obs, (x, y) in zip(OBSERVER_IDS, pts))
    return write_dataset(out_dir, ids, images, None, [spacing] * num_images,
                         len(INTEROBS_TARGETS_MM), observer_rows=rows)
