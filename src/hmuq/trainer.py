"""Heatmap-regression training with fixed or jointly learned target covariances.

Three target strategies share one loop: fixed isotropic targets, a learned
per-landmark isotropic extent (pixel loss plus alpha * sigma^2), and a learned
per-landmark anisotropic covariance (pixel loss plus alpha * sigma_maj *
sigma_min).  The covariance parameters are optimized as (theta, log sigma_maj,
log sigma_min) so the extents stay positive without constraints; results are
reported canonically.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .dataio import (
    config_from_dict,
    config_to_dict,
    decode_utf8,
    errors_named,
    format_config,
    parse_config_text,
)
from .gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    render_with_param_gradients,
)
from .nets import ReferencePredictor

TARGET_MODES = ("fixed_iso", "learned_iso", "learned_aniso")
MOMENTUM = 0.9
CHECKPOINT_MAGIC = b"HMUQ"
CHECKPOINT_VERSION = 1
# the predictor computes in float32; train() keeps float64 master weights
NET_DTYPE = np.float32


class TrainDivergedError(RuntimeError):
    """Training hit a non-finite loss."""


@dataclass(frozen=True)
class AugmentConfig:
    """Random augmentation ranges, all symmetric around the identity; a part
    is on exactly when its range (for elastic deformation, its magnitude) is > 0.

    A range value r means: intensity shift in [-r, r], intensity scale in
    [1-r, 1+r], translation components in [-r, r] px, rotation in [-r, r] rad,
    spatial scale in [1-r, 1+r].  Elastic deformation draws a coarse
    elastic_grid_size^2 displacement field with standard deviation
    elastic_magnitude px and upsamples it smoothly.
    """

    intensity_shift_range: float = 0.0
    intensity_scale_range: float = 0.0
    translation_range: float = 0.0
    rotation_range: float = 0.0
    scale_range: float = 0.0
    elastic_grid_size: int = 4
    elastic_magnitude: float = 0.0

    def validate(self) -> None:
        for name in _AUGMENT_SWITCHES:
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")
        if not 0 <= self.scale_range < 1:
            raise InvalidParameterError("scale_range must be in [0, 1)")
        if self.elastic_grid_size < 2:
            raise InvalidParameterError("elastic_grid_size must be >= 2")

    def is_identity(self) -> bool:
        return not any(getattr(self, name) > 0 for name in _AUGMENT_SWITCHES)


_AUGMENT_SWITCHES = ("intensity_shift_range", "intensity_scale_range", "translation_range",
                     "rotation_range", "scale_range", "elastic_magnitude")


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 5.0
    gamma: float = 100.0
    weight_decay: float = 0.001
    iterations: int = 40000
    learning_rate: float = 1e-5
    covariance_lr_multiplier: float = 3.0
    dropout_rate: float = 0.0
    batch_size: int = 4
    seed: int = 0
    target_mode: str = "learned_aniso"
    sigma_init: float = 3.0
    predictor_width: int = 16
    freeze_predictor: bool = False
    augmentation: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> None:
        if not (self.alpha > 0 and self.gamma > 0):
            raise InvalidParameterError("alpha and gamma must be > 0")
        if not 0 <= self.dropout_rate < 1:
            raise InvalidParameterError("dropout_rate must be in [0, 1)")
        if self.target_mode not in TARGET_MODES:
            raise InvalidParameterError(
                f"target_mode must be one of {TARGET_MODES}, got {self.target_mode!r}")
        if self.iterations < 1 or self.batch_size < 1 or self.predictor_width < 1:
            raise InvalidParameterError("iterations, batch_size, predictor_width must be >= 1")
        if not (self.learning_rate > 0 and self.covariance_lr_multiplier > 0):
            raise InvalidParameterError(
                "learning_rate and covariance_lr_multiplier must be > 0")
        if self.weight_decay < 0:
            raise InvalidParameterError("weight_decay must be >= 0")
        if not self.sigma_init > 0:
            raise InvalidParameterError("sigma_init must be > 0")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        self.augmentation.validate()


@dataclass
class TrainedModel:
    predictor: ReferencePredictor
    target_decomps: list[CovarianceDecomposition]
    config: TrainConfig
    loss_trace: np.ndarray


# --- losses -------------------------------------------------------------------


def aniso_loss_gradients(pred, coords, decomps, alpha: float, gamma: float):
    """Anisotropic loss with its analytic gradients.

    Returns (loss, cov_grads, dpred): cov_grads has one (d/dtheta, d/dsigma_maj,
    d/dsigma_min) row per landmark and dpred is the gradient with respect to
    the predicted heatmaps, ready to feed into a predictor backward pass.
    """
    coords = np.asarray(coords, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 3 or pred.shape[0] != len(coords):
        raise InvalidParameterError(
            f"expected {len(coords)} predicted heatmaps, got array of shape {pred.shape}")
    if len(decomps) != len(coords):
        raise InvalidParameterError("one covariance decomposition per landmark required")
    loss = 0.0
    cov_grads = np.empty((len(decomps), 3))
    dpred = np.empty_like(pred)
    for i, d in enumerate(decomps):
        g = AnisotropicGaussian(tuple(coords[i]), d, gamma)
        target, dtheta, dmaj, dmin = render_with_param_gradients(g, pred.shape[1:])
        r = pred[i] - target
        loss += (r ** 2).sum() + alpha * d.sigma_maj * d.sigma_min
        dpred[i] = 2.0 * r
        cov_grads[i, 0] = -2.0 * (r * dtheta).sum()
        cov_grads[i, 1] = -2.0 * (r * dmaj).sum() + alpha * d.sigma_min
        cov_grads[i, 2] = -2.0 * (r * dmin).sum() + alpha * d.sigma_maj
    return float(loss), cov_grads, dpred


# --- augmentation -------------------------------------------------------------


def _bilinear(values, x, y):
    """Bilinear samples of a (..., H, W) stack at pixel coordinates x, y (which
    broadcast), the grid extended by its edge values.  Bit for bit
    scipy.ndimage.map_coordinates(order=1, mode="nearest"): the far weight is
    1 - (1 - t), not t, and the four terms are summed in scipy's order."""
    h, w = values.shape[-2:]
    x0, y0 = np.floor(x), np.floor(y)
    gx, gy = 1.0 - (x - x0), 1.0 - (y - y0)
    fx, fy = 1.0 - gx, 1.0 - gy
    i0, i1 = (np.clip(x0 + k, 0, w - 1).astype(np.intp) for k in (0, 1))
    j0, j1 = (np.clip(y0 + k, 0, h - 1).astype(np.intp) for k in (0, 1))
    return (values[..., j0, i0] * gy * gx + values[..., j0, i1] * gy * fx
            + values[..., j1, i0] * fy * gx + values[..., j1, i1] * fy * fx)


def apply_spatial(image, coords, angle: float = 0.0, scale: float = 1.0,
                  shift=(0.0, 0.0), elastic_field=None):
    """Apply one spatial transform identically to an image and its coordinates;
    returns (image, coords).

    A point p maps to R(angle) * scale * (p - c) + c + shift with c the image
    center; the image is resampled bilinearly under the same map, 0 outside
    it.  If an elastic displacement field (2, H, W) in (dx, dy) order is given,
    the image is additionally sampled at x + d(x), and coordinates are moved by
    the matching inverse displacement (fixed-point iteration; fields are smooth
    and small, so a few steps suffice).
    """
    image = np.asarray(image, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    h, w = image.shape
    center = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    c, s = math.cos(angle), math.sin(angle)
    fwd = scale * np.array([[c, -s], [s, c]])
    inv = np.linalg.inv(fwd)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    px = xs - center[0] - shift[0]
    py = ys - center[1] - shift[1]
    sx = inv[0, 0] * px + inv[0, 1] * py + center[0]
    sy = inv[1, 0] * px + inv[1, 1] * py + center[1]
    if elastic_field is not None:
        sx = sx + elastic_field[0]
        sy = sy + elastic_field[1]
    inside = (0 <= sx) & (sx <= w - 1) & (0 <= sy) & (sy <= h - 1)
    warped = np.where(inside, _bilinear(image, sx, sy), 0.0)
    new = (fwd @ (coords - center).T).T + center + shift
    if elastic_field is not None:
        for _ in range(4):
            d = _bilinear(elastic_field, new[:, 0], new[:, 1]).T
            new = (fwd @ (coords - d - center).T).T + center + shift
    return warped, new


def augment(image, coords, cfg: AugmentConfig, seed):
    """Draw one random augmentation from cfg and apply it (seeded); returns
    (image, coords).

    Spatial parts move image and coordinates together; intensity parts touch
    only the image.  The identity configuration returns the inputs unchanged.
    Landmarks pushed outside the image keep their transformed coordinates.
    """
    cfg.validate()
    image = np.asarray(image, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if cfg.is_identity():
        return image, coords
    rng = np.random.default_rng(seed)
    angle = rng.uniform(-cfg.rotation_range, cfg.rotation_range) if cfg.rotation_range > 0 else 0.0
    scale = 1.0 + (rng.uniform(-cfg.scale_range, cfg.scale_range) if cfg.scale_range > 0 else 0.0)
    if cfg.translation_range > 0:
        shift = rng.uniform(-cfg.translation_range, cfg.translation_range, size=2)
    else:
        shift = np.zeros(2)
    elastic = None
    if cfg.elastic_magnitude > 0:
        g = cfg.elastic_grid_size
        h, w = image.shape
        coarse = rng.normal(0.0, cfg.elastic_magnitude, size=(2, g, g))
        # the grid's corner nodes sit on the image's corner pixels
        elastic = _bilinear(coarse, np.arange(w) * ((g - 1) / (w - 1)),
                            np.arange(h)[:, None] * ((g - 1) / (h - 1)))
    warped, coords = apply_spatial(image, coords, angle, scale, shift, elastic)
    if cfg.intensity_scale_range > 0:
        warped = warped * (1.0 + rng.uniform(-cfg.intensity_scale_range,
                                             cfg.intensity_scale_range))
    if cfg.intensity_shift_range > 0:
        warped = warped + rng.uniform(-cfg.intensity_shift_range,
                                      cfg.intensity_shift_range)
    return warped, coords


# --- training loop --------------------------------------------------------------


def train(dataset, cfg: TrainConfig, initial_params: np.ndarray | None = None,
          progress=None) -> TrainedModel:
    """Stochastic gradient descent (momentum 0.9, weight decay) over a dataset.

    `dataset` needs `.images` (list of equally shaped 2-D arrays) and
    `.coords` ((num_images, num_landmarks, 2) pixel coordinates).  Covariance
    parameters move every step at learning_rate * covariance_lr_multiplier
    (when the mode learns them); the run is deterministic for a fixed seed.
    `initial_params` overrides the random predictor initialization, which
    also enables freeze_predictor studies of the covariance dynamics alone.
    The predictor computes in NET_DTYPE; its parameters, their momentum and
    the covariance parameters are float64 master copies updated here, and
    the predictor gets the master weights cast down after every step.
    `progress`, if given, is called after every iteration as
    progress(iteration, batch_loss, sigma_maj, sigma_min) with the current
    per-landmark extent arrays (not yet in canonical order); it does not
    affect the run.
    """
    cfg.validate()
    images = list(dataset.images)
    coords = np.asarray(dataset.coords, dtype=np.float64)
    if len(images) == 0:
        raise InvalidParameterError("dataset is empty")
    if coords.ndim != 3 or coords.shape[0] != len(images) or coords.shape[2] != 2:
        raise InvalidParameterError(f"bad coords shape {coords.shape}")
    shape = images[0].shape
    if any(im.shape != shape for im in images):
        raise InvalidParameterError("all training images must share one shape")
    n_landmarks = coords.shape[1]

    rng = np.random.default_rng(cfg.seed)
    net = ReferencePredictor(n_landmarks, cfg.predictor_width, seed=cfg.seed, dtype=NET_DTYPE)
    if initial_params is None:
        params = net.get_params().astype(np.float64)
    else:
        params = np.array(initial_params, dtype=np.float64)
        net.set_params(params)
    vel = np.zeros_like(params)

    theta = np.zeros(n_landmarks)
    log_maj = np.full(n_landmarks, math.log(cfg.sigma_init))
    log_min = np.full(n_landmarks, math.log(cfg.sigma_init))
    vel_cov = np.zeros((n_landmarks, 3))
    learn_cov = cfg.target_mode != "fixed_iso"
    iso = cfg.target_mode == "learned_iso"

    trace = np.empty(cfg.iterations)
    for it in range(cfg.iterations):
        idx = rng.integers(0, len(images), size=cfg.batch_size)
        batch_loss = 0.0
        grad = np.zeros_like(params)
        grad_cov = np.zeros((n_landmarks, 3))
        a = np.exp(log_maj)
        b = np.exp(log_min)
        decomps = [CovarianceDecomposition(theta[i], a[i], b[i]) for i in range(n_landmarks)]
        for slot, j in enumerate(idx):
            im, cs = augment(images[j], coords[j], cfg.augmentation, [cfg.seed, it, slot, 0])
            drop_rng = (np.random.default_rng([cfg.seed, it, slot, 1])
                        if cfg.dropout_rate else None)
            pred = net.forward(im, cfg.dropout_rate, drop_rng)
            # the regularizer (alpha = 0 here) is added once per batch below
            loss, cov, dpred = aniso_loss_gradients(pred, cs, decomps, 0.0, cfg.gamma)
            cov[:, 1] *= a  # chain rule to log parameters, per sample: scaling
            cov[:, 2] *= b  # the batch sum instead would round differently
            batch_loss += loss
            grad_cov += cov
            if not cfg.freeze_predictor:
                grad += net.backward(dpred)
        batch_loss /= cfg.batch_size
        grad /= cfg.batch_size
        grad_cov /= cfg.batch_size

        # regularizer: alpha * sum sigma_maj*sigma_min (anisotropic) or
        # alpha * sum sigma^2 (isotropic); gradients in log parameters
        prod = np.exp(log_maj + log_min)
        batch_loss += cfg.alpha * prod.sum()
        if learn_cov:
            if iso:
                shared = grad_cov[:, 1] + grad_cov[:, 2] + 2.0 * cfg.alpha * prod
                grad_cov = np.stack([np.zeros_like(shared), shared, shared], axis=1)
            else:
                grad_cov[:, 1] += cfg.alpha * prod
                grad_cov[:, 2] += cfg.alpha * prod

        if not math.isfinite(batch_loss):
            raise TrainDivergedError(f"non-finite loss at iteration {it}")
        trace[it] = batch_loss

        if not cfg.freeze_predictor:
            grad += cfg.weight_decay * params
            vel = MOMENTUM * vel - cfg.learning_rate * grad
            params = params + vel
            net.set_params(params)
        if learn_cov:
            vel_cov = MOMENTUM * vel_cov - (cfg.learning_rate
                                            * cfg.covariance_lr_multiplier) * grad_cov
            theta = theta + vel_cov[:, 0]
            log_maj = log_maj + vel_cov[:, 1]
            log_min = log_min + vel_cov[:, 2]
            # log extents beyond e^30 px are runaway dynamics, not a fit
            if max(np.abs(log_maj).max(), np.abs(log_min).max()) > 30.0:
                raise TrainDivergedError(
                    f"covariance parameters diverged at iteration {it}; lower "
                    f"learning_rate * covariance_lr_multiplier")
        if progress is not None:
            progress(it, batch_loss, np.exp(log_maj), np.exp(log_min))

    if learn_cov:
        decomps = [CovarianceDecomposition(theta[i], math.exp(log_maj[i]),
                                           math.exp(log_min[i])).canonical()
                   for i in range(n_landmarks)]
    else:
        decomps = [CovarianceDecomposition(0.0, cfg.sigma_init, cfg.sigma_init)
                   for _ in range(n_landmarks)]
    return TrainedModel(net, decomps, cfg, trace)


def predict(model: TrainedModel, image) -> np.ndarray:
    """One deterministic forward pass (dropout off), float64 (N, H, W)."""
    return model.predictor.forward(image)


# --- checkpoint IO ----------------------------------------------------------------


def write_checkpoint(model: TrainedModel, path) -> None:
    """Binary model file: magic, version, per-landmark covariance (f64),
    predictor parameters (f32), and a key=value config snapshot."""
    decomps = model.target_decomps
    params = model.predictor.get_params().astype("<f4")
    snapshot = format_config(config_to_dict(model.config)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(decomps)))
        for d in decomps:
            fh.write(struct.pack("<3d", d.theta, d.sigma_maj, d.sigma_min))
        fh.write(struct.pack("<I", params.size))
        fh.write(params.tobytes())
        fh.write(struct.pack("<I", len(snapshot)))
        fh.write(snapshot)


def read_checkpoint(path) -> TrainedModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise InvalidParameterError(f"{path}: not a model checkpoint")
    pos = 4

    def take(size):
        nonlocal pos
        if pos + size > len(raw):
            raise InvalidParameterError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
        pos += size
        return raw[pos - size:pos]

    (version,) = struct.unpack("<H", take(2))
    if version != CHECKPOINT_VERSION:
        raise InvalidParameterError(f"{path}: unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", take(4))
    decomps = [CovarianceDecomposition(*struct.unpack("<3d", take(24))) for _ in range(count)]
    (n_params,) = struct.unpack("<I", take(4))
    params = np.frombuffer(take(4 * n_params), dtype="<f4")
    if not np.isfinite(params).all():
        raise InvalidParameterError(f"{path}: predictor parameters must be finite")
    (cfg_len,) = struct.unpack("<I", take(4))
    snapshot = decode_utf8(take(cfg_len), path, offset=pos - cfg_len)  # pos is past it
    with errors_named(path):
        for d in decomps:
            d.validate()
        cfg = config_from_dict(TrainConfig, parse_config_text(snapshot, source=str(path)))
        net = ReferencePredictor(count, cfg.predictor_width, seed=cfg.seed, dtype=NET_DTYPE)
        net.set_params(params)
    return TrainedModel(net, decomps, cfg, np.empty(0))
