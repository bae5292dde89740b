"""Heatmap-regression training with fixed or jointly learned target covariances.

Every step descends one objective, the pixel loss plus alpha * sigma_maj *
sigma_min per landmark, with the value and gradients aniso_loss_gradients
returns, in the coordinates held: (theta, log sigma_maj, log sigma_min), so
the extents stay positive without constraints.  The three target modes run
one update and differ only in which parameters move: none (fixed_iso), both
extents together (learned_iso) or all three (learned_aniso).  Results are
reported canonically.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
    MAX_LOG_EXTENT,
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    render_with_param_gradients,
    too_large,
)
from .nets import ReferencePredictor

# each target mode moves (theta, log sigma_maj, log sigma_min) along its
# gradient times one projection: learned_iso moves both extents by their sum
MODE_PROJECTIONS = {
    "fixed_iso": np.zeros((3, 3)),
    "learned_iso": np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
    "learned_aniso": np.eye(3),
}
TARGET_MODES = tuple(MODE_PROJECTIONS)
MOMENTUM = 0.9
CHECKPOINT_MAGIC = b"HMUQ"
CHECKPOINT_VERSION = 1
# the predictor computes in float32; train() keeps float64 master weights
NET_DTYPE = np.float32


class TrainDivergedError(RuntimeError):
    """Training hit a non-finite loss."""


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

    def validate(self) -> None:
        for name in ("alpha", "gamma", "learning_rate", "covariance_lr_multiplier", "sigma_init"):
            if not getattr(self, name) > 0:
                raise InvalidParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("iterations", "batch_size", "predictor_width"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise InvalidParameterError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0 <= self.dropout_rate < 1:
            raise InvalidParameterError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.target_mode not in TARGET_MODES:
            raise InvalidParameterError(
                f"target_mode must be one of {TARGET_MODES}, got {self.target_mode!r}")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainedModel:
    predictor: ReferencePredictor
    target_decomps: list[CovarianceDecomposition]
    config: TrainConfig
    loss_trace: np.ndarray


# --- losses -------------------------------------------------------------------


def aniso_loss_gradients(pred, coords, decomps, alpha: float, gamma: float):
    """Anisotropic loss with its analytic gradients.

    Returns (loss, cov_grads, dpred): cov_grads has one (d/dtheta, d/dlog
    sigma_maj, d/dlog sigma_min) row per landmark; dpred is the gradient with
    respect to the predicted heatmaps, ready for a predictor backward pass.
    """
    coords = np.asarray(coords, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 3 or pred.shape[0] != len(coords):
        raise InvalidParameterError(
            f"expected {len(coords)} predicted heatmaps, got array of shape {pred.shape}")
    if len(decomps) != len(coords):
        raise InvalidParameterError("one covariance decomposition per landmark required")
    gaussians = [AnisotropicGaussian(tuple(c), d, gamma) for c, d in zip(coords, decomps)]
    target, *maps = render_with_param_gradients(gaussians, pred.shape[1:])
    r = pred - target
    squares = np.square(r).sum(axis=(1, 2))
    dpred = 2.0 * r
    r, maps = r.reshape(len(r), -1), [m.reshape(len(r), -1) for m in maps]
    loss = 0.0
    cov_grads = np.empty((len(decomps), 3))
    for i, d in enumerate(decomps):
        reg = alpha * d.sigma_maj * d.sigma_min  # its d/dlog of either extent is itself
        loss += squares[i] + reg
        dtheta, dlog_maj, dlog_min = (-2.0 * (r[i] @ m[i]) for m in maps)
        cov_grads[i] = dtheta, dlog_maj + reg, dlog_min + reg
    return float(loss), cov_grads, dpred


# --- training loop --------------------------------------------------------------


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train(dataset, cfg: TrainConfig, progress=None) -> TrainedModel:
    """Stochastic gradient descent (momentum 0.9, weight decay) over a dataset.

    `dataset` needs `.images` (list of equally shaped 2-D arrays) and
    `.coords` ((num_images, num_landmarks, 2) pixel coordinates).  Every
    target mode runs the same momentum step on the covariance parameters at
    learning_rate * covariance_lr_multiplier, with the gradient projected
    onto the parameters the mode moves (MODE_PROJECTIONS); the run is
    deterministic for a fixed seed.
    The predictor's 1x1 head starts at zero, so under freeze_predictor its
    output is exactly 0 throughout: a study of the covariance dynamics alone.
    The predictor computes in NET_DTYPE; its parameters, their momentum and
    the covariance parameters are float64 master copies updated here, and
    the predictor gets the master weights cast down after every step.
    A batch's samples run on min(batch_size, usable_cpus()) lanes, threads
    that share the parameters, and their gradients are summed in slot
    order, so the result does not depend on the lane count.
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
    params = net.get_params().astype(np.float64)
    vel = np.zeros_like(params)

    project = MODE_PROJECTIONS[cfg.target_mode]
    cov = np.zeros((n_landmarks, 3))  # rows of (theta, log sigma_maj, log sigma_min)
    cov[:, 1:] = math.log(cfg.sigma_init)
    vel_cov = np.zeros_like(cov)

    # lane w runs batch slots w, w + lanes, ... on its own copy of the predictor
    # (shared parameters, its own forward cache); lane 0 is this thread
    lanes = [net] + [copy.copy(net) for _ in range(min(cfg.batch_size, usable_cpus()) - 1)]

    def run_lane(w, it, idx, decomps, samples):
        for slot in range(w, cfg.batch_size, len(lanes)):
            drop_rng = (np.random.default_rng([cfg.seed, it, slot, 1])
                        if cfg.dropout_rate else None)
            pred = lanes[w].forward(images[idx[slot]], cfg.dropout_rate, drop_rng)
            loss, g, dpred = aniso_loss_gradients(pred, coords[idx[slot]], decomps,
                                                  cfg.alpha, cfg.gamma)
            samples[slot] = loss, g, None if cfg.freeze_predictor else lanes[w].backward(dpred)

    trace = []
    # threads start on the first submit, so one lane starts none
    with ThreadPoolExecutor(max(len(lanes) - 1, 1)) as pool:
        for it in range(cfg.iterations):
            with too_large(f"batch_size = {cfg.batch_size} is too large to draw a batch"):
                idx = rng.integers(0, len(images), size=cfg.batch_size)
            decomps = list(map(CovarianceDecomposition, cov[:, 0], *np.exp(cov[:, 1:]).T))
            samples = [None] * cfg.batch_size
            helpers = [pool.submit(run_lane, w, it, idx, decomps, samples)
                       for w in range(1, len(lanes))]
            run_lane(0, it, idx, decomps, samples)
            for f in helpers:
                f.result()
            # summed in slot order, so the bytes do not depend on the lane count
            losses, grads_cov, grads = zip(*samples)
            batch_loss = sum(losses) / cfg.batch_size
            if not math.isfinite(batch_loss):
                raise TrainDivergedError(f"non-finite loss at iteration {it}")
            trace.append(batch_loss)

            if not cfg.freeze_predictor:
                grad = sum(grads) / cfg.batch_size + cfg.weight_decay * params
                vel = MOMENTUM * vel - cfg.learning_rate * grad
                params = params + vel
                net.set_params(params)
            vel_cov = MOMENTUM * vel_cov - (cfg.learning_rate * cfg.covariance_lr_multiplier) * (
                sum(grads_cov) / cfg.batch_size @ project)
            cov = cov + vel_cov
            if np.abs(cov[:, 1:]).max() > MAX_LOG_EXTENT:
                raise TrainDivergedError(
                    f"covariance parameters diverged at iteration {it}; lower "
                    f"learning_rate * covariance_lr_multiplier")
            if progress is not None:
                progress(it, batch_loss, *np.exp(cov[:, 1:]).T)

    if project.any():
        decomps = [CovarianceDecomposition(t, math.exp(a), math.exp(b)).canonical()
                   for t, a, b in cov]
    else:  # a fixed target reports sigma_init itself: exp(log(3.0)) != 3.0
        decomps = [CovarianceDecomposition(0.0, cfg.sigma_init, cfg.sigma_init)] * n_landmarks
    return TrainedModel(net, decomps, cfg, np.array(trace))


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
