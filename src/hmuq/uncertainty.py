"""Per-sample uncertainty from heatmap fits, plus the two Monte-Carlo-Dropout
baselines (argmax spread vs fit of the mean heatmap)."""

from __future__ import annotations

import numpy as np

from .fitting import FitDegenerateError, FitResult, fit_gaussian
from .gauss import (
    CovarianceDecomposition,
    InvalidParameterError,
    population_distribution,
    too_large,
)
from .nets import keep_mask


def sample_uncertainty(h: np.ndarray) -> FitResult | None:
    """Gaussian fit of one predicted heatmap, or None when it is too flat to fit."""
    try:
        return fit_gaussian(h)
    except FitDegenerateError:
        return None


def mcd_max(points) -> tuple[np.ndarray, CovarianceDecomposition]:
    """population_distribution of one landmark's (K, 2) per-pass argmax points."""
    return population_distribution(points)


def mcd_heatmap_fit(mean: np.ndarray) -> FitResult | None:
    """Gaussian fit of one landmark's mean heatmap (None if too flat)."""
    return sample_uncertainty(mean)


def _mc_dropout_rate(model, k: int) -> float:
    """The model's dropout rate, checked for k Monte-Carlo passes."""
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    rate = model.config.dropout_rate
    if not rate > 0:
        raise InvalidParameterError("Monte-Carlo dropout needs a model trained with dropout")
    return rate


def mcd_keep_masks(model, shape, k: int = 20, seed: int = 0) -> np.ndarray:
    """The bool (k, H, W, C) keep masks of mcd_predict's k passes over any
    (H, W) image, C the predictor width: k*H*W*C bytes, C-contiguous.  Row i
    is keep_mask((H, W, C), rate, default_rng([seed, i])), the mask pass i
    draws without the block; one too large to allocate raises
    InvalidParameterError naming k."""
    rate = _mc_dropout_rate(model, k)
    shape = (*shape, model.predictor.width)
    with too_large(f"k = {k} is too large to hold its dropout masks"):
        block = np.empty((k, *shape), dtype=bool)
    for i in range(k):
        block[i] = keep_mask(shape, rate, np.random.default_rng([seed, i]))
    return block


def mcd_predict(model, image, k: int = 20, seed: int = 0,
                keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """K stochastic forward passes, streamed: returns (mean, points).

    mean is the float64 (N, H, W) mean of the passes, summed in pass order
    from pass 0 as the mean over their stack is; points is the (N, K, 2) intp
    array of each pass's argmax_coord.  Dropout sits only in the predictor
    head, so the trunk runs once, its features are rescaled once, and the K
    heads run on them.  Pass i reads its mask from keep, the block of
    mcd_keep_masks(model, image.shape, k, seed), when given; otherwise it
    draws the same mask as it goes, so only the points grow with k.  Either
    way pass i equals predictor.forward(image, rate, default_rng([seed, i])).
    """
    rate = _mc_dropout_rate(model, k)
    net = model.predictor
    with too_large(f"k = {k} is too large to hold its argmax points"):
        points = np.empty((net.landmark_count, k, 2), dtype=np.intp)
    features = net.trunk(image)
    if keep is not None and keep.shape != (k, *features.shape):
        raise InvalidParameterError(
            f"keep masks must have shape {(k, *features.shape)}, got {keep.shape}")
    scaled = features * net.dropout_scale(rate)
    for i in range(k):
        mask = (keep[i] if keep is not None
                else keep_mask(features.shape, rate, np.random.default_rng([seed, i])))
        heatmaps = net.masked_head(scaled, mask)
        flat = heatmaps.reshape(len(heatmaps), -1).argmax(axis=1)  # argmax_coord's tie-break
        points[:, i, 1], points[:, i, 0] = np.divmod(flat, heatmaps.shape[2])
        total = total + heatmaps if i else heatmaps
    return total / k, points
