"""Per-sample uncertainty from heatmap fits, plus the two Monte-Carlo-Dropout
baselines (argmax spread vs fit of the mean heatmap)."""

from __future__ import annotations

import numpy as np

from .fitting import FitDegenerateError, FitResult, argmax_coord, fit_gaussian
from .gauss import (
    CovarianceDecomposition,
    InvalidParameterError,
    population_distribution,
    too_large,
)


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


def mcd_predict(model, image, k: int = 20, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """K dropout passes of predictor.mc_heads, streamed: returns (mean, points).

    mean is the float64 (N, H, W) mean of the passes, summed in pass order
    from pass 0 as the mean over their stack is; points is the (N, K, 2) intp
    array of each pass's argmax_coord.  Points (allocated before the trunk
    runs) or a mask block too large to allocate raise InvalidParameterError
    naming k.
    """
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    rate = model.config.dropout_rate
    if not rate > 0:
        raise InvalidParameterError("Monte-Carlo dropout needs a model trained with dropout")
    net = model.predictor
    with too_large(f"k = {k} is too large to hold its argmax points"):
        points = np.empty((net.landmark_count, k, 2), dtype=np.intp)
    for i, heatmaps in enumerate(net.mc_heads(image, k, rate, seed)):
        points[:, i, 0], points[:, i, 1] = argmax_coord(heatmaps)
        total = total + heatmaps if i else heatmaps
    return total / k, points
