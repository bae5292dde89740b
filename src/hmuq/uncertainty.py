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
    """K stochastic forward passes, streamed: returns (mean, points).

    mean is the float64 (N, H, W) mean of the passes, summed in pass order
    from pass 0 as the mean over their stack is; points is the (N, K, 2) intp
    array of each pass's argmax_coord.  No pass is kept, so only the points
    grow with k.  Dropout sits only in the predictor head, so the trunk runs
    once and the K heads run on its features.  Pass i draws its mask from
    default_rng([seed, i]), exactly as predictor.forward(image, rate,
    default_rng([seed, i])) does.
    """
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    rate = model.config.dropout_rate
    if not rate > 0:
        raise InvalidParameterError("Monte-Carlo dropout needs a model trained with dropout")
    net = model.predictor
    with too_large(f"k = {k} is too large to hold its argmax points"):
        points = np.empty((net.landmark_count, k, 2), dtype=np.intp)
    features = net.trunk(image)
    for i in range(k):
        heatmaps = net.head(features, rate, np.random.default_rng([seed, i]))
        flat = heatmaps.reshape(len(heatmaps), -1).argmax(axis=1)  # argmax_coord's tie-break
        points[:, i, 1], points[:, i, 0] = np.divmod(flat, heatmaps.shape[2])
        total = total + heatmaps if i else heatmaps
    return total / k, points
