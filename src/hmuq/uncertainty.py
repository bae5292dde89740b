"""Per-sample uncertainty from heatmap fits, plus the two Monte-Carlo-Dropout
baselines (argmax spread vs fit of the mean heatmap)."""

from __future__ import annotations

import numpy as np

from .fitting import FitDegenerateError, FitResult, argmax_coord, fit_gaussian
from .gauss import CovarianceDecomposition, InvalidParameterError, population_distribution


def sample_uncertainty(h: np.ndarray) -> FitResult | None:
    """Gaussian fit of one predicted heatmap, or None when it is too flat to fit."""
    try:
        return fit_gaussian(h)
    except FitDegenerateError:
        return None


def _as_stack(heatmaps) -> np.ndarray:
    values = np.asarray(heatmaps, dtype=np.float64)
    if len(values) < 2:
        raise InvalidParameterError("need at least 2 forward passes")
    return values


def mcd_max(heatmaps) -> tuple[np.ndarray, CovarianceDecomposition]:
    """Mean and population covariance (divisor n) of the per-pass argmax
    coordinates; identical or collinear argmaxes give sigma_min = 0."""
    return population_distribution([argmax_coord(v) for v in _as_stack(heatmaps)])


def mcd_heatmap_fit(heatmaps) -> FitResult | None:
    """Gaussian fit of the pixel-wise mean of the K passes (None if too flat)."""
    return sample_uncertainty(_as_stack(heatmaps).mean(axis=0))


def mcd_predict(model, image, k: int = 20, seed: int = 0) -> np.ndarray:
    """K stochastic forward passes as an (N, K, H, W) array: landmark, pass, grid.

    Dropout sits only in the predictor head, so the deterministic trunk runs
    once and the K heads run on its features.  Pass i draws its mask from
    default_rng([seed, i]), exactly as predictor.forward(image, rate,
    default_rng([seed, i])) does, so the set is deterministic and matches K
    separate passes.
    """
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    rate = model.config.dropout_rate
    if not rate > 0:
        raise InvalidParameterError("Monte-Carlo dropout needs a model trained with dropout")
    net = model.predictor
    features = net.trunk(image)
    per_pass = [net.head(features, rate, np.random.default_rng([seed, pass_idx]))
                for pass_idx in range(k)]
    return np.stack(per_pass, axis=1)
