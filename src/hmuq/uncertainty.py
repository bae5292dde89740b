"""Per-sample uncertainty from heatmap fits, plus the two Monte-Carlo-Dropout
baselines (argmax spread vs fit of the mean heatmap)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fitting import FitConfig, argmax_coord, fit_gaussian
from .gauss import CovarianceDecomposition, InvalidParameterError, population_distribution


@dataclass(frozen=True)
class LandmarkPrediction:
    coord: tuple[float, float]
    covariance: CovarianceDecomposition
    source: str
    converged: bool


@dataclass(frozen=True)
class McdConfig:
    k: int = 20
    seed: int = 0

    def validate(self) -> None:
        if self.k < 2:
            raise InvalidParameterError(f"k must be >= 2, got {self.k}")


def sample_uncertainty(h: np.ndarray, cfg: FitConfig = FitConfig()) -> LandmarkPrediction:
    """Gaussian fit of one predicted heatmap: coordinate plus directional spread."""
    res = fit_gaussian(h, cfg)
    return LandmarkPrediction(res.gaussian.mean, res.gaussian.decomp, "fit", res.converged)


def _as_stack(heatmaps) -> np.ndarray:
    values = np.asarray(heatmaps, dtype=np.float64)
    if len(values) < 2:
        raise InvalidParameterError("need at least 2 forward passes")
    return values


def points_prediction(points, source: str) -> LandmarkPrediction:
    """Mean and population covariance (divisor n) of coordinate samples.

    A zero-variance direction is legitimate (e.g. identical argmaxes), so the
    decomposition is returned with its degenerate flag set instead of failing.
    """
    mean, decomp = population_distribution(points)
    return LandmarkPrediction((float(mean[0]), float(mean[1])), decomp, source, True)


def mcd_max(heatmaps) -> LandmarkPrediction:
    """Mean and population covariance of the per-pass argmax coordinates."""
    values = _as_stack(heatmaps)
    return points_prediction([argmax_coord(v) for v in values], "mcd_max")


def mcd_heatmap_fit(heatmaps, fit_cfg: FitConfig = FitConfig()) -> LandmarkPrediction:
    """Gaussian fit of the pixel-wise mean of the K passes."""
    mean = _as_stack(heatmaps).mean(axis=0)
    return replace(sample_uncertainty(mean, fit_cfg), source="mcd_heatmap_fit")


def mcd_predict(model, image, cfg: McdConfig = McdConfig()) -> np.ndarray:
    """K stochastic forward passes as an (N, K, H, W) array: landmark, pass, grid.

    Dropout sits only in the predictor head, so the deterministic trunk runs
    once and the K heads run on its features.  Pass k draws its mask from
    default_rng([cfg.seed, k]), exactly as predict(..., dropout_enabled=True,
    seed=[cfg.seed, k]) does, so the set is deterministic and matches K
    separate passes.
    """
    cfg.validate()
    rate = model.config.dropout_rate
    if not rate > 0:
        raise InvalidParameterError("Monte-Carlo dropout needs a model trained with dropout")
    net = model.predictor
    features = net.trunk(image)
    per_pass = [net.head(features, rate, np.random.default_rng([cfg.seed, pass_idx]))
                for pass_idx in range(cfg.k)]
    return np.stack(per_pass, axis=1)
