"""Localization and distribution metrics, plus multi-observer analysis.

Orientation angles are axis angles (period pi): averaging uses the circular
mean of the doubled angle, so +89 deg and -89 deg average to +/-90 deg rather
than 0.  All covariance fits use the population convention (divisor n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .gauss import (
    CovarianceDecomposition,
    InvalidParameterError,
    population_distribution,
    wrap_axis_angle,
)

REPORT_COLUMNS = ["landmark_id", "ratio_mean", "ratio_sd", "product_mean", "product_sd",
                  "theta_mean_deg", "theta_sd_deg", "pe_mean", "pe_sd",
                  "sdr_2", "sdr_2.5", "sdr_3", "sdr_4"]
SDR_RADII = (2.0, 2.5, 3.0, 4.0)


@dataclass(frozen=True)
class AggregateStats:
    ratio_mean: float
    ratio_sd: float
    product_mean: float
    product_sd: float
    theta_mean_deg: float
    theta_sd_deg: float


def point_error(gt, pred) -> float:
    """Euclidean distance between a target and a predicted coordinate."""
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return float(np.hypot(*(gt - pred)))


def sdr(errors, r: float) -> float:
    """Percentage of errors within radius r (boundary inclusive)."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise InvalidParameterError("sdr of an empty error list is undefined")
    if not r > 0:
        raise InvalidParameterError(f"radius must be > 0, got {r}")
    return float(100.0 * np.count_nonzero(errors <= r) / errors.size)


def circular_axis_mean_deg(theta_deg) -> tuple[float, float]:
    """Circular mean and SD of axis angles in degrees (period 180 deg)."""
    t = np.radians(np.asarray(theta_deg, dtype=np.float64)) * 2.0
    c = np.cos(t).mean()
    s = np.sin(t).mean()
    mean = wrap_axis_angle(0.5 * math.atan2(s, c))
    rbar = min(math.hypot(c, s), 1.0)
    # a resultant within rounding of 1 means zero dispersion
    sd = 0.0 if rbar >= 1.0 - 1e-12 else 0.5 * math.sqrt(-2.0 * math.log(rbar))
    return math.degrees(mean), math.degrees(sd)


def aggregate_stats(decomps) -> AggregateStats:
    """Mean/SD of ratio, product, and orientation over per-image decompositions."""
    if len(decomps) == 0:
        raise InvalidParameterError("aggregate_stats needs at least one decomposition")
    ratios = np.array([d.ratio for d in decomps])
    products = np.array([d.product for d in decomps])
    theta_mean, theta_sd = circular_axis_mean_deg([d.theta_deg for d in decomps])
    return AggregateStats(float(ratios.mean()), float(ratios.std()),
                          float(products.mean()), float(products.std()),
                          theta_mean, theta_sd)


def interobserver_decomps(dataset, landmark_id: int) -> list[CovarianceDecomposition]:
    """Per-image covariance decompositions of one landmark's observer points (mm).

    An image is skipped when it has fewer than 3 annotations for the
    landmark (a Gaussian fit needs at least 3 points) or when its points are
    collinear, so that sigma_min = 0 and the extent ratio is undefined.
    """
    if dataset.observers is None:
        raise InvalidParameterError("dataset has no observer annotations")
    out = []
    for i, image_id in enumerate(dataset.ids):
        entries = dataset.observers.get((image_id, landmark_id))
        if entries is None or len(entries) < 3:
            continue
        pts = np.array([(x, y) for _, x, y in entries]) * dataset.spacing[i]
        spread = population_distribution(pts)[1]
        if spread.sigma_min > 0:
            out.append(spread)
    if not out:
        raise InvalidParameterError(
            f"no image has >= 3 non-collinear observer annotations for landmark {landmark_id}")
    return out


def report_row(landmark_id, stats: AggregateStats | None, errors=None) -> dict[str, str]:
    """One metrics-report row; distribution or error columns may be absent (empty)."""
    row = {c: "" for c in REPORT_COLUMNS}
    row["landmark_id"] = str(landmark_id)
    if stats is not None:
        for name in ("ratio_mean", "ratio_sd", "product_mean", "product_sd",
                     "theta_mean_deg", "theta_sd_deg"):
            row[name] = f"{getattr(stats, name):.6f}"
    if errors is not None:
        errors = np.asarray(errors, dtype=np.float64)
        row["pe_mean"] = f"{errors.mean():.6f}"
        row["pe_sd"] = f"{errors.std():.6f}"
        for r in SDR_RADII:
            key = f"sdr_{r:g}"
            row[key] = f"{sdr(errors, r):.6f}"
    return row


def write_report_csv(path, rows) -> None:
    write_csv(path, REPORT_COLUMNS, ([row[c] for c in REPORT_COLUMNS] for row in rows))
