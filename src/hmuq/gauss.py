"""Core 2-D Gaussian math for landmark heatmaps.

Covariances are parameterized either as plain 2x2 matrices (pixel^2) or as a
rotation/extent decomposition (theta, sigma_maj, sigma_min).  Heatmaps are
float64 (H, W) arrays of the Gaussian density evaluated at integer pixel
centers; image arrays are indexed [row, col] = [y, x] while coordinates are
(x, y) pairs.  Extent derivatives are by log sigma, for training and fitting.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi
MAX_LOG_EXTENT = 30.0  # |log sigma| past this (e^30 px) is runaway dynamics, not a Gaussian


class InvalidParameterError(ValueError):
    """A Gaussian parameter is outside its valid domain."""


@contextlib.contextmanager
def too_large(message: str):
    """Raise InvalidParameterError(message) for an allocation in the block that
    fails: past the address space (MemoryError) or numpy's size limit (ValueError)."""
    try:
        yield
    except (MemoryError, ValueError):
        raise InvalidParameterError(message) from None


@dataclass(frozen=True)
class CovarianceDecomposition:
    """Rotation/extent parameterization of a 2x2 covariance.

    theta is the angle of the major axis against the x-axis in radians;
    sigma_maj and sigma_min are the extents along the major and minor axis
    in pixels.  Canonical form has sigma_maj >= sigma_min and
    theta in (-pi/2, pi/2]; when the extents are equal theta is 0.
    """

    theta: float
    sigma_maj: float
    sigma_min: float

    def validate(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.sigma_maj)
                and math.isfinite(self.sigma_min)):
            raise InvalidParameterError("covariance parameters must be finite")
        if self.sigma_maj < 0 or self.sigma_min < 0:
            raise InvalidParameterError(
                f"sigma_maj={self.sigma_maj}, sigma_min={self.sigma_min} must be >= 0")

    def canonical(self) -> "CovarianceDecomposition":
        """Equivalent decomposition with sigma_maj >= sigma_min, theta in (-pi/2, pi/2]."""
        theta, maj, mnr = self.theta, self.sigma_maj, self.sigma_min
        if mnr > maj:
            maj, mnr = mnr, maj
            theta += 0.5 * math.pi
        if maj - mnr <= 1e-12 * maj:
            theta = 0.0  # rotation of an isotropic Gaussian is unidentifiable
        theta = wrap_axis_angle(theta)
        return CovarianceDecomposition(theta, maj, mnr)

    @property
    def ratio(self) -> float:
        return self.sigma_maj / self.sigma_min

    @property
    def product(self) -> float:
        return self.sigma_maj * self.sigma_min

    @property
    def theta_deg(self) -> float:
        return math.degrees(self.theta)

    def scaled(self, factor: float) -> "CovarianceDecomposition":
        """Same orientation with extents multiplied by factor (unit change)."""
        return replace(self, sigma_maj=self.sigma_maj * factor,
                       sigma_min=self.sigma_min * factor)


@dataclass(frozen=True)
class AnisotropicGaussian:
    """Normalized 2-D Gaussian scaled by `amplitude`, centered at `mean` = (x, y)."""

    mean: tuple[float, float]
    decomp: CovarianceDecomposition
    amplitude: float

    def validate(self) -> None:
        if not all(math.isfinite(c) for c in self.mean):
            raise InvalidParameterError("mean must be finite")
        if not self.amplitude > 0:
            raise InvalidParameterError(f"amplitude must be > 0, got {self.amplitude}")
        self.decomp.validate()
        if self.decomp.sigma_maj <= 0 or self.decomp.sigma_min <= 0:
            raise InvalidParameterError("sigmas must be > 0 for a renderable Gaussian")


def wrap_axis_angle(theta: float) -> float:
    """Wrap an (undirected) axis angle to the interval (-pi/2, pi/2]."""
    t = (theta + 0.5 * math.pi) % math.pi - 0.5 * math.pi
    if t == -0.5 * math.pi:  # modulo hit exactly 0
        t = 0.5 * math.pi
    return t


def _scalars(theta, a, b, amp):
    """cos theta, sin theta, amp / (2 pi a b), 1 / b^2 - 1 / a^2, a^2 and b^2 in
    scalar arithmetic (numpy's array b ** 2 rounds differently), stacked to
    (N, 1, 1) arrays for (N, 1, 1) parameters."""
    if isinstance(theta, np.ndarray):
        rows = [_scalars(*p) for p in zip(theta.flat, a.flat, b.flat, amp.flat)]
        return np.array(rows).T[..., None, None]
    a2, b2 = a ** 2, b ** 2
    return math.cos(theta), math.sin(theta), amp / (TWO_PI * a * b), 1.0 / b2 - 1.0 / a2, a2, b2


def _gaussian(dx, dy, theta, a, b, amp, mean_gradients=False, out=None):
    """Gaussian of mass amp and extents (a, b) at offsets (dx, dy) = pixel - mean.

    theta, a, b and amp are numbers, or (N, 1, 1) arrays for a stack of N.  dx
    and dy broadcast: a row and a column for a grid (with a leading N axis for
    a stack), or two flat arrays for a fit window.  Returns (values, d/dtheta,
    d/dlog a, d/dlog b), with `mean_gradients` followed by d/dmean_x and
    d/dmean_y, in `out` (one array of the broadcast shape per result) or in
    new arrays.  The operations and their order are those of the formulas in
    the comments, so neither writing in place nor stacking changes a bit.
    Outputs are passed positionally: numpy parses an `out=` keyword more
    slowly.  Nothing is validated here.
    """
    if out is None:
        out = np.empty((6 if mean_gradients else 4, *np.broadcast(dx, dy).shape))
    c, s, norm, k, a2, b2 = _scalars(theta, a, b, amp)
    u1, u2, q1, q2 = np.empty((4, *out[0].shape))
    np.add(c * dx, s * dy, u1)  # a grid's products stay a row and a column
    np.add(-s * dx, c * dy, u2)
    np.square(np.divide(u1, a, q1), q1)  # (u1 / a)^2
    np.square(np.divide(u2, b, q2), q2)
    h = np.add(q1, q2, out[0])  # amp / (2 pi a b) exp(-0.5 (q1 + q2))
    np.exp(np.multiply(-0.5, h, h), h)
    np.multiply(h, norm, h)
    dtheta, dlog_a, dlog_b = out[1], out[2], out[3]
    np.multiply(h, u1, dtheta)  # h u1 u2 (1 / b^2 - 1 / a^2)
    np.multiply(dtheta, u2, dtheta)
    np.multiply(dtheta, k, dtheta)
    np.multiply(h, np.subtract(q1, 1.0, q1), dlog_a)  # h (q1 - 1)
    np.multiply(h, np.subtract(q2, 1.0, q2), dlog_b)
    if mean_gradients:
        dmx, dmy = out[4], out[5]
        # h (c u1 / a^2 - s u2 / b^2) and h (s u1 / a^2 + c u2 / b^2)
        np.subtract(np.divide(np.multiply(c, u1, dmx), a2, dmx),
                    np.divide(np.multiply(s, u2, q1), b2, q1), dmx)
        np.add(np.divide(np.multiply(s, u1, dmy), a2, dmy),
               np.divide(np.multiply(c, u2, q2), b2, q2), dmy)
        np.multiply(dmx, h, dmx)
        np.multiply(dmy, h, dmy)
    return tuple(out)


def render_with_param_gradients(gaussians, grid_shape: tuple[int, int]):
    """Validated Gaussians and their parameter derivatives on the pixel centers
    of an (H, W) grid, from one kernel call: (N, H, W) stacks of h, dh/dtheta,
    dh/dlog sigma_maj and dh/dlog sigma_min, one layer per Gaussian."""
    for g in gaussians:
        g.validate()
    mx, my, theta, a, b, amp = np.array(
        [(*g.mean, g.decomp.theta, g.decomp.sigma_maj, g.decomp.sigma_min, g.amplitude)
         for g in gaussians]).T[..., None, None]
    return _gaussian(np.arange(grid_shape[1], dtype=np.float64) - mx,
                     np.arange(grid_shape[0], dtype=np.float64)[:, None] - my,
                     theta, a, b, amp)


def sample_gaussian(g: AnisotropicGaussian, n: int, seed) -> np.ndarray:
    """Draw n points from N(mean, covariance) as an (n, 2) array of (x, y).

    Points are (z * (sigma_maj, sigma_min)) R^T + mean with z standard normal,
    formed as R (z * sigma)^T for contiguous columns (the same bits).  `seed`
    is anything np.random.default_rng accepts; a Generator is drawn from in
    place, so successive calls continue one stream.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    d = g.decomp
    d.validate()
    rng = np.random.default_rng(seed)  # outside the guard: a bad seed is no size error
    c, s = math.cos(d.theta), math.sin(d.theta)
    with too_large(f"samples = {n} is too large to draw at once"):
        z = rng.standard_normal((n, 2)).T  # a (2, n) view: one row per axis
        block = np.multiply(z, ((d.sigma_maj,), (d.sigma_min,)), np.empty((2, n)))
        return np.add(np.array([[c, -s], [s, c]]) @ block, ((g.mean[0],), (g.mean[1],)), block).T


def decompose(cov) -> CovarianceDecomposition:
    """Canonical decomposition of a 2x2 covariance (pixel^2) of weighted points.

    A zero-variance direction (collinear or duplicate points) yields
    sigma_min = 0; negative eigenvalues are rounding, and the clip at 0 absorbs them.
    """
    if not np.all(np.isfinite(cov)):
        raise InvalidParameterError("covariance entries must be finite")
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    vals = np.clip(vals, 0.0, None)
    theta = math.atan2(vecs[1, 1], vecs[0, 1])  # the major eigenvector
    return CovarianceDecomposition(theta, math.sqrt(vals[1]), math.sqrt(vals[0])).canonical()


def population_distribution(points) -> tuple[np.ndarray, CovarianceDecomposition]:
    """Mean and population covariance (divisor n) of (n, 2) points, decomposed."""
    points = np.asarray(points, dtype=np.float64)
    if not np.isfinite(points).all():  # before inf - inf warns in the centering
        raise InvalidParameterError("covariance entries must be finite")
    mean = points.mean(axis=0)
    centered = points - mean
    return mean, decompose(centered.T @ centered / len(points))
