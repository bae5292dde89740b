"""Core 2-D Gaussian math for landmark heatmaps.

Covariances are parameterized either as plain 2x2 matrices (pixel^2) or as a
rotation/extent decomposition (theta, sigma_maj, sigma_min).  Heatmaps are
float64 (H, W) arrays of the Gaussian density evaluated at integer pixel
centers; image arrays are indexed [row, col] = [y, x] while coordinates are
(x, y) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi


class InvalidParameterError(ValueError):
    """A Gaussian parameter is outside its valid domain."""


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


def _gaussian(dx, dy, theta, a, b, amp, gradients=False, mean_gradients=False, out=None):
    """Gaussian of mass amp and extents (a, b) at offsets (dx, dy) = pixel - mean.

    dx and dy broadcast: a row and a column for a grid, or two flat arrays for
    a fit window.  Returns the values; with `gradients`, (values, d/dtheta,
    d/dlog a, d/dlog b); with `mean_gradients`, that tuple followed by
    d/dmean_x and d/dmean_y.  `out`, one array of the broadcast shape per
    result, receives them; it is allocated when not given.  The operations
    and their order are those of the formulas in the comments, so writing in
    place changes no bit.  Outputs are passed positionally: numpy parses an
    `out=` keyword more slowly.  Nothing is validated here.
    """
    if out is None:
        out = np.empty((6 if mean_gradients else 4 if gradients else 1,
                        *np.broadcast(dx, dy).shape))
    u1, u2, q1, q2 = np.empty((4, *out[0].shape))
    c, s = math.cos(theta), math.sin(theta)
    np.add(c * dx, s * dy, u1)  # a grid's products stay a row and a column
    np.add(-s * dx, c * dy, u2)
    np.square(np.divide(u1, a, q1), q1)  # (u1 / a)^2
    np.square(np.divide(u2, b, q2), q2)
    h = np.add(q1, q2, out[0])  # amp / (2 pi a b) exp(-0.5 (q1 + q2))
    np.exp(np.multiply(-0.5, h, h), h)
    np.multiply(h, amp / (TWO_PI * a * b), h)
    if not (gradients or mean_gradients):
        return h
    dtheta, dlog_a, dlog_b = out[1], out[2], out[3]
    np.multiply(h, u1, dtheta)  # h u1 u2 (1 / b^2 - 1 / a^2)
    np.multiply(dtheta, u2, dtheta)
    np.multiply(dtheta, 1.0 / b ** 2 - 1.0 / a ** 2, dtheta)
    np.multiply(h, np.subtract(q1, 1.0, q1), dlog_a)  # h (q1 - 1)
    np.multiply(h, np.subtract(q2, 1.0, q2), dlog_b)
    if not mean_gradients:
        return tuple(out)
    dmx, dmy = out[4], out[5]
    # h (c u1 / a^2 - s u2 / b^2) and h (s u1 / a^2 + c u2 / b^2)
    np.subtract(np.divide(np.multiply(c, u1, dmx), a ** 2, dmx),
                np.divide(np.multiply(s, u2, q1), b ** 2, q1), dmx)
    np.add(np.divide(np.multiply(s, u1, dmy), a ** 2, dmy),
           np.divide(np.multiply(c, u2, q2), b ** 2, q2), dmy)
    np.multiply(dmx, h, dmx)
    np.multiply(dmy, h, dmy)
    return tuple(out)


def _grid_args(g: AnisotropicGaussian, shape):
    """Kernel arguments of a validated Gaussian over the pixel centers of an (H, W) grid."""
    g.validate()
    d = g.decomp
    return (np.arange(shape[1], dtype=np.float64)[None, :] - g.mean[0],
            np.arange(shape[0], dtype=np.float64)[:, None] - g.mean[1],
            d.theta, d.sigma_maj, d.sigma_min, g.amplitude)


def render_with_param_gradients(g: AnisotropicGaussian, grid_shape: tuple[int, int]):
    """Fused render + parameter gradients: h, dh/dtheta, dh/dsigma_maj, dh/dsigma_min."""
    h, dtheta, dlog_maj, dlog_min = _gaussian(*_grid_args(g, grid_shape), gradients=True)
    return h, dtheta, dlog_maj / g.decomp.sigma_maj, dlog_min / g.decomp.sigma_min


def sample_gaussian(g: AnisotropicGaussian, n: int, seed) -> np.ndarray:
    """Draw n points from N(mean, covariance) as an (n, 2) array of (x, y).

    Points are (z * (sigma_maj, sigma_min)) R^T + mean with z standard normal.
    `seed` is anything np.random.default_rng accepts; a Generator is drawn
    from in place, so successive calls continue one stream.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    d = g.decomp
    d.validate()
    z = np.random.default_rng(seed).standard_normal((n, 2)) * (d.sigma_maj, d.sigma_min)
    c, s = math.cos(d.theta), math.sin(d.theta)
    return z @ np.array([[c, -s], [s, c]]).T + g.mean


def population_distribution(points) -> tuple[np.ndarray, CovarianceDecomposition]:
    """Mean and population covariance (divisor n) of (n, 2) points, decomposed.

    A zero-variance direction (collinear or duplicate points) yields
    sigma_min = 0 instead of an error; the covariance, a Gram matrix, has no
    negative eigenvalue beyond rounding, which the clip at 0 absorbs.
    """
    points = np.asarray(points, dtype=np.float64)
    if not np.isfinite(points).all():  # before inf - inf warns in the centering
        raise InvalidParameterError("covariance entries must be finite")
    mean = points.mean(axis=0)
    centered = points - mean
    cov = centered.T @ centered / len(points)
    if not np.all(np.isfinite(cov)):
        raise InvalidParameterError("covariance entries must be finite")
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    vals = np.clip(vals, 0.0, None)
    theta = math.atan2(vecs[1, 1], vecs[0, 1])  # the major eigenvector
    return mean, CovarianceDecomposition(theta, math.sqrt(vals[1]),
                                         math.sqrt(vals[0])).canonical()
