"""Small fully-convolutional heatmap predictor with a hand-written backward pass."""

from __future__ import annotations

import functools
import math

import numpy as np

from .gauss import InvalidParameterError, too_large

BAND_BYTES = 192 * 1024  # row patches per 3x3-convolution band: 1,024 pixels at Cin = 16, float32


def _row_patches(x):
    """(H, W, C) -> ((H+2)*W, 3*C) row-patch matrix of the zero-padded input.

    Row r*W + j holds padded pixels (r, j..j+2) with columns in (kj, c) order:
    one strided view of the padded input (without as_strided's Python wrapper),
    copied once by the reshape.
    """
    h, w, c = x.shape
    padded = np.zeros((h + 2, w + 2, c), dtype=x.dtype)
    padded[1:-1, 1:-1] = x
    s0, s1, s2 = padded.strides
    view = np.ndarray((h + 2, w, 3, c), padded.dtype, padded, 0, (s0, s1, s1, s2))
    return view.reshape((h + 2) * w, 3 * c)


def _conv3x3(x, w):
    """(H, W, Cin) input * (Cout, Cin, 3, 3) kernel -> (H*W, Cout) same-padded
    convolution, and the row-patch matrix.  Its rows ki*W ... ki*W + H*W - 1
    are kernel row ki of every output pixel, so the convolution is three
    products of contiguous slices with the (3*Cin, Cout) kernel rows.  They run
    on equal bands of about BAND_BYTES of row patches, a band's three products
    in turn, so that its patches and output stay in cache between them."""
    h, wd = x.shape[:2]
    n = h * wd
    rows = _row_patches(x)
    # a copy even for Cin = 1, where the reshape would be a strided view that
    # matmul does not hand to BLAS
    k = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(3, -1, w.shape[0])
    bands = -(-n * rows[0].nbytes // BAND_BYTES)
    # no one-row rest, which matmul would hand to a matrix-vector kernel of other rounding
    edges = [n * b // bands for b in range(bands + 1)]
    y = np.empty((n, w.shape[0]), dtype=rows.dtype)
    part = np.empty((-(-n // bands), w.shape[0]), dtype=rows.dtype)  # kernel rows 1, 2 of a band
    for i, e in zip(edges, edges[1:]):
        np.matmul(rows[i:e], k[0], y[i:e])
        for ki in (1, 2):
            y[i:e] += np.matmul(rows[ki * wd + i:ki * wd + e], k[ki], part[:e - i])
    return y, rows


@functools.lru_cache(maxsize=8)
def _ones(n, dtype):
    """Read-only vector of n ones, made once per (n, dtype): the bias gradient's row sum."""
    ones = np.ones(n, dtype)
    ones.flags.writeable = False
    return ones


def avgpool2(x):
    return 0.25 * upsample2_backward(x)


def avgpool2_backward(dy):
    return upsample2(dy) * 0.25


def upsample2(x):
    return np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)


def upsample2_backward(dy):
    """Sum over 2x2 blocks of the leading axes, the adjoint of upsample2 and four
    times avgpool2 (faster than a reshaped reduction)."""
    return dy[0::2, 0::2] + dy[1::2, 0::2] + dy[0::2, 1::2] + dy[1::2, 1::2]


def keep_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """C-contiguous bool dropout keep mask of (H, W, C) features: the float64
    draw rng.random((C, H, W)) >= rate, laid out channels-last."""
    h, w, c = shape
    return np.ascontiguousarray((rng.random((c, h, w)) >= rate).transpose(1, 2, 0))


def check_image_shape(shape) -> None:
    """Raise InvalidParameterError unless the predictor takes images of this
    shape: 2-D with positive sides divisible by 4 (two pooling stages)."""
    if len(shape) != 2 or shape[0] % 4 or shape[1] % 4 or 0 in shape:
        raise InvalidParameterError(
            f"image must be 2-D with positive sides divisible by 4, got {tuple(shape)}")


class ReferencePredictor:
    """Fixed image-to-heatmaps network: three 3x3 conv+ReLU stages with two 2x2
    average-poolings on the way down, two nearest-neighbour upsamplings with
    conv+ReLU on the way back, one (inverted) dropout layer in front of the
    final stage, and a linear 1x1 head with one output channel per landmark.

    Parameters, activations, row-patch matrices, the dropout rescale and
    every matrix product are in `dtype` (float32 or float64) on channels-last
    (H, W, C) activations, and dropout keep masks are bool; each 3x3
    convolution is three products on one 1x3 row-patch matrix.  Inputs are
    cast to `dtype` once on the way in; heatmaps and gradients are cast up to
    float64 once on the way out.  Gradients come from the explicit backward
    pass below; the finite-difference checks in the test suite (float64) are
    the contract.  `weights` and `biases` are views of one `dtype` parameter
    vector, layer by layer; weights keep the (Cout, Cin, 3, 3) layout there
    and in checkpoints.
    """

    def __init__(self, landmark_count: int, width: int = 16, seed: int = 0,
                 dtype=np.float64):
        if landmark_count < 1 or width < 1:
            raise InvalidParameterError("landmark_count and width must be >= 1")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise InvalidParameterError(f"dtype must be float32 or float64, got {self.dtype}")
        self.landmark_count = int(landmark_count)
        self.width = int(width)
        c, n = self.width, self.landmark_count
        # (slice, shape) of each layer's weights, then its biases; Python ints,
        # so a huge width fails at the allocation below instead of overflowing
        self._layout, size = [], 0
        for shape in [(c, cin, 3, 3) for cin in (1, c, c, c, c)] + [(n, c)]:
            for part in (shape, shape[:1]):
                self._layout.append((slice(size, size + math.prod(part)), part))
                size += math.prod(part)
        with too_large(f"predictor_width = {width} is too large to hold its parameters"):
            self._params = np.zeros(size, dtype=self.dtype)
        self.weights, self.biases = self._views(self._params)
        # the head stays zero: initial output is exactly 0, so the first gradient
        # step already points each landmark channel at its feature-target correlation
        rng = np.random.default_rng(seed)
        for w, cin in zip(self.weights, (1, c, c, c, c)):
            w[...] = rng.normal(0.0, np.sqrt(2.0 / (cin * 9)), size=w.shape)
        self._cache = None
        self._mc_key = self._mc_block = None  # mc_heads' dropout-mask block and its key

    # --- parameter vector ---------------------------------------------------

    def _views(self, vec):
        """Per-layer weight and bias views of a flat parameter-shaped vector."""
        views = [vec[part].reshape(shape) for part, shape in self._layout]
        return views[0::2], views[1::2]

    def num_params(self) -> int:
        return self._params.size

    def get_params(self) -> np.ndarray:
        """Copy of the flat parameter vector, in the predictor's dtype."""
        return self._params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        """Copy a flat parameter vector of any float dtype in, cast to the predictor's."""
        flat = np.asarray(flat)
        if flat.shape != self._params.shape:
            raise InvalidParameterError(
                f"expected {self.num_params()} parameters, got {flat.shape}")
        self._params[...] = flat

    # --- forward / backward ---------------------------------------------------

    def _conv_relu(self, x, layer):
        """3x3 conv + ReLU of an (H, W, Cin) input; returns it with the row-patch
        matrix that backward needs."""
        y, rows = _conv3x3(x, self.weights[layer])
        y += self.biases[layer]
        return np.maximum(y, 0.0, out=y).reshape(x.shape[0], x.shape[1], -1), rows

    def trunk(self, image: np.ndarray):
        """Deterministic part of forward: stages 0-3 and the last upsampling.

        Maps a (H, W) image to (H, W, C) features for the head and the (row
        patches, activation) each stage saves for backward.  Dropout is only in
        the head, so Monte-Carlo passes over one image share one trunk.
        """
        image = np.asarray(image, dtype=self.dtype)
        check_image_shape(image.shape)
        a1, rows0 = self._conv_relu(image[:, :, None], 0)
        a2, rows1 = self._conv_relu(avgpool2(a1), 1)
        a3, rows2 = self._conv_relu(avgpool2(a2), 2)
        a4, rows3 = self._conv_relu(upsample2(a3), 3)
        return upsample2(a4), ((rows0, a1), (rows1, a2), (rows2, a3), (rows3, a4))

    def dropout_scale(self, dropout_rate: float):
        """The inverted-dropout rescale 1/(1-rate) of kept units, in the predictor's dtype."""
        return np.divide(1, 1 - dropout_rate, dtype=self.dtype)

    def _masked_head(self, scaled, keep):
        # the one dropout path: drop the units of trunk() features, already
        # multiplied by dropout_scale(rate), where the bool (H, W, C) `keep` is
        # False; the two multiplies give the bits of one by a float mask of 0
        # and 1/(1-rate), and backward applies the same two to its gradient
        h, w, c = scaled.shape
        a5, rows4 = self._conv_relu(scaled * keep if keep is not None else scaled, 4)
        y = self.weights[5] @ a5.reshape(h * w, c).T + self.biases[5][:, None]  # (N, H*W)
        return y.astype(np.float64).reshape(-1, h, w), rows4, a5

    def forward(self, image: np.ndarray, dropout_rate: float = 0.0,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Run the network on a (H, W) image; returns float64 (N, H, W) heatmaps.

        H and W must be positive and divisible by 4 (two pooling stages).  A
        nonzero dropout_rate needs an rng: the trunk() features where
        keep_mask(features.shape, rate, rng) is False are dropped and the rest
        scaled by dropout_scale(rate), as in mc_heads; both dtypes draw the
        same float64 mask, so they drop the same units.
        """
        features, saved = self.trunk(image)
        keep = None
        if dropout_rate:
            if rng is None:
                raise InvalidParameterError("dropout_rate > 0 requires an rng")
            keep = keep_mask(features.shape, dropout_rate, rng)
            features = features * self.dropout_scale(dropout_rate)
        heatmaps, rows4, a5 = self._masked_head(features, keep)
        self._cache = ((*saved, (rows4, a5)), dropout_rate, keep)
        return heatmaps

    def mc_heads(self, image: np.ndarray, k: int, rate: float, seed: int):
        """Yield the (N, H, W) heatmaps of k dropout passes over one image, on
        one trunk and keeping nothing for backward; pass i equals forward(image,
        rate, default_rng([seed, i])).  Its mask is row i of a bool (k, H, W, C)
        block kept here, drawn again (after the old one is freed) only when the
        feature shape, k, seed or rate changes; too large a block raises naming k."""
        features = self.trunk(image)[0]
        key = (features.shape, k, seed, rate)
        if key != self._mc_key:
            self._mc_key = self._mc_block = None  # free the old block first
            with too_large(f"k = {k} is too large to hold its dropout masks"):
                block = np.empty((k, *features.shape), dtype=bool)
            for i in range(k):
                block[i] = keep_mask(features.shape, rate, np.random.default_rng([seed, i]))
            self._mc_key, self._mc_block = key, block
        scaled = features * self.dropout_scale(rate)
        for keep in self._mc_block:
            yield self._masked_head(scaled, keep)[0]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Backpropagate (N, H, W) output gradients from the latest forward call.

        Returns the float64 loss gradient with respect to the flat parameter
        vector; the pass itself runs in the predictor's dtype.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        stages, rate, keep = self._cache
        a5 = stages[4][1]
        grad = np.empty(self._params.size)
        gw, gb = self._views(grad)
        dyf = np.asarray(dy, dtype=self.dtype).reshape(dy.shape[0], -1)
        gw[5][...] = dyf @ a5.reshape(dyf.shape[1], -1)
        gb[5][...] = dyf.sum(axis=1)
        da5 = (dyf.T @ self.weights[5]).reshape(a5.shape)
        dd = self._conv_back(da5, *stages[4], 4, gw, gb)
        du2 = dd * self.dropout_scale(rate) * keep if keep is not None else dd
        du1 = self._conv_back(upsample2_backward(du2), *stages[3], 3, gw, gb)
        dp2 = self._conv_back(upsample2_backward(du1), *stages[2], 2, gw, gb)
        dp1 = self._conv_back(avgpool2_backward(dp2), *stages[1], 1, gw, gb)
        self._conv_back(avgpool2_backward(dp1), *stages[0], 0, gw, gb)
        return grad

    def _conv_back(self, dy, rows, act, layer, gw, gb):
        """Backward of _conv_relu at `layer` from its output gradient, row patches and
        activation: fills gw and, by one matrix-vector product, gb; returns the input gradient."""
        dy = dy * (act > 0.0)
        w = self.weights[layer]
        cout, cin = w.shape[:2]
        h, wd = dy.shape[:2]
        n = h * wd
        dym = dy.reshape(n, cout)
        g = np.empty((3, cout, 3 * cin), dtype=dym.dtype)  # kernel row ki's products in g[ki]
        for ki in (0, 1, 2):
            np.matmul(dym.T, rows[ki * wd:ki * wd + n], g[ki])
        gw[layer][...] = g.reshape(3, cout, 3, cin).transpose(1, 3, 0, 2)
        gb[layer][...] = _ones(n, dym.dtype) @ dym
        if layer == 0:
            return None  # nothing reads the image gradient
        # transposed convolution: the output gradient convolved with the
        # spatially flipped kernel, input and output channels swapped
        dx, _ = _conv3x3(dy, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        return dx.reshape(h, wd, cin)
