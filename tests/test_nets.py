import numpy as np
import pytest
from scipy import ndimage

import hmuq.nets
from helpers import max_rel_error, three_product_conv
from hmuq.gauss import InvalidParameterError
from hmuq.nets import (
    BAND_BYTES,
    ReferencePredictor,
    _conv3x3,
    avgpool2,
    avgpool2_backward,
    upsample2,
    upsample2_backward,
)


def loss_and_grad(net, image, target, dropout_rate=0.0, dropout_seed=None):
    """Scalar L2 loss against a fixed target plus its parameter gradient."""
    rng = np.random.default_rng(dropout_seed) if dropout_seed is not None else None
    y = net.forward(image, dropout_rate, rng)
    r = y - target
    return float((r ** 2).sum()), net.backward(2.0 * r)


def randomize(net, rng):
    # move all parameters (biases included) off zero: with zero biases a
    # fully-zeroed patch puts a pre-activation exactly on the ReLU kink, where
    # finite differences measure the two-sided average instead of the
    # subgradient the backward pass uses; fresh nets also have zero heads
    net.set_params(rng.normal(0.0, 0.3, net.num_params()))


class TestShapes:
    def test_output_matches_input_grid(self):
        net = ReferencePredictor(3, width=4, seed=0)
        y = net.forward(np.zeros((16, 24)))
        assert y.shape == (3, 16, 24)

    def test_rejects_bad_image(self):
        net = ReferencePredictor(1, width=4)
        with pytest.raises(InvalidParameterError):
            net.forward(np.zeros((10, 16)))
        with pytest.raises(InvalidParameterError):
            net.forward(np.zeros((4, 4, 1)))
        for empty in ((0, 16), (16, 0)):
            with pytest.raises(InvalidParameterError, match="positive sides"):
                net.forward(np.zeros(empty))

    def test_param_vector_round_trip(self):
        net = ReferencePredictor(2, width=4, seed=1)
        p = net.get_params()
        assert p.shape == (net.num_params(),)
        other = ReferencePredictor(2, width=4, seed=9)
        other.set_params(p)
        x = np.random.default_rng(0).random((8, 8))
        assert np.array_equal(net.forward(x), other.forward(x))

    def test_small_config_under_param_budget(self):
        assert ReferencePredictor(2, width=8).num_params() <= 5000


def direct_stages(net, image, dropout_rate=0.0, rng=None):
    """Independent (C, H, W) oracle of the forward pass: per-channel-pair
    ndimage.correlate, 2x2 mean pooling, slice-assigned upsampling and the same
    dropout draw.  Returns the inputs and the ReLU outputs of the five conv
    stages, and the dropout mask (None without dropout)."""

    def conv_relu(x, layer):
        w, b = net.weights[layer], net.biases[layer]
        y = np.empty((w.shape[0],) + x.shape[1:])
        for co in range(w.shape[0]):
            y[co] = b[co] + sum(ndimage.correlate(x[ci], w[co, ci], mode="constant")
                                for ci in range(w.shape[1]))
        return np.maximum(y, 0.0)

    def pool(x):
        c, h, w = x.shape
        return x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    def up(x):
        y = np.empty((x.shape[0], 2 * x.shape[1], 2 * x.shape[2]))
        for di in (0, 1):
            for dj in (0, 1):
                y[:, di::2, dj::2] = x
        return y

    inputs, acts = [image[None]], []
    for layer, between in enumerate((pool, pool, up, up)):
        acts.append(conv_relu(inputs[-1], layer))
        inputs.append(between(acts[-1]))
    mask = None
    if dropout_rate:
        mask = (rng.random(inputs[4].shape) >= dropout_rate) / (1.0 - dropout_rate)
        inputs[4] = inputs[4] * mask
    acts.append(conv_relu(inputs[4], 4))
    return inputs, acts, mask


def direct_forward(net, image, dropout_rate=0.0, rng=None):
    """direct_stages followed by an einsum head: (N, H, W) heatmaps."""
    a5 = direct_stages(net, image, dropout_rate, rng)[1][4]
    return np.einsum("nc,chw->nhw", net.weights[5], a5) + net.biases[5][:, None, None]


def direct_backward(net, image, dy, dropout_rate=0.0, rng=None):
    """Independent oracle of backward on the direct_stages activations.

    Per conv stage: the ReLU-masked output gradient, the weight gradient as
    sums of products with the shifted zero-padded input, and the input
    gradient as per-channel-pair ndimage.convolve (the adjoint of the
    same-padded correlation).  Returns the flat gradient in parameter order
    and {stage: (masked output gradient, input gradient)} for stages 4-1.
    """
    inputs, acts, mask = direct_stages(net, image, dropout_rate, rng)
    gw, gb, stages = [None] * 6, [None] * 6, {}
    gw[5] = np.einsum("nhw,chw->nc", dy, acts[4])
    gb[5] = dy.sum(axis=(1, 2))
    g = np.einsum("nc,nhw->chw", net.weights[5], dy)
    for layer in (4, 3, 2, 1, 0):
        w = net.weights[layer]
        dyc = g * (acts[layer] > 0.0)
        h, wd = dyc.shape[1:]
        padded = np.pad(inputs[layer], ((0, 0), (1, 1), (1, 1)))
        gw[layer] = np.array([[[[np.sum(dyc[co] * padded[ci, ki:ki + h, kj:kj + wd])
                                  for kj in range(3)] for ki in range(3)]
                                for ci in range(w.shape[1])] for co in range(w.shape[0])])
        gb[layer] = dyc.sum(axis=(1, 2))
        if layer == 0:
            break
        dx = np.array([sum(ndimage.convolve(dyc[co], w[co, ci], mode="constant")
                           for co in range(w.shape[0])) for ci in range(w.shape[1])])
        stages[layer] = dyc, dx
        if layer == 4 and mask is not None:
            dx = dx * mask
        c = dx.shape[0]
        if layer >= 3:  # adjoint of the upsampling: sum of each 2x2 block
            g = dx.reshape(c, h // 2, 2, wd // 2, 2).sum(axis=(2, 4))
        else:  # adjoint of the mean pooling: a quarter to each pixel of the block
            g = np.repeat(np.repeat(dx, 2, axis=1), 2, axis=2) / 4.0
    flat = np.concatenate([p.ravel() for pair in zip(gw, gb) for p in pair])
    return flat, stages


class TestDirectConvolutionOracle:
    """A self-consistent weight-layout mistake passes the finite-difference
    checks but changes what a stored checkpoint computes; this pins the layout."""

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_forward_matches_direct_convolution(self, rate):
        rng = np.random.default_rng(21)
        net = ReferencePredictor(3, width=5, seed=21)
        randomize(net, rng)
        image = rng.random((12, 16))
        got = net.forward(image, rate, np.random.default_rng(8))
        want = direct_forward(net, image, rate, np.random.default_rng(8))
        assert got.shape == want.shape == (3, 12, 16)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_backward_matches_direct_convolution(self, rate, monkeypatch):
        """On a non-square image, so that rows and columns cannot be swapped
        unnoticed: the parameter gradient of every stage, and the input
        gradient of stages 4-1 as backward's transposed convolutions compute
        them, each within 1e-12 of the largest value."""
        rng = np.random.default_rng(22)
        net = ReferencePredictor(3, width=5, seed=22)
        randomize(net, rng)
        image = rng.random((12, 16))
        dy = rng.normal(size=(3, 12, 16))
        net.forward(image, rate, np.random.default_rng(9))
        calls = []
        conv3x3 = hmuq.nets._conv3x3

        def recording_conv(x, w):
            y, rows = conv3x3(x, w)
            calls.append((x, y))
            return y, rows

        monkeypatch.setattr(hmuq.nets, "_conv3x3", recording_conv)
        got = net.backward(dy)
        want, stages = direct_backward(net, image, dy, rate, np.random.default_rng(9))
        sizes = [a.size for pair in zip(net.weights, net.biases) for a in pair]
        for got_p, want_p in zip(np.split(got, np.cumsum(sizes)[:-1]),
                                 np.split(want, np.cumsum(sizes)[:-1])):
            assert max_rel_error(got_p, want_p) <= 1e-12
        assert len(calls) == 4  # one transposed convolution per stage 4, 3, 2, 1
        for layer, (x, y) in zip((4, 3, 2, 1), calls):
            dyc, dx = stages[layer]
            assert max_rel_error(x.transpose(2, 0, 1), dyc) <= 1e-12
            assert max_rel_error(y.reshape(x.shape[:2] + (-1,)).transpose(2, 0, 1), dx) <= 1e-12


class TestBandedConvolution:
    """_conv3x3 runs its three kernel-row products band by band; each output
    byte must be that of the three whole-matrix products
    (helpers.three_product_conv), forward and backward, at the predictor's
    width."""

    @pytest.mark.parametrize("shape, dtype, banded", [
        ((64, 64, 16), np.float32, True),
        ((64, 64, 16), np.float64, True),
        ((256, 256, 16), np.float32, True),
        ((68, 60, 16), np.float32, True),  # 4,080 pixels: not a multiple of 1,024
        ((25, 41, 16), np.float64, True),  # 1,025 pixels: 512-pixel bands would leave one row
        ((64, 64, 1), np.float32, False),  # Cin = 1: the patches fit in one band
    ])
    def test_matches_three_whole_matrix_products(self, shape, dtype, banded):
        rng = np.random.default_rng(51)
        x = np.maximum(rng.normal(size=shape), 0.0).astype(dtype)
        w = rng.normal(0.0, 0.3, size=(16, shape[2], 3, 3)).astype(dtype)
        got, rows = _conv3x3(x, w)
        want, want_rows = three_product_conv(x, w)
        assert (shape[0] * shape[1] * rows[0].nbytes > BAND_BYTES) == banded
        assert got.dtype == dtype and got.shape == want.shape == (shape[0] * shape[1], 16)
        assert got.tobytes() == want.tobytes()
        assert rows.tobytes() == want_rows.tobytes()

    def test_gradient_matches_pass_on_three_products(self, monkeypatch):
        rng = np.random.default_rng(52)
        net = ReferencePredictor(4, width=16, seed=52, dtype=np.float32)
        randomize(net, rng)
        image = rng.random((64, 64))
        dy = rng.normal(size=(4, 64, 64))
        got = [net.forward(image, 0.1, np.random.default_rng(3)), net.backward(dy)]
        monkeypatch.setattr(hmuq.nets, "_conv3x3", three_product_conv)
        want = [net.forward(image, 0.1, np.random.default_rng(3)), net.backward(dy)]
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestPoolAdjoints:
    def test_avgpool_adjoint_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 8, 3))
        y = rng.normal(size=(4, 4, 3))
        assert np.vdot(avgpool2(x), y) == pytest.approx(np.vdot(x, avgpool2_backward(y)))

    def test_upsample_adjoint_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4, 2))
        y = rng.normal(size=(8, 8, 2))
        assert np.vdot(upsample2(x), y) == pytest.approx(np.vdot(x, upsample2_backward(y)))


class TestGradients:
    def finite_diff(self, net, image, target, dropout_rate=0.0, dropout_seed=None, step=1e-5):
        p0 = net.get_params()
        fd = np.empty_like(p0)
        for i in range(p0.size):
            for sign, slot in ((1.0, 0), (-1.0, 1)):
                p = p0.copy()
                p[i] += sign * step
                net.set_params(p)
                val, _ = loss_and_grad(net, image, target, dropout_rate, dropout_seed)
                fd[i] = val if slot == 0 else (fd[i] - val) / (2.0 * step)
        net.set_params(p0)
        return fd

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = ReferencePredictor(2, width=3, seed=11)
        randomize(net, rng)
        image = rng.random((8, 8))
        target = rng.normal(size=(2, 8, 8))
        _, grad = loss_and_grad(net, image, target)
        fd = self.finite_diff(net, image, target)
        assert max_rel_error(grad, fd) < 1e-7

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_backward_on_non_square_image_matches_finite_differences(self, rate):
        # on a square image a row offset taken from H instead of W goes unnoticed
        rng = np.random.default_rng(13)
        net = ReferencePredictor(2, width=3, seed=13)
        randomize(net, rng)
        image = rng.random((8, 12))
        target = rng.normal(size=(2, 8, 12))
        _, grad = loss_and_grad(net, image, target, dropout_rate=rate, dropout_seed=5)
        fd = self.finite_diff(net, image, target, dropout_rate=rate, dropout_seed=5)
        assert max_rel_error(grad, fd) < 1e-7

    def test_backward_with_dropout_matches_finite_differences(self):
        # one fixed dropout seed => the masked network is a deterministic
        # function of the parameters, so FD still applies
        rng = np.random.default_rng(12)
        net = ReferencePredictor(1, width=3, seed=12)
        randomize(net, rng)
        image = rng.random((8, 8))
        target = rng.normal(size=(1, 8, 8))
        _, grad = loss_and_grad(net, image, target, dropout_rate=0.4, dropout_seed=7)
        fd = self.finite_diff(net, image, target, dropout_rate=0.4, dropout_seed=7)
        assert max_rel_error(grad, fd) < 1e-7


class TestFloat32:
    """The float32 engine against the float64 one on identical parameters."""

    @staticmethod
    def twin_nets():
        rng = np.random.default_rng(31)
        net64 = ReferencePredictor(4, width=16, seed=31)
        # float32-representable parameters: the two nets differ only in compute
        params = rng.normal(0.0, 0.1, net64.num_params()).astype(np.float32)
        net64.set_params(params)
        net32 = ReferencePredictor(4, width=16, seed=31, dtype=np.float32)
        net32.set_params(params)
        assert net32.get_params().dtype == np.float32
        return net64, net32, rng.random((64, 64))

    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_forward_matches_float64(self, rate):
        net64, net32, image = self.twin_nets()
        rng64, rng32 = np.random.default_rng(8), np.random.default_rng(8)
        want = net64.forward(image, rate, rng64)
        got = net32.forward(image, rate, rng32)
        assert got.dtype == np.float64 and got.shape == want.shape == (4, 64, 64)
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
        if rate:
            # same stream, same draws: the dropout masks keep the same units
            assert rng32.random() == rng64.random()
            assert np.array_equal(net32._cache[-1] != 0, net64._cache[-1] != 0)

    def test_backward_matches_float64(self):
        net64, net32, image = self.twin_nets()
        dy = np.random.default_rng(9).normal(size=(4, 64, 64))
        net64.forward(image, 0.1, np.random.default_rng(8))
        net32.forward(image, 0.1, np.random.default_rng(8))
        want = net64.backward(dy)
        got = net32.backward(dy)
        assert got.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)

    def test_bias_gradients_match_float64_sums(self, monkeypatch):
        # the finite-difference checks run in float64 only: here each stage's
        # float32 bias gradient must be the float64 sum of the terms _conv_back
        # receives, to float32 rounding of the sum of their absolute values
        rng = np.random.default_rng(43)
        net = ReferencePredictor(3, width=16, seed=43, dtype=np.float32)
        randomize(net, rng)
        calls = []
        conv_back = net._conv_back

        def recording(dy, rows, act, layer, gw, gb):
            calls.append((layer, dy.copy(), act))
            return conv_back(dy, rows, act, layer, gw, gb)

        monkeypatch.setattr(net, "_conv_back", recording)
        net.forward(rng.random((48, 80)), 0.3, np.random.default_rng(6))
        gb = net._views(net.backward(rng.normal(size=(3, 48, 80))))[1]
        assert sorted(layer for layer, _, _ in calls) == [0, 1, 2, 3, 4]
        for layer, dy, act in calls:
            assert dy.dtype == act.dtype == np.float32
            terms = (dy.astype(np.float64) * (act > 0)).reshape(-1, dy.shape[-1])
            err = np.abs(gb[layer] - terms.sum(axis=0))
            assert np.all(err <= 1e-5 * np.abs(terms).sum(axis=0)), layer

    def test_ones_vector_is_made_once_and_read_only(self):
        ones = hmuq.nets._ones(4096, np.dtype(np.float32))
        assert ones is hmuq.nets._ones(4096, np.dtype(np.float32))
        assert ones.dtype == np.float32 and not ones.flags.writeable
        assert ones.tobytes() == np.ones(4096, np.float32).tobytes()

    def test_rejects_other_dtypes(self):
        with pytest.raises(InvalidParameterError, match="dtype"):
            ReferencePredictor(1, width=4, dtype=np.float16)


class TestKeepMask:
    """forward and backward drop units with a bool keep mask and a separate
    1/(1-rate) multiply; that must give the bits of the multiply by the
    float mask it replaced, signed zeros included."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_float_mask_multiply(self, dtype, monkeypatch):
        rate, h, w, c = 0.3, 12, 16, 5
        rng = np.random.default_rng(41)
        net = ReferencePredictor(3, width=c, seed=41, dtype=dtype)
        randomize(net, rng)
        saved = net.trunk(rng.random((h, w)))[1]  # the activations backward reads
        features = rng.normal(size=(h, w, c)).astype(dtype)
        features[0::3] = 0.0
        features[1::3, ::2] = -0.0
        mask = np.divide(np.random.default_rng(7).random((c, h, w)) >= rate, 1 - rate,
                         dtype=dtype).transpose(1, 2, 0)
        want = features * mask
        assert np.signbit(want[features == 0]).any() and not np.signbit(want[features == 0]).all()
        calls = []
        conv3x3 = hmuq.nets._conv3x3

        def recording_conv(x, wt):
            y, rows = conv3x3(x, wt)
            calls.append((x, y))
            return y, rows

        # stage 4 reached through forward, on these features in place of the trunk's
        monkeypatch.setattr(net, "trunk", lambda image: (want, saved))
        plain = net.forward(None)
        monkeypatch.setattr(net, "trunk", lambda image: (features, saved))
        monkeypatch.setattr(hmuq.nets, "_conv3x3", recording_conv)
        got = net.forward(None, rate, np.random.default_rng(7))
        assert calls[0][0].tobytes() == want.tobytes()
        assert np.array_equal(got, plain)

        dy = rng.normal(size=(3, h, w))
        dy[:, : h // 2] = 0.0  # exact zeros in the gradient that reaches the mask
        upsampled = []
        up_backward = hmuq.nets.upsample2_backward

        def recording_up(g):
            upsampled.append(g)
            return up_backward(g)

        monkeypatch.setattr(hmuq.nets, "upsample2_backward", recording_up)
        calls.clear()
        net.backward(dy)
        dd = calls[0][1].reshape(h, w, c)  # stage 4's input gradient
        assert (dd == 0).any()
        # the rest of backward is shared code, so equal bits here give an
        # equal parameter gradient
        assert upsampled[0].tobytes() == (dd * mask).tobytes()


class TestDropout:
    def test_zero_rate_is_identity(self):
        net = ReferencePredictor(2, width=4, seed=2)
        x = np.random.default_rng(1).random((8, 8))
        y0 = net.forward(x)
        y1 = net.forward(x, dropout_rate=0.0, rng=np.random.default_rng(3))
        assert np.array_equal(y0, y1)

    def test_seeds_change_output(self):
        net = ReferencePredictor(2, width=4, seed=2)
        randomize(net, np.random.default_rng(2))  # fresh nets output exactly 0
        x = np.random.default_rng(1).random((8, 8))
        ya = net.forward(x, 0.5, np.random.default_rng(10))
        yb = net.forward(x, 0.5, np.random.default_rng(11))
        yc = net.forward(x, 0.5, np.random.default_rng(10))
        assert not np.array_equal(ya, yb)
        assert np.array_equal(ya, yc)

    def test_requires_rng(self):
        net = ReferencePredictor(1, width=4)
        with pytest.raises(InvalidParameterError):
            net.forward(np.zeros((8, 8)), dropout_rate=0.3)
