import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from scipy import ndimage

from helpers import (
    loss_fixed,
    loss_learned_aniso,
    loss_learned_iso,
    max_rel_error,
    render_isotropic,
    render_targets,
)
from hmuq.dataio import DataFormatError, Dataset, config_from_dict, config_to_dict, format_config
from hmuq.gauss import CovarianceDecomposition, InvalidParameterError
from hmuq.nets import ReferencePredictor
from hmuq.synthdata import LandmarkSpec, SynthConfig, generate
from hmuq.trainer import (
    AugmentConfig,
    TrainConfig,
    TrainDivergedError,
    TrainedModel,
    _bilinear,
    aniso_loss_gradients,
    apply_spatial,
    augment,
    predict,
    read_checkpoint,
    train,
    write_checkpoint,
)

GAMMA = 100.0
ALPHA = 5.0


def small_synth(iterations=400, **overrides):
    specs = (LandmarkSpec("corner", 0.0), LandmarkSpec("edge", 30.0, 30.0, 2.0, 0.8))
    ds, _ = generate(SynthConfig(image_size=32, num_images=20, landmarks=specs,
                                 position_jitter=2.0, seed=5))
    defaults = dict(iterations=iterations, learning_rate=1e-5,
                    covariance_lr_multiplier=10.0, batch_size=2, seed=1,
                    target_mode="learned_aniso", predictor_width=8)
    defaults.update(overrides)
    return ds, TrainConfig(**defaults)


class TestLosses:
    coords = np.array([[32.0, 32.0]])

    def target(self, sigma=3.0):
        d = [CovarianceDecomposition(0.0, sigma, sigma)]
        return render_targets(self.coords, d, GAMMA, (64, 64))

    def test_fixed_zero_at_exact_prediction(self):
        t = self.target()
        assert loss_fixed(t, self.coords, 3.0, GAMMA) == 0.0

    def test_fixed_zero_prediction_closed_form(self):
        # integral of the squared Gaussian: gamma^2 / (4 pi sigma^2)
        t = self.target()
        want = GAMMA ** 2 / (4.0 * math.pi * 9.0)
        assert loss_fixed(np.zeros_like(t), self.coords, 3.0, GAMMA) == pytest.approx(
            want, rel=1e-6)

    def test_fixed_quadratic_scaling(self):
        t = self.target()
        pred = t + 0.25
        base = loss_fixed(pred, self.coords, 3.0, GAMMA)
        doubled = loss_fixed(t + 0.5, self.coords, 3.0, GAMMA)
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_fixed_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            loss_fixed(np.zeros((2, 16, 16)), self.coords, 3.0, GAMMA)

    def test_iso_alpha_zero_reduces_to_fixed(self):
        pred = self.target() + 0.1
        assert loss_learned_iso(pred, self.coords, [3.0], 0.0, GAMMA) == pytest.approx(
            loss_fixed(pred, self.coords, 3.0, GAMMA), rel=1e-12)

    def test_iso_regularizer_value(self):
        t = self.target()
        assert loss_learned_iso(t, self.coords, [3.0], ALPHA, GAMMA) == pytest.approx(45.0)

    def test_aniso_equals_iso_when_axes_match(self):
        pred = self.target(2.5) + 0.05
        d = [CovarianceDecomposition(0.7, 2.5, 2.5)]
        got = loss_learned_aniso(pred, self.coords, d, ALPHA, GAMMA)
        want = loss_learned_iso(pred, self.coords, [2.5], ALPHA, GAMMA)
        assert got == pytest.approx(want, rel=1e-12)

    def test_aniso_regularizer_value(self):
        t = self.target()
        d = [CovarianceDecomposition(0.0, 3.0, 3.0)]
        assert loss_learned_aniso(t, self.coords, d, ALPHA, GAMMA) == pytest.approx(45.0)

    def test_aniso_theta_periodicity(self):
        pred = np.zeros((1, 48, 48))
        c = np.array([[24.0, 24.0]])
        a = loss_learned_aniso(pred, c, [CovarianceDecomposition(0.4, 3.0, 1.5)], ALPHA, GAMMA)
        b = loss_learned_aniso(pred, c, [CovarianceDecomposition(0.4 + math.pi, 3.0, 1.5)],
                               ALPHA, GAMMA)
        assert a == pytest.approx(b, rel=1e-12)

    def test_aniso_minus_regularizer_equals_fixed(self):
        pred = self.target(2.7) + 0.2
        d = [CovarianceDecomposition(0.0, 2.7, 2.7)]
        aniso = loss_learned_aniso(pred, self.coords, d, ALPHA, GAMMA)
        assert aniso - ALPHA * 2.7 ** 2 == loss_fixed(pred, self.coords, 2.7, GAMMA)


class TestLossGradients:
    def test_covariance_gradients_match_fd(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(10):
            th = rng.uniform(-1.5, 1.5)
            a = rng.uniform(2.0, 6.0)
            b = rng.uniform(1.0, 5.0)
            pred = rng.normal(0.0, 0.3, size=(1, 48, 48))
            c = np.array([[rng.uniform(15.0, 33.0), rng.uniform(15.0, 33.0)]])
            _, grads, _ = aniso_loss_gradients(
                pred, c, [CovarianceDecomposition(th, a, b)], ALPHA, GAMMA)
            for k in range(3):
                args = [th, a, b]
                eps = 1e-6
                args[k] += eps
                hi = loss_learned_aniso(pred, c, [CovarianceDecomposition(*args)], ALPHA, GAMMA)
                args[k] -= 2.0 * eps
                lo = loss_learned_aniso(pred, c, [CovarianceDecomposition(*args)], ALPHA, GAMMA)
                fd = (hi - lo) / (2.0 * eps)
                worst = max(worst, abs(grads[0, k] - fd) / max(abs(fd), 1e-9))
        assert worst < 1e-4

    def test_iso_sigma_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(0.0, 0.3, size=(1, 48, 48))
        c = np.array([[23.0, 25.0]])
        sigma = 2.8
        _, grads, _ = aniso_loss_gradients(
            pred, c, [CovarianceDecomposition(0.0, sigma, sigma)], ALPHA, GAMMA)
        analytic = grads[0, 1] + grads[0, 2]  # shared extent moves both axes
        eps = 1e-6
        hi = loss_learned_iso(pred, c, [sigma + eps], ALPHA, GAMMA)
        lo = loss_learned_iso(pred, c, [sigma - eps], ALPHA, GAMMA)
        assert abs(analytic - (hi - lo) / (2.0 * eps)) / abs(analytic) < 1e-4

    def test_end_to_end_predictor_gradients(self):
        # small instantiation, full pipeline: image -> net -> anisotropic loss
        rng = np.random.default_rng(2)
        net = ReferencePredictor(2, width=8, seed=2)
        assert net.num_params() <= 5000
        net.set_params(rng.normal(0.0, 0.3, net.num_params()))
        image = rng.random((8, 8))
        coords = np.array([[3.2, 4.1], [5.6, 2.9]])
        decomps = [CovarianceDecomposition(0.3, 2.0, 1.2),
                   CovarianceDecomposition(-0.8, 1.5, 1.0)]

        def loss_of(params):
            net.set_params(params)
            return loss_learned_aniso(net.forward(image), coords, decomps, ALPHA, GAMMA)

        p0 = net.get_params()
        _, _, dpred = aniso_loss_gradients(net.forward(image), coords, decomps, ALPHA, GAMMA)
        analytic = net.backward(dpred)
        fd = np.empty_like(p0)
        for i in range(p0.size):
            step = np.zeros_like(p0)
            step[i] = 1e-5
            fd[i] = (loss_of(p0 + step) - loss_of(p0 - step)) / 2e-5
        net.set_params(p0)
        assert max_rel_error(analytic, fd) < 1e-3


class TestTrain:
    def test_zero_capacity_equilibrium(self):
        ds = Dataset(["a"], [np.zeros((64, 64))], np.array([[[32.0, 32.0]]]),
                     np.ones(1), 1)
        cfg = TrainConfig(iterations=600, learning_rate=1e-4, covariance_lr_multiplier=20.0,
                          batch_size=1, seed=0, target_mode="learned_aniso",
                          freeze_predictor=True, predictor_width=4)
        zeros = np.zeros(ReferencePredictor(1, 4).num_params())
        m = train(ds, cfg, initial_params=zeros)
        want = GAMMA / (2.0 * math.sqrt(math.pi * ALPHA))
        assert m.target_decomps[0].product == pytest.approx(want, rel=0.05)

    def test_loss_trace_window_means_non_increasing(self):
        ds, cfg = small_synth()
        m = train(ds, cfg)
        w = [m.loss_trace[k:k + 100].mean() for k in range(0, cfg.iterations, 100)]
        assert all(b <= a for a, b in zip(w, w[1:]))

    def test_learned_iso_stays_isotropic(self):
        ds, cfg = small_synth(iterations=150, target_mode="learned_iso")
        m = train(ds, cfg)
        for d in m.target_decomps:
            assert d.sigma_maj == d.sigma_min
            assert d.theta == 0.0

    def test_fixed_iso_keeps_init(self):
        ds, cfg = small_synth(iterations=50, target_mode="fixed_iso")
        m = train(ds, cfg)
        for d in m.target_decomps:
            assert d == CovarianceDecomposition(0.0, cfg.sigma_init, cfg.sigma_init)

    def test_divergence_reports_iteration(self):
        ds, cfg = small_synth(iterations=200, learning_rate=10.0)
        with pytest.raises(TrainDivergedError, match="iteration"):
            train(ds, cfg)

    def test_deterministic_per_seed(self):
        ds, cfg = small_synth(iterations=60)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert np.array_equal(a.predictor.get_params(), b.predictor.get_params())
        assert a.target_decomps == b.target_decomps

    def test_empty_dataset_rejected(self):
        ds = Dataset([], [], np.empty((0, 1, 2)), np.empty(0), 1)
        with pytest.raises(InvalidParameterError):
            train(ds, TrainConfig(iterations=1))


@pytest.fixture(scope="module")
def model():
    ds, cfg = small_synth(iterations=40, dropout_rate=0.2)
    return train(ds, cfg), ds


class TestPredict:
    def test_deterministic_without_dropout(self, model):
        m, ds = model
        a = predict(m, ds.images[0])
        b = predict(m, ds.images[0])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_dropout_seeds(self, model):
        m, ds = model
        rate = m.config.dropout_rate
        a = m.predictor.forward(ds.images[0], rate, np.random.default_rng(1))
        b = m.predictor.forward(ds.images[0], rate, np.random.default_rng(2))
        c = m.predictor.forward(ds.images[0], rate, np.random.default_rng(1))
        assert not all(np.array_equal(x, y) for x, y in zip(a, b))
        assert all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_zero_rate_dropout_equals_disabled(self, model):
        m, ds = model
        plain = TrainedModel(m.predictor, m.target_decomps,
                             config_from_dict(TrainConfig, {"dropout_rate": "0.0"}), m.loss_trace)
        a = plain.predictor.forward(ds.images[0], plain.config.dropout_rate,
                                    np.random.default_rng(3))
        b = predict(plain, ds.images[0])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestAugment:
    def test_identity_returns_inputs_unchanged(self):
        rng = np.random.default_rng(0)
        image = rng.random((16, 16))
        coords = rng.uniform(2.0, 13.0, size=(3, 2))
        out_image, out_coords = augment(image, coords, AugmentConfig(), seed=1)
        assert np.array_equal(out_image, image)
        assert np.array_equal(out_coords, coords)

    def test_pure_translation(self):
        image = np.zeros((16, 16))
        image[4, 6] = 1.0
        out_image, out_coords = apply_spatial(image, np.array([[6.0, 4.0]]), shift=(5.0, -3.0))
        assert out_coords[0] == pytest.approx((11.0, 1.0))
        assert out_image[1, 11] == pytest.approx(1.0)

    def test_rotation_maps_corner_to_corner(self):
        image = np.zeros((17, 17))
        _, out_coords = apply_spatial(image, np.array([[0.0, 0.0]]), angle=math.pi / 2.0)
        assert out_coords[0] == pytest.approx((16.0, 0.0), abs=1e-9)

    def test_image_follows_coords_affine(self):
        # a rendered blob must land where the transformed coordinate says
        from hmuq.fitting import fit_gaussian

        image = render_isotropic((20.0, 14.0), 2.0, 100.0, (48, 48))
        cfg = AugmentConfig(rotation_range=0.4, scale_range=0.1, translation_range=3.0)
        out_image, out_coords = augment(image, np.array([[20.0, 14.0]]), cfg, seed=9)
        fit = fit_gaussian(out_image)
        assert fit.gaussian.mean == pytest.approx(tuple(out_coords[0]), abs=0.05)

    def test_image_follows_coords_elastic(self):
        # elastic warps distort the blob shape, so the fit drifts a little;
        # the mapped coordinate must still track the peak
        from hmuq.fitting import fit_gaussian

        image = render_isotropic((20.0, 14.0), 2.0, 100.0, (48, 48))
        cfg = AugmentConfig(elastic_grid_size=4, elastic_magnitude=0.5)
        out_image, out_coords = augment(image, np.array([[20.0, 14.0]]), cfg, seed=9)
        fit = fit_gaussian(out_image)
        assert fit.gaussian.mean == pytest.approx(tuple(out_coords[0]), abs=0.25)

    def test_out_of_bounds_coords_kept(self):
        image = np.zeros((16, 16))
        _, out_coords = apply_spatial(image, np.array([[1.0, 8.0], [8.0, 8.0]]),
                                      shift=(-4.0, 0.0))
        assert out_coords[0] == pytest.approx((-3.0, 8.0))

    def test_intensity_touches_image_only(self):
        rng = np.random.default_rng(2)
        image = rng.random((16, 16))
        coords = np.array([[5.0, 5.0]])
        cfg = AugmentConfig(intensity_shift_range=0.2, intensity_scale_range=0.2)
        out_image, out_coords = augment(image, coords, cfg, seed=4)
        assert np.array_equal(out_coords, coords)
        assert not np.array_equal(out_image, image)

    def test_parts_off_at_zero_draw_nothing(self):
        # a range of 0 switches its part off and takes no draw from the stream,
        # so a lone intensity shift takes the stream's first draw
        rng = np.random.default_rng(5)
        image = rng.random((16, 16))
        coords = np.array([[6.0, 7.0]])
        out_image, out_coords = augment(image, coords, AugmentConfig(intensity_shift_range=0.2),
                                        seed=8)
        ref_image, ref_coords = apply_spatial(image, coords)
        shift = np.random.default_rng(8).uniform(-0.2, 0.2)
        assert np.array_equal(out_image, ref_image + shift)
        assert np.array_equal(out_coords, ref_coords)

    def test_bilinear_is_scipy_order_1(self):
        """_bilinear is map_coordinates(order=1) bit for bit, scipy the oracle:
        mode "nearest" as it is, mode "constant" (cval 0) masked to the grid as
        apply_spatial masks it.  A far weight of t instead of 1 - (1 - t)
        differs only where t has bits below the ulp of 1: at coordinates of
        magnitude below 1 that are not multiples of 2^-53, as uniform draws are."""
        rng = np.random.default_rng(0)
        for _ in range(60):
            h, w = rng.integers(2, 40, size=2)
            values = rng.normal(size=(h, w)) * 10.0 ** rng.uniform(-3.0, 3.0)
            x, y = rng.uniform(-60.0, w + 60.0, 400), rng.uniform(-60.0, h + 60.0, 400)
            x[:100], y[50:150] = np.clip(rng.normal(0.0, 0.5, (2, 100)), -1.5, 1.5)
            x[200:250] = np.round(x[200:250])  # on grid columns and edges
            got = _bilinear(values, x, y)
            ref = ndimage.map_coordinates(values, [y, x], order=1, mode="nearest")
            assert got.tobytes() == ref.tobytes()
            assert _bilinear(np.stack([values, -values]), x, y).tobytes() == \
                np.stack([ref, -ref]).tobytes()
            inside = (0 <= x) & (x <= w - 1) & (0 <= y) & (y <= h - 1)
            ref = ndimage.map_coordinates(values, [y, x], order=1, mode="constant", cval=0.0)
            assert np.where(inside, got, 0.0).tobytes() == ref.tobytes()

    def test_non_elastic_outputs_pinned(self):
        """SHA-256 of augment over every on/off combination of the five
        non-elastic parts and 3 seeds, taken when scipy's map_coordinates did
        the warp (numpy 2.4, OpenBLAS, x86-64)."""
        rng = np.random.default_rng(7)
        image = rng.random((24, 20))
        coords = rng.uniform(1.0, 19.0, size=(3, 2))
        ranges = dict(intensity_shift_range=0.2, intensity_scale_range=0.3,
                      translation_range=4.0, rotation_range=0.5, scale_range=0.2)
        digest = hashlib.sha256()
        for on in itertools.product((False, True), repeat=len(ranges)):
            cfg = AugmentConfig(**{k: r * o for (k, r), o in zip(ranges.items(), on)})
            for seed in range(3):
                for out in augment(image, coords, cfg, seed):
                    digest.update(out.tobytes())
        assert digest.hexdigest() == \
            "6a62281f5f2cb50615cd37e0d932d2c71c54ff253cf1a37271b2bca07c0bac0d"

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        image = rng.random((16, 16))
        coords = np.array([[8.0, 8.0]])
        cfg = AugmentConfig(rotation_range=0.5)
        a = augment(image, coords, cfg, seed=11)
        b = augment(image, coords, cfg, seed=11)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        ds, cfg = small_synth(iterations=30)
        model = train(ds, cfg)
        p1 = tmp_path / "model.hmuq"
        p2 = tmp_path / "model2.hmuq"
        write_checkpoint(model, p1)
        loaded = read_checkpoint(p1)
        write_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.target_decomps == model.target_decomps
        assert loaded.config == model.config
        # parameters survive up to the f32 storage precision
        assert np.allclose(loaded.predictor.get_params(), model.predictor.get_params(),
                           atol=1e-5, rtol=1e-6)

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "bogus.bin"
        p.write_bytes(b"notamodel")
        with pytest.raises(InvalidParameterError):
            read_checkpoint(p)

    @staticmethod
    def tiny_checkpoint(tmp_path):
        """A valid two-landmark checkpoint (untrained) and its section offsets."""
        decomps = [CovarianceDecomposition(0.3, 4.0, 2.0), CovarianceDecomposition(0.0, 3.0, 3.0)]
        cfg = TrainConfig(predictor_width=4, dropout_rate=0.1, seed=7)
        net = ReferencePredictor(2, cfg.predictor_width, seed=cfg.seed)
        path = tmp_path / "model.ckpt"
        write_checkpoint(TrainedModel(net, decomps, cfg, np.empty(0)), path)
        covariances = 4 + 2 + 4
        params = covariances + 24 * len(decomps) + 4
        snapshot = params + 4 * net.num_params() + 4
        return path, path.read_bytes(), covariances, params, snapshot

    def test_float64_master_weights_stored_once_rounded(self, tmp_path, monkeypatch):
        masters = []
        set_params = ReferencePredictor.set_params

        def record(net, flat):
            masters.append(flat)
            set_params(net, flat)

        monkeypatch.setattr(ReferencePredictor, "set_params", record)
        ds, cfg = small_synth(iterations=5)
        model = train(ds, cfg)
        assert model.predictor.dtype == np.float32
        assert len(masters) == cfg.iterations
        assert all(m.dtype == np.float64 for m in masters)
        # the master holds what float32 cannot: updates are not rounded away
        assert not np.array_equal(masters[-1], masters[-1].astype(np.float32))
        path = tmp_path / "model.ckpt"
        write_checkpoint(model, path)
        start = 4 + 2 + 4 + 24 * len(model.target_decomps) + 4
        stored = path.read_bytes()[start:start + 4 * model.predictor.num_params()]
        assert stored == model.predictor.get_params().astype("<f4").tobytes()
        assert stored == masters[-1].astype("<f4").tobytes()

    def test_loaded_predictor_is_float32_with_float64_heatmaps(self, tmp_path):
        ds, cfg = small_synth(iterations=5)
        model = train(ds, cfg)
        write_checkpoint(model, tmp_path / "model.ckpt")
        loaded = read_checkpoint(tmp_path / "model.ckpt")
        assert loaded.predictor.dtype == np.float32
        heatmaps = predict(loaded, ds.images[0])
        assert heatmaps.dtype == np.float64
        assert heatmaps.shape == (2, 32, 32)
        assert np.array_equal(heatmaps, predict(model, ds.images[0]))

    def test_non_utf8_snapshot_names_path_and_byte(self, tmp_path):
        path, raw, _, _, snapshot = self.tiny_checkpoint(tmp_path)
        path.write_bytes(raw[:snapshot + 7] + b"\xff" + raw[snapshot + 8:])
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: not UTF-8 text (byte {snapshot + 7})")):
            read_checkpoint(path)

    @pytest.mark.parametrize("section", ["header", "covariances", "params", "snapshot"])
    def test_truncation_names_path(self, tmp_path, section):
        path, raw, covariances, params, snapshot = self.tiny_checkpoint(tmp_path)
        text = raw[snapshot:]
        cuts = {
            "header": [5, 8, covariances - 1],
            "covariances": [covariances, covariances + 30],
            "params": [params, params + 4 * 10 + 2, snapshot - 1],
            # a cut at a line boundary parses as a shorter, valid config
            "snapshot": [snapshot, snapshot + text.index(b"\n") + 1, len(raw) - 1],
        }[section]
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(InvalidParameterError, match="truncated checkpoint") as info:
                read_checkpoint(path)
            assert str(path) in str(info.value)


DEFAULT_SNAPSHOT = """\
alpha = 5.0
gamma = 100.0
weight_decay = 0.001
iterations = 40000
learning_rate = 1e-05
covariance_lr_multiplier = 3.0
dropout_rate = 0.0
batch_size = 4
seed = 0
target_mode = learned_aniso
sigma_init = 3.0
predictor_width = 16
freeze_predictor = false
augmentation.intensity_shift_range = 0.0
augmentation.intensity_scale_range = 0.0
augmentation.translation_range = 0.0
augmentation.rotation_range = 0.0
augmentation.scale_range = 0.0
augmentation.elastic_grid_size = 4
augmentation.elastic_magnitude = 0.0
"""


class TestConfigDict:
    def test_round_trip(self):
        cfg = TrainConfig(alpha=2.5, iterations=123, target_mode="learned_iso",
                          augmentation=AugmentConfig(rotation_range=0.25))
        assert config_from_dict(TrainConfig, config_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown config key"):
            config_from_dict(TrainConfig, {"alhpa": "5"})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="augmentation.rotaton_range"):
            config_from_dict(TrainConfig, {"augmentation.rotaton_range": "0.1"})

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            config_from_dict(TrainConfig, {"target_mode": "banana"})

    def test_default_snapshot_text(self):
        # the config snapshot that write_checkpoint stores, byte for byte
        assert format_config(config_to_dict(TrainConfig())) == DEFAULT_SNAPSHOT
