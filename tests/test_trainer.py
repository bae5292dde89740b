import math
import re
import sys
import threading

import numpy as np
import pytest

from helpers import (
    loss_fixed,
    loss_learned_aniso,
    loss_learned_iso,
    looped_loss_gradients,
    max_rel_error,
    render_targets,
    summed_covariance_gradients,
)
from hmuq import trainer
from hmuq.dataio import DataFormatError, Dataset, config_from_dict, config_to_dict, format_config
from hmuq.gauss import CovarianceDecomposition, InvalidParameterError
from hmuq.nets import ReferencePredictor
from hmuq.synthdata import LandmarkSpec, SynthConfig, generate
from hmuq.trainer import (
    MODE_PROJECTIONS,
    TARGET_MODES,
    TrainConfig,
    TrainDivergedError,
    TrainedModel,
    aniso_loss_gradients,
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

            def loss_at(theta, log_a, log_b):
                d = CovarianceDecomposition(theta, math.exp(log_a), math.exp(log_b))
                return loss_learned_aniso(pred, c, [d], ALPHA, GAMMA)

            for k in range(3):  # steps in (theta, log sigma_maj, log sigma_min)
                args = [th, math.log(a), math.log(b)]
                eps = 1e-6
                args[k] += eps
                hi = loss_at(*args)
                args[k] -= 2.0 * eps
                lo = loss_at(*args)
                fd = (hi - lo) / (2.0 * eps)
                worst = max(worst, abs(grads[0, k] - fd) / max(abs(fd), 1e-9))
        assert worst < 1e-4

    @pytest.mark.parametrize("coord, decomp", [
        ((31.5, 23.5), CovarianceDecomposition(0.4, 4.0, 2.0)),  # centre
        ((2.0, 45.5), CovarianceDecomposition(-1.1, 3.5, 1.5)),  # within 3 px of the border
        ((30.2, 20.7), CovarianceDecomposition(0.7, 3.0 * (1 + 1e-6), 3.0)),  # near-isotropic
    ])
    def test_covariance_gradients_match_elementwise_sums(self, coord, decomp):
        # the dot products reorder the sums: equal to the elementwise ones up to
        # rounding, bounded by the sum of absolute terms
        rng = np.random.default_rng(3)
        c = np.array([coord])
        pred = render_targets(c, [decomp], GAMMA, (48, 64)) + rng.normal(0.0, 0.3, (1, 48, 64))
        _, grads, _ = aniso_loss_gradients(pred, c, [decomp], ALPHA, GAMMA)
        want, scale = summed_covariance_gradients(pred, c, [decomp], ALPHA, GAMMA)
        assert np.all(np.abs(grads - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("size, count", [(64, 4), (256, 19)])
    def test_bit_identical_to_per_landmark_loop(self, size, count):
        rng = np.random.default_rng(size + count)
        coords = rng.uniform(0.0, size - 1.0, (count, 2))
        coords[0] = (0.0, size / 3)  # on the border
        cov = np.column_stack([rng.uniform(-1.5, 1.5, count), rng.uniform(0.0, 2.0, (count, 2))])
        decomps = list(map(CovarianceDecomposition, cov[:, 0], *np.exp(cov[:, 1:]).T))  # as train
        pred = (render_targets(coords, decomps, GAMMA, (size, size))
                + rng.normal(0.0, 0.3, (count, size, size)))
        loss, grads, dpred = aniso_loss_gradients(pred, coords, decomps, ALPHA, GAMMA)
        want_loss, want_grads, want_dpred = looped_loss_gradients(pred, coords, decomps,
                                                                  ALPHA, GAMMA)
        assert loss == want_loss
        assert grads.tobytes() == want_grads.tobytes()
        assert dpred.tobytes() == want_dpred.tobytes()

    def test_iso_sigma_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(0.0, 0.3, size=(1, 48, 48))
        c = np.array([[23.0, 25.0]])
        sigma = 2.8
        _, grads, _ = aniso_loss_gradients(
            pred, c, [CovarianceDecomposition(0.0, sigma, sigma)], ALPHA, GAMMA)
        analytic = grads[0, 1] + grads[0, 2]  # shared log extent moves both axes
        eps = 1e-6
        hi = loss_learned_iso(pred, c, [math.exp(math.log(sigma) + eps)], ALPHA, GAMMA)
        lo = loss_learned_iso(pred, c, [math.exp(math.log(sigma) - eps)], ALPHA, GAMMA)
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
        m = train(ds, cfg)
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

    @pytest.mark.parametrize("mode", TARGET_MODES)
    def test_covariance_step_is_the_checked_gradient(self, mode):
        """One step moves the covariance parameters by exactly the projected
        gradient of the objective aniso_loss_gradients computes, as returned."""
        coords = np.array([[[14.2, 8.3], [4.7, 4.3]], [[17.0, 18.6], [13.7, 15.7]]])
        ds = Dataset(["a", "b"], [np.zeros((24, 24))] * 2, coords, np.ones(2), 2)
        cfg = TrainConfig(iterations=1, batch_size=2, seed=1, target_mode=mode,
                          freeze_predictor=True, predictor_width=4)
        m = train(ds, cfg)

        start = np.zeros((2, 3))
        start[:, 1:] = math.log(cfg.sigma_init)
        decomps = [CovarianceDecomposition(0.0, *e) for e in np.exp(start[:, 1:])]
        idx = np.random.default_rng(cfg.seed).integers(0, 2, size=2)  # train's batch draw
        assert sorted(idx) == [0, 1]
        loss, grad = 0.0, np.zeros((2, 3))
        for j in idx:
            value, g, _ = aniso_loss_gradients(np.zeros((2, 24, 24)), coords[j], decomps,
                                               cfg.alpha, cfg.gamma)
            loss += value
            grad += g
        assert m.loss_trace.tolist() == [loss / 2]
        step = -(cfg.learning_rate * cfg.covariance_lr_multiplier) * (
            grad / 2 @ MODE_PROJECTIONS[mode])
        if mode == "fixed_iso":
            assert not step.any()
            want = [CovarianceDecomposition(0.0, cfg.sigma_init, cfg.sigma_init)] * 2
        else:
            want = [CovarianceDecomposition(t, math.exp(a), math.exp(b)).canonical()
                    for t, a, b in start + step]
            assert step[:, 1:].all()
        assert m.target_decomps == want

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

    def test_huge_iteration_count_starts_training(self):
        """The loss trace grows with the run: a count far beyond memory runs
        its first iteration instead of failing on an up-front allocation."""
        class Stop(Exception):
            pass

        def stop(it, *_):
            raise Stop(it)

        ds, cfg = small_synth(iterations=10 ** 11)
        with pytest.raises(Stop, match="^0$"):
            train(ds, cfg, progress=stop)

    def test_empty_dataset_rejected(self):
        ds = Dataset([], [], np.empty((0, 1, 2)), np.empty(0), 1)
        with pytest.raises(InvalidParameterError):
            train(ds, TrainConfig(iterations=1))


class TestLanes:
    """A batch's samples run on min(batch_size, usable_cpus()) lanes."""

    @pytest.mark.parametrize("batch_size", [4, 3])
    @pytest.mark.parametrize("dropout_rate", [0.1, 0.0])
    @pytest.mark.parametrize("freeze", [False, True])
    def test_lane_count_leaves_every_byte(self, monkeypatch, batch_size, dropout_rate, freeze):
        """Also with more lanes than this host may have CPUs, and the
        interpreter switching threads as often as it can."""
        ds, cfg = small_synth(iterations=8, batch_size=batch_size, dropout_rate=dropout_rate,
                              freeze_predictor=freeze)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for lanes in (1, 2, 3):
                monkeypatch.setattr(trainer, "usable_cpus", lambda: lanes)
                runs.append(train(ds, cfg))
        finally:
            sys.setswitchinterval(interval)
        for m in runs[1:]:
            assert m.loss_trace.tobytes() == runs[0].loss_trace.tobytes()
            assert m.predictor.get_params().tobytes() == runs[0].predictor.get_params().tobytes()
            assert m.target_decomps == runs[0].target_decomps

    def test_helper_lane_error_comes_out_of_train(self, monkeypatch):
        """An exception in a helper lane (slot 1 of two lanes) leaves train
        with its own type and message, and the helper threads are gone."""
        class LaneError(Exception):
            pass

        loss_gradients = trainer.aniso_loss_gradients

        def fail_off_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise LaneError("slot 1 failed")
            return loss_gradients(*args)

        monkeypatch.setattr(trainer, "usable_cpus", lambda: 2)
        monkeypatch.setattr(trainer, "aniso_loss_gradients", fail_off_main_thread)
        ds, cfg = small_synth(iterations=3)
        before = threading.active_count()
        with pytest.raises(LaneError, match="^slot 1 failed$"):
            train(ds, cfg)
        assert threading.active_count() == before

    def test_one_lane_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(trainer, "usable_cpus", lambda: 1)
        ds, cfg = small_synth(iterations=3)
        before = threading.active_count()
        during = []
        train(ds, cfg, progress=lambda *_: during.append(threading.active_count()))
        assert during == [before] * cfg.iterations

    @pytest.mark.parametrize("count, want", [(6, 6), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, want):
        """Where os.sched_getaffinity does not exist (macOS, Windows), the lanes
        follow os.cpu_count(), and there is one when that count is unknown."""
        monkeypatch.delattr(trainer.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(trainer.os, "cpu_count", lambda: count)
        assert trainer.usable_cpus() == want


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
"""


class TestConfigDict:
    def test_round_trip(self):
        cfg = TrainConfig(alpha=2.5, iterations=123, target_mode="learned_iso")
        assert config_from_dict(TrainConfig, config_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown config key"):
            config_from_dict(TrainConfig, {"alhpa": "5"})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="^unknown config key 'augmentation.rotation_range'$"):
            config_from_dict(TrainConfig, {"augmentation.rotation_range": "0.0"})

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            config_from_dict(TrainConfig, {"target_mode": "banana"})

    @pytest.mark.parametrize("key", ["iterations", "batch_size", "predictor_width"])
    def test_count_below_one_names_its_key(self, key):
        with pytest.raises(InvalidParameterError, match=f"^{key} must be >= 1, got 0$"):
            config_from_dict(TrainConfig, {key: "0"})

    @pytest.mark.parametrize("key, value", [
        ("alpha", "0.0"), ("gamma", "-1.0"), ("learning_rate", "0.0"),
        ("covariance_lr_multiplier", "-0.5"), ("sigma_init", "0.0"), ("weight_decay", "-0.1"),
        ("dropout_rate", "1.0")])
    def test_bad_value_names_its_key_and_value(self, key, value):
        with pytest.raises(InvalidParameterError, match=rf"^{key} must be .*, got {value}$"):
            config_from_dict(TrainConfig, {key: value})

    def test_default_snapshot_text(self):
        # the config snapshot that write_checkpoint stores, byte for byte
        assert format_config(config_to_dict(TrainConfig())) == DEFAULT_SNAPSHOT
