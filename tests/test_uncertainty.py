import math
import tracemalloc
import weakref

import numpy as np
import pytest

import hmuq.nets
from helpers import compose_covariance, render_anisotropic, render_isotropic
from hmuq.fitting import argmax_coord
from hmuq.gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    population_distribution,
    sample_gaussian,
)
from hmuq.nets import ReferencePredictor, keep_mask
from hmuq.trainer import TrainConfig, TrainedModel
from hmuq.uncertainty import (
    mcd_heatmap_fit,
    mcd_max,
    mcd_predict,
    sample_uncertainty,
)


def pass_mean(heatmaps):
    """The pixel-wise mean of K passes, as mcd_predict streams it."""
    return np.mean(heatmaps, axis=0)


def one_hot(shape, x, y):
    values = np.zeros(shape)
    values[y, x] = 1.0
    return values


class TestSampleUncertainty:
    def test_wraps_fit(self):
        g = AnisotropicGaussian((30.0, 28.0), CovarianceDecomposition(0.4, 4.0, 2.5), 100.0)
        p = sample_uncertainty(render_anisotropic(g, (64, 64)))
        assert p.converged
        assert p.gaussian.mean == pytest.approx((30.0, 28.0), abs=0.01)
        assert p.gaussian.decomp.sigma_maj == pytest.approx(4.0, rel=0.01)

    def test_flat_heatmap_is_none(self):
        assert sample_uncertainty(np.zeros((16, 16))) is None
        assert mcd_heatmap_fit(one_hot((16, 16), 3, 4)) is None


class TestMcdMax:
    def test_collinear_maxima_example(self):
        mean, d = mcd_max(np.array([(0, 0), (2, 0), (4, 0)]))
        assert tuple(mean) == (2.0, 0.0)
        assert d.sigma_maj == pytest.approx(math.sqrt(8.0 / 3.0))
        assert d.sigma_min == 0.0
        assert d.theta == 0.0

    def test_identical_maxima_degenerate(self):
        mean, d = mcd_max(np.array([(3, 5)] * 4))
        assert tuple(mean) == (3.0, 5.0)
        assert d.sigma_maj == 0.0
        assert d.sigma_min == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        points = rng.integers(0, 16, size=(9, 2))
        mean_a, d_a = mcd_max(points)
        mean_b, d_b = mcd_max(points[::-1])
        assert tuple(mean_a) == tuple(mean_b)
        assert d_a == d_b

    def test_point_statistics_recover_known_gaussian(self):
        # the estimator underneath mcd_max, fed 1e5 true samples
        d = CovarianceDecomposition(math.radians(30.0), 5.0, 3.0)
        g = AnisotropicGaussian((0.0, 0.0), d, 1.0)
        pts = sample_gaussian(g, 100_000, seed=5)
        got = compose_covariance(population_distribution(pts)[1])
        want = compose_covariance(d)
        assert np.abs(got - want).max() <= 0.03 * np.abs(want).max()


class TestMcdHeatmapFit:
    def test_identical_heatmaps_match_single_fit(self):
        h = render_isotropic((20.0, 21.0), 3.0, 100.0, (48, 48))
        single = sample_uncertainty(h)
        merged = mcd_heatmap_fit(pass_mean([h] * 5))
        assert merged.gaussian.mean == pytest.approx(single.gaussian.mean, abs=1e-9)
        assert merged.gaussian.decomp.sigma_maj == pytest.approx(
            single.gaussian.decomp.sigma_maj, rel=1e-9)

    def test_jittered_means_broaden_fit(self):
        sigma = 3.0
        hs = []
        for k, dx in enumerate(np.linspace(-1.0, 1.0, 7)):
            hs.append(render_isotropic((24.0 + dx, 24.0), sigma, 100.0, (48, 48)))
        d = mcd_heatmap_fit(pass_mean(hs)).gaussian.decomp
        assert d.sigma_maj > sigma
        assert d.sigma_min == pytest.approx(sigma, rel=0.01)

    def test_permutation_invariance(self):
        hs = [render_isotropic((20.0 + dx, 20.0 + dx), 2.5, 100.0, (40, 40))
              for dx in (-1.0, 0.0, 1.0)]
        a = mcd_heatmap_fit(pass_mean(hs))
        b = mcd_heatmap_fit(pass_mean(hs[::-1]))
        assert a.gaussian.mean == pytest.approx(b.gaussian.mean, abs=1e-12)

    def test_bimodal_converges_near_one_mode(self):
        far = [render_isotropic((12.0, 12.0), 2.0, 100.0, (64, 64)),
               render_isotropic((50.0, 50.0), 2.0, 100.0, (64, 64))]
        p = mcd_heatmap_fit(pass_mean(far))
        assert p.converged
        x, y = p.gaussian.mean
        d_a = math.hypot(x - 12.0, y - 12.0)
        d_b = math.hypot(x - 50.0, y - 50.0)
        assert min(d_a, d_b) < 2.0


class TestUnderestimation:
    def test_tight_cluster_product_ordering(self):
        # argmax spread ignores the heatmap width; the fitted covariance
        # carries it, so the mcd_max product must come out smaller
        rng = np.random.default_rng(3)
        hs = []
        for _ in range(20):
            jitter = rng.normal(0.0, 0.4, size=2)
            hs.append(render_isotropic((24.0 + jitter[0], 24.0 + jitter[1]),
                                       3.0, 100.0, (48, 48)))
        _, lo = mcd_max([argmax_coord(h) for h in hs])
        hi = mcd_heatmap_fit(pass_mean(hs)).gaussian.decomp
        assert lo.product < hi.product


class TestMcdPredict:
    @staticmethod
    def model(rate, net=None):
        if net is None:
            rng = np.random.default_rng(31)
            net = ReferencePredictor(2, width=4, seed=31)
            net.set_params(rng.normal(0.0, 0.3, net.num_params()))
        decomps = [CovarianceDecomposition(0.0, 3.0, 3.0)] * 2
        return TrainedModel(net, decomps, TrainConfig(dropout_rate=rate, predictor_width=4),
                            np.empty(0))

    def test_k_floor(self):
        # k is checked before the model is touched, so a model without dropout
        # still reports the bad k
        with pytest.raises(InvalidParameterError, match="k must be >= 2, got 1"):
            mcd_predict(self.model(0.0), np.zeros((16, 20)), k=1)
        mean, points = mcd_predict(self.model(0.2), np.zeros((16, 20)), k=2)
        assert mean.shape == (2, 16, 20) and mean.dtype == np.float64
        assert points.shape == (2, 2, 2) and points.dtype == np.intp

    def test_shared_trunk_matches_separate_passes(self):
        # mcd_predict runs the trunk once and sums the heads as they come, on
        # masks from a block it draws or one the predictor kept; the result
        # must equal K full dropout forward passes with pass seeds [seed, i]
        model = self.model(0.2)
        image = np.random.default_rng(32).random((16, 20))
        passes = [model.predictor.forward(image, 0.2, np.random.default_rng([9, i]))
                  for i in range(5)]
        assert not np.array_equal(passes[0], passes[1])
        for _ in range(3):  # drawn, then kept
            mean, points = mcd_predict(model, image, k=5, seed=9)
            assert np.array_equal(mean, np.stack(passes).mean(axis=0))
            for i, heatmaps in enumerate(passes):
                for j, h in enumerate(heatmaps):
                    assert tuple(points[j, i]) == argmax_coord(h)

    def test_mask_block_kept_per_key(self, monkeypatch):
        # the predictor holds one block, reused for an image of the same shape
        # and drawn again, after the old one is freed, when the feature shape,
        # k, seed or rate changes
        model = self.model(0.2)
        image = np.random.default_rng(34).random((16, 20))

        def block(model=model, image=image, k=3, seed=0):
            mcd_predict(model, image, k, seed)
            return model.predictor._mc_block

        first = block()
        assert first.shape == (3, 16, 20, 4) and first.dtype == bool
        assert first.flags.c_contiguous
        assert np.array_equal(first[1], keep_mask((16, 20, 4), 0.2, np.random.default_rng([0, 1])))
        assert block(image=image[::-1].copy()) is first
        drawn = [weakref.ref(first)]
        del first

        def drawn_alone(*args):
            assert all(ref() is None for ref in drawn)
            return keep_mask(*args)

        monkeypatch.setattr(hmuq.nets, "keep_mask", drawn_alone)
        for change in ({"image": np.zeros((20, 16))}, {"k": 4}, {"seed": 1},
                       {"model": self.model(0.3, model.predictor)}):
            for kwargs in ({}, change):
                kept = block(**kwargs)
                if drawn[-1]() is not kept:
                    drawn.append(weakref.ref(kept))
                del kept
        assert len(drawn) == 8  # the first block, then each change and the way back
        with pytest.raises(InvalidParameterError, match="needs a model trained with dropout"):
            mcd_predict(self.model(0.0, model.predictor), image, k=3)

    def test_memory_flat_in_k(self):
        # beyond the k masks of its block, a call holds only the 2k argmax
        # integers per landmark that grow with k, not k heatmaps
        model = self.model(0.2)
        image = np.random.default_rng(33).random((64, 64))

        def peak_bytes(k):
            model.predictor._mc_key = model.predictor._mc_block = None
            tracemalloc.start()
            try:
                mcd_predict(model, image, k=k)
                return tracemalloc.get_traced_memory()[1] - model.predictor._mc_block.nbytes
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(20), peak_bytes(200)
        assert large <= 1.25 * small, (small, large)

    def test_passes_leave_backward_state_alone(self, monkeypatch):
        # the passes keep nothing for backward: once mcd_predict returns, what
        # its trunk saved is dead, and backward still reads the latest forward
        # call, bit for bit
        model = self.model(0.2)
        net = model.predictor
        rng = np.random.default_rng(35)
        image, dy = rng.random((16, 20)), rng.normal(size=(2, 16, 20))
        net.forward(image, 0.2, np.random.default_rng(5))
        want = net.backward(dy)
        saved = []  # weak references to each trunk call's arrays for backward
        trunk = net.trunk

        def recording_trunk(image):
            features, stages = trunk(image)
            saved.append([weakref.ref(a) for stage in stages for a in stage])
            return features, stages

        monkeypatch.setattr(net, "trunk", recording_trunk)
        net.forward(image, 0.2, np.random.default_rng(5))
        mcd_predict(model, rng.random((16, 20)), k=3)
        assert len(saved) == 2
        assert all(ref() is not None for ref in saved[0])  # forward's, for backward
        assert all(ref() is None for ref in saved[1])
        assert net.backward(dy).tobytes() == want.tobytes()
