import math

import numpy as np
import pytest

from helpers import compose_covariance, render_anisotropic, render_isotropic
from hmuq.gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    population_distribution,
    sample_gaussian,
)
from hmuq.nets import ReferencePredictor
from hmuq.trainer import TrainConfig, TrainedModel
from hmuq.uncertainty import mcd_heatmap_fit, mcd_max, mcd_predict, sample_uncertainty


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
        assert mcd_heatmap_fit([one_hot((16, 16), 3, 4)] * 3) is None


class TestMcdMax:
    def test_collinear_maxima_example(self):
        hs = [one_hot((8, 8), x, 0) for x in (0, 2, 4)]
        mean, d = mcd_max(hs)
        assert tuple(mean) == (2.0, 0.0)
        assert d.sigma_maj == pytest.approx(math.sqrt(8.0 / 3.0))
        assert d.sigma_min == 0.0
        assert d.theta == 0.0

    def test_identical_maxima_degenerate(self):
        mean, d = mcd_max([one_hot((8, 8), 3, 5)] * 4)
        assert tuple(mean) == (3.0, 5.0)
        assert d.sigma_maj == 0.0
        assert d.sigma_min == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        hs = [one_hot((16, 16), rng.integers(0, 16), rng.integers(0, 16)) for _ in range(9)]
        mean_a, d_a = mcd_max(hs)
        mean_b, d_b = mcd_max(hs[::-1])
        assert tuple(mean_a) == tuple(mean_b)
        assert d_a == d_b

    def test_rejects_single_pass(self):
        with pytest.raises(InvalidParameterError):
            mcd_max([one_hot((8, 8), 1, 1)])

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
        merged = mcd_heatmap_fit([h] * 5)
        assert merged.gaussian.mean == pytest.approx(single.gaussian.mean, abs=1e-9)
        assert merged.gaussian.decomp.sigma_maj == pytest.approx(
            single.gaussian.decomp.sigma_maj, rel=1e-9)

    def test_jittered_means_broaden_fit(self):
        sigma = 3.0
        hs = []
        for k, dx in enumerate(np.linspace(-1.0, 1.0, 7)):
            hs.append(render_isotropic((24.0 + dx, 24.0), sigma, 100.0, (48, 48)))
        d = mcd_heatmap_fit(hs).gaussian.decomp
        assert d.sigma_maj > sigma
        assert d.sigma_min == pytest.approx(sigma, rel=0.01)

    def test_permutation_invariance(self):
        hs = [render_isotropic((20.0 + dx, 20.0 + dx), 2.5, 100.0, (40, 40))
              for dx in (-1.0, 0.0, 1.0)]
        a = mcd_heatmap_fit(hs)
        b = mcd_heatmap_fit(hs[::-1])
        assert a.gaussian.mean == pytest.approx(b.gaussian.mean, abs=1e-12)

    def test_bimodal_converges_near_one_mode(self):
        far = [render_isotropic((12.0, 12.0), 2.0, 100.0, (64, 64)),
               render_isotropic((50.0, 50.0), 2.0, 100.0, (64, 64))]
        p = mcd_heatmap_fit(far)
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
        _, lo = mcd_max(hs)
        hi = mcd_heatmap_fit(hs).gaussian.decomp
        assert lo.product < hi.product


class TestMcdPredict:
    @staticmethod
    def model(rate):
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
        assert mcd_predict(self.model(0.2), np.zeros((16, 20)), k=2).shape == (2, 2, 16, 20)

    def test_shared_trunk_matches_separate_passes(self):
        # mcd_predict runs the trunk once; each pass must still equal one full
        # dropout forward pass with the pass seed [seed, k]
        model = self.model(0.2)
        image = np.random.default_rng(32).random((16, 20))
        stacks = mcd_predict(model, image, k=5, seed=9)
        assert [len(s) for s in stacks] == [5, 5]
        for k in range(5):
            single = model.predictor.forward(image, 0.2, np.random.default_rng([9, k]))
            for j in range(2):
                assert np.abs(stacks[j][k] - single[j]).max() <= 1e-12
        assert not np.array_equal(stacks[0][0], stacks[0][1])
