import math

import numpy as np
import pytest

from helpers import render_isotropic
from hmuq.fitting import FitConfig
from hmuq.gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    compose_covariance,
    render_anisotropic,
    sample_gaussian,
)
from hmuq.nets import ReferencePredictor
from hmuq.trainer import TrainConfig, TrainedModel, predict
from hmuq.uncertainty import (
    McdConfig,
    mcd_heatmap_fit,
    mcd_max,
    mcd_predict,
    points_prediction,
    sample_uncertainty,
)


def one_hot(shape, x, y):
    values = np.zeros(shape)
    values[y, x] = 1.0
    return values


class TestSampleUncertainty:
    def test_wraps_fit(self):
        g = AnisotropicGaussian((30.0, 28.0), CovarianceDecomposition(0.4, 4.0, 2.5), 100.0)
        p = sample_uncertainty(render_anisotropic(g, (64, 64)))
        assert p.source == "fit"
        assert p.converged
        assert p.coord == pytest.approx((30.0, 28.0), abs=0.01)
        assert p.covariance.sigma_maj == pytest.approx(4.0, rel=0.01)


class TestMcdMax:
    def test_collinear_maxima_example(self):
        hs = [one_hot((8, 8), x, 0) for x in (0, 2, 4)]
        p = mcd_max(hs)
        assert p.coord == (2.0, 0.0)
        assert p.covariance.sigma_maj == pytest.approx(math.sqrt(8.0 / 3.0))
        assert p.covariance.sigma_min == 0.0
        assert p.covariance.degenerate
        assert p.covariance.theta == 0.0

    def test_identical_maxima_degenerate(self):
        p = mcd_max([one_hot((8, 8), 3, 5)] * 4)
        assert p.coord == (3.0, 5.0)
        assert p.covariance.sigma_maj == 0.0
        assert p.covariance.degenerate

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        hs = [one_hot((16, 16), rng.integers(0, 16), rng.integers(0, 16)) for _ in range(9)]
        a = mcd_max(hs)
        b = mcd_max(hs[::-1])
        assert a.coord == b.coord
        assert a.covariance == b.covariance

    def test_rejects_single_pass(self):
        with pytest.raises(InvalidParameterError):
            mcd_max([one_hot((8, 8), 1, 1)])

    def test_point_statistics_recover_known_gaussian(self):
        # the estimator underneath mcd_max, fed 1e5 true samples
        d = CovarianceDecomposition(math.radians(30.0), 5.0, 3.0)
        g = AnisotropicGaussian((0.0, 0.0), d, 1.0)
        pts = sample_gaussian(g, 100_000, seed=5)
        p = points_prediction(pts, "mcd_max")
        got = compose_covariance(p.covariance)
        want = compose_covariance(d)
        assert np.abs(got - want).max() <= 0.03 * np.abs(want).max()


class TestMcdHeatmapFit:
    def test_identical_heatmaps_match_single_fit(self):
        h = render_isotropic((20.0, 21.0), 3.0, 100.0, (48, 48))
        single = sample_uncertainty(h)
        merged = mcd_heatmap_fit([h] * 5)
        assert merged.source == "mcd_heatmap_fit"
        assert merged.coord == pytest.approx(single.coord, abs=1e-9)
        assert merged.covariance.sigma_maj == pytest.approx(single.covariance.sigma_maj,
                                                            rel=1e-9)

    def test_jittered_means_broaden_fit(self):
        sigma = 3.0
        hs = []
        for k, dx in enumerate(np.linspace(-1.0, 1.0, 7)):
            hs.append(render_isotropic((24.0 + dx, 24.0), sigma, 100.0, (48, 48)))
        p = mcd_heatmap_fit(hs)
        assert p.covariance.sigma_maj > sigma
        assert p.covariance.sigma_min == pytest.approx(sigma, rel=0.01)

    def test_permutation_invariance(self):
        hs = [render_isotropic((20.0 + dx, 20.0 + dx), 2.5, 100.0, (40, 40))
              for dx in (-1.0, 0.0, 1.0)]
        a = mcd_heatmap_fit(hs)
        b = mcd_heatmap_fit(hs[::-1])
        assert a.coord == pytest.approx(b.coord, abs=1e-12)

    def test_bimodal_converges_near_one_mode(self):
        far = [render_isotropic((12.0, 12.0), 2.0, 100.0, (64, 64)),
               render_isotropic((50.0, 50.0), 2.0, 100.0, (64, 64))]
        p = mcd_heatmap_fit(far)
        assert p.converged
        d_a = math.hypot(p.coord[0] - 12.0, p.coord[1] - 12.0)
        d_b = math.hypot(p.coord[0] - 50.0, p.coord[1] - 50.0)
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
        lo = mcd_max(hs)
        hi = mcd_heatmap_fit(hs)
        assert lo.covariance.product < hi.covariance.product


class TestMcdConfig:
    def test_k_floor(self):
        with pytest.raises(InvalidParameterError):
            McdConfig(k=1).validate()
        McdConfig(k=2).validate()


class TestMcdPredict:
    def test_shared_trunk_matches_separate_passes(self):
        # mcd_predict runs the trunk once; each pass must still equal one full
        # dropout forward pass with the pass seed [cfg.seed, k]
        rng = np.random.default_rng(31)
        net = ReferencePredictor(2, width=4, seed=31)
        net.set_params(rng.normal(0.0, 0.3, net.num_params()))
        decomps = [CovarianceDecomposition(0.0, 3.0, 3.0)] * 2
        model = TrainedModel(net, decomps, TrainConfig(dropout_rate=0.2, predictor_width=4),
                             np.empty(0))
        image = rng.random((16, 20))
        cfg = McdConfig(k=5, seed=9)
        stacks = mcd_predict(model, image, cfg)
        assert [len(s) for s in stacks] == [cfg.k, cfg.k]
        for k in range(cfg.k):
            single = predict(model, image, dropout_enabled=True, seed=[cfg.seed, k])
            for j in range(2):
                assert np.abs(stacks[j][k] - single[j]).max() <= 1e-12
        assert not np.array_equal(stacks[0][0], stacks[0][1])
