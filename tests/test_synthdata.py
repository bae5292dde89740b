import numpy as np
import pytest

from helpers import axis_angle_difference_deg
from hmuq.dataio import config_from_dict, config_to_dict, format_config, load_dataset
from hmuq.gauss import InvalidParameterError, population_distribution
from hmuq.synthdata import (
    DEFAULT_LANDMARKS,
    LandmarkSpec,
    SynthConfig,
    generate,
    write_synth_dataset,
)


DEFAULT_GENERATOR_CFG = """\
image_size = 64
num_images = 200
contrast = 0.7
noise_floor = 0.02
position_jitter = 3.0
seed = 0
num_landmarks = 4
landmark_0.structure = corner
landmark_0.orientation_deg = 0.0
landmark_0.noise_theta_deg = 0.0
landmark_0.noise_sigma_maj = 0.0
landmark_0.noise_sigma_min = 0.0
landmark_1.structure = edge
landmark_1.orientation_deg = 30.0
landmark_1.noise_theta_deg = 30.0
landmark_1.noise_sigma_maj = 4.0
landmark_1.noise_sigma_min = 1.5
landmark_2.structure = blob
landmark_2.orientation_deg = 0.0
landmark_2.noise_theta_deg = 0.0
landmark_2.noise_sigma_maj = 1.5
landmark_2.noise_sigma_min = 1.5
landmark_3.structure = corner
landmark_3.orientation_deg = 45.0
landmark_3.noise_theta_deg = 0.0
landmark_3.noise_sigma_maj = 0.0
landmark_3.noise_sigma_min = 0.0
"""


class TestGenerate:
    def test_shapes_and_ranges(self):
        ds, truth = generate(SynthConfig(num_images=5, seed=0))
        assert len(ds.images) == 5
        assert ds.coords.shape == (5, 4, 2)
        assert truth.shape == (5, 4, 2)
        assert ds.landmark_count == 4
        assert np.array_equal(ds.spacing, np.ones(5))
        for im in ds.images:
            assert im.shape == (64, 64)
            assert im.min() >= 0.0 and im.max() <= 1.0

    def test_deterministic(self):
        a, a_truth = generate(SynthConfig(num_images=4, seed=7))
        b, b_truth = generate(SynthConfig(num_images=4, seed=7))
        assert all(np.array_equal(x, y) for x, y in zip(a.images, b.images))
        assert np.array_equal(a_truth, b_truth)
        assert np.array_equal(a.coords, b.coords)

    def test_zero_noise_annotations_equal_truth(self):
        specs = (LandmarkSpec("corner"), LandmarkSpec("blob"))
        ds, truth = generate(SynthConfig(num_images=6, landmarks=specs, seed=1))
        assert np.array_equal(ds.coords, truth)

    def test_injected_noise_recovered(self):
        # the annotation scatter around truth must reproduce the injected
        # covariance: 500 draws pin theta to a few degrees
        specs = (LandmarkSpec("edge", 30.0, 30.0, 4.0, 1.0),)
        ds, truth = generate(SynthConfig(image_size=96, num_images=500, landmarks=specs, seed=3))
        _, d = population_distribution(ds.coords[:, 0] - truth[:, 0])
        assert axis_angle_difference_deg(d.theta_deg, 30.0) < 5.0
        assert d.sigma_maj / d.sigma_min == pytest.approx(4.0, rel=0.15)

    def test_jitter_moves_structures(self):
        _, truth = generate(SynthConfig(num_images=8, seed=2, position_jitter=3.0))
        spread = truth.std(axis=0)
        assert spread.max() > 0.5

    def test_margin_violation_rejected(self):
        specs = (LandmarkSpec("blob", 0.0, 0.0, 8.0, 8.0),)
        with pytest.raises(InvalidParameterError, match="margin"):
            SynthConfig(image_size=32, landmarks=specs).validate()

    def test_structures_visible_at_truth(self):
        # every structure should brighten the image near its true position
        ds, truth = generate(SynthConfig(num_images=3, seed=4, noise_floor=0.0))
        for i, im in enumerate(ds.images):
            for j in range(ds.landmark_count):
                x, y = truth[i, j]
                patch = im[int(y) - 2:int(y) + 3, int(x) - 2:int(x) + 3]
                assert patch.max() > 0.1


class TestConfigDict:
    def test_round_trip(self):
        cfg = SynthConfig(image_size=80, num_images=12, contrast=0.5, seed=9)
        assert config_from_dict(SynthConfig, config_to_dict(cfg)) == cfg

    def test_landmark_fields_round_trip(self):
        d = config_to_dict(SynthConfig())
        cfg = config_from_dict(SynthConfig, d)
        assert cfg.landmarks == DEFAULT_LANDMARKS

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown config key"):
            config_from_dict(SynthConfig, {"imag_size": "64"})

    def test_landmark_beyond_count_rejected(self):
        d = config_to_dict(SynthConfig())
        d["num_landmarks"] = "3"
        with pytest.raises(InvalidParameterError, match="unknown config key 'landmark_3"):
            config_from_dict(SynthConfig, d)

    def test_landmark_missing_for_count_rejected(self):
        d = config_to_dict(SynthConfig())
        d["num_landmarks"] = "5"
        with pytest.raises(InvalidParameterError,
                           match="missing config key 'landmark_4.structure'"):
            config_from_dict(SynthConfig, d)

    def test_zero_landmarks_rejected(self):
        with pytest.raises(InvalidParameterError, match="num_landmarks must be >= 1"):
            config_from_dict(SynthConfig, {"num_landmarks": "0"})

    @pytest.mark.parametrize("key, value", [
        ("noise_floor", "-0.1"), ("position_jitter", "-1.0"), ("contrast", "1.5"),
        ("num_images", "0")])
    def test_bad_value_names_its_key_and_value(self, key, value):
        with pytest.raises(InvalidParameterError, match=rf"^{key} must be .*, got {value}$"):
            config_from_dict(SynthConfig, {key: value})

    def test_bad_landmark_value_names_key(self):
        d = config_to_dict(SynthConfig())
        d["landmark_2.noise_sigma_min"] = "-1.0"
        with pytest.raises(InvalidParameterError,
                           match=r"landmark_2\.noise_sigma_min must be >= 0, got -1\.0"):
            config_from_dict(SynthConfig, d)

    def test_landmark_margin_names_key(self):
        d = config_to_dict(SynthConfig())
        d["landmark_1.noise_sigma_maj"] = "1e308"
        with pytest.raises(InvalidParameterError, match=r"landmark_1\.noise_sigma_maj margin"):
            config_from_dict(SynthConfig, d)

    def test_default_generator_cfg_text(self):
        # the generator.cfg that write_synth_dataset writes, byte for byte
        assert format_config(config_to_dict(SynthConfig())) == DEFAULT_GENERATOR_CFG


class TestWrite:
    def test_written_dataset_loads_and_matches(self, tmp_path):
        # what generate returns is what load_dataset reads back from the written set
        cfg = SynthConfig(num_images=3, seed=5)
        ds, truth = generate(cfg)
        loaded = load_dataset(write_synth_dataset(tmp_path / "out", ds, truth, cfg))
        assert loaded.ids == ds.ids
        assert loaded.landmark_count == ds.landmark_count == 4
        # each float64 intensity is rounded to 16 bits on disk, then loaded as float32
        for a, b in zip(loaded.images, ds.images):
            assert a.dtype == np.float32
            assert np.array_equal(a, np.float32(np.rint(b * 65535) / 65535))
        assert np.array_equal(loaded.coords, ds.coords)
        assert np.array_equal(loaded.spacing, ds.spacing)
        assert (tmp_path / "out" / "generator.cfg").exists()

    def test_truth_table_holds_clean_positions(self, tmp_path):
        from hmuq.dataio import read_annotations

        cfg = SynthConfig(num_images=2, seed=6)
        ds, truth = generate(cfg)
        write_synth_dataset(tmp_path / "out", ds, truth, cfg)
        rows = read_annotations(tmp_path / "out" / "truth.csv")
        assert [r.image_id for r in rows[::4]] == ds.ids
        got = np.array([(r.x, r.y) for r in rows]).reshape(2, 4, 2)
        assert np.array_equal(got, truth)
