import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hmuq.dataio import (
    AnnotationRow,
    DataFormatError,
    config_from_dict,
    config_to_dict,
    format_config,
    load_dataset,
    parse_config_text,
    read_annotations,
    read_config_file,
    read_pgm,
    write_annotations,
    write_dataset,
    write_pgm,
)
from hmuq.fitting import FitConfig
from hmuq.gauss import InvalidParameterError
from hmuq.synthdata import SynthConfig
from hmuq.trainer import TrainConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


class TestConfig:
    def test_parse_basic(self):
        text = "# generator settings\nalpha = 5.0\n\nmode = learned_aniso\n"
        assert parse_config_text(text) == {"alpha": "5.0", "mode": "learned_aniso"}

    def test_round_trip(self):
        items = {"a": "1", "long key": "x = y"}  # values may contain '='
        assert parse_config_text(format_config(items)) == items

    def test_missing_equals(self):
        with pytest.raises(DataFormatError, match="cfg:2"):
            parse_config_text("a = 1\nbroken line\n", source="cfg")

    def test_duplicate_key(self):
        with pytest.raises(DataFormatError, match="duplicate key"):
            parse_config_text("a = 1\na = 2\n")


class TestConfigCodec:
    def test_readme_names_every_config_key(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        section = re.search(r"^## Configuration files\n(.*?)^## ", text, re.S | re.M).group(1)
        keys = [key for cls in (TrainConfig, SynthConfig, FitConfig)
                for key in config_to_dict(cls())]
        for key in keys:
            top, dot, _ = key.partition(".")
            named = f"`{top}.*`" if dot else f"`{key}`"
            if top.startswith("landmark_"):  # per-landmark blocks are shown by example
                named = re.sub(r"^landmark_\d+", "landmark_0", key) + " ="
            assert named in section, f"README configuration section does not name {key!r}"


# every key of the default configs but the landmark count and the blocks after
# the first (num_landmarks has its own tests in test_synthdata.py)
SCALAR_KEYS = [(cls, key) for cls in (TrainConfig, FitConfig, SynthConfig)
               for key in config_to_dict(cls())
               if key != "num_landmarks"
               and (not key.startswith("landmark_") or key.startswith("landmark_0."))]
CONFIG_TEXT = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),  # includes 'nan', 'inf' and '-inf'
    st.integers().map(str),
    st.sampled_from(["NaN", "-Infinity", "1e400", "-0.0", "1_0", "true", "false",
                     str(10 ** 400)]),
)


def float_values(cfg):
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from float_values(value)
        elif isinstance(value, tuple):
            for item in value:
                yield from float_values(item)
        elif isinstance(value, float):
            yield value


class TestConfigProperty:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(case=st.sampled_from(SCALAR_KEYS), text=CONFIG_TEXT)
    @example(case=(SynthConfig, "image_size"), text=str(10 ** 400))  # overflows a float
    @example(case=(SynthConfig, "landmark_0.noise_sigma_maj"), text="-1.0")
    @example(case=(SynthConfig, "landmark_0.noise_sigma_min"), text="1e308")  # margin overflows
    def test_finite_config_or_error_naming_key(self, case, text):
        """One key of the default config set to any text: a validated
        all-finite config, or an InvalidParameterError that names the field
        (a per-landmark field with its `landmark_<i>.` prefix)."""
        cls, key = case
        try:
            cfg = config_from_dict(cls, {**config_to_dict(cls()), key: text})
        except InvalidParameterError as exc:
            named = key if key.startswith("landmark_") else key.rpartition(".")[2]
            assert named in str(exc), (key, text, str(exc))
            return
        assert all(math.isfinite(v) for v in float_values(cfg)), (key, text)


VALID_TEXT_FILES = {
    "train.cfg": (format_config(config_to_dict(TrainConfig())), read_config_file),
    "annotations.csv": ("image_id,landmark_id,observer_id,x_px,y_px\n"
                        "img_0,0,,1.5,2.25\nimg_0,1,obs_a,3.0,4.125\n", read_annotations),
}


class TestNonUtf8Property:
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(sorted(VALID_TEXT_FILES)), position=st.floats(0.0, 1.0),
           byte=st.integers(0x80, 0xFF))
    def test_non_utf8_byte_names_path(self, tmp_path, name, position, byte):
        """Any one byte of a valid (ASCII) config or CSV file replaced by one in
        0x80-0xff: a DataFormatError naming the path and the byte's offset."""
        text, read = VALID_TEXT_FILES[name]
        data = bytearray(text.encode("ascii"))
        at = min(int(position * len(data)), len(data) - 1)
        data[at] = byte
        path = tmp_path / name
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: not UTF-8 text (byte {at})")):
            read(path)


class TestPgm:
    def test_round_trip_16_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.rint(rng.random((13, 17)) * 65535) / 65535
        path = tmp_path / "a.pgm"
        write_pgm(path, values, bits=16)
        assert np.array_equal(read_pgm(path), values)

    def test_round_trip_8_bit(self, tmp_path):
        values = np.linspace(0.0, 1.0, 256).reshape(16, 16)
        path = tmp_path / "b.pgm"
        write_pgm(path, values, bits=8)
        back = read_pgm(path)
        assert np.abs(back - values).max() <= 0.5 / 255

    def test_16_bit_samples_are_big_endian(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(path, np.full((1, 1), 1.0 / 65535), bits=16)
        assert path.read_bytes().endswith(b"\x00\x01")

    def test_header_comment_skipped(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n255\n\x00\xff")
        assert np.array_equal(read_pgm(path), [[0.0, 1.0]])

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"\[0, 1\]"):
            write_pgm(tmp_path / "e.pgm", np.full((2, 2), 1.5))

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(DataFormatError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n-4 4\n255\n", b"P5\n0 4\n255\n"])
    def test_rejects_nonpositive_dimensions(self, tmp_path, header):
        path = tmp_path / "dims.pgm"
        path.write_bytes(header + bytes(16))
        with pytest.raises(DataFormatError, match=re.escape(str(path)) + ".*dimensions"):
            read_pgm(path)

    @pytest.mark.parametrize("bits", [8, 16])
    def test_every_truncation_rejected(self, tmp_path, bits):
        full = tmp_path / "full.pgm"
        write_pgm(full, np.linspace(0.0, 1.0, 12).reshape(3, 4), bits=bits)
        data = full.read_bytes()
        path = tmp_path / "cut.pgm"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(DataFormatError, match=re.escape(str(path))):
                read_pgm(path)

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "g.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(DataFormatError, match="P5"):
            read_pgm(path)


class TestAnnotations:
    def test_round_trip_exact_floats(self, tmp_path):
        rows = [AnnotationRow("img_0", 0, "", 0.1 + 0.2, 31.999999999999996),
                AnnotationRow("img_1", 2, "obs_a", 1e-17, 63.0)]
        path = tmp_path / "ann.csv"
        write_annotations(path, rows)
        assert read_annotations(path) == rows

    def test_header_required(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DataFormatError, match="expected header"):
            read_annotations(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("image_id,landmark_id,observer_id,x_px,y_px\n"
                        "img_0,0,,1.0,2.0\n"
                        "img_1,zero,,1.0,2.0\n")
        with pytest.raises(DataFormatError, match=":3"):
            read_annotations(path)


class TestDataset:
    def make(self, tmp_path, coords=None, observer_rows=None, n=3, size=16):
        rng = np.random.default_rng(1)
        ids = [f"img_{i}" for i in range(n)]
        images = [np.rint(rng.random((size, size)) * 65535) / 65535 for _ in range(n)]
        if coords is None:
            coords = rng.uniform(1.0, size - 2.0, size=(n, 2, 2))
        return write_dataset(tmp_path / "ds", ids, images, coords,
                             np.full(n, 0.5), 2, observer_rows=observer_rows)

    def test_write_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        coords = rng.uniform(1.0, 14.0, size=(3, 2, 2))
        manifest = self.make(tmp_path, coords=coords)
        ds = load_dataset(manifest)
        assert ds.ids == ["img_0", "img_1", "img_2"]
        assert ds.landmark_count == 2
        assert np.array_equal(ds.coords, coords)
        assert np.array_equal(ds.spacing, [0.5, 0.5, 0.5])
        assert ds.observers is None
        assert all(im.shape == (16, 16) for im in ds.images)

    def test_observer_annotations(self, tmp_path):
        obs = [AnnotationRow("img_0", 0, "obs_a", 1.0, 2.0),
               AnnotationRow("img_0", 0, "obs_b", 1.5, 2.5)]
        ds = load_dataset(self.make(tmp_path, observer_rows=obs))
        assert ds.observers[("img_0", 0)] == [("obs_a", 1.0, 2.0), ("obs_b", 1.5, 2.5)]

    def test_out_of_bounds_names_image_and_landmark(self, tmp_path):
        coords = np.full((3, 2, 2), 5.0)
        coords[1, 1] = (20.0, 5.0)  # x beyond the 16-px image
        manifest = self.make(tmp_path, coords=coords)
        with pytest.raises(DataFormatError, match="'img_1' landmark 1"):
            load_dataset(manifest)

    def test_missing_annotation_rejected(self, tmp_path):
        manifest = self.make(tmp_path)
        ann = tmp_path / "ds" / "annotations.csv"
        lines = ann.read_text().splitlines(keepends=True)
        ann.write_text("".join(lines[:-1]))  # drop the last landmark row
        with pytest.raises(DataFormatError, match="missing annotations"):
            load_dataset(manifest)

    def test_unknown_manifest_key_rejected(self, tmp_path):
        manifest = self.make(tmp_path)
        with open(manifest, "a") as fh:
            fh.write("extras = yes\n")
        with pytest.raises(DataFormatError, match="unknown manifest key"):
            load_dataset(manifest)

    def test_duplicate_observer_rejected(self, tmp_path):
        obs = [AnnotationRow("img_0", 0, "obs_a", 1.0, 2.0),
               AnnotationRow("img_0", 0, "obs_a", 1.5, 2.5)]
        manifest = self.make(tmp_path, observer_rows=obs)
        with pytest.raises(DataFormatError, match="duplicate observer"):
            load_dataset(manifest)

    def test_unknown_image_in_annotations_rejected(self, tmp_path):
        obs = [AnnotationRow("img_9", 0, "obs_a", 1.0, 2.0)]
        manifest = self.make(tmp_path, observer_rows=obs)
        with pytest.raises(DataFormatError, match="unknown image id"):
            load_dataset(manifest)

    def test_nonpositive_spacing_rejected(self, tmp_path):
        manifest = self.make(tmp_path)
        images_csv = tmp_path / "ds" / "images.csv"
        images_csv.write_text(images_csv.read_text().replace("0.5", "0.0"))
        with pytest.raises(DataFormatError, match="spacing"):
            load_dataset(manifest)
