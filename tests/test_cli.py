import csv
import importlib.util
import os
import re
import shutil
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from hmuq.cli import main
from hmuq.dataio import load_dataset, read_annotations, write_pgm

from helpers import write_interobserver_fixture

ROOT = Path(__file__).resolve().parents[1]

SYNTH_CFG = """\
image_size = 32
num_images = 12
position_jitter = 2.0
seed = 5
num_landmarks = 2
landmark_0.structure = corner
landmark_0.orientation_deg = 0.0
landmark_0.noise_theta_deg = 0.0
landmark_0.noise_sigma_maj = 0.0
landmark_0.noise_sigma_min = 0.0
landmark_1.structure = edge
landmark_1.orientation_deg = 30.0
landmark_1.noise_theta_deg = 30.0
landmark_1.noise_sigma_maj = 2.0
landmark_1.noise_sigma_min = 0.8
"""

TRAIN_CFG = """\
iterations = 60
learning_rate = 1e-05
covariance_lr_multiplier = 3.0
batch_size = 2
seed = 1
dropout_rate = 0.1
predictor_width = 8
"""

NAMES_CFG = "0 = alpha\n1 = beta\n"

MEAS_CFG = """\
span.expression = distance(alpha, beta)
span.breakpoints = 6.0, 12.0
span.labels = short, mid, long
"""


def read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train once; the artifact tree is shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.cfg").write_text(SYNTH_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    (root / "names.cfg").write_text(NAMES_CFG)
    (root / "meas.cfg").write_text(MEAS_CFG)
    assert main(["synth", "--config", str(root / "synth.cfg"),
                 "--out", str(root / "d"), "--quiet"]) == 0
    assert main(["train", "--data", str(root / "d"),
                 "--config", str(root / "train.cfg"),
                 "--out", str(root / "m"), "--quiet"]) == 0
    return root


class TestPipeline:
    def test_synth_writes_loadable_dataset(self, pipeline):
        ds = load_dataset(pipeline / "d" / "manifest.cfg")
        assert len(ds.ids) == 12
        assert ds.landmark_count == 2

    def test_train_artifacts(self, pipeline):
        assert (pipeline / "m" / "model.ckpt").exists()
        loss = read_rows(pipeline / "m" / "loss.csv")
        assert len(loss) == 60
        covs = read_rows(pipeline / "m" / "learned_covariances.csv")
        assert [r["landmark_id"] for r in covs] == ["0", "1"]

    def test_eval_one_row_per_landmark(self, pipeline):
        assert main(["eval", "--model", str(pipeline / "m"),
                     "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "r"), "--quiet"]) == 0
        rows = read_rows(pipeline / "r" / "metrics.csv")
        assert [r["landmark_id"] for r in rows] == ["0", "1"]
        for row in rows:
            assert float(row["ratio_mean"]) >= 1.0
            assert 0.0 <= float(row["sdr_2"]) <= 100.0

    def test_predict_rows_reingest(self, pipeline):
        assert main(["predict", "--model", str(pipeline / "m"),
                     "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "p"), "--quiet"]) == 0
        rows = read_annotations(pipeline / "p" / "predictions.csv")
        assert len(rows) == 24
        assert all(r.observer_id == "" for r in rows)

    def test_fit_csv(self, pipeline):
        assert main(["fit", "--model", str(pipeline / "m"),
                     "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "f"), "--quiet"]) == 0
        rows = read_rows(pipeline / "f" / "fits.csv")
        assert len(rows) == 24
        for row in rows:
            assert float(row["sigma_maj"]) >= float(row["sigma_min"]) > 0

    def test_mcd_both_sources(self, pipeline):
        assert main(["mcd", "--model", str(pipeline / "m"),
                     "--data", str(pipeline / "d"), "--k", "5",
                     "--out", str(pipeline / "mc"), "--quiet"]) == 0
        rows = read_rows(pipeline / "mc" / "mcd.csv")
        sources = {r["source"] for r in rows}
        assert sources == {"mcd_max", "mcd_heatmap_fit"}

    def test_clinical_artifacts(self, pipeline):
        assert main(["clinical", "--model", str(pipeline / "m"),
                     "--data", str(pipeline / "d"),
                     "--names", str(pipeline / "names.cfg"),
                     "--measurements", str(pipeline / "meas.cfg"),
                     "--samples", "200", "--seed", "4",
                     "--out", str(pipeline / "rc"), "--quiet"]) == 0
        rows = read_rows(pipeline / "rc" / "classifications.csv")
        assert len(rows) == 12
        assert all(r["measurement"] == "span" for r in rows)
        curve = read_rows(pipeline / "rc" / "curve_span.csv")
        assert len(curve) == 12
        assert float(curve[-1]["fraction"]) == 1.0
        probs = read_rows(pipeline / "rc" / "probabilities.csv")
        assert len(probs) == 36  # 12 images x 3 classes


class TestPlots:
    def svg_tags(self, path):
        return [e.tag.split("}")[-1] for e in ET.parse(path).getroot().iter()]

    def test_ellipse_overlay_one_per_landmark(self, pipeline):
        assert main(["plot", "--kind", "ellipse_overlay",
                     "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "pl"), "--no-timestamp"]) == 0
        tags = self.svg_tags(pipeline / "pl" / "ellipse_overlay.svg")
        assert tags.count("ellipse") == 2

    def test_offset_scatter(self, pipeline):
        assert main(["plot", "--kind", "offset_scatter", "--landmark", "1",
                     "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "pl"), "--no-timestamp"]) == 0
        tags = self.svg_tags(pipeline / "pl" / "offset_scatter.svg")
        assert tags.count("circle") == 12
        assert tags.count("ellipse") == 2  # learned + empirical

    def test_accuracy_curve_from_csv(self, pipeline):
        curve = pipeline / "rc" / "curve_span.csv"
        assert main(["plot", "--kind", "accuracy_curve", "--curves", str(curve),
                     "--out", str(pipeline / "pl"), "--no-timestamp"]) == 0
        tags = self.svg_tags(pipeline / "pl" / "accuracy_curve.svg")
        assert tags.count("polyline") >= 1

    def test_sigma_vs_error(self, pipeline):
        assert main(["plot", "--kind", "sigma_vs_error", "--landmark", "0",
                     "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "pl"), "--no-timestamp"]) == 0
        tags = self.svg_tags(pipeline / "pl" / "sigma_vs_error.svg")
        assert tags.count("circle") == 12

    def test_timestamp_suppressed(self, pipeline):
        text = (pipeline / "pl" / "ellipse_overlay.svg").read_text()
        assert "generated" not in text

    def test_timestamp_default_on(self, pipeline, tmp_path):
        assert main(["plot", "--kind", "ellipse_overlay",
                     "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert "generated" in (tmp_path / "ellipse_overlay.svg").read_text()


class TestDeterminism:
    def test_synth_rerun_byte_identical(self, pipeline, tmp_path):
        assert main(["synth", "--config", str(pipeline / "synth.cfg"),
                     "--out", str(tmp_path / "d2"), "--quiet"]) == 0
        for name in ("annotations.csv", "truth.csv", "images.csv"):
            assert (tmp_path / "d2" / name).read_bytes() == \
                (pipeline / "d" / name).read_bytes()

    def test_eval_rerun_byte_identical(self, pipeline, tmp_path):
        assert main(["eval", "--model", str(pipeline / "m"),
                     "--data", str(pipeline / "d"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "metrics.csv").read_bytes() == \
            (pipeline / "r" / "metrics.csv").read_bytes()

    def test_mcd_rerun_byte_identical(self, pipeline, tmp_path):
        assert main(["mcd", "--model", str(pipeline / "m"),
                     "--data", str(pipeline / "d"), "--k", "5",
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "mcd.csv").read_bytes() == \
            (pipeline / "mc" / "mcd.csv").read_bytes()

    def test_seed_changes_synth(self, pipeline, tmp_path):
        assert main(["synth", "--config", str(pipeline / "synth.cfg"), "--seed", "6",
                     "--out", str(tmp_path / "d3"), "--quiet"]) == 0
        assert (tmp_path / "d3" / "annotations.csv").read_bytes() != \
            (pipeline / "d" / "annotations.csv").read_bytes()


class TestFitWarnings:
    def test_unconverged_fits_counted_on_stderr(self, pipeline, tmp_path, capsys):
        (tmp_path / "fit.cfg").write_text("max_iterations = 2\n")
        common = ["--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                  "--config", str(tmp_path / "fit.cfg"), "--quiet"]
        assert main(["fit", *common, "--out", str(tmp_path / "f")]) == 0
        rows = read_rows(tmp_path / "f" / "fits.csv")
        unconverged = sum(row["converged"] == "0" for row in rows)
        assert 0 < unconverged
        capsys.readouterr()
        assert main(["eval", *common, "--out", str(tmp_path / "r")]) == 0
        out, err = capsys.readouterr()
        assert err == f"warning: {unconverged} of {len(rows)} fits did not converge\n"
        assert out == ""

    def test_mcd_unconverged_fits_counted_on_stderr(self, pipeline, tmp_path, capsys):
        (tmp_path / "fit.cfg").write_text("max_iterations = 2\n")
        assert main(["mcd", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--k", "5", "--config", str(tmp_path / "fit.cfg"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        out, err = capsys.readouterr()
        fits = sum(row["source"] == "mcd_heatmap_fit"
                   for row in read_rows(tmp_path / "mcd.csv"))
        assert fits == 24
        match = re.fullmatch(rf"warning: (\d+) of {fits} fits did not converge\n", err)
        assert match and 0 < int(match.group(1)) <= fits, err
        assert out == ""

    def test_no_warning_when_every_fit_converges(self, pipeline, tmp_path, capsys):
        assert main(["eval", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert main(["mcd", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--k", "5", "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""


class TestInterobs:
    def test_report_matches_fixture(self, tmp_path):
        manifest = write_interobserver_fixture(tmp_path / "iobs", num_images=10)
        assert main(["interobs", "--data", str(manifest),
                     "--out", str(tmp_path), "--quiet"]) == 0
        rows = read_rows(tmp_path / "interobserver.csv")
        assert len(rows) == 5
        assert float(rows[0]["ratio_mean"]) == pytest.approx(2.57, abs=0.05)
        assert float(rows[0]["theta_mean_deg"]) == pytest.approx(39.33, abs=1.0)
        assert rows[0]["pe_mean"] == ""

    def test_rejects_single_annotator_data(self, pipeline, tmp_path):
        assert main(["interobs", "--data", str(pipeline / "d"),
                     "--out", str(tmp_path), "--quiet"]) == 1


class TestErrors:
    def test_unknown_subcommand_usage_exit(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_usage_exit(self):
        assert main(["synth", "--bogus"]) == 2

    def test_plot_missing_inputs_usage_exit(self):
        assert main(["plot", "--kind", "offset_scatter"]) == 2

    @pytest.mark.parametrize("argv", [
        ["synth"], ["train", "--data", "d"], ["mcd", "--model", "m", "--data", "d"],
        ["clinical", "--model", "m", "--data", "d", "--names", "n.cfg"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_usage_exit(self, capsys, argv):
        assert main(argv + ["--seed", "-1"]) == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_plot_unknown_kind_usage_exit(self, capsys):
        assert main(["plot", "--kind", "pie_chart"]) == 2
        assert "invalid choice: 'pie_chart'" in capsys.readouterr().err

    def test_plot_nonpositive_scale_runtime_exit(self, tmp_path, capsys):
        for scale in ("0", "inf", "nan"):
            assert main(["plot", "--kind", "ellipse_overlay", "--scale", scale,
                         "--out", str(tmp_path), "--quiet"]) == 1
            assert (f"ellipse scale must be finite and > 0, got {float(scale)}"
                    in capsys.readouterr().err)

    def test_missing_dataset_runtime_exit(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_bounds_annotation_names_image(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad"
        shutil.copytree(pipeline / "d", bad)
        text = (bad / "annotations.csv").read_text().splitlines()
        parts = text[1].split(",")
        parts[3] = "32.0"  # == width, one past the last valid coordinate
        text[1] = ",".join(parts)
        (bad / "annotations.csv").write_text("\n".join(text) + "\n")
        assert main(["eval", "--model", str(pipeline / "m"), "--data", str(bad),
                     "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "img_0000" in err and "out of bounds" in err

    def test_truncated_checkpoint_runtime_exit(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b"HMUQ\x01\x00\x04\x00")
        assert main(["predict", "--model", str(ckpt), "--data", str(tmp_path),
                     "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "truncated" in err

    @pytest.mark.parametrize("row", ["0.5,abc", "0.5,50.0,1.0"])
    def test_malformed_accuracy_curve_names_file(self, tmp_path, capsys, row):
        curve = tmp_path / "curve_bad.csv"
        curve.write_text(f"fraction,accuracy_percent\n1.0,100.0\n{row}\n")
        assert main(["plot", "--kind", "accuracy_curve", "--curves", str(curve),
                     "--out", str(tmp_path), "--quiet"]) == 1
        assert f"{curve}:3" in capsys.readouterr().err

    def test_bad_config_key_runtime_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("image_sise = 32\n")
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path), "--quiet"]) == 1
        assert "image_sise" in capsys.readouterr().err


SYNTH_LANDMARK_CFG = """\
num_landmarks = 1
landmark_0.structure = blob
landmark_0.noise_theta_deg = 0.0
landmark_0.noise_sigma_maj = 1.0
landmark_0.noise_sigma_min = 1.0
"""


def _config_case(command, text):
    def build(pipeline, tmp):
        path = tmp / "bad.cfg"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        data = [] if command == "synth" else ["--data", str(pipeline / "d")]
        model = ["--model", str(pipeline / "m")] if command == "fit" else []
        return [command, "--config", str(path)] + data + model, path
    return build


def _checkpoint_case(command, edit):
    """A copy of the pipeline checkpoint with edit(raw, params_at, snapshot_at) applied."""
    def build(pipeline, tmp):
        raw = bytearray((pipeline / "m" / "model.ckpt").read_bytes())
        (count,) = struct.unpack_from("<I", raw, 6)
        params_at = 10 + 24 * count + 4
        (n_params,) = struct.unpack_from("<I", raw, params_at - 4)
        path = tmp / "model.ckpt"
        path.write_bytes(edit(raw, params_at, params_at + 4 * n_params))
        argv = [command, "--model", str(path), "--data", str(pipeline / "d")]
        return argv + (["--kind", "ellipse_overlay"] if command == "plot" else []), path
    return build


def _nan_parameter(raw, params_at, snapshot_at):
    struct.pack_into("<f", raw, params_at, float("nan"))
    return bytes(raw)


def _sigma_maj(value):
    def edit(raw, params_at, snapshot_at):
        struct.pack_into("<d", raw, 10 + 8, value)  # landmark 0
        return bytes(raw)
    return edit


def _zero_landmarks(raw, params_at, snapshot_at):
    """Landmark count 0 at offset 6, and no covariance records after it."""
    return bytes(raw[:6]) + struct.pack("<I", 0) + bytes(raw[params_at - 4:])


def _snapshot_edit(old, new):
    """Replace `old` by `new` in the config snapshot, which ends the file."""
    def edit(raw, params_at, snapshot_at):
        snapshot = bytes(raw[snapshot_at + 4:]).replace(old, new)
        return bytes(raw[:snapshot_at]) + struct.pack("<I", len(snapshot)) + snapshot
    return edit


def _non_utf8_dataset_case(name):
    """A copy of the pipeline dataset whose file `name` has byte 5 set to 0xff."""
    def build(pipeline, tmp):
        bad = tmp / "bad"
        shutil.copytree(pipeline / "d", bad)
        path = bad / name
        data = bytearray(path.read_bytes())
        data[5] = 0xFF
        path.write_bytes(bytes(data))
        return ["predict", "--model", str(pipeline / "m"), "--data", str(bad)], path
    return build


def _manifest_case(pipeline, tmp):
    bad = tmp / "bad"
    shutil.copytree(pipeline / "d", bad)
    manifest = bad / "manifest.cfg"
    manifest.write_text("landmark_count = four\nimages = images.csv\n"
                        "annotations = annotations.csv\n")
    return ["predict", "--model", str(pipeline / "m"), "--data", str(bad)], manifest


def _spacing_case(value):
    """A copy of the pipeline dataset whose third image has pixel spacing `value`."""
    def build(pipeline, tmp):
        bad = tmp / "bad"
        shutil.copytree(pipeline / "d", bad)
        path = bad / "images.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + f",{value}"
        path.write_text("\n".join(lines) + "\n")
        return ["predict", "--model", str(pipeline / "m"), "--data", str(bad)], path
    return build


def _clinical_case(flag, text):
    """clinical on the pipeline with the file of `--<flag>` (names or
    measurements) holding `text`."""
    def build(pipeline, tmp):
        path = tmp / f"{flag}.cfg"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        files = {"names": pipeline / "names.cfg", "measurements": pipeline / "meas.cfg",
                 flag: path}
        return ["clinical", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                "--names", str(files["names"]), "--measurements", str(files["measurements"]),
                "--samples", "10"], path
    return build


def _image_case(command, shape):
    """A copy of the pipeline dataset with img_0003.pgm replaced by a blank image of `shape`."""
    def build(pipeline, tmp):
        bad = tmp / "bad"
        shutil.copytree(pipeline / "d", bad)
        path = bad / "images" / "img_0003.pgm"
        write_pgm(path, np.zeros(shape))
        model = [] if command == "train" else ["--model", str(pipeline / "m")]
        return [command, "--data", str(bad)] + model, path
    return build


def _landmark_count_case(command, count):
    """The 2-landmark pipeline checkpoint on a synthetic dataset of `count` landmarks."""
    def build(pipeline, tmp):
        cfg = tmp / "synth.cfg"
        cfg.write_text(f"image_size = 32\nnum_images = 2\nnum_landmarks = {count}\n" + "".join(
            f"landmark_{j}.{key} = {value}\n" for j in range(count)
            for key, value in (("structure", "blob"), ("orientation_deg", 0.0),
                               ("noise_theta_deg", 0.0), ("noise_sigma_maj", 1.0),
                               ("noise_sigma_min", 1.0))))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp / "d"), "--quiet"]) == 0
        argv = [command, "--model", str(pipeline / "m"), "--data", str(tmp / "d")]
        if command == "plot":
            argv += ["--kind", "ellipse_overlay"]
        elif command == "clinical":
            argv += ["--names", str(pipeline / "names.cfg"),
                     "--measurements", str(pipeline / "meas.cfg"), "--samples", "10"]
        return argv, pipeline / "m" / "model.ckpt"
    return build


def _curve_case(pipeline, tmp):
    path = tmp / "curve_bad.csv"
    path.write_text("fraction,accuracy\n1.0,100.0\n")
    return ["plot", "--kind", "accuracy_curve", "--curves", str(path)], path


BAD_INPUTS = {
    "train-unknown-key": (_config_case("train", "bogus = 1\n"), "unknown config key 'bogus'"),
    "train-bad-float": (_config_case("train", "learning_rate = fast\n"),
                        "learning_rate: expected float, got 'fast'"),
    "fit-unknown-key": (_config_case("fit", "bogus = 1\n"), "unknown config key 'bogus'"),
    "synth-bad-count": (_config_case("synth", "num_landmarks = x\n"),
                        "num_landmarks: expected int, got 'x'"),
    "synth-bad-landmark-float": (
        _config_case("synth", SYNTH_LANDMARK_CFG + "landmark_0.orientation_deg = abc\n"),
        "landmark_0.orientation_deg: expected float, got 'abc'"),
    "synth-negative-noise-sigma": (
        _config_case("synth", SYNTH_LANDMARK_CFG.replace("sigma_maj = 1.0", "sigma_maj = -1.0")),
        "landmark_0.noise_sigma_maj must be >= 0, got -1.0"),
    "checkpoint-unknown-snapshot-key": (
        _checkpoint_case("predict", _snapshot_edit(b"\nseed", b"\nbogus = 1\nseed")),
        "unknown config key 'bogus'"),
    "checkpoint-width-misfit": (
        _checkpoint_case("predict", _snapshot_edit(b"predictor_width = 8", b"predictor_width = 9")),
        "parameters, got ("),
    "checkpoint-non-utf8-snapshot": (
        _checkpoint_case("predict", _snapshot_edit(b"alpha", b"alph\xff")),
        "not UTF-8 text (byte "),
    "checkpoint-nan-parameter": (_checkpoint_case("predict", _nan_parameter),
                                 "predictor parameters must be finite"),
    "checkpoint-inf-covariance": (_checkpoint_case("plot", _sigma_maj(float("inf"))),
                                  "covariance parameters must be finite"),
    "checkpoint-negative-sigma": (_checkpoint_case("plot", _sigma_maj(-3.0)), "must be >= 0"),
    "checkpoint-zero-landmarks": (_checkpoint_case("predict", _zero_landmarks),
                                  "landmark_count and width must be >= 1"),
    "manifest-bad-count": (_manifest_case, "landmark_count: expected int, got 'four'"),
    "images-inf-spacing": (_spacing_case("inf"),
                           ":4: spacing must be finite and > 0, got 'inf'"),
    "measurements-bad-breakpoints": (
        _clinical_case("measurements", MEAS_CFG.replace("6.0, 12.0", "6.0, x")),
        "bad breakpoints"),
    "measurements-missing-labels": (
        _clinical_case("measurements", MEAS_CFG.replace("span.labels = short, mid, long\n", "")),
        "missing 'labels'"),
    "measurements-unbalanced": (
        _clinical_case("measurements",
                       MEAS_CFG.replace("distance(alpha, beta)", "distance(alpha, beta")),
        "expected ')'"),
    "curve-bad-header": (_curve_case, ":1: expected header fraction,accuracy_percent"),
    "manifest-non-utf8": (_non_utf8_dataset_case("manifest.cfg"), "not UTF-8 text (byte 5)"),
    "images-non-utf8": (_non_utf8_dataset_case("images.csv"), "not UTF-8 text (byte 5)"),
    "annotations-non-utf8": (_non_utf8_dataset_case("annotations.csv"),
                             "not UTF-8 text (byte 5)"),
    "train-non-utf8": (_config_case("train", b"iterations = 1\xff\n"),
                       "not UTF-8 text (byte 14)"),
    "names-non-utf8": (_clinical_case("names", b"0 = alpha\n1 = b\xffta\n"),
                       "not UTF-8 text (byte 15)"),
    "measurements-non-utf8": (
        _clinical_case("measurements", MEAS_CFG.encode().replace(b"6.0", b"\xff.0")),
        "not UTF-8 text (byte 59)"),
    "fit-nan-tolerance": (_config_case("fit", "tolerance = nan\n"),
                          "tolerance: expected a finite float, got 'nan'"),
    "fit-inf-window": (_config_case("fit", "window_halfwidth_sigmas = inf\n"),
                       "window_halfwidth_sigmas: expected a finite float, got 'inf'"),
    "fit-zero-iterations": (_config_case("fit", "max_iterations = 0\n"),
                            "max_iterations must be finite and > 0, got 0"),
    "synth-nan-jitter": (_config_case("synth", "position_jitter = nan\n"),
                         "position_jitter: expected a finite float, got 'nan'"),
    "train-inf-sigma-init": (_config_case("train", "sigma_init = inf\n"),
                             "sigma_init: expected a finite float, got 'inf'"),
    "synth-negative-seed": (_config_case("synth", "seed = -1\n"), "seed must be >= 0, got -1"),
    "train-negative-seed": (_config_case("train", "seed = -1\n"), "seed must be >= 0, got -1"),
    "image-sides-not-divisible": (_image_case("predict", (33, 34)),
                                  "sides divisible by 4, got (33, 34)"),
    "train-image-shapes-differ": (_image_case("train", (36, 36)),
                                  "all training images must share one shape"),
    "eval-fewer-landmarks": (_landmark_count_case("eval", 1),
                             "checkpoint has 2 landmarks, dataset has 1 ("),
    "ellipse-overlay-fewer-landmarks": (_landmark_count_case("plot", 1),
                                        "checkpoint has 2 landmarks, dataset has 1 ("),
    "clinical-more-landmarks": (_landmark_count_case("clinical", 3),
                                "checkpoint has 2 landmarks, dataset has 3 ("),
}


class TestBadInputs:
    """Every bad input file exits 1 with a message that names the file and the fault."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_1_names_file(self, pipeline, tmp_path, capsys, case):
        build, fragment = BAD_INPUTS[case]
        argv, path = build(pipeline, tmp_path)
        assert main(argv + ["--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"{path}:" in err and fragment in err
        assert "Traceback" not in err


AUGMENTED_TRAIN_CFG = """\
iterations = 3
batch_size = 2
predictor_width = 4
augmentation.intensity_shift_range = 0.1
augmentation.intensity_scale_range = 0.1
augmentation.translation_range = 2.0
augmentation.rotation_range = 0.2
augmentation.scale_range = 0.1
augmentation.elastic_magnitude = 1.0
"""

NO_SCIPY_RUN = """\
import importlib, sys
sys.modules["scipy"] = None  # any scipy import now raises ModuleNotFoundError
for name in sys.argv[2:]:
    importlib.import_module(name)
from hmuq.cli import main
out = sys.argv[1]
sys.exit(main(["synth", "--config", out + "/synth.cfg", "--out", out + "/d", "--quiet"])
         or main(["train", "--data", out + "/d", "--config", out + "/train.cfg",
                  "--out", out + "/m", "--quiet"]))
"""


class TestImportCost:
    def test_cli_import_loads_no_scipy(self, tmp_path):
        """scipy is a test oracle only: with it blocked, every hmuq module
        imports and a training run with every augmentation part on completes."""
        (tmp_path / "synth.cfg").write_text("num_images = 4\n")
        (tmp_path / "train.cfg").write_text(AUGMENTED_TRAIN_CFG)
        modules = ["hmuq"] + sorted(f"hmuq.{p.stem}" for p in (ROOT / "src" / "hmuq").glob("*.py")
                                    if p.stem not in ("__init__", "__main__"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        run = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path), *modules],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert len(read_rows(tmp_path / "m" / "loss.csv")) == 3


class TestConfigEnvVar:
    def test_env_var_ignored(self, tmp_path, monkeypatch):
        """--config is the only source of a config file: the HMUQ_CONFIG
        variable that once supplied one changes nothing."""
        args = ["synth", "--quiet"]
        assert main(args + ["--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("HMUQ_CONFIG", "/nonexistent.cfg")
        assert main(args + ["--out", str(tmp_path / "env")]) == 0
        for name in ("annotations.csv", "generator.cfg"):
            assert (tmp_path / "env" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

    def test_quiet_silences_stdout(self, pipeline, tmp_path, capsys):
        assert main(["synth", "--config", str(pipeline / "synth.cfg"),
                     "--out", str(tmp_path / "dq"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestTrainProgress:
    @pytest.mark.parametrize("iterations, lines", [(25, 12), (7, 7)])
    def test_one_stderr_line_per_stride(self, pipeline, tmp_path, capsys, iterations, lines):
        args = ["train", "--data", str(pipeline / "d"), "--config", str(pipeline / "train.cfg"),
                "--iterations", str(iterations)]
        assert main(args + ["--out", str(tmp_path / "loud")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == lines
        pattern = (rf"iteration \d+/{iterations}: loss \d+\.\d{{4}}, "
                   r"sigma( \d+\.\d\d/\d+\.\d\d){2} px, \d+\.\d it/s, ETA \d+ s")
        assert all(re.fullmatch(pattern, line) for line in err), err
        assert main(args + ["--out", str(tmp_path / "quiet"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        for name in ("loss.csv", "learned_covariances.csv", "model.ckpt"):
            assert (tmp_path / "loud" / name).read_bytes() == \
                (tmp_path / "quiet" / name).read_bytes()


class TestReadme:
    def test_quick_start_trains(self, tmp_path):
        """The quick start's train.cfg trains stably."""
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        quick = re.search(r"^## Quick start\n(.*?)^## ", text, re.S | re.M).group(1)
        assert "hmuq train --data data --config train.cfg" in quick
        (tmp_path / "train.cfg").write_text(re.search(r"```ini\n(.*?)```", quick, re.S).group(1))
        assert main(["synth", "--out", str(tmp_path / "data"), "--quiet"]) == 0
        assert main(["train", "--data", str(tmp_path / "data"),
                     "--config", str(tmp_path / "train.cfg"), "--iterations", "20",
                     "--out", str(tmp_path / "model"), "--quiet"]) == 0


class TestTrainDefaults:
    def test_default_config_trains(self, tmp_path):
        """Without --config, the TrainConfig defaults train stably on the default dataset."""
        assert main(["synth", "--out", str(tmp_path / "data"), "--quiet"]) == 0
        assert main(["train", "--data", str(tmp_path / "data"), "--iterations", "20",
                     "--out", str(tmp_path / "model"), "--quiet"]) == 0


def load_bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTracing:
    """The benchmark traces hmuq through module attributes; renaming one breaks it."""

    def test_every_target_resolves(self):
        tracing = load_bench_tracing()
        for name, owner, attr, _ in tracing.hmuq_targets():
            fn = owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)
            assert callable(fn), f"{name}: {owner!r} has no callable {attr!r}"

    def test_fits_are_counted(self, pipeline, tmp_path):
        # fit fits every landmark of every image; plot fits only the plotted one
        tracing = load_bench_tracing()
        with tracing.Tracer(tracing.fit_targets()) as tracer:
            assert main(["fit", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                         "--out", str(tmp_path), "--quiet"]) == 0
        assert tracing.fit_tally(tracer.spans)[0] == 12 * 2
        with tracing.Tracer(tracing.fit_targets()) as tracer:
            assert main(["plot", "--kind", "sigma_vs_error", "--landmark", "1",
                         "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                         "--out", str(tmp_path), "--quiet"]) == 0
        assert tracing.fit_tally(tracer.spans)[0] == 12
