import csv
import dataclasses
import importlib.util
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import hmuq.cli
import hmuq.nets
import hmuq.uncertainty
from hmuq import fitting
from hmuq.cli import main
from hmuq.dataio import load_dataset, read_annotations, write_csv, write_dataset, write_pgm
from hmuq.fitting import argmax_coord
from hmuq.synthdata import LandmarkSpec, SynthConfig
from hmuq.trainer import TrainConfig, read_checkpoint
from hmuq.uncertainty import mcd_heatmap_fit, mcd_max

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


def _clinical_rows(pipeline, out, measurements):
    """clinical on the pipeline with `measurements` as its config: the lines of
    classifications.csv and probabilities.csv, by measurement."""
    out.mkdir()
    (out / "meas.cfg").write_text(measurements)
    assert main(["clinical", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                 "--names", str(pipeline / "names.cfg"), "--measurements", str(out / "meas.cfg"),
                 "--samples", "200", "--seed", "4", "--out", str(out), "--quiet"]) == 0
    rows = {}
    for name in ("classifications.csv", "probabilities.csv"):
        for line in (out / name).read_text().splitlines()[1:]:
            rows.setdefault(line.split(",")[1], []).append(line)
    return rows


class TestClinicalDraws:
    """Each image's landmarks are drawn once and shared by every measurement."""

    LEAD = ("lead.expression = distance(beta, alpha) / 2\n"
            "lead.breakpoints = 4.0\nlead.labels = near, far\n")

    def test_prepended_measurement_leaves_rows_unchanged(self, pipeline, tmp_path):
        alone = _clinical_rows(pipeline, tmp_path / "alone", MEAS_CFG)
        led = _clinical_rows(pipeline, tmp_path / "led", self.LEAD + MEAS_CFG)
        assert led["span"] == alone["span"]

    def test_same_expression_same_probabilities(self, pipeline, tmp_path):
        twin = MEAS_CFG.replace("span.", "twin.")
        rows = _clinical_rows(pipeline, tmp_path / "both", MEAS_CFG + twin)
        assert [r.replace(",twin,", ",span,") for r in rows["twin"]] == rows["span"]
        assert any(0.0 < float(r.rsplit(",", 1)[1]) < 1.0 for r in rows["span"]
                   if r.count(",") == 3)

    def test_overflow_leaves_no_warning_on_stderr(self, pipeline, tmp_path):
        (tmp_path / "meas.cfg").write_text(
            MEAS_CFG.replace("distance(alpha, beta)", "1e308 / distance(alpha, beta) / 1e-308"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-m", "hmuq", "clinical", "--model", str(pipeline / "m"),
             "--data", str(pipeline / "d"), "--names", str(pipeline / "names.cfg"),
             "--measurements", str(tmp_path / "meas.cfg"), "--samples", "10",
             "--out", str(tmp_path / "out"), "--quiet"],
            env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert "RuntimeWarning" not in run.stderr


class TestPlots:
    def svg_tags(self, path):
        return [e.tag.split("}")[-1] for e in ET.parse(path).getroot().iter()]

    def test_ellipse_overlay_one_per_landmark(self, pipeline):
        assert main(["plot", "--kind", "ellipse_overlay",
                     "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "pl")]) == 0
        tags = self.svg_tags(pipeline / "pl" / "ellipse_overlay.svg")
        assert tags.count("ellipse") == 2

    def test_offset_scatter(self, pipeline):
        assert main(["plot", "--kind", "offset_scatter", "--landmark", "1",
                     "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "pl")]) == 0
        tags = self.svg_tags(pipeline / "pl" / "offset_scatter.svg")
        assert tags.count("circle") == 12
        assert tags.count("ellipse") == 2  # learned + empirical

    def curve_file(self, pipeline, tmp_path):
        """This test's own curve_span.csv from a clinical run on the pipeline."""
        _clinical_rows(pipeline, tmp_path / "rc", MEAS_CFG)
        return tmp_path / "rc" / "curve_span.csv"

    def test_accuracy_curve_from_csv(self, pipeline, tmp_path):
        curve = self.curve_file(pipeline, tmp_path)
        assert main(["plot", "--kind", "accuracy_curve", "--curves", str(curve),
                     "--out", str(pipeline / "pl")]) == 0
        tags = self.svg_tags(pipeline / "pl" / "accuracy_curve.svg")
        assert tags.count("polyline") >= 1

    def test_sigma_vs_error(self, pipeline):
        assert main(["plot", "--kind", "sigma_vs_error", "--landmark", "0",
                     "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--out", str(pipeline / "pl")]) == 0
        tags = self.svg_tags(pipeline / "pl" / "sigma_vs_error.svg")
        assert tags.count("circle") == 12

    def test_every_kind_rerun_byte_identical(self, pipeline, tmp_path):
        inputs = ["--model", str(pipeline / "m"), "--data", str(pipeline / "d")]
        curves = ["--curves", str(self.curve_file(pipeline, tmp_path))]
        for kind in ("ellipse_overlay", "offset_scatter", "sigma_vs_error", "accuracy_curve"):
            argv = ["plot", "--kind", kind] + (curves if kind == "accuracy_curve" else inputs)
            runs = []
            for out in ("a", "b"):
                assert main(argv + ["--out", str(tmp_path / out), "--quiet"]) == 0
                runs.append((tmp_path / out / f"{kind}.svg").read_bytes())
            assert runs[0] == runs[1], kind
            assert b"<!--" not in runs[0], kind

    def svg_texts(self, path):
        return [e.text for e in ET.parse(path).getroot().iter() if e.tag.endswith("}text")]

    def test_markup_in_image_id_escaped(self, pipeline, tmp_path):
        """An image id holding & and < still gives an SVG that parses."""
        ds = load_dataset(pipeline / "d" / "manifest.cfg")
        write_dataset(tmp_path / "d", ["A&B<1>", *ds.ids[1:]], ds.images, ds.coords, ds.spacing,
                      ds.landmark_count)
        assert main(["plot", "--kind", "ellipse_overlay", "--model", str(pipeline / "m"),
                     "--data", str(tmp_path / "d"), "--out", str(tmp_path), "--quiet"]) == 0
        assert "learned covariance, A&B<1>" in self.svg_texts(tmp_path / "ellipse_overlay.svg")

    def test_markup_in_curve_name_escaped(self, tmp_path):
        curve = tmp_path / "curve_A&B.csv"
        curve.write_text("fraction,accuracy_percent\n0.5,100.0\n1.0,50.0\n")
        assert main(["plot", "--kind", "accuracy_curve", "--curves", str(curve),
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert "A&B" in self.svg_texts(tmp_path / "accuracy_curve.svg")

    def test_no_timestamp_flag_usage_exit(self, capsys):
        assert main(["plot", "--kind", "accuracy_curve", "--curves", "c.csv",
                     "--no-timestamp"]) == 2
        assert "unrecognized arguments: --no-timestamp" in capsys.readouterr().err


class TestDeterminism:
    def test_synth_rerun_byte_identical(self, pipeline, tmp_path):
        assert main(["synth", "--config", str(pipeline / "synth.cfg"),
                     "--out", str(tmp_path / "d2"), "--quiet"]) == 0
        for name in ("annotations.csv", "truth.csv", "images.csv"):
            assert (tmp_path / "d2" / name).read_bytes() == \
                (pipeline / "d" / name).read_bytes()

    def test_eval_rerun_byte_identical(self, pipeline, tmp_path):
        for run in ("first", "again"):
            assert main(["eval", "--model", str(pipeline / "m"),
                         "--data", str(pipeline / "d"),
                         "--out", str(tmp_path / run), "--quiet"]) == 0
        assert (tmp_path / "again" / "metrics.csv").read_bytes() == \
            (tmp_path / "first" / "metrics.csv").read_bytes()

    def test_mcd_rerun_byte_identical(self, pipeline, tmp_path):
        for run in ("first", "again"):
            assert main(["mcd", "--model", str(pipeline / "m"),
                         "--data", str(pipeline / "d"), "--k", "5",
                         "--out", str(tmp_path / run), "--quiet"]) == 0
        assert (tmp_path / "again" / "mcd.csv").read_bytes() == \
            (tmp_path / "first" / "mcd.csv").read_bytes()

    def test_clinical_rerun_byte_identical(self, pipeline, tmp_path):
        (tmp_path / "names.cfg").write_text(NAMES_CFG)
        (tmp_path / "meas.cfg").write_text(MEAS_CFG + TestClinicalDraws.LEAD)
        for run in ("first", "again"):
            assert main(["clinical", "--model", str(pipeline / "m"),
                         "--data", str(pipeline / "d"), "--names", str(tmp_path / "names.cfg"),
                         "--measurements", str(tmp_path / "meas.cfg"),
                         "--samples", "500", "--seed", "4",
                         "--out", str(tmp_path / run), "--quiet"]) == 0
        for name in ("classifications.csv", "probabilities.csv", "curve_span.csv",
                     "curve_lead.csv"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (tmp_path / "first" / name).read_bytes()

    def test_mcd_mask_block_matches_per_image_passes(self, pipeline, tmp_path, monkeypatch):
        """mcd draws the k keep masks once per image shape and shares them
        between the images of that shape; its mcd.csv must equal K full
        forward passes per image, with at most one mask block alive."""
        ds = load_dataset(pipeline / "d" / "manifest.cfg")
        wide = np.random.default_rng(4).random((24, 40))
        images = [ds.images[0], ds.images[1], wide, ds.images[2]]  # shapes A, A, B, A
        ids = ["a0", "a1", "b0", "a2"]
        write_dataset(tmp_path / "d", ids, images, np.full((4, ds.landmark_count, 2), 8.0),
                      [1.0] * 4, ds.landmark_count)
        drawn = []  # weak references to the blocks mcd_predict left in the predictor
        mcd_predict, keep_mask = hmuq.cli.mcd_predict, hmuq.nets.keep_mask

        def recording_predict(model, image, k, seed):
            out = mcd_predict(model, image, k, seed)
            block = model.predictor._mc_block
            if not drawn or drawn[-1]() is not block:
                drawn.append(weakref.ref(block))
            return out

        def one_block_alive(*args):
            # a mask is drawn only into a new block, after the old one is freed
            assert all(ref() is None for ref in drawn)
            return keep_mask(*args)

        monkeypatch.setattr(hmuq.cli, "mcd_predict", recording_predict)
        monkeypatch.setattr(hmuq.nets, "keep_mask", one_block_alive)
        k, seed = 5, 3
        assert main(["mcd", "--model", str(pipeline / "m"), "--data", str(tmp_path / "d"),
                     "--k", str(k), "--seed", str(seed), "--out", str(tmp_path / "got"),
                     "--quiet"]) == 0
        assert len(drawn) == 3  # A, then B, then A again

        model = read_checkpoint(pipeline / "m" / "model.ckpt")
        rate = model.config.dropout_rate
        rows = []
        for image_id, image in zip(ids, load_dataset(tmp_path / "d" / "manifest.cfg").images):
            passes = np.stack([model.predictor.forward(image, rate,
                                                       np.random.default_rng([seed, i]))
                               for i in range(k)])
            for j, mean in enumerate(passes.mean(axis=0)):
                estimates = [("mcd_max", *mcd_max([argmax_coord(h) for h in passes[:, j]]))]
                fit = mcd_heatmap_fit(mean)
                if fit is not None:
                    estimates.append(("mcd_heatmap_fit", fit.gaussian.mean, fit.gaussian.decomp))
                rows += [(image_id, j, source, repr(float(x)), repr(float(y)),
                          repr(d.theta_deg), repr(d.sigma_maj), repr(d.sigma_min))
                         for source, (x, y), d in estimates]
        write_csv(tmp_path / "want.csv", ["image_id", "landmark_id", "source", "x_px", "y_px",
                                          "theta_deg", "sigma_maj", "sigma_min"], rows)
        assert (tmp_path / "got" / "mcd.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    def test_seed_changes_synth(self, pipeline, tmp_path):
        assert main(["synth", "--config", str(pipeline / "synth.cfg"), "--seed", "6",
                     "--out", str(tmp_path / "d3"), "--quiet"]) == 0
        assert (tmp_path / "d3" / "annotations.csv").read_bytes() != \
            (pipeline / "d" / "annotations.csv").read_bytes()


class TestFitWarnings:
    def test_unconverged_fits_counted_on_stderr(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_NFEV", 2)
        common = ["--model", str(pipeline / "m"), "--data", str(pipeline / "d"), "--quiet"]
        assert main(["fit", *common, "--out", str(tmp_path / "f")]) == 0
        rows = read_rows(tmp_path / "f" / "fits.csv")
        unconverged = sum(row["converged"] == "0" for row in rows)
        assert 0 < unconverged
        capsys.readouterr()
        assert main(["eval", *common, "--out", str(tmp_path / "r")]) == 0
        out, err = capsys.readouterr()
        assert err == f"warning: {unconverged} of {len(rows)} fits did not converge\n"
        assert out == ""

    def test_mcd_unconverged_fits_counted_on_stderr(self, pipeline, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(fitting, "MAX_NFEV", 2)
        assert main(["mcd", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--k", "5", "--out", str(tmp_path), "--quiet"]) == 0
        out, err = capsys.readouterr()
        fits = sum(row["source"] == "mcd_heatmap_fit"
                   for row in read_rows(tmp_path / "mcd.csv"))
        assert fits == 24
        match = re.fullmatch(rf"warning: (\d+) of {fits} fits did not converge\n", err)
        assert match and 0 < int(match.group(1)) <= fits, err
        assert out == ""

    @pytest.fixture(scope="class")
    def under_trained(self, tmp_path_factory):
        """A 40-iteration checkpoint of the benchmark recipe and 8 held-out
        images, whose heatmaps leave some fits running away."""
        root = tmp_path_factory.mktemp("under_trained")
        (root / "train.cfg").write_text(
            "batch_size = 4\ndropout_rate = 0.1\ntarget_mode = learned_aniso\n"
            "learning_rate = 1e-05\ncovariance_lr_multiplier = 3.0\n")
        (root / "held.cfg").write_text("num_images = 8\n")
        assert main(["synth", "--seed", "0", "--out", str(root / "d"), "--quiet"]) == 0
        assert main(["train", "--data", str(root / "d"),
                     "--config", str(root / "train.cfg"), "--iterations", "40",
                     "--seed", "3", "--out", str(root / "m"), "--quiet"]) == 0
        assert main(["synth", "--config", str(root / "held.cfg"), "--seed", "1",
                     "--out", str(root / "h"), "--quiet"]) == 0
        return root

    def test_under_trained_checkpoint_fits_without_traceback(self, under_trained, tmp_path,
                                                             capsys):
        """Fits of the under-trained heatmaps step to log extents far past any
        image; those trial points count as non-finite, so `fit` completes."""
        assert main(["fit", "--model", str(under_trained / "m"),
                     "--data", str(under_trained / "h"),
                     "--out", str(tmp_path / "f"), "--quiet"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len(read_rows(tmp_path / "f" / "fits.csv")) == 32

    def test_runaway_fits_report_unconverged(self, under_trained, tmp_path, capsys):
        """A fit wider than the image diagonal or centered off the grid keeps its
        row, reports converged 0 and counts in the warning."""
        assert main(["fit", "--model", str(under_trained / "m"),
                     "--data", str(under_trained / "h"),
                     "--out", str(tmp_path / "f"), "--quiet"]) == 0
        rows = read_rows(tmp_path / "f" / "fits.csv")
        assert len(rows) == 32
        runaway = [float(r["sigma_maj"]) > math.hypot(64, 64)
                   or not all(-0.5 <= float(r[c]) <= 63.5 for c in ("x_px", "y_px"))
                   for r in rows]
        assert any(runaway)
        assert not any(away and r["converged"] == "1" for away, r in zip(runaway, rows))
        unconverged = sum(r["converged"] == "0" for r in rows)
        assert capsys.readouterr().err == f"warning: {unconverged} of 32 fits did not converge\n"

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

    def test_collinear_observers_are_skipped(self, tmp_path, capsys):
        """An image whose observers all clicked one pixel has sigma_min = 0
        and no extent ratio; it is skipped, not a traceback."""
        manifest = write_interobserver_fixture(tmp_path / "iobs", num_images=3)
        path = tmp_path / "iobs" / "observers.csv"
        lines = path.read_text().splitlines()
        same = lines[1].split(",")
        lines[1:12] = [",".join(same[:2] + [f"obs_{k:02d}"] + same[3:]) for k in range(11)]
        path.write_text("\n".join(lines) + "\n")
        assert main(["interobs", "--data", str(manifest),
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert len(read_rows(tmp_path / "interobserver.csv")) == 5

    def test_no_usable_image_names_manifest(self, tmp_path, capsys):
        manifest = write_interobserver_fixture(tmp_path / "iobs", num_images=1)
        path = tmp_path / "iobs" / "observers.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + lines[12:]) + "\n")  # landmark 0: 2 observers
        assert main(["interobs", "--data", str(manifest),
                     "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"{manifest}: no image has >= 3 non-collinear" in err and "landmark 0" in err

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

    @pytest.mark.parametrize("argv, message", [
        (["mcd", "--model", "m", "--data", "d", "--k", "1"], "argument --k: must be >= 2, got 1"),
        (["train", "--data", "d", "--iterations", "0"],
         "argument --iterations: must be >= 1, got 0"),
    ], ids=["mcd-k", "train-iterations"])
    def test_count_below_minimum_usage_exit(self, capsys, argv, message):
        """A usage error naming the flag, before the (missing) model or data is read."""
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_mcd_huge_k_exits_1(self, pipeline, tmp_path, capsys):
        # the k masks (8 EB here) and argmax points are allocated before the
        # first pass, so a k past the address space fails at once, not by growing
        assert main(["mcd", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--k", "1000000000000000", "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "k = 1000000000000000 is too large" in err
        assert "Traceback" not in err

    def test_train_huge_batch_size_exits_1(self, pipeline, tmp_path, capsys):
        # the batch draw of 10^15 indices (7.1 PiB) cannot be allocated
        cfg = tmp_path / "train.cfg"
        cfg.write_text("iterations = 1\nbatch_size = 1000000000000000\npredictor_width = 4\n")
        assert main(["train", "--data", str(pipeline / "d"), "--config", str(cfg),
                     "--out", str(tmp_path / "m"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "batch_size = 1000000000000000 is too large to draw a batch" in err
        assert "Traceback" not in err

    def test_synth_huge_num_images_exits_1(self, tmp_path, capsys):
        # the true positions of 10^15 images (58 PiB) cannot be allocated
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("num_images = 1000000000000000\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "num_images = 1000000000000000 is too large" in err
        assert "Traceback" not in err

    def test_train_huge_predictor_width_exits_1(self, pipeline, tmp_path, capsys):
        # width 10^9 needs about 3.6e19 parameters, past numpy's size limit
        cfg = tmp_path / "train.cfg"
        cfg.write_text("iterations = 1\npredictor_width = 1000000000\n")
        assert main(["train", "--data", str(pipeline / "d"), "--config", str(cfg),
                     "--out", str(tmp_path / "m"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "predictor_width = 1000000000 is too large" in err
        assert "Traceback" not in err

    def test_clinical_huge_samples_exits_1(self, pipeline, tmp_path, capsys, monkeypatch):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(hmuq.uncertainty, "fit_gaussian", no_fit)
        # 10^15 draws of one landmark (15 PiB) cannot be allocated, and that
        # is known before any fit runs
        assert main(["clinical", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--names", str(pipeline / "names.cfg"),
                     "--measurements", str(pipeline / "meas.cfg"),
                     "--samples", "1000000000000000", "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "samples = 1000000000000000 is too large" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "mcd", "eval", "clinical"])
    def test_fit_commands_take_no_config(self, capsys, command):
        """The heatmap fit has no settings, so the fitting commands have no --config."""
        argv = [command, "--model", "m", "--data", "d", "--config", "fit.cfg"]
        assert main(argv + (["--names", "n.cfg"] if command == "clinical" else [])) == 2
        assert "unrecognized arguments: --config fit.cfg" in capsys.readouterr().err

    def test_unknown_flag_prints_subcommand_usage(self, capsys):
        assert main(["eval", "--model", "m", "--data", "d", "--bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hmuq eval")
        assert "unrecognized arguments: --bogus" in err

    def test_zero_samples_usage_exit_before_any_fit(self, pipeline, tmp_path, capsys,
                                                    monkeypatch):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(hmuq.cli, "_fit_dataset", no_fit)
        assert main(["clinical", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
                     "--names", str(pipeline / "names.cfg"), "--samples", "0",
                     "--out", str(tmp_path), "--quiet"]) == 2
        assert "argument --samples: must be >= 1, got 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("row", ["0.5,abc", "0.5,50.0,1.0", "0.5,inf", "0.5,nan"])
    def test_malformed_accuracy_curve_names_file(self, tmp_path, capsys, row):
        curve = tmp_path / "curve_bad.csv"
        curve.write_text(f"fraction,accuracy_percent\n1.0,100.0\n{row}\n")
        assert main(["plot", "--kind", "accuracy_curve", "--curves", str(curve),
                     "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"{curve}:3: expected two finite numbers" in err
        assert not (tmp_path / "accuracy_curve.svg").exists()

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
        return [command, "--config", str(path)] + data, path
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


def _manifest_case(command, count):
    """`command` on a copy of the pipeline dataset whose manifest has landmark_count `count`."""
    def build(pipeline, tmp):
        bad = tmp / "bad"
        shutil.copytree(pipeline / "d", bad)
        manifest = bad / "manifest.cfg"
        manifest.write_text(f"landmark_count = {count}\nimages = images.csv\n"
                            "annotations = annotations.csv\n")
        return [command, "--model", str(pipeline / "m"), "--data", str(bad)], manifest
    return build


def _images_row_case(edit):
    """A copy of the pipeline dataset whose images.csv line 4 (the third
    image) is replaced by `edit(lines)` of the file's lines."""
    def build(pipeline, tmp):
        bad = tmp / "bad"
        shutil.copytree(pipeline / "d", bad)
        path = bad / "images.csv"
        lines = path.read_text().splitlines()
        lines[3] = edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return ["predict", "--model", str(pipeline / "m"), "--data", str(bad)], path
    return build


def _annotation_repeated(pipeline, tmp):
    """A copy of the pipeline dataset whose annotations.csv ends with a second
    row for the first image's landmark 0."""
    bad = tmp / "bad"
    shutil.copytree(pipeline / "d", bad)
    path = bad / "annotations.csv"
    with open(path, "a") as fh:
        fh.write("img_0000,0,,5.0,5.0\n")
    return ["predict", "--model", str(pipeline / "m"), "--data", str(bad)], path


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


def _coincident_annotations_case(pipeline, tmp):
    """clinical on a copy of the pipeline dataset whose third image has
    landmark 1 annotated on landmark 0, under an angle at landmark 0."""
    bad = tmp / "bad"
    shutil.copytree(pipeline / "d", bad)
    path = bad / "annotations.csv"
    lines = path.read_text().splitlines()
    first = lines.index(next(line for line in lines if line.startswith("img_0002,0,")))
    lines[first + 1] = lines[first].replace(",0,", ",1,", 1)
    path.write_text("\n".join(lines) + "\n")
    meas = tmp / "meas.cfg"
    meas.write_text("bend.expression = angle(beta, alpha, beta)\n"
                    "bend.breakpoints = 90.0\nbend.labels = acute, obtuse\n")
    return ["clinical", "--model", str(pipeline / "m"), "--data", str(bad),
            "--names", str(pipeline / "names.cfg"), "--measurements", str(meas),
            "--samples", "10"], bad / "manifest.cfg"


def _overflow_measurement_case(pipeline, tmp):
    """clinical with a measurement whose arithmetic overflows to inf - inf on
    every image."""
    half = "1e308 / distance(alpha, beta) / 1e-308"
    meas = tmp / "meas.cfg"
    meas.write_text(MEAS_CFG.replace("distance(alpha, beta)", f"{half} - {half}"))
    return ["clinical", "--model", str(pipeline / "m"), "--data", str(pipeline / "d"),
            "--names", str(pipeline / "names.cfg"), "--measurements", str(meas),
            "--samples", "10"], pipeline / "d" / "manifest.cfg"


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


def _pgm_header_case(header):
    """predict on a copy of the pipeline dataset whose img_0003.pgm has
    `header`, formatted with the image's width w and height h, before its pixels."""
    def build(pipeline, tmp):
        bad = tmp / "bad"
        shutil.copytree(pipeline / "d", bad)
        path = bad / "images" / "img_0003.pgm"
        _, size, _, pixels = path.read_bytes().split(b"\n", 3)  # as write_pgm writes it
        w, h = size.decode().split()
        path.write_bytes(header.format(w=w, h=h).encode() + pixels)
        return ["predict", "--model", str(pipeline / "m"), "--data", str(bad)], path
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


def _no_images(build_case):
    """build_case's command on a dataset of no images with the pipeline's two landmarks."""
    def build(pipeline, tmp):
        argv, path = build_case(pipeline, tmp)
        write_dataset(tmp / "empty", [], [], np.empty((0, 2, 2)), [], 2)
        return argv[:-1] + [str(tmp / "empty")], path  # argv ends with --data <dir>
    return build


def _curve_case(text):
    def build(pipeline, tmp):
        path = tmp / "curve_bad.csv"
        path.write_text(text)
        return ["plot", "--kind", "accuracy_curve", "--curves", str(path)], path
    return build


NO_DROPOUT = _checkpoint_case("mcd", _snapshot_edit(b"dropout_rate = 0.1", b"dropout_rate = 0.0"))

BAD_INPUTS = {
    "train-unknown-key": (_config_case("train", "bogus = 1\n"), "unknown config key 'bogus'"),
    "train-bad-float": (_config_case("train", "learning_rate = fast\n"),
                        "learning_rate: expected float, got 'fast'"),
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
    "checkpoint-augmentation-key": (
        _checkpoint_case("predict", _snapshot_edit(
            b"\nseed", b"\naugmentation.rotation_range = 0.0\nseed")),
        "unknown config key 'augmentation.rotation_range'"),
    "checkpoint-width-misfit": (
        _checkpoint_case("predict", _snapshot_edit(b"predictor_width = 8", b"predictor_width = 9")),
        "parameters, got ("),
    "checkpoint-huge-width": (
        _checkpoint_case("predict", _snapshot_edit(b"predictor_width = 8",
                                                   b"predictor_width = 1000000000")),
        "predictor_width = 1000000000 is too large"),
    "checkpoint-non-utf8-snapshot": (
        _checkpoint_case("predict", _snapshot_edit(b"alpha", b"alph\xff")),
        "not UTF-8 text (byte "),
    "mcd-no-dropout": (NO_DROPOUT, "Monte-Carlo dropout needs a model trained with dropout"),
    "mcd-no-dropout-no-images": (_no_images(NO_DROPOUT),
                                 "Monte-Carlo dropout needs a model trained with dropout"),
    "train-no-images": (_no_images(lambda pipeline, tmp: (
        ["train", "--data", str(pipeline / "d")], tmp / "empty" / "manifest.cfg")),
        "dataset has no images to train on"),
    "checkpoint-nan-parameter": (_checkpoint_case("predict", _nan_parameter),
                                 "predictor parameters must be finite"),
    "checkpoint-inf-covariance": (_checkpoint_case("plot", _sigma_maj(float("inf"))),
                                  "covariance parameters must be finite"),
    "checkpoint-negative-sigma": (_checkpoint_case("plot", _sigma_maj(-3.0)), "must be >= 0"),
    "checkpoint-zero-landmarks": (_checkpoint_case("predict", _zero_landmarks),
                                  "landmark_count and width must be >= 1"),
    "manifest-bad-count": (_manifest_case("predict", "four"),
                           "landmark_count: expected int, got 'four'"),
    # (images, 10^12, 2) float64 annotations (175 TiB) cannot be allocated
    "manifest-huge-landmark-count": (_manifest_case("eval", 10**12),
                                     "landmark_count = 1000000000000 is too large"),
    "images-inf-spacing": (_images_row_case(lambda lines: lines[3].rsplit(",", 1)[0] + ",inf"),
                           ":4: spacing must be finite and > 0, got 'inf'"),
    "images-duplicate-id": (  # line 4 takes the id of line 3
        _images_row_case(lambda lines: lines[2].split(",")[0] + "," + lines[3].split(",", 1)[1]),
        ":4: duplicate image id 'img_0001'"),
    "annotations-repeated-landmark": (_annotation_repeated,
                                      "two rows for image 'img_0000' landmark 0"),
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
    "measurements-zero-divisor": (
        _clinical_case("measurements",
                       MEAS_CFG.replace("distance(alpha, beta)", "distance(alpha, beta) / 0")),
        "division by zero in expression 'distance(alpha, beta) / 0'"),
    "measurements-name-with-slash": (
        _clinical_case("measurements", MEAS_CFG.replace("span.", "x/y.")),
        "measurement name 'x/y' cannot hold a path separator or NUL"),
    "curve-bad-header": (_curve_case("fraction,accuracy\n1.0,100.0\n"),
                         ":1: expected header fraction,accuracy_percent"),
    "curve-no-rows": (_curve_case("fraction,accuracy_percent\n"), ": no curve points"),
    "manifest-non-utf8": (_non_utf8_dataset_case("manifest.cfg"), "not UTF-8 text (byte 5)"),
    "images-non-utf8": (_non_utf8_dataset_case("images.csv"), "not UTF-8 text (byte 5)"),
    "annotations-non-utf8": (_non_utf8_dataset_case("annotations.csv"),
                             "not UTF-8 text (byte 5)"),
    "train-non-utf8": (_config_case("train", b"iterations = 1\xff\n"),
                       "not UTF-8 text (byte 14)"),
    "names-non-utf8": (_clinical_case("names", b"0 = alpha\n1 = b\xffta\n"),
                       "not UTF-8 text (byte 15)"),
    "names-index-twice": (_clinical_case("names", "0 = alpha\n1 = beta\n01 = gamma\n"),
                          "landmark index 1 named twice, 'beta' and 'gamma'"),
    "measurements-non-utf8": (
        _clinical_case("measurements", MEAS_CFG.encode().replace(b"6.0", b"\xff.0")),
        "not UTF-8 text (byte 59)"),
    "synth-nan-jitter": (_config_case("synth", "position_jitter = nan\n"),
                         "position_jitter: expected a finite float, got 'nan'"),
    "train-inf-sigma-init": (_config_case("train", "sigma_init = inf\n"),
                             "sigma_init: expected a finite float, got 'inf'"),
    "synth-negative-seed": (_config_case("synth", "seed = -1\n"), "seed must be >= 0, got -1"),
    "train-negative-seed": (_config_case("train", "seed = -1\n"), "seed must be >= 0, got -1"),
    "train-zero-batch-size": (_config_case("train", "batch_size = 0\n"),
                              "batch_size must be >= 1, got 0"),
    "image-sides-not-divisible": (_image_case("predict", (33, 34)),
                                  "sides divisible by 4, got (33, 34)"),
    "train-image-shapes-differ": (_image_case("train", (36, 36)),
                                  "all training images must share one shape"),
    "pgm-signed-underscored-header": (
        _pgm_header_case("P5\n+{w} {h}\n65_535\n"),
        "malformed PGM header"),
    "eval-fewer-landmarks": (_landmark_count_case("eval", 1),
                             "checkpoint has 2 landmarks, dataset has 1 ("),
    "ellipse-overlay-fewer-landmarks": (_landmark_count_case("plot", 1),
                                        "checkpoint has 2 landmarks, dataset has 1 ("),
    "clinical-more-landmarks": (_landmark_count_case("clinical", 3),
                                "checkpoint has 2 landmarks, dataset has 3 ("),
    "clinical-coincident-annotations": (
        _coincident_annotations_case,
        "image 'img_0002': measurement 'bend' hit coincident points in its annotations"),
    "clinical-overflow-annotations": (
        _overflow_measurement_case,
        "image 'img_0000': measurement 'span' is undefined (a zero divisor or an overflow) "
        "in its annotations"),
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


SMALL_TRAIN_CFG = """\
iterations = 3
batch_size = 2
predictor_width = 4
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
        imports and a training run completes."""
        (tmp_path / "synth.cfg").write_text("num_images = 4\n")
        (tmp_path / "train.cfg").write_text(SMALL_TRAIN_CFG)
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

    def test_config_keys_documented(self):
        """Every field of the config dataclasses that --config files set is named in README.md."""
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        for cls in (TrainConfig, SynthConfig, LandmarkSpec):
            for field in dataclasses.fields(cls):
                assert re.search(rf"\b{field.name}\b", text), f"{cls.__name__}.{field.name}"


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
        targets = tracing.hmuq_targets()
        for name, owner, attr, _ in targets:
            fn = owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)
            assert callable(fn), f"{name}: {owner!r} has no callable {attr!r}"
        # installing and removing every wrapper, with nothing run in between,
        # leaves no span and every original in place
        originals = [tracing._get(owner, attr) for _, owner, attr, _ in targets]
        with tracing.Tracer(targets) as tracer:
            pass
        assert tracer.spans == []
        assert [tracing._get(owner, attr) for _, owner, attr, _ in targets] == originals

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
