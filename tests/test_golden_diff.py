import importlib.util
import struct
from pathlib import Path

import numpy as np

from hmuq.gauss import CovarianceDecomposition
from hmuq.nets import ReferencePredictor
from hmuq.trainer import TrainConfig, TrainedModel, write_checkpoint

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_diff", ROOT / "tools" / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def checkpoint(covariances, params, snapshot, version=1):
    """Checkpoint bytes in write_checkpoint's layout, built by hand."""
    text = snapshot.encode()
    return (b"HMUQ" + struct.pack("<HI", version, len(covariances))
            + b"".join(struct.pack("<3d", *c) for c in covariances)
            + struct.pack("<I", len(params)) + struct.pack(f"<{len(params)}f", *params)
            + struct.pack("<I", len(text)) + text)


def write_checkpoints(tmp_path, a, b):
    for name, raw in (("a", a), ("b", b)):
        (tmp_path / name / "model").mkdir(parents=True)
        (tmp_path / name / "model" / "model.ckpt").write_bytes(raw)
    return tmp_path / "a", tmp_path / "b"


class TestGoldenDiff:
    def test_identical_trees_report_nothing(self, tmp_path):
        files = {"fit/fits.csv": "id,x\na,1.0\n", "model/model.ckpt": "bytes"}
        a = write_tree(tmp_path / "a", files)
        b = write_tree(tmp_path / "b", files)
        assert golden_diff.compare(a, b) == []

    def test_lists_files_and_column_differences(self, tmp_path):
        a = write_tree(tmp_path / "a", {
            "fit/fits.csv": "id,x,label\na,1.0,u\nb,-2.0,v\nc,0.0,w\n",
            "plot/p.svg": "<svg/>", "old.txt": "x"})
        b = write_tree(tmp_path / "b", {
            "fit/fits.csv": "id,x,label\na,1.5,u\nb,-2.0,v\nc,-0.0,z\n",
            "plot/p.svg": "<svg />", "new.txt": "x"})
        assert golden_diff.compare(a, b) == [
            f"only in {a}: old.txt",
            f"only in {b}: new.txt",
            "differ: fit/fits.csv",
            "  2 of 3 rows differ",
            "  x: 2 values, max abs 0.5, max rel 0.333",
            "  label: 1 cells differ",
            "differ: plot/p.svg",
        ]

    def test_csv_shape_changes_are_named(self, tmp_path):
        a = write_tree(tmp_path / "a", {"h.csv": "id,x\na,1\n", "n.csv": "id\na\n"})
        b = write_tree(tmp_path / "b", {"h.csv": "id,y\na,1\n", "n.csv": "id\na\nb\n"})
        assert golden_diff.compare(a, b) == ["differ: h.csv", "  headers differ",
                                             "differ: n.csv", "  1 rows against 2"]


class TestCheckpointDiff:
    COVS = [(0.1, 3.0, 2.0), (0.0, 1.5, 1.5)]
    PARAMS = [0.5, -1.0, 2.0, 0.25]

    def test_parameters_and_snapshot_lines(self, tmp_path):
        a, b = write_checkpoints(
            tmp_path,
            checkpoint(self.COVS, self.PARAMS, "alpha = 5.0\nold = 1\nseed = 0\n"),
            checkpoint(self.COVS, [0.5, -1.5, 2.0, 0.0], "alpha = 5.0\nseed = 0\nnew = 2\n"))
        assert golden_diff.compare(a, b) == [
            "differ: model/model.ckpt",
            "  parameters: 2 of 4 values differ",
            "  snapshot - old = 1",
            "  snapshot + new = 2",
        ]

    def test_header_and_covariances(self, tmp_path):
        a, b = write_checkpoints(
            tmp_path, checkpoint(self.COVS, self.PARAMS, "seed = 0\n"),
            checkpoint(self.COVS[:1], self.PARAMS, "seed = 0\n", version=2))
        assert golden_diff.compare(a, b) == [
            "differ: model/model.ckpt", "  header differs", "  covariances: 2 landmarks against 1"]
        a, b = write_checkpoints(
            tmp_path / "sigma", checkpoint(self.COVS, self.PARAMS, ""),
            checkpoint([self.COVS[0], (0.0, 1.5, 1.25)], self.PARAMS, ""))
        assert golden_diff.compare(a, b) == [
            "differ: model/model.ckpt", "  covariances: 1 of 2 landmarks differ",
            "  covariances sigma_min: 1 values, max abs 0.25, max rel 0.167"]

    def test_covariance_differences_by_size(self, tmp_path):
        a, b = write_checkpoints(
            tmp_path, checkpoint(self.COVS + [(0.5, 4.0, 1.0)], self.PARAMS, ""),
            checkpoint([(0.1, 3.0, 2.0), (0.25, 1.5, 1.5), (0.5, 5.0, float("nan"))],
                       self.PARAMS, ""))
        assert golden_diff.compare(a, b) == [
            "differ: model/model.ckpt",
            "  covariances: 2 of 3 landmarks differ",
            "  covariances theta_rad: 1 values, max abs 0.25, max rel 1",
            "  covariances sigma_maj: 1 values, max abs 1, max rel 0.2",
            "  covariances sigma_min: 1 cells differ",
        ]

    def test_unreadable_checkpoint(self, tmp_path):
        good = checkpoint(self.COVS, self.PARAMS, "seed = 0\n")
        for bad in (good[:-1], b"HMUQ", b"NOPE" + good[4:]):
            a, b = write_checkpoints(tmp_path / str(len(bad)) / bad[:4].decode(), good, bad)
            assert golden_diff.compare(a, b) == [
                "differ: model/model.ckpt", "  not a readable checkpoint"]

    def test_reads_the_trainer_layout(self, tmp_path):
        """The parser splits what write_checkpoint writes into its four parts."""
        net = ReferencePredictor(2, 4, seed=0)
        decomps = [CovarianceDecomposition(*c) for c in self.COVS]
        cfg = TrainConfig(iterations=7)
        write_checkpoint(TrainedModel(net, decomps, cfg, np.empty(0)), tmp_path / "m.ckpt")
        head, covs, params, snapshot = golden_diff._checkpoint_parts(tmp_path / "m.ckpt")
        assert head == b"HMUQ" + struct.pack("<HI", 1, 2)
        assert list(struct.iter_unpack("<3d", covs)) == self.COVS
        assert params == net.get_params().astype("<f4").tobytes()
        assert "iterations = 7" in snapshot and "seed = 0" in snapshot
