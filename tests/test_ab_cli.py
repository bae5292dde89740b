"""tools/ab_cli.py times one subcommand of two checkouts in one process."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from hmuq.cli import main

ROOT = Path(__file__).resolve().parents[1]

SYNTH_CFG = """\
image_size = 16
num_images = 3
seed = 2
num_landmarks = 2
landmark_0.structure = corner
landmark_1.structure = blob
"""


def ab_cli(*argv):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_cli.py"), str(ROOT), str(ROOT),
                           *argv], capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def model_and_data(tmp_path_factory):
    """A 16x16, 2-landmark set and a 2-iteration checkpoint."""
    root = tmp_path_factory.mktemp("ab_cli")
    (root / "synth.cfg").write_text(SYNTH_CFG)
    (root / "train.cfg").write_text("iterations = 2\nbatch_size = 2\npredictor_width = 4\n")
    assert main(["synth", "--config", str(root / "synth.cfg"), "--out", str(root / "d"),
                 "--quiet"]) == 0
    assert main(["train", "--data", str(root / "d"), "--config", str(root / "train.cfg"),
                 "--out", str(root / "m"), "--quiet"]) == 0
    return root


def assert_report(run, unit, files):
    assert run.returncode == 0, run.stderr
    rate = rf"\d+\.\d\d {unit}/s"
    patterns = [rf"round 1: parent {rate}, change {rate}", rf"round 2: parent {rate}, change {rate}",
                rf"median: parent {rate}, change {rate}", r"speed-up \(change / parent\): \d+\.\d{3}x",
                r"change faster in [0-2] of 2 pairs",
                rf"CSVs byte-identical: yes, {files} files in each round"]
    lines = run.stdout.splitlines()
    assert len(lines) == len(patterns), run.stdout
    for pattern, line in zip(patterns, lines):
        assert re.fullmatch(pattern, line), line


def test_runs_the_repo_against_itself(model_and_data):
    run = ab_cli("--rounds", "2", "--", "eval", "--model", str(model_and_data / "m"),
                 "--data", str(model_and_data / "d"))
    assert_report(run, "img", 1)  # metrics.csv


def test_times_train_in_iterations(model_and_data):
    run = ab_cli("--rounds", "2", "--", "train", "--data", str(model_and_data / "d"),
                 "--config", str(model_and_data / "train.cfg"), "--iterations", "2")
    assert_report(run, "it", 2)  # loss.csv and learned_covariances.csv


@pytest.mark.parametrize("argv, message", [
    (["--rounds", "2"], "give the subcommand after --"),
    (["--", "synth"], "give the subcommand after --"),
    (["--rounds", "0", "--", "eval"], "--rounds must be >= 1"),
    (["--", "eval", "--out", "o"], "--out is set per tree"),
])
def test_rejects_bad_arguments(argv, message):
    run = ab_cli(*argv)
    assert run.returncode == 2 and message in run.stderr, run.stderr
