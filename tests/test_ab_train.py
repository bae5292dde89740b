"""tools/ab_train.py times the training step of two checkouts in one process."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ab_train(*flags):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab_train.py"), str(ROOT), str(ROOT),
                           "--iterations", "1", "--rounds", "2", *flags],
                          capture_output=True, text=True, timeout=60)


def assert_report(run):
    assert run.returncode == 0, run.stderr
    ms = r"\d+\.\d\d ms/it"
    patterns = [rf"round 1: parent {ms}, change {ms}", rf"round 2: parent {ms}, change {ms}",
                rf"median: parent {ms}, change {ms}", r"speed-up \(parent / change\): \d+\.\d{3}x",
                r"change faster in [0-2] of 2 pairs"]
    lines = run.stdout.splitlines()
    assert len(lines) == len(patterns), run.stdout
    for pattern, line in zip(patterns, lines):
        assert re.fullmatch(pattern, line), line


def test_runs_the_repo_against_itself():
    assert_report(ab_train())


def test_runs_on_forced_lanes_and_rejects_zero():
    assert_report(ab_train("--lanes", "1"))
    run = ab_train("--lanes", "0")
    assert run.returncode == 2 and "--lanes must be >= 1" in run.stderr, run.stderr
