"""tools/ab_train.py times the training step of two checkouts in one process."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_runs_the_repo_against_itself():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_train.py"), str(ROOT), str(ROOT),
                          "--iterations", "1", "--rounds", "2"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    ms = r"\d+\.\d\d ms/it"
    patterns = [rf"round 1: parent {ms}, change {ms}", rf"round 2: parent {ms}, change {ms}",
                rf"median: parent {ms}, change {ms}", r"speed-up \(parent / change\): \d+\.\d{3}x",
                r"change faster in [0-2] of 2 pairs"]
    lines = run.stdout.splitlines()
    assert len(lines) == len(patterns), run.stdout
    for pattern, line in zip(patterns, lines):
        assert re.fullmatch(pattern, line), line
