"""The golden run (tools/golden_run.py) writes the bytes recorded in
tools/golden.sha256; a change that moves them regenerates that file on
purpose with `--write-hashes`."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_RUN = ROOT / "tools" / "golden_run.py"


def python(code, *args):
    """Runs code in a fresh interpreter with tools/ on sys.path: golden_run
    pins BLAS to one thread when it loads."""
    code = "import pathlib, sys\nsys.path.insert(0, sys.argv[1])\nimport golden_run\n" + code
    return subprocess.run([sys.executable, "-c", code, str(GOLDEN_RUN.parent), *map(str, args)],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "out"
    run = subprocess.run([sys.executable, str(GOLDEN_RUN), str(out), "--check"],
                         capture_output=True, text=True)
    return run, out


def test_golden_run_keeps_the_recorded_bytes(golden):
    run, _ = golden
    assert run.returncode == 0, run.stderr


def test_each_differing_file_is_named(golden, tmp_path):
    out = shutil.copytree(golden[1], tmp_path / "out")
    fits = out / "fit" / "fits.csv"
    text = fits.read_text()
    digit = text.index("1", text.index("\n"))  # a digit of the first row
    fits.write_text(text[:digit] + "2" + text[digit + 1:])
    (out / "eval" / "metrics.csv").unlink()
    (out / "extra.txt").write_text("x")
    run = python("print(*golden_run.mismatches(pathlib.Path(sys.argv[2])), sep='\\n')", out)
    assert run.stdout.splitlines() == [
        "differs: fit/fits.csv", "missing: eval/metrics.csv", "not recorded: extra.txt"], run.stderr


def test_other_numpy_or_blas_fails_naming_both(tmp_path):
    recorded = (ROOT / "tools" / "golden.sha256").read_text().splitlines()
    hashes = tmp_path / "golden.sha256"
    hashes.write_text("\n".join([recorded[0], "# numpy 0.0, blas none 0"] + recorded[2:]) + "\n")
    run = python("golden_run.HASHES = pathlib.Path(sys.argv[2])\n"
                 "print(golden_run.environment())\n"
                 "sys.exit(golden_run.main([sys.argv[3], '--check']))", hashes, tmp_path / "out")
    assert run.returncode == 1
    assert "numpy 0.0, blas none 0" in run.stderr and run.stdout.strip() in run.stderr
    assert not (tmp_path / "out").exists()  # it fails before the run
