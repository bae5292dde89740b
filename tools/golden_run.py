"""Golden run: every hmuq subcommand but `interobs` on fixed seeds, for a byte-for-byte
comparison.

Run from the root of a checkout (no install needed; `src/` is put on `sys.path`):

    python3 tools/golden_run.py OUT [--write-hashes | --check]

It writes the default 200-image synthetic set, a 24-image held-out set
(`--seed 1`), a 300-iteration checkpoint (`--seed 3`, dropout 0.1, lr 1e-5,
covariance multiplier 3), then `predict`, `fit`, `mcd --k 5`, `eval` and
`clinical` on the held-out set with the benchmark's names and measurements,
and all four `plot` kinds, each under OUT/<step>.  BLAS is
pinned to one thread, as in the benchmark, so that two commits run the same
arithmetic.  Compare two commits with `diff -r OUT_A OUT_B` (see README.md).

The bytes of a run depend on the numpy version and the BLAS, so
`tools/golden.sha256` records both in its header, then one SHA-256 and path
relative to OUT per file.  `--write-hashes` rewrites that file from this run;
`--check` first requires this numpy and BLAS to be the recorded ones, and
after the run lists each file whose hash differs, is missing or is new, and
exits 1 when any does.
"""

import hashlib
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
HASHES = ROOT / "tools" / "golden.sha256"

import numpy as np  # noqa: E402

import hmuq.cli  # noqa: E402
from harness import MEASUREMENTS, MEASUREMENTS_CONFIG, NAMES_CONFIG, TRAIN_CONFIG  # noqa: E402


def run(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    configs = {"heldout.cfg": "num_images = 24\n", "train.cfg": TRAIN_CONFIG,
               "names.cfg": NAMES_CONFIG, "measurements.cfg": MEASUREMENTS_CONFIG}
    for name, text in configs.items():
        (out / name).write_text(text, encoding="utf-8")
    model = ["--model", str(out / "model")]
    held = ["--data", str(out / "heldout")]
    steps = [
        ("data", ["synth"]),
        ("heldout", ["synth", "--config", str(out / "heldout.cfg"), "--seed", "1"]),
        ("model", ["train", "--data", str(out / "data"), "--config", str(out / "train.cfg"),
                   "--iterations", "300", "--seed", "3"]),
        ("predict", ["predict"] + model + held),
        ("fit", ["fit"] + model + held),
        ("mcd", ["mcd", "--k", "5"] + model + held),
        ("eval", ["eval"] + model + held),
        ("clinical", ["clinical"] + model + held + [
            "--names", str(out / "names.cfg"), "--measurements", str(out / "measurements.cfg")]),
    ]
    for kind in ("ellipse_overlay", "offset_scatter", "sigma_vs_error"):
        steps.append(("plot", ["plot", "--kind", kind] + model + held))
    curves = [str(out / "clinical" / f"curve_{m}.csv") for m in MEASUREMENTS]
    steps.append(("plot", ["plot", "--kind", "accuracy_curve", "--curves"] + curves))
    for step, argv in steps:
        rc = hmuq.cli.main(argv + ["--out", str(out / step)])
        if rc != 0:
            raise SystemExit(f"golden run: `hmuq {' '.join(argv)}` exited {rc}")


def environment() -> str:
    """The numpy version and the BLAS name and version, as one line."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = "unknown"
    return f"numpy {np.__version__}, blas {blas}"


def hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every file under out, by its POSIX path relative to out."""
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def write_hashes(out: Path) -> None:
    lines = ["# tools/golden_run.py OUT --write-hashes", f"# {environment()}"]
    lines += [f"{digest}  {name}" for name, digest in hashes(out).items()]
    HASHES.write_text("\n".join(lines) + "\n", encoding="utf-8")


def recorded() -> tuple[str, dict[str, str]]:
    """The environment line and the hashes of tools/golden.sha256."""
    lines = HASHES.read_text(encoding="utf-8").splitlines()
    digests = dict(reversed(line.split("  ", 1)) for line in lines if not line.startswith("#"))
    return lines[1].removeprefix("# "), digests


def mismatches(out: Path) -> list[str]:
    """One line per file of out whose hash differs from the recorded one, is
    missing from out, or is not recorded."""
    want, got = recorded()[1], hashes(out)
    lines = [f"differs: {name}" for name in want if name in got and got[name] != want[name]]
    lines += [f"missing: {name}" for name in want if name not in got]
    return lines + [f"not recorded: {name}" for name in got if name not in want]


def main(argv: list[str]) -> int:
    flags = argv[1:]
    if not argv or flags not in ([], ["--write-hashes"], ["--check"]):
        raise SystemExit("usage: python3 tools/golden_run.py OUT [--write-hashes | --check]")
    out = Path(argv[0])
    if flags == ["--check"] and (written := recorded()[0]) != environment():
        print(f"golden run: {HASHES} was written under {written}; this is {environment()}",
              file=sys.stderr)
        return 1
    run(out)
    if flags == ["--write-hashes"]:
        write_hashes(out)
    elif flags == ["--check"] and (lines := mismatches(out)):
        print(f"golden run: {len(lines)} files differ from {HASHES}", *lines,
              sep="\n", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
