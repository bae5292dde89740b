"""Golden run: every hmuq subcommand but `interobs` on fixed seeds, for a byte-for-byte
comparison.

Run from the root of a checkout (no install needed; `src/` is put on `sys.path`):

    python3 tools/golden_run.py OUT

It writes the default 200-image synthetic set, a 24-image held-out set
(`--seed 1`), a 300-iteration checkpoint (`--seed 3`, dropout 0.1, lr 1e-5,
covariance multiplier 3), then `predict`, `fit`, `mcd --k 5`, `eval` and
`clinical` on the held-out set with the benchmark's names and measurements,
and all four `plot` kinds, each under OUT/<step>.  BLAS is
pinned to one thread, as in the benchmark, so that two commits run the same
arithmetic.  Compare two commits with `diff -r OUT_A OUT_B` (see README.md).
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/golden_run.py OUT")
    run(Path(sys.argv[1]))
