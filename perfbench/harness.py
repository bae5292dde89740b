"""Workloads, set-up and checked `hmuq` CLI calls of the benchmark.

Every call goes through `hmuq.cli.main(argv)` in this process.  A call is a
failed operation when it raises, exits non-zero, writes CSV files with the
wrong row counts or a non-finite loss, or writes CSV bytes that differ from
the first (reference) call with the same arguments.  Each heatmap fit a call
makes is an operation too, failed when it is skipped as degenerate or does
not converge; the reference call counts them, and later calls repeat the
same fits because their CSVs are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import math
import os
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import hmuq.cli

from tracing import Tracer, fit_targets, fit_tally

LANDMARKS = 4  # SynthConfig default: 64x64 images with 4 landmark structures

# the acceptance fixture's training configuration
TRAIN_CONFIG = """\
batch_size = 4
dropout_rate = 0.1
target_mode = learned_aniso
learning_rate = 1e-05
covariance_lr_multiplier = 3.0
"""
NAMES_CONFIG = "0 = a\n1 = b\n2 = c\n3 = d\n"
# breakpoints near the tertiles of the synthetic annotations
MEASUREMENTS_CONFIG = """\
span.expression = distance(a, c)
span.breakpoints = 37.0, 39.5
span.labels = short, mid, long
bend.expression = angle(a, b, c)
bend.breakpoints = 143.0, 161.0
bend.labels = open, mid, flat
offset.expression = linedist(d, a, c)
offset.breakpoints = 18.0, 20.0
offset.labels = near, mid, far
"""
MEASUREMENTS = ("span", "bend", "offset")
LABELS_PER_MEASUREMENT = 3
MCD_PASSES = 20

# The analyze/mcd checkpoint: trained once per source tree and cached, because
# 300 iterations (~32 s on one core) in every run would not fit the run budget.
CHECKPOINT_ITERATIONS = 300
CHECKPOINT_TRAIN_IMAGES = 200
CHECKPOINT_SEEDS = (0, 3)  # (synth seed, train seed); held-out sets use odd seeds


@dataclasses.dataclass(frozen=True)
class Mix:
    """Sizes of one cycle of the closed loop `train -> eval -> clinical -> mcd`."""

    train_images: int
    train_iterations: int
    analyze_images: int  # held-out images per `eval` and `clinical` call
    mcd_images: int      # held-out images per `mcd` call


# Each workload runs every subcommand, so every end-to-end metric exists on every
# workload; the sizes make one layer do most of the work and the others little.
WORKLOADS = {
    # nets forward + backward in `hmuq train`: the ROADMAP headline
    "train": Mix(train_images=200, train_iterations=24, analyze_images=4, mcd_images=1),
    # four Gaussian fits per forward pass, plus Monte-Carlo classification
    "analyze": Mix(train_images=8, train_iterations=2, analyze_images=16, mcd_images=1),
    # 20 forward-only dropout passes per image, fits on smooth mean heatmaps
    "mcd": Mix(train_images=8, train_iterations=2, analyze_images=4, mcd_images=10),
}
SUBCOMMANDS = ("train", "eval", "clinical", "mcd")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _synth(root: Path, name: str, images: int, seed: int) -> Path:
    cfg = root / f"synth_{name}.cfg"
    _write(cfg, f"num_images = {images}\n")
    out = root / name
    rc = hmuq.cli.main(["synth", "--config", str(cfg), "--seed", str(seed),
                        "--out", str(out), "--quiet"])
    if rc != 0:
        raise RuntimeError(f"hmuq synth exited {rc} while setting up {out}")
    return out


def set_up(root: Path, mix: Mix, seed: int) -> Path:
    """Write the configs and synthesize the workload's datasets under root."""
    root.mkdir(parents=True)
    _write(root / "train.cfg", TRAIN_CONFIG)
    _write(root / "names.cfg", NAMES_CONFIG)
    _write(root / "measurements.cfg", MEASUREMENTS_CONFIG)
    _synth(root, "train_set", mix.train_images, 2 * seed)
    _synth(root, "analyze_set", mix.analyze_images, 2 * seed + 1)
    _synth(root, "mcd_set", mix.mcd_images, 2 * seed + 1)
    return root


def source_digest(src: Path) -> str:
    h = hashlib.sha256(f"{CHECKPOINT_ITERATIONS} {CHECKPOINT_SEEDS} {TRAIN_CONFIG}".encode())
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def train_checkpoint(root: Path, iterations: int) -> Path:
    """`hmuq synth` + `hmuq train` of the checkpoint that eval/clinical/mcd use."""
    root.mkdir(parents=True)
    _write(root / "train.cfg", TRAIN_CONFIG)
    synth_seed, train_seed = CHECKPOINT_SEEDS
    data = _synth(root, "data", CHECKPOINT_TRAIN_IMAGES, synth_seed)
    rc = hmuq.cli.main(["train", "--data", str(data), "--config", str(root / "train.cfg"),
                        "--iterations", str(iterations), "--seed", str(train_seed),
                        "--out", str(root / "model"), "--quiet"])
    if rc != 0:
        raise RuntimeError(f"hmuq train exited {rc} while building the checkpoint")
    return root / "model" / "model.ckpt"


def cached_checkpoint(cache: Path, src: Path) -> tuple[Path, float | None]:
    """The checkpoint for this source tree, and the seconds spent building it now."""
    final = cache / f"ckpt-{source_digest(src)}"
    if not (final / "model" / "model.ckpt").exists():
        t0 = time.perf_counter()
        tmp = cache / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        train_checkpoint(tmp, CHECKPOINT_ITERATIONS)
        try:
            tmp.rename(final)
        except OSError:  # another run finished the same build first
            shutil.rmtree(tmp, ignore_errors=True)
        return final / "model" / "model.ckpt", time.perf_counter() - t0
    return final / "model" / "model.ckpt", None


class HostSpeed:
    """Times a fixed numpy + Python kernel that no change to hmuq can touch.

    The 2-core shared hosts this runs on drift by up to ~25% in speed over
    minutes, and every kind of code slows together.  Dividing a call's time by
    the kernel's time around it removes most of that drift: a kernel time of
    REFERENCE_S means "reference speed".
    """

    REFERENCE_S = 0.020

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.patches = rng.random((4096, 144))  # an im2col matrix of a 64x64 conv
        self.weights = rng.random((144, 16))

    def sample(self) -> float:
        """Seconds of one kernel run: GEMM, elementwise numpy and bytecode."""
        t0 = time.perf_counter()
        for _ in range(8):
            y = self.patches @ self.weights
            np.exp(-0.5 * ((y - y.mean()) / y.std()) ** 2).sum()
        total = 0
        for i in range(80000):
            total += i * i
        return time.perf_counter() - t0


@dataclasses.dataclass
class Outcome:
    subcommand: str
    seconds: float
    units: int             # iterations or images the call processed
    error: str | None      # first failed check, None when the call passed
    fits: int = 0
    bad_fits: int = 0
    slowdown: float = 1.0  # host kernel time around the call / HostSpeed.REFERENCE_S


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class CallRunner:
    """Runs and checks the CLI calls of one workload on set-up inputs."""

    def __init__(self, inputs: Path, checkpoint: Path, mix: Mix, seed: int, out: Path):
        self.inputs, self.checkpoint, self.mix, self.seed = inputs, checkpoint, mix, seed
        self.out = out
        self.fits: dict[str, tuple[int, int]] = {}  # (fits, failed fits) per call
        self.reference_csv: dict[str, dict[str, bytes]] = {}

    def argv(self, sub: str) -> list[str]:
        out = ["--out", str(self.out / sub), "--quiet"]
        model = ["--model", str(self.checkpoint)]
        seed = ["--seed", str(self.seed)]
        if sub == "train":
            return ["train", "--data", str(self.inputs / "train_set"),
                    "--config", str(self.inputs / "train.cfg"),
                    "--iterations", str(self.mix.train_iterations)] + seed + out
        if sub == "eval":
            return ["eval", *model, "--data", str(self.inputs / "analyze_set")] + out
        if sub == "clinical":
            return ["clinical", *model, "--data", str(self.inputs / "analyze_set"),
                    "--names", str(self.inputs / "names.cfg"),
                    "--measurements", str(self.inputs / "measurements.cfg")] + seed + out
        return ["mcd", *model, "--data", str(self.inputs / "mcd_set"),
                "--k", str(MCD_PASSES)] + seed + out

    def units(self, sub: str) -> int:
        return {"train": self.mix.train_iterations, "mcd": self.mix.mcd_images}.get(
            sub, self.mix.analyze_images)

    def expected_rows(self, sub: str) -> dict[str, int]:
        """Data rows (header excluded) of every CSV file the call must write."""
        if sub == "train":
            return {"loss.csv": self.mix.train_iterations, "learned_covariances.csv": LANDMARKS}
        if sub == "eval":
            return {"metrics.csv": LANDMARKS}
        if sub == "clinical":
            n = self.mix.analyze_images
            rows = {"classifications.csv": n * len(MEASUREMENTS),
                    "probabilities.csv": n * len(MEASUREMENTS) * LABELS_PER_MEASUREMENT}
            rows.update({f"curve_{m}.csv": n for m in MEASUREMENTS})
            return rows
        return {"mcd.csv": self.mix.mcd_images * LANDMARKS * 2}

    def _check(self, sub: str, out: Path) -> str | None:
        expected = self.expected_rows(sub)
        written = sorted(p.name for p in out.glob("*.csv")) if out.is_dir() else []
        if written != sorted(expected):
            return f"wrote CSV files {written}, expected {sorted(expected)}"
        for name, count in expected.items():
            rows = _read_rows(out / name)
            if len(rows) - 1 != count:
                return f"{name} has {len(rows) - 1} data rows, expected {count}"
        if sub == "train":
            losses = [float(row[1]) for row in _read_rows(out / "loss.csv")[1:]]
            if not all(math.isfinite(v) for v in losses):
                return "loss.csv has a non-finite loss"
        csvs = {name: (out / name).read_bytes() for name in expected}
        reference = self.reference_csv.setdefault(sub, csvs)
        differ = sorted(name for name in expected if reference[name] != csvs[name])
        if differ:
            return f"CSV bytes differ from the first call with the same seed: {differ}"
        return None

    def call(self, sub: str) -> Outcome:
        """One timed, checked call; the first call of a subcommand is its reference."""
        out = self.out / sub
        shutil.rmtree(out, ignore_errors=True)
        first = sub not in self.fits
        counter = Tracer(fit_targets()) if first else contextlib.nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with counter:
                rc = hmuq.cli.main(self.argv(sub))
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc = None
            error = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc()
        seconds = time.perf_counter() - t0
        if error is None:
            error = f"exited {rc}" if rc != 0 else self._check(sub, out)
        if first:
            self.fits[sub] = fit_tally(counter.spans)
        fits, bad_fits = self.fits[sub]
        return Outcome(sub, seconds, self.units(sub), error, fits, bad_fits)


def closed_loop(runner, host, seconds):
    """Whole cycles of sequential calls until `seconds` have passed.

    The host kernel runs before every call and after the cycle; the median of
    those runs sets the slowdown of every call in the cycle.
    """
    outcomes = []
    deadline = time.perf_counter() + seconds
    while True:
        kernel, cycle = [], []
        for sub in SUBCOMMANDS:
            kernel.append(host.sample())
            cycle.append(runner.call(sub))
        kernel.append(host.sample())
        for outcome in cycle:
            outcome.slowdown = statistics.median(kernel) / host.REFERENCE_S
        outcomes += cycle
        if time.perf_counter() >= deadline:
            return outcomes


def operations(outcomes) -> tuple[int, int]:
    """(attempted, failed) over calls and the heatmap fits they make."""
    attempted = sum(1 + o.fits for o in outcomes)
    failed = sum((o.error is not None) + o.bad_fits for o in outcomes)
    return attempted, failed
