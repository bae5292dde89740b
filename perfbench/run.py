"""Benchmark of the hmuq CLI: closed-loop `train -> eval -> clinical -> mcd` cycles.

Run from the root of an hmuq checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

The last line of stdout is the result JSON (`correct`, `attempted`, `failed`,
`metrics`); the line before it holds the run's metadata.  `--trace 0` reports
the end-to-end metrics; `--trace 1` spends half the time untraced and half
traced, and reports the per-layer metrics and the tracing overhead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

PINNED_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
RATE_METRICS = {"train": ("train_it_per_s", "it/s"), "eval": ("eval_img_per_s", "img/s"),
                "clinical": ("clinical_img_per_s", "img/s"), "mcd": ("mcd_img_per_s", "img/s")}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "analyze", "mcd"))
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median_seconds(outcomes, sub):
    """Median call time at reference host speed."""
    return statistics.median(o.seconds / o.slowdown for o in outcomes if o.subcommand == sub)


def rate_metrics(outcomes, at_reference_speed=True):
    """Median units per second over the calls that passed every check."""
    out = {}
    for sub, (name, unit) in RATE_METRICS.items():
        rates = [o.units / o.seconds * (o.slowdown if at_reference_speed else 1.0)
                 for o in outcomes if o.subcommand == sub and o.error is None]
        out[name] = (statistics.median(rates) if rates else 0.0, unit)
    return out


def run(args, root: Path, work: Path):
    import numpy
    import scipy

    import harness
    import tracing

    src = root / "src" / "hmuq"
    mix = harness.WORKLOADS[args.workload]
    checkpoint, build_s = harness.cached_checkpoint(root / ".bench_build" / "perfbench", src)

    host = harness.HostSpeed()
    setup_s, setup_raw_s = [], []
    inputs = work / "inputs"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        before = host.sample()
        t0 = time.perf_counter()
        harness.set_up(inputs, mix, args.seed)
        setup_raw_s.append(time.perf_counter() - t0)
        slowdown = (before + host.sample()) / 2 / host.REFERENCE_S
        setup_s.append(setup_raw_s[-1] / slowdown)
    runner = harness.CallRunner(inputs, checkpoint, mix, args.seed, work / "out")
    references = [runner.call(sub) for sub in harness.SUBCOMMANDS]  # untimed

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mix": dataclasses.asdict(mix),
        "src_hmuq_lines": sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py")),
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": PINNED_THREADS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "checkpoint_build_s": build_s, "setup_raw_s": setup_raw_s,
        "fits_per_call": {sub: fits for sub, (fits, _) in runner.fits.items()},
    }
    if args.trace:
        untraced = harness.closed_loop(runner, host, args.seconds / 2)
        tracer = tracing.Tracer(tracing.hmuq_targets())
        t0 = time.perf_counter()
        with tracer:
            harness.set_up(work / "setup-traced", mix, args.seed)
            traced = harness.closed_loop(runner, host, args.seconds / 2)
        wall = time.perf_counter() - t0
        metrics = tracing.layer_metrics(tracer, wall)
        per_sub = {sub: median_seconds(traced, sub) / median_seconds(untraced, sub) - 1.0
                   for sub in harness.SUBCOMMANDS}
        cycle = (sum(median_seconds(traced, s) for s in harness.SUBCOMMANDS)
                 / sum(median_seconds(untraced, s) for s in harness.SUBCOMMANDS))
        metrics["trace.overhead_frac"] = (cycle - 1.0, "frac")
        meta["tracing_overhead"] = {"cycle": cycle - 1.0, **per_sub}
        meta["untraced"] = {k: v for k, (v, _) in rate_metrics(untraced).items()}
        meta["traced"] = {k: v for k, (v, _) in rate_metrics(traced).items()}
        meta["spans"] = len(tracer.spans)
        loop = untraced + traced
    else:
        timed = harness.closed_loop(runner, host, args.seconds)
        metrics = rate_metrics(timed)
        meta["raw"] = {k: v for k, (v, _) in rate_metrics(timed, False).items()}
        meta["raw"]["setup_s"] = statistics.median(setup_raw_s)
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        loop = timed
    outcomes = references + loop
    meta["call_s"] = {sub: [o.seconds for o in outcomes if o.subcommand == sub]
                      for sub in harness.SUBCOMMANDS}
    meta["host_slowdown"] = [o.slowdown for o in loop if o.subcommand == "train"]
    errors = sorted({f"{o.subcommand}: {o.error}" for o in outcomes if o.error})
    meta["errors"] = errors
    attempted, failed = harness.operations(outcomes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hmuq" / "cli.py").is_file():
        print("error: src/hmuq/cli.py not found; run from the root of an hmuq checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = str(PINNED_THREADS)
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
