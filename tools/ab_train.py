"""Training speed of two checkouts, measured in one process.

    python3 tools/ab_train.py PARENT_ROOT CHANGE_ROOT [--iterations N] [--rounds R] [--lanes L]

Loads `src/hmuq` of each checkout under its own package name (`hmuq_parent`,
`hmuq_change`), with no symlinks and no edits to either tree.  Each tree writes
and reads back the default 200-image synthetic set once, with its own
`synth` code.  Then every round trains each tree N iterations on its set with
the benchmark's recipe (`harness.TRAIN_CONFIG`), the two in swapped order from
round to round, so that heap state and the host's drift fall on both sides
alike.  BLAS is pinned to one thread, as in the benchmark.  `--lanes L` runs
both trees' `train` on L lanes, by replacing each package's
`trainer.usable_cpus`; without it each tree takes one lane per usable CPU.

Prints each round's ms per iteration for both trees, both medians, the
speed-up (parent median / change median) and the number of rounds the
change ran faster in.  Two checkouts of the same files, run as separate
processes, can differ by a few percent; one process running both does not
carry that bias.
"""

import argparse
import dataclasses
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from harness import TRAIN_CONFIG  # noqa: E402


def load(root: Path, name: str):
    """Import root/src/hmuq as the package `name`."""
    package = root / "src" / "hmuq"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"{Path(sys.argv[0]).name}: {root} has no src/hmuq package")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Tree:
    """One checkout's hmuq with its synthetic set and training config."""

    def __init__(self, root: Path, name: str, iterations: int, scratch: str, lanes: int | None):
        hmuq = load(root, name)
        if lanes is not None:
            hmuq.trainer.usable_cpus = lambda: lanes
        cfg = hmuq.SynthConfig()
        manifest = hmuq.write_synth_dataset(os.path.join(scratch, name), *hmuq.generate(cfg), cfg)
        self.dataset = hmuq.load_dataset(manifest)
        train_cfg = hmuq.dataio.config_from_dict(
            hmuq.TrainConfig, hmuq.dataio.parse_config_text(TRAIN_CONFIG))
        self.config = dataclasses.replace(train_cfg, iterations=iterations)
        self.train = hmuq.train

    def ms_per_iteration(self) -> float:
        start = time.perf_counter()
        self.train(self.dataset, self.config)
        return (time.perf_counter() - start) * 1e3 / self.config.iterations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="tools/ab_train.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--lanes", type=int, help="lanes for both trees (default: one per CPU)")
    args = parser.parse_args(argv)
    if args.iterations < 1 or args.rounds < 1 or (args.lanes is not None and args.lanes < 1):
        parser.error("--iterations, --rounds and --lanes must be >= 1")
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Tree(root, f"hmuq_{side}", args.iterations, scratch, args.lanes)
                 for side, root in (("parent", args.parent_root), ("change", args.change_root))}
    times = {"parent": [], "change": []}
    for r in range(args.rounds):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            times[side].append(trees[side].ms_per_iteration())
        print(f"round {r + 1}: parent {times['parent'][-1]:.2f} ms/it, "
              f"change {times['change'][-1]:.2f} ms/it", flush=True)
    parent, change = statistics.median(times["parent"]), statistics.median(times["change"])
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"median: parent {parent:.2f} ms/it, change {change:.2f} ms/it")
    print(f"speed-up (parent / change): {parent / change:.3f}x")
    print(f"change faster in {won} of {args.rounds} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
