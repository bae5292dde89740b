"""Speed of one hmuq subcommand in two checkouts, measured in one process.

    python3 tools/ab_cli.py PARENT_ROOT CHANGE_ROOT [--rounds R] -- SUBCOMMAND ARGS...

Loads `src/hmuq` of each checkout under its own package name (`hmuq_parent`,
`hmuq_change`), with no symlinks and no edits to either tree.  Every round
runs `cli.main([SUBCOMMAND, *ARGS, "--out", DIR, "--quiet"])` once for each
tree, the two in swapped order from round to round, each tree into a
directory of its own.  SUBCOMMAND is train, predict, fit, eval, mcd or
clinical.  For train the unit is one iteration, counted from the data rows of
the `loss.csv` each call writes; for the others it is one image of the
`--data` set.  BLAS is pinned to one thread, as in the benchmark; `train`
takes one lane per CPU of the process's affinity set, so `taskset -c 0`
runs both trees on one lane.

Prints each round's units per second for both trees, both medians, the
speed-up (change median / parent median), the number of rounds the change ran
faster in, and whether the two trees wrote byte-identical CSV files in every
round.  Two checkouts of the same files, run as separate processes, can differ
by a few percent; one process running both does not carry that bias.  Exits 1
when a run fails.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads

COMMANDS = ("train", "predict", "fit", "eval", "mcd", "clinical")


def load(root: Path, name: str):
    """Import root/src/hmuq as the package `name`; returns its `cli` module."""
    package = root / "src" / "hmuq"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"{Path(sys.argv[0]).name}: {root} has no src/hmuq package")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def csv_files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="tools/ab_cli.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if not command or command[0] not in COMMANDS:
        parser.error(f"give the subcommand after --, one of {', '.join(COMMANDS)}")
    if "--out" in command:
        parser.error("--out is set per tree; leave it out of the subcommand's arguments")
    trees = {side: load(root, f"hmuq_{side}")
             for side, root in (("parent", args.parent_root), ("change", args.change_root))}
    unit = "it" if command[0] == "train" else "img"
    if unit == "img":
        data = trees["parent"].build_parser().parse_known_args(command)[0].data
        count = len(trees["parent"].load_dataset(
            os.path.join(data, "manifest.cfg") if os.path.isdir(data) else data).ids)
    rates = {"parent": [], "change": []}
    mismatches = []
    with tempfile.TemporaryDirectory() as scratch:
        outs = {side: Path(scratch, side) for side in trees}
        for r in range(args.rounds):
            for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                start = time.perf_counter()
                code = trees[side].main([*command, "--out", str(outs[side]), "--quiet"])
                seconds = time.perf_counter() - start
                if code != 0:
                    print(f"ab_cli: {side} run exited {code}", file=sys.stderr)
                    return 1
                if unit == "it":  # loss.csv: a header line, then one line per iteration
                    count = len((outs[side] / "loss.csv").read_text().splitlines()) - 1
                rates[side].append(count / seconds)
            written = {side: csv_files(out) for side, out in outs.items()}
            if written["parent"] != written["change"]:
                mismatches.append(r + 1)
            print(f"round {r + 1}: parent {rates['parent'][-1]:.2f} {unit}/s, "
                  f"change {rates['change'][-1]:.2f} {unit}/s", flush=True)
    parent, change = statistics.median(rates["parent"]), statistics.median(rates["change"])
    won = sum(c > p for p, c in zip(rates["parent"], rates["change"]))
    print(f"median: parent {parent:.2f} {unit}/s, change {change:.2f} {unit}/s")
    print(f"speed-up (change / parent): {change / parent:.3f}x")
    print(f"change faster in {won} of {args.rounds} pairs")
    if mismatches:
        print(f"CSVs byte-identical: no, they differ in round(s) "
              f"{', '.join(map(str, mismatches))}")
    else:
        print(f"CSVs byte-identical: yes, {len(written['parent'])} files in each round")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
