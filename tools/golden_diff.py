"""Compare two golden-run trees and say by how much their CSV and checkpoint
files differ.

Run with the two output directories of `tools/golden_run.py`:

    python3 tools/golden_diff.py OUT_A OUT_B

Every file present in only one tree, and every file whose bytes differ, is
listed.  For a CSV file with the same header and row count in both trees it
gives the number of rows that differ and, for each column that differs, the
largest absolute and relative difference over the rows where both values are
numbers (relative to the larger magnitude of the two), or the number of
differing cells when the column holds text.  For a model checkpoint
(`.ckpt`, the layout `hmuq.trainer.write_checkpoint` writes) it says whether
the header (magic, version, landmark count) differs, how many landmarks'
covariances differ and, for each of theta (radians), sigma_maj and sigma_min
that differs, the largest absolute and relative difference as for a CSV
column, how many predictor parameters differ, and lists each config
snapshot line found in only one tree, `-` for the first and `+` for the
second.  Exits 0 when the trees are byte-identical and 1 otherwise.  Uses the
standard library only.
"""

import csv
import math
import struct
import sys
from pathlib import Path


def _number(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def csv_report(a, b):
    """Lines describing how CSV file b differs from CSV file a."""
    rows_a, rows_b = _read(a), _read(b)
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return ["  headers differ"]
    if len(rows_a) != len(rows_b):
        return [f"  {len(rows_a) - 1} rows against {len(rows_b) - 1}"]
    header = rows_a[0]
    if any(len(row) != len(header) for row in rows_a + rows_b):
        return ["  rows of unequal length"]
    changed = [(ra, rb) for ra, rb in zip(rows_a[1:], rows_b[1:]) if ra != rb]
    lines = [f"  {len(changed)} of {len(rows_a) - 1} rows differ"]
    for col, name in enumerate(header):
        pairs = [(_number(ra[col]), _number(rb[col])) for ra, rb in changed if ra[col] != rb[col]]
        if pairs:
            lines.append(_values_line(name, pairs))
    return lines


def _values_line(name, pairs):
    """The report line for the differing (a, b) values of one column or field:
    the largest absolute and relative difference when all are numbers (None
    marks one that is not), else their count."""
    if any(x is None or y is None for x, y in pairs):
        return f"  {name}: {len(pairs)} cells differ"
    abs_diff = max(abs(x - y) for x, y in pairs)
    rel_diff = max(abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0 for x, y in pairs)
    return f"  {name}: {len(pairs)} values, max abs {abs_diff:.3g}, max rel {rel_diff:.3g}"


def _checkpoint_parts(path):
    """The header, covariance and parameter bytes of a checkpoint and its
    snapshot lines, or None when the file does not have that layout."""
    raw = path.read_bytes()
    try:
        (count,) = struct.unpack_from("<I", raw, 6)
        params_at = 10 + 24 * count + 4
        (n_params,) = struct.unpack_from("<I", raw, params_at - 4)
        snapshot_at = params_at + 4 * n_params + 4
        (snapshot_len,) = struct.unpack_from("<I", raw, snapshot_at - 4)
    except struct.error:
        return None
    if raw[:4] != b"HMUQ" or len(raw) != snapshot_at + snapshot_len:
        return None
    return (raw[:10], raw[10:params_at - 4], raw[params_at:snapshot_at - 4],
            raw[snapshot_at:].decode("utf-8", "replace").splitlines())


def _records_report(name, unit, a, b, size):
    """A line saying how many `size`-byte records of a and b differ."""
    if a == b:
        return []
    if len(a) != len(b):
        return [f"  {name}: {len(a) // size} {unit} against {len(b) // size}"]
    changed = sum(a[i:i + size] != b[i:i + size] for i in range(0, len(a), size))
    return [f"  {name}: {changed} of {len(a) // size} {unit} differ"]


def _covariance_lines(a, b):
    """One line per covariance field (theta in radians, sigma_maj, sigma_min)
    whose float64 values differ between two covariance sections of equal size."""
    if len(a) != len(b):
        return []
    fields = [(a[i:i + 8], b[i:i + 8]) for i in range(0, len(a), 8)]
    lines = []
    for k, name in enumerate(("theta_rad", "sigma_maj", "sigma_min")):
        pairs = [tuple(_number(struct.unpack("<d", raw)[0]) for raw in pair)
                 for pair in fields[k::3] if pair[0] != pair[1]]
        if pairs:
            lines.append(_values_line(f"covariances {name}", pairs))
    return lines


def checkpoint_report(a, b):
    """Lines describing how checkpoint b differs from checkpoint a."""
    parts_a, parts_b = _checkpoint_parts(a), _checkpoint_parts(b)
    if parts_a is None or parts_b is None:
        return ["  not a readable checkpoint"]
    (head_a, cov_a, params_a, snap_a), (head_b, cov_b, params_b, snap_b) = parts_a, parts_b
    lines = ["  header differs"] if head_a != head_b else []
    lines += _records_report("covariances", "landmarks", cov_a, cov_b, 24)
    lines += _covariance_lines(cov_a, cov_b)
    lines += _records_report("parameters", "values", params_a, params_b, 4)
    lines += [f"  snapshot - {line}" for line in snap_a if line not in snap_b]
    lines += [f"  snapshot + {line}" for line in snap_b if line not in snap_a]
    return lines


def compare(root_a: Path, root_b: Path) -> list[str]:
    """Report lines for every file that is missing from one tree or differs."""
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    lines = [f"only in {root_a}: {p}" for p in sorted(files_a - files_b)]
    lines += [f"only in {root_b}: {p}" for p in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        a, b = root_a / rel, root_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        lines.append(f"differ: {rel}")
        if rel.suffix == ".csv":
            lines += csv_report(a, b)
        elif rel.suffix == ".ckpt":
            lines += checkpoint_report(a, b)
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: golden_diff.py OUT_A OUT_B")
    report = compare(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(report) if report else "identical")
    sys.exit(1 if report else 0)
