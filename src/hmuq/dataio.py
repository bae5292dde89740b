"""On-disk dataset format: PGM images, CSV annotation tables, flat config files
and the codec between those files and the config dataclasses.

A dataset directory is described by a manifest.cfg with keys `landmark_count`,
`images` (a CSV of image_id,path,spacing_mm rows), `annotations` (single-
annotator CSV) and/or `observer_annotations` (multi-annotator CSV).  Annotation
CSVs share one schema: image_id,landmark_id,observer_id,x_px,y_px with the
observer column empty for single-annotator data.  All values are written so
that a read/write round trip preserves them exactly.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .gauss import InvalidParameterError

ANNOTATION_HEADER = ["image_id", "landmark_id", "observer_id", "x_px", "y_px"]
IMAGES_HEADER = ["image_id", "path", "spacing_mm"]


class DataFormatError(ValueError):
    """A file on disk does not match the expected format."""


# --- flat key = value config files ---------------------------------------------


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines; blank lines and #-comment lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise DataFormatError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in out:
            raise DataFormatError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_config(items: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in items.items())


def decode_utf8(data: bytes, path, offset: int = 0) -> str:
    """`data`, the bytes at `offset` of the file `path`, as UTF-8 text."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {offset + exc.start})") from None


def read_config_file(path) -> dict[str, str]:
    with open(path, "rb") as fh:
        return parse_config_text(decode_utf8(fh.read(), path), source=str(path))


@contextlib.contextmanager
def errors_named(path):
    """Re-raise an InvalidParameterError from the block with `path: ` in front."""
    try:
        yield
    except InvalidParameterError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _item_prefix(name, i):  # the keys of item i of `landmarks` start `landmark_<i>.`
    return f"{name.removesuffix('s')}_{i}."


def config_to_dict(cfg, prefix="") -> dict[str, str]:
    """Flat text form of a config dataclass: one `prefix`ed key per field in
    field order, `name.` keys for a nested dataclass `name`, and for a tuple of
    dataclasses `xs`, `num_xs` followed by one `x_<i>.` block per item."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            out[f"{prefix}num_{f.name}"] = str(len(value))
            for i, item in enumerate(value):
                out.update(config_to_dict(item, prefix + _item_prefix(f.name, i)))
        elif dataclasses.is_dataclass(value):
            out.update(config_to_dict(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = _format_value(value)
    return out


def _parse_value(key, kind, text):
    if kind is bool:
        if text not in ("true", "false"):
            raise InvalidParameterError(f"{key}: expected true/false, got {text!r}")
        return text == "true"
    try:
        value = kind(text)
    except ValueError:
        raise InvalidParameterError(f"{key}: expected {kind.__name__}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise InvalidParameterError(f"{key}: expected a finite float, got {text!r}")
    return value


def _pop_block(items, prefix):
    return {k.removeprefix(prefix): items.pop(k) for k in list(items) if k.startswith(prefix)}


def _build_config(cls, items, prefix):
    hints = typing.get_type_hints(cls)
    items = dict(items)
    kwargs = {}
    for f in dataclasses.fields(cls):
        kind, count_key = hints[f.name], f"num_{f.name}"
        if typing.get_origin(kind) is tuple and count_key in items:
            count = _parse_value(prefix + count_key, int, items.pop(count_key))
            # lazy, so that a huge count fails at its first missing block
            blocks = (_item_prefix(f.name, i) for i in range(count))
            kwargs[f.name] = tuple(
                _build_config(typing.get_args(kind)[0], _pop_block(items, b), prefix + b)
                for b in blocks)
        elif dataclasses.is_dataclass(kind) and (block := _pop_block(items, f"{f.name}.")):
            kwargs[f.name] = _build_config(kind, block, f"{prefix}{f.name}.")
        elif kind in (bool, int, float, str) and f.name in items:
            kwargs[f.name] = _parse_value(prefix + f.name, kind, items.pop(f.name))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise InvalidParameterError(f"missing config key {prefix + f.name!r}")
    if items:
        raise InvalidParameterError(f"unknown config key {prefix + next(iter(items))!r}")
    return cls(**kwargs)


def config_from_dict(cls, items: dict[str, str]):
    """Validated config dataclass from its config_to_dict form.  Absent keys
    keep their defaults; unknown keys, and absent keys without one, are rejected."""
    cfg = _build_config(cls, items, "")
    cfg.validate()
    return cfg


# --- PGM (P5) grayscale images ----------------------------------------------------


def write_pgm(path, values: np.ndarray, bits: int = 16) -> None:
    """Write intensities in [0, 1] as a binary PGM (8 or 16 bit).

    16-bit samples are big-endian, as the format requires.
    """
    if bits not in (8, 16):
        raise DataFormatError(f"bits must be 8 or 16, got {bits}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataFormatError(f"image must be 2-D, got shape {values.shape}")
    if values.min() < 0 or values.max() > 1:
        raise DataFormatError("intensities must lie in [0, 1]")
    maxval = (1 << bits) - 1
    quantized = np.rint(values * maxval)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(quantized.astype(">u2" if bits == 16 else "u1").tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into float64 intensities in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise DataFormatError(f"{path}: not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":  # header comment runs to end of line
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError:
        raise DataFormatError(f"{path}: malformed PGM header") from None
    if w < 1 or h < 1:
        raise DataFormatError(f"{path}: image dimensions must be positive, got {w}x{h}")
    if maxval not in (255, 65535):
        raise DataFormatError(f"{path}: unsupported maxval {maxval}")
    dtype = ">u2" if maxval == 65535 else "u1"
    count = w * h
    if len(data) - pos < count * (2 if maxval == 65535 else 1):
        raise DataFormatError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return pixels.reshape(h, w).astype(np.float64) / maxval


# --- CSV and annotation tables -------------------------------------------------


def write_csv(path, header, rows) -> None:
    """UTF-8 CSV with a header row and newline line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header):
    """Yield (line number, row) for each non-empty row of a CSV that starts with `header`."""
    with open(path, "rb") as fh:
        reader = csv.reader(io.StringIO(decode_utf8(fh.read(), path), newline=""))
    if next(reader, None) != list(header):
        raise DataFormatError(f"{path}:1: expected header {','.join(header)}")
    yield from ((lineno, rec) for lineno, rec in enumerate(reader, start=2) if rec)


@dataclass(frozen=True)
class AnnotationRow:
    image_id: str
    landmark_id: int
    observer_id: str  # empty for single-annotator data
    x: float
    y: float


def write_annotations(path, rows) -> None:
    write_csv(path, ANNOTATION_HEADER,
              ([r.image_id, r.landmark_id, r.observer_id, repr(float(r.x)), repr(float(r.y))]
               for r in rows))


def read_annotations(path) -> list[AnnotationRow]:
    rows = []
    for lineno, rec in read_csv(path, ANNOTATION_HEADER):
        if len(rec) != 5:
            raise DataFormatError(f"{path}:{lineno}: expected 5 columns, got {len(rec)}")
        try:
            rows.append(AnnotationRow(rec[0], int(rec[1]), rec[2], float(rec[3]), float(rec[4])))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return rows


# --- datasets --------------------------------------------------------------------


@dataclass
class Dataset:
    """In-memory dataset: images plus per-image landmark coordinates in px.

    `coords` is (num_images, landmark_count, 2) from the single-annotator
    table (None when the dataset only carries observer annotations);
    `observers` maps (image_id, landmark_id) to [(observer_id, x, y), ...];
    `paths` names the PGM file of each image (None when not read from files).
    """

    ids: list[str]
    images: list[np.ndarray]
    coords: np.ndarray | None
    spacing: np.ndarray
    landmark_count: int
    observers: dict[tuple[str, int], list[tuple[str, float, float]]] | None = None
    paths: list[str] | None = None


def _read_checked_annotations(path, index, images, landmark_count) -> list[AnnotationRow]:
    """An annotation table whose rows name known images and landmarks, in bounds."""
    rows = read_annotations(path)
    for row in rows:
        if row.image_id not in index:
            raise DataFormatError(f"{path}: unknown image id {row.image_id!r}")
        if not 0 <= row.landmark_id < landmark_count:
            raise DataFormatError(
                f"{path}: landmark id {row.landmark_id} outside "
                f"0..{landmark_count - 1} for image {row.image_id!r}")
        h, w = images[index[row.image_id]].shape
        if not (0 <= row.x <= w - 1 and 0 <= row.y <= h - 1):
            raise DataFormatError(
                f"{path}: annotation out of bounds for image {row.image_id!r} "
                f"landmark {row.landmark_id}: ({row.x}, {row.y}) not inside "
                f"[0, {w - 1}] x [0, {h - 1}]")
    return rows


def load_dataset(manifest_path) -> Dataset:
    """Load the dataset a manifest.cfg describes, validating ids and bounds."""
    manifest = read_config_file(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    known = {"landmark_count", "images", "annotations", "observer_annotations"}
    for key in manifest:
        if key not in known:
            raise DataFormatError(f"{manifest_path}: unknown manifest key {key!r}")
    for key in ("landmark_count", "images"):
        if key not in manifest:
            raise DataFormatError(f"{manifest_path}: missing required key {key!r}")
    if "annotations" not in manifest and "observer_annotations" not in manifest:
        raise DataFormatError(f"{manifest_path}: need annotations or observer_annotations")
    with errors_named(manifest_path):
        landmark_count = _parse_value("landmark_count", int, manifest["landmark_count"])
    if landmark_count < 1:
        raise DataFormatError(f"{manifest_path}: landmark_count must be >= 1")

    ids: list[str] = []
    paths: list[str] = []
    images: list[np.ndarray] = []
    spacing: list[float] = []
    images_path = os.path.join(base, manifest["images"])
    for lineno, rec in read_csv(images_path, IMAGES_HEADER):
        if len(rec) != 3:
            raise DataFormatError(f"{images_path}:{lineno}: expected 3 columns")
        image_id, rel, spc = rec
        if image_id in ids:
            raise DataFormatError(f"{images_path}:{lineno}: duplicate image id {image_id!r}")
        try:
            spc_val = float(spc)
        except ValueError:
            raise DataFormatError(f"{images_path}:{lineno}: bad spacing {spc!r}") from None
        if not 0 < spc_val < math.inf:
            raise DataFormatError(f"{images_path}:{lineno}: spacing must be finite and > 0, "
                                  f"got {spc!r}")
        ids.append(image_id)
        paths.append(os.path.join(base, rel))
        images.append(read_pgm(paths[-1]))
        spacing.append(spc_val)
    index = {image_id: i for i, image_id in enumerate(ids)}

    coords = None
    if "annotations" in manifest:
        ann_path = os.path.join(base, manifest["annotations"])
        coords = np.full((len(ids), landmark_count, 2), np.nan)
        for row in _read_checked_annotations(ann_path, index, images, landmark_count):
            coords[index[row.image_id], row.landmark_id] = (row.x, row.y)
        if np.isnan(coords).any():
            missing = [(ids[i], j) for i, j in zip(*np.nonzero(np.isnan(coords[:, :, 0])))]
            raise DataFormatError(f"{ann_path}: missing annotations for {missing[:5]}")

    observers = None
    if "observer_annotations" in manifest:
        obs_path = os.path.join(base, manifest["observer_annotations"])
        observers = {}
        for row in _read_checked_annotations(obs_path, index, images, landmark_count):
            key = (row.image_id, row.landmark_id)
            entries = observers.setdefault(key, [])
            if any(o == row.observer_id for o, _, _ in entries):
                raise DataFormatError(
                    f"{obs_path}: duplicate observer {row.observer_id!r} for {key}")
            entries.append((row.observer_id, row.x, row.y))

    return Dataset(ids, images, coords, np.asarray(spacing), landmark_count, observers, paths)


def write_dataset(out_dir, ids, images, coords, spacing, landmark_count,
                  observer_rows=None, bits: int = 16) -> str:
    """Write a loadable dataset directory; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    image_rows = []
    for image_id, image, spc in zip(ids, images, spacing):
        rel = os.path.join("images", f"{image_id}.pgm")
        write_pgm(os.path.join(out_dir, rel), image, bits=bits)
        image_rows.append([image_id, rel, repr(float(spc))])
    write_csv(os.path.join(out_dir, "images.csv"), IMAGES_HEADER, image_rows)
    manifest = {"landmark_count": str(landmark_count), "images": "images.csv"}
    if coords is not None:
        rows = [AnnotationRow(image_id, j, "", coords[i, j, 0], coords[i, j, 1])
                for i, image_id in enumerate(ids) for j in range(landmark_count)]
        write_annotations(os.path.join(out_dir, "annotations.csv"), rows)
        manifest["annotations"] = "annotations.csv"
    if observer_rows is not None:
        write_annotations(os.path.join(out_dir, "observers.csv"), observer_rows)
        manifest["observer_annotations"] = "observers.csv"
    manifest_path = os.path.join(out_dir, "manifest.cfg")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_config(manifest))
    return manifest_path
