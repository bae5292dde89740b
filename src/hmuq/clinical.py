"""Clinical measurements over landmarks and Monte-Carlo class propagation.

Measurements are arithmetic expressions over named landmark coordinates:

    expr   := term (('+' | '-') term)*
    term   := unary ('/' unary)*
    unary  := '-' unary | atom
    atom   := NUMBER | FUNC '(' name (',' name)* ')' | '(' expr ')'
    FUNC   := angle | distance | linedist

`angle(a, b, c)` is the angle at vertex b in degrees, `distance(a, b)` the
Euclidean distance, and `linedist(p, a, b)` the perpendicular distance from p
to the line through a and b.  Classification intervals are right-inclusive:
value v gets label i when breakpoint_{i-1} < v <= breakpoint_i, with values at
or below the first breakpoint mapping to the first label.
"""

from __future__ import annotations

import ast
import math
import os
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .dataio import DataFormatError, errors_named, read_config_file, read_csv, write_csv
from .gauss import InvalidParameterError, sample_gaussian

DEFAULT_MEASUREMENTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                                         "cephalometric.cfg")
FUNC_ARITY = {"angle": 3, "distance": 2, "linedist": 3}


class ExpressionError(InvalidParameterError):
    """A measurement expression does not parse."""


class DegenerateGeometryError(ValueError):
    """A measurement is undefined: a geometric primitive was evaluated on
    coincident points, or its arithmetic divided by zero or overflowed."""


# --- expression parsing ----------------------------------------------------------

_STRAY = re.compile(r"[^\w\s+\-/().,]")
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Div: "div"}


def _parse(text: str):
    """(tree, landmark names in order of appearance) of a measurement expression.

    Python's parser reads the text; the walker admits only numbers, +, -, /,
    unary - and calls of the measurement functions on bare landmark names.
    Operations on numbers alone become their value, and a divisor that is the
    number zero is rejected.
    """
    stray = _STRAY.search(text)
    if stray:
        raise ExpressionError(f"unexpected character {stray.group()!r} in expression {text!r}")
    try:
        body = ast.parse(text.strip(), mode="eval").body
    except (SyntaxError, RecursionError):
        fault = "expected ')'" if text.count("(") > text.count(")") else "invalid syntax"
        raise ExpressionError(f"{fault} in expression {text!r}") from None
    names: list[str] = []

    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            if not abs(node.value) <= sys.float_info.max:
                raise ExpressionError(f"number out of range in expression {text!r}")
            return ("num", float(node.value))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return _fold(("neg", walk(node.operand)))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            tree = (_BINARY[type(node.op)], walk(node.left), walk(node.right))
            if tree[0] == "div" and tree[2] == ("num", 0.0):
                raise ExpressionError(f"division by zero in expression {text!r}")
            return _fold(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname not in FUNC_ARITY:
                raise ExpressionError(f"unknown function {fname!r} in expression {text!r}")
            if node.keywords or not all(isinstance(a, ast.Name) for a in node.args):
                raise ExpressionError(f"{fname} takes landmark names in expression {text!r}")
            if len(node.args) != FUNC_ARITY[fname]:
                raise ExpressionError(f"{fname} takes {FUNC_ARITY[fname]} landmarks, "
                                      f"got {len(node.args)} in expression {text!r}")
            args = tuple(a.id for a in node.args)
            names.extend(a for a in dict.fromkeys(args) if a not in names)
            return ("call", fname, args)
        raise ExpressionError(f"unexpected {ast.unparse(node)!r} in expression {text!r}")

    return walk(body), names


@dataclass(frozen=True)
class MeasurementDef:
    """A named measurement expression over landmark names."""

    name: str
    expression: str
    landmark_ids: tuple[str, ...] = field(init=False, compare=False)
    tree: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tree, names = _parse(self.expression)
        if not names:
            raise ExpressionError(f"expression {self.expression!r} uses no landmarks")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "landmark_ids", tuple(names))


@dataclass(frozen=True)
class ClassThresholds:
    """Strictly increasing breakpoints splitting the line into len+1 classes."""

    breakpoints: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.breakpoints) + 1:
            raise InvalidParameterError(
                f"need {len(self.breakpoints) + 1} labels for "
                f"{len(self.breakpoints)} breakpoints, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidParameterError(f"labels must be unique, got {self.labels}")
        if not all(math.isfinite(b) for b in self.breakpoints):
            raise InvalidParameterError("breakpoints must be finite")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise InvalidParameterError(
                f"breakpoints must be strictly increasing, got {self.breakpoints}")


@dataclass(frozen=True)
class ClassificationResult:
    labels: tuple[str, ...]
    probs: tuple[float, ...]
    entropy_nats: float
    hard_class: str


# --- evaluation ------------------------------------------------------------------


def _fold(tree):
    """A ("num", value) node for an operation on numbers alone, else the tree."""
    if all(child[0] == "num" for child in tree[1:]):
        return ("num", float(_eval(tree, {})[0]))
    return tree


def _eval(tree, coords):
    """(values, hits) over (n, 2) coordinate arrays: values are NaN on coincident
    points or a zero divisor and inf on overflow, without a warning; hits masks,
    for each arm of an angle and each line of a linedist, where its length is 0."""
    hits = []
    with np.errstate(all="ignore"):
        return _values(tree, coords, hits), hits


def _values(node, coords, hits):
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "neg":
        return -_values(node[1], coords, hits)
    if kind in ("add", "sub", "div"):
        left, right = (_values(child, coords, hits) for child in node[1:])
        if kind == "add":
            return left + right
        if kind == "sub":
            return left - right
        return np.where(right == 0.0, np.nan, left / right)
    fname, args = node[1], node[2]
    pts = [coords[a] for a in args]
    if fname == "distance":
        return _norm(pts[0] - pts[1])
    if fname == "angle":
        u, v = pts[0] - pts[1], pts[2] - pts[1]
        nu, nv = _norm(u), _norm(v)
        hits += (nu == 0.0, nv == 0.0)
        denom = nu * nv
        cos = (u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]) / denom
        cos = np.where(denom == 0.0, np.nan, np.minimum(np.maximum(cos, -1.0), 1.0))
        return np.degrees(np.arccos(cos))
    # linedist: |cross(b - a, p - a)| / |b - a|
    p, a, b = pts
    d = b - a
    length = _norm(d)
    hits.append(length == 0.0)
    cross = d[:, 0] * (p[:, 1] - a[:, 1]) - d[:, 1] * (p[:, 0] - a[:, 0])
    return np.where(hits[-1], np.nan, np.abs(cross) / length)


def _norm(d):
    """Row lengths of an (n, 2) array."""
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def _undefined(mdef, values, hits, n=None) -> DegenerateGeometryError:
    """The error for a measurement whose values hold NaN: coincident points on
    the samples that its `hits` mark, else a zero divisor or an overflow (such
    as inf - inf) in its arithmetic.  With n, the message counts samples of n."""
    bad = np.count_nonzero(np.any(hits, axis=0))
    fault = "hit coincident points"
    if not bad:
        bad = np.count_nonzero(np.isnan(values))
        fault = "is undefined (a zero divisor or an overflow)"
    where = f" in {bad} of {n} samples" if n else ""
    return DegenerateGeometryError(f"measurement {mdef.name!r} {fault}{where}")


def evaluate_measurement(landmarks, mdef: MeasurementDef) -> float:
    """Evaluate one measurement on a dict of landmark name -> (x, y) in mm."""
    coords = {}
    for name in mdef.landmark_ids:
        if name not in landmarks:
            raise InvalidParameterError(
                f"measurement {mdef.name!r} needs landmark {name!r}")
        pt = np.asarray(landmarks[name], dtype=np.float64).reshape(1, 2)
        if not np.all(np.isfinite(pt)):
            raise InvalidParameterError(f"landmark {name!r} must be finite")
        coords[name] = pt
    values, hits = _eval(mdef.tree, coords)
    if np.isnan(values[0]):
        raise _undefined(mdef, values, hits)
    return float(values[0])


def classify(value: float, thresholds: ClassThresholds) -> str:
    """Label of the right-inclusive interval containing value."""
    if math.isnan(value):
        raise InvalidParameterError("cannot classify NaN")
    return thresholds.labels[bisect_left(thresholds.breakpoints, value)]


def entropy_nats(probs) -> float:
    p = np.asarray(probs, dtype=np.float64)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum()) + 0.0


# --- Monte-Carlo propagation -------------------------------------------------------


def mc_classify(predictions, measurements, n: int = 10000,
                seed=0) -> list[ClassificationResult]:
    """One ClassificationResult per (MeasurementDef, ClassThresholds) pair of
    `measurements`, all classified on one joint draw of n points of each
    landmark they need from `predictions` (name -> AnisotropicGaussian, or
    None for no prediction).  The k-th landmark of `predictions` draws from
    default_rng([*seed, k]), so a measurement's result depends only on its own
    landmarks.  A draw hits coincident points with probability zero unless
    landmarks are point masses at one spot, where every draw does; any such
    draw raises, and so does one whose arithmetic divides by zero or
    overflows to inf - inf.
    """
    prefix = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    coords = {}
    for mdef, _ in measurements:
        for name in [name for name in mdef.landmark_ids if name not in coords]:
            if predictions.get(name) is None:
                raise InvalidParameterError(
                    f"measurement {mdef.name!r} has no prediction for landmark {name!r}")
            k = list(predictions).index(name)
            coords[name] = sample_gaussian(predictions[name], n, [*prefix, k])
    results = []
    for mdef, thresholds in measurements:
        values, hits = _eval(mdef.tree, coords)
        if np.isnan(values).any():
            raise _undefined(mdef, values, hits, n)
        # right-inclusive: the samples at or below each breakpoint
        counts = [0, *(np.count_nonzero(values <= b) for b in thresholds.breakpoints), n]
        probs = tuple((hi - lo) / n for lo, hi in zip(counts, counts[1:]))
        results.append(ClassificationResult(thresholds.labels, probs, entropy_nats(probs),
                                            thresholds.labels[probs.index(max(probs))]))
    return results


def accuracy_uncertainty_curve(image_ids, results, gt_labels):
    """Cumulative accuracy after sorting images by ascending entropy.

    Returns [(fraction_considered, accuracy_percent), ...] with one point per
    prefix of the sorted order; entropy ties break by image id.
    """
    if not (len(image_ids) == len(results) == len(gt_labels)):
        raise InvalidParameterError(
            f"length mismatch: {len(image_ids)} ids, {len(results)} results, "
            f"{len(gt_labels)} labels")
    if not image_ids:
        raise InvalidParameterError("need at least one image")
    order = sorted(range(len(image_ids)),
                   key=lambda i: (results[i].entropy_nats, image_ids[i]))
    curve = []
    correct = 0
    for k, i in enumerate(order, start=1):
        correct += results[i].hard_class == gt_labels[i]
        curve.append((k / len(order), 100.0 * correct / k))
    return curve


CURVE_HEADER = ["fraction", "accuracy_percent"]


def write_curve_csv(path, curve) -> None:
    write_csv(path, CURVE_HEADER,
              ([f"{fraction:.6f}", f"{accuracy:.6f}"] for fraction, accuracy in curve))


def read_curve_csv(path) -> list[tuple[float, float]]:
    """The (fraction, accuracy) points of a curve file; at least one, all finite."""
    points = []
    for lineno, rec in read_csv(path, CURVE_HEADER):
        try:
            fraction, accuracy = map(float, rec)
            if not (math.isfinite(fraction) and math.isfinite(accuracy)):
                raise ValueError
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: expected two finite numbers, got {rec!r}") from None
        points.append((fraction, accuracy))
    if not points:
        raise DataFormatError(f"{path}: no curve points")
    return points


# --- measurement config files -------------------------------------------------------


def measurements_from_config(items: dict[str, str]):
    """Parse `<name>.expression/.breakpoints/.labels` keys into definitions."""
    grouped: dict[str, dict[str, str]] = {}
    for key, value in items.items():
        name, dot, fieldname = key.partition(".")
        if not dot or fieldname not in ("expression", "breakpoints", "labels"):
            raise InvalidParameterError(f"unknown measurement config key {key!r}")
        grouped.setdefault(name, {})[fieldname] = value
    if not grouped:
        raise InvalidParameterError("no measurements defined")
    out = {}
    for name, fields in grouped.items():
        if {"/", os.sep, "\0"} & set(name):  # curve_<name>.csv must be a file name
            raise InvalidParameterError(
                f"measurement name {name!r} cannot hold a path separator or NUL")
        for required in ("expression", "breakpoints", "labels"):
            if required not in fields:
                raise InvalidParameterError(f"measurement {name!r} missing {required!r}")
        try:
            breakpoints = tuple(float(b) for b in fields["breakpoints"].split(","))
        except ValueError:
            raise InvalidParameterError(
                f"measurement {name!r}: bad breakpoints {fields['breakpoints']!r}") from None
        labels = tuple(lab.strip() for lab in fields["labels"].split(","))
        out[name] = (MeasurementDef(name, fields["expression"]),
                     ClassThresholds(breakpoints, labels))
    return out


def load_measurements(path=None):
    """Load a measurement config file (the shipped defaults when path is None)."""
    path = path or DEFAULT_MEASUREMENTS_PATH
    with errors_named(path):
        return measurements_from_config(read_config_file(path))
