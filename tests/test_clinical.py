import math
import os
import re
import warnings

import numpy as np
import pytest

from hmuq.clinical import (
    ClassificationResult,
    ClassThresholds,
    DegenerateGeometryError,
    ExpressionError,
    MeasurementDef,
    _eval,
    accuracy_uncertainty_curve,
    classify,
    evaluate_measurement,
    load_measurements,
    mc_classify,
    measurements_from_config,
    write_curve_csv,
)
from hmuq.gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    sample_gaussian,
)


def gaussian(x, y, theta=0.0, sigma_maj=0.0, sigma_min=0.0):
    return AnisotropicGaussian((x, y), CovarianceDecomposition(theta, sigma_maj, sigma_min),
                               1.0)


ANGLE = MeasurementDef("angle_abc", "angle(a, b, c)")
THRESH = ClassThresholds((0.0, 4.0), ("A", "B", "C"))
# fabricated but plausible lateral-view coordinates (mm) of the shipped table's landmarks
CEPHALOGRAM_MM = {
    "sella": (70.0, 60.0), "nasion": (130.0, 55.0), "orbitale": (120.0, 75.0),
    "porion": (65.0, 80.0), "subspinale": (128.0, 105.0), "supramentale": (125.0, 135.0),
    "pogonion": (123.0, 150.0), "menton": (118.0, 158.0), "gonion": (75.0, 130.0),
    "lower_incisor": (122.0, 125.0), "upper_incisor": (125.0, 120.0),
    "anterior_nasal_spine": (128.0, 98.0), "posterior_nasal_spine": (95.0, 98.0)}


class TestExpressions:
    def test_landmark_ids_in_appearance_order(self):
        m = MeasurementDef("m", "distance(q, p) + angle(p, r, q)")
        assert m.landmark_ids == ("q", "p", "r")

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="unknown function"):
            MeasurementDef("m", "hypot(a, b)")

    def test_arity_checked(self):
        with pytest.raises(ExpressionError, match="angle takes 3"):
            MeasurementDef("m", "angle(a, b)")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            MeasurementDef("m", "distance(a, b) )")

    def test_stray_character(self):
        with pytest.raises(ExpressionError, match="unexpected character"):
            MeasurementDef("m", "distance(a, b) @ 2")

    def test_constant_only_rejected(self):
        with pytest.raises(ExpressionError, match="no landmarks"):
            MeasurementDef("m", "1.5")

    @pytest.mark.parametrize("expression", ["distance(a, b) / 0", "distance(a, b) / -0.0",
                                            "distance(a, b) / (2 - 1 - 1)",
                                            "1 / 0 + distance(a, b)"])
    def test_constant_zero_divisor_rejected(self, expression):
        with pytest.raises(ExpressionError, match="division by zero"):
            MeasurementDef("m", expression)

    def test_constants_fold(self):
        m = MeasurementDef("m", "distance(a, b) / (2 - -1) + -(1 / 4)")
        assert m.tree == ("add", ("div", ("call", "distance", ("a", "b")), ("num", 3.0)),
                          ("num", -0.25))


class TestEvaluate:
    def test_right_angle(self):
        assert evaluate_measurement({"a": (1, 0), "b": (0, 0), "c": (0, 1)}, ANGLE) == 90.0

    def test_zero_angle_on_ray(self):
        lm = {"a": (2.0, 0.0), "b": (0.0, 0.0), "c": (5.0, 0.0)}
        assert evaluate_measurement(lm, ANGLE) == 0.0

    def test_straight_angle(self):
        lm = {"a": (-1.0, 0.0), "b": (0.0, 0.0), "c": (3.0, 0.0)}
        assert evaluate_measurement(lm, ANGLE) == 180.0

    def test_distance_and_arithmetic(self):
        m = MeasurementDef("m", "distance(a, b) / distance(c, b) - 0.5")
        lm = {"a": (3.0, 4.0), "b": (0.0, 0.0), "c": (0.0, 2.0)}
        assert evaluate_measurement(lm, m) == pytest.approx(2.0)

    def test_linedist(self):
        m = MeasurementDef("m", "linedist(p, a, b)")
        lm = {"p": (0.0, 3.0), "a": (-2.0, 0.0), "b": (5.0, 0.0)}
        assert evaluate_measurement(lm, m) == pytest.approx(3.0)

    def test_overflow_is_inf_without_warning(self):
        m = MeasurementDef("m", "1e308 / distance(a, b) / 1e-308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate_measurement({"a": (0.0, 0.0), "b": (0.5, 0.0)}, m) == math.inf

    def test_unary_minus(self):
        m = MeasurementDef("m", "-distance(a, b) + 10")
        assert evaluate_measurement({"a": (0, 0), "b": (6, 8)}, m) == pytest.approx(0.0)

    def test_missing_landmark(self):
        with pytest.raises(InvalidParameterError, match="'c'"):
            evaluate_measurement({"a": (0, 0), "b": (1, 1)}, ANGLE)

    def test_non_finite_landmark(self):
        lm = {"a": (math.nan, 0.0), "b": (0.0, 0.0), "c": (0.0, 1.0)}
        with pytest.raises(InvalidParameterError, match="finite"):
            evaluate_measurement(lm, ANGLE)

    def test_coincident_vertex_degenerate(self):
        lm = {"a": (0.0, 0.0), "b": (0.0, 0.0), "c": (0.0, 1.0)}
        with pytest.raises(DegenerateGeometryError, match="hit coincident points"):
            evaluate_measurement(lm, ANGLE)

    def test_overflowing_angle_is_not_coincident_points(self):
        # |a - b| |c - b| overflows to inf, and so does the dot product
        lm = {"a": (1e200, 0.0), "b": (0.0, 0.0), "c": (1e200, 1e200)}
        with pytest.raises(DegenerateGeometryError, match="'angle_abc' is undefined"):
            evaluate_measurement(lm, ANGLE)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(0)
        base = {"a": rng.uniform(-5, 5, 2), "b": rng.uniform(-5, 5, 2),
                "c": rng.uniform(-5, 5, 2)}
        want = evaluate_measurement(base, ANGLE)
        for _ in range(50):
            phi = rng.uniform(-math.pi, math.pi)
            scale = rng.uniform(0.1, 10.0)
            shift = rng.uniform(-100.0, 100.0, 2)
            r = scale * np.array([[math.cos(phi), -math.sin(phi)],
                                  [math.sin(phi), math.cos(phi)]])
            moved = {k: r @ v + shift for k, v in base.items()}
            assert abs(evaluate_measurement(moved, ANGLE) - want) < 1e-9


class TestClassify:
    def test_interval_lookup(self):
        assert classify(2.0, THRESH) == "B"
        assert classify(-1.0, THRESH) == "A"
        assert classify(9.0, THRESH) == "C"

    def test_right_inclusive(self):
        assert classify(4.0, THRESH) == "B"
        assert classify(0.0, THRESH) == "A"

    def test_nan_rejected(self):
        with pytest.raises(InvalidParameterError):
            classify(math.nan, THRESH)

    def test_thresholds_validated(self):
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            ClassThresholds((1.0, 1.0), ("a", "b", "c"))
        with pytest.raises(InvalidParameterError, match="labels"):
            ClassThresholds((1.0,), ("a",))
        with pytest.raises(InvalidParameterError, match="unique"):
            ClassThresholds((1.0,), ("a", "a"))


class TestMcClassify:
    def point_masses(self):
        return {"a": gaussian(1, 0), "b": gaussian(0, 0), "c": gaussian(0, 1)}

    def test_point_mass_one_hot(self):
        t = ClassThresholds((45.0,), ("acute", "wide"))
        [r] = mc_classify(self.point_masses(), [(ANGLE, t)], n=100, seed=0)
        assert r.probs == (0.0, 1.0)
        assert r.entropy_nats == 0.0
        lm = {k: g.mean for k, g in self.point_masses().items()}
        assert r.hard_class == classify(evaluate_measurement(lm, ANGLE), t)

    def test_value_on_breakpoint_goes_lower(self):
        m = MeasurementDef("d", "distance(a, b)")
        t = ClassThresholds((5.0,), ("short", "long"))
        points = {"a": gaussian(0.0, 0.0), "b": gaussian(3.0, 4.0)}
        [r] = mc_classify(points, [(m, t)], n=100, seed=0)
        assert r.probs == (1.0, 0.0)
        assert r.hard_class == classify(5.0, t) == "short"

    def test_n_one_is_one_hot(self):
        preds = {"a": gaussian(1, 0, 0.0, 0.3, 0.3), "b": gaussian(0, 0),
                 "c": gaussian(0, 1, 0.0, 0.3, 0.3)}
        t = ClassThresholds((45.0,), ("acute", "wide"))
        [r] = mc_classify(preds, [(ANGLE, t)], n=1, seed=5)
        assert sorted(r.probs) == [0.0, 1.0]

    def test_probs_sum_to_one(self):
        preds = {"a": gaussian(1, 0, 0.0, 0.5, 0.2), "b": gaussian(0, 0, 0.0, 0.5, 0.2),
                 "c": gaussian(0, 1, 0.0, 0.5, 0.2)}
        t = ClassThresholds((30.0, 60.0, 90.0), ("w", "x", "y", "z"))
        [r] = mc_classify(preds, [(ANGLE, t)], n=997, seed=2)
        assert math.fsum(r.probs) == pytest.approx(1.0, abs=1e-12)
        assert r.entropy_nats <= math.log(4) + 1e-12

    def test_breakpoint_centered_entropy(self):
        # symmetric measurement value distribution centered on the breakpoint
        m = MeasurementDef("d", "distance(a, b)")
        preds = {"a": gaussian(10.0, 0.0, 0.0, 1.0, 1.0), "b": gaussian(0.0, 0.0)}
        t = ClassThresholds((10.0,), ("short", "long"))
        [r] = mc_classify(preds, [(m, t)], n=100000, seed=7)
        assert abs(r.entropy_nats - math.log(2)) < 0.02

    def test_deterministic_per_seed(self):
        preds = {"a": gaussian(1, 0, 0.1, 0.4, 0.2), "b": gaussian(0, 0, 0.0, 0.4, 0.4),
                 "c": gaussian(0, 1, -0.4, 0.6, 0.1)}
        t = ClassThresholds((45.0,), ("acute", "wide"))
        [a] = mc_classify(preds, [(ANGLE, t)], n=2000, seed=3)
        [b] = mc_classify(preds, [(ANGLE, t)], n=2000, seed=3)
        [c] = mc_classify(preds, [(ANGLE, t)], n=2000, seed=4)
        assert a == b
        assert a != c

    def test_redraw_recovers_from_rare_degeneracy(self):
        # a point mass on top of a diffuse landmark coincides with it only at
        # the diffuse one's exact mean, a draw of probability zero: every draw
        # is usable and nothing is redrawn
        preds = {"a": gaussian(0, 0, 0.0, 0.5, 0.5), "b": gaussian(0, 0),
                 "c": gaussian(0, 1)}
        t = ClassThresholds((45.0,), ("acute", "wide"))
        [r] = mc_classify(preds, [(ANGLE, t)], n=500, seed=1)
        assert math.fsum(r.probs) == pytest.approx(1.0)

    def test_result_depends_only_on_own_landmarks(self):
        preds = {"a": gaussian(1, 0, 0.1, 0.4, 0.2), "b": gaussian(0, 0, 0.0, 0.4, 0.4),
                 "c": gaussian(0, 1, -0.4, 0.6, 0.1), "d": gaussian(3, 1, 0.0, 0.5, 0.5)}
        t = ClassThresholds((45.0,), ("acute", "wide"))
        lead = (MeasurementDef("lead", "distance(d, b)"), ClassThresholds((3.0,), ("x", "y")))
        twin = MeasurementDef("twin", ANGLE.expression)
        [alone] = mc_classify(preds, [(ANGLE, t)], n=2000, seed=[3, 1])
        _, first, second = mc_classify(preds, [lead, (ANGLE, t), (twin, t)], n=2000,
                                       seed=[3, 1])
        assert first == second == alone
        assert 0.0 < alone.probs[0] < 1.0

    def test_persistent_degeneracy_errors(self):
        preds = {"a": gaussian(0, 0), "b": gaussian(0, 0), "c": gaussian(0, 1)}
        t = ClassThresholds((45.0,), ("acute", "wide"))
        with pytest.raises(DegenerateGeometryError,
                           match="'angle_abc' hit coincident points in 10 of 10 samples"):
            mc_classify(preds, [(ANGLE, t)], n=10, seed=0)

    @pytest.mark.parametrize("expression", [
        # 1e308 / 5 / 1e-308 overflows to inf on both sides, and inf - inf is NaN
        "1e308 / distance(a, b) / 1e-308 - 1e308 / distance(a, b) / 1e-308",
        "1 / (distance(a, b) - distance(b, a))",
    ])
    def test_undefined_arithmetic_is_not_coincident_points(self, expression):
        m = MeasurementDef("x", expression)
        t = ClassThresholds((5.0,), ("short", "long"))
        preds = {"a": gaussian(0, 0, 0.0, 0.5, 0.5), "b": gaussian(3, 4, 0.0, 0.5, 0.5)}
        fault = r"measurement 'x' is undefined \(a zero divisor or an overflow\)"
        with pytest.raises(DegenerateGeometryError, match=fault + " in 100 of 100 samples"):
            mc_classify(preds, [(m, t)], n=100)
        with pytest.raises(DegenerateGeometryError, match=fault + "$"):
            evaluate_measurement({"a": (0.0, 0.0), "b": (3.0, 4.0)}, m)

    def test_bad_seed_is_not_a_size_error(self):
        t = ClassThresholds((45.0,), ("acute", "wide"))
        with pytest.raises(ValueError) as info:
            mc_classify(self.point_masses(), [(ANGLE, t)], n=10, seed=-1)
        assert "too large" not in str(info.value)

    def test_missing_prediction(self):
        t = ClassThresholds((45.0,), ("acute", "wide"))
        with pytest.raises(InvalidParameterError, match="no prediction"):
            mc_classify({"a": gaussian(1, 0)}, [(ANGLE, t)], n=10)
        with pytest.raises(InvalidParameterError, match="no prediction for landmark 'b'"):
            mc_classify({"a": gaussian(1, 0), "b": None, "c": gaussian(0, 1)}, [(ANGLE, t)],
                        n=10)


class TestLayout:
    """_eval reads each landmark's draws as (n, 2) columns.  sample_gaussian
    returns them F-ordered; a C-ordered copy must give the same bytes, so no
    ufunc may take another path on contiguous columns than on strided ones."""

    BENCHMARK = {"a": (30.0, 20.0), "b": (48.0, 31.0), "c": (66.0, 22.0), "d": (47.0, 60.0)}
    BENCHMARK_TABLE = ("distance(a, c)", "angle(a, b, c)", "linedist(d, a, c)")

    @staticmethod
    def draws(means, n=4099):
        """F-ordered draws of n points around each mean, with extents of 0.3-3
        mm at random angles; n is odd, so vector loops leave a remainder."""
        rng = np.random.default_rng(11)
        coords = {}
        for k, (name, mean) in enumerate(means.items()):
            d = CovarianceDecomposition(rng.uniform(-1.5, 1.5), rng.uniform(1.0, 3.0),
                                        rng.uniform(0.3, 1.0))
            coords[name] = sample_gaussian(AnisotropicGaussian(mean, d, 1.0), n, [5, k])
        return coords

    @pytest.mark.parametrize("table", ["benchmark", "cephalometric"])
    def test_c_and_f_order_give_same_bytes(self, table):
        if table == "benchmark":
            means = self.BENCHMARK
            mdefs = [MeasurementDef(f"m{i}", e) for i, e in enumerate(self.BENCHMARK_TABLE)]
        else:
            means = CEPHALOGRAM_MM
            mdefs = [mdef for mdef, _ in load_measurements().values()]
        f_order = self.draws(means)
        c_order = {name: np.ascontiguousarray(pts) for name, pts in f_order.items()}
        assert all(pts.flags.f_contiguous for pts in f_order.values())
        assert all(pts.flags.c_contiguous for pts in c_order.values())
        for mdef in mdefs:
            values, hits = _eval(mdef.tree, f_order)
            c_values, c_hits = _eval(mdef.tree, c_order)
            assert np.isfinite(values).all(), mdef.name
            assert values.tobytes() == c_values.tobytes(), mdef.name
            assert len(hits) == len(c_hits)
            assert all(h.tobytes() == c.tobytes() for h, c in zip(hits, c_hits)), mdef.name


def result(entropy, hard):
    return ClassificationResult(("x", "y"), (1.0, 0.0), entropy, hard)


class TestAccuracyCurve:
    def test_all_correct_constant(self):
        res = [result(0.1, "x"), result(0.5, "x")]
        curve = accuracy_uncertainty_curve(["i1", "i2"], res, ["x", "x"])
        assert curve == [(0.5, 100.0), (1.0, 100.0)]

    def test_confident_correct_first(self):
        res = [result(1.0, "y"), result(0.0, "x")]
        curve = accuracy_uncertainty_curve(["i1", "i2"], res, ["x", "x"])
        assert curve == [(0.5, 100.0), (1.0, 50.0)]

    def test_ties_break_by_image_id(self):
        res = [result(0.3, "x"), result(0.3, "x")]
        curve_ab = accuracy_uncertainty_curve(["b", "a"], res, ["y", "x"])
        assert curve_ab == [(0.5, 100.0), (1.0, 50.0)]

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError, match="length mismatch"):
            accuracy_uncertainty_curve(["a"], [result(0.0, "x")], [])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            accuracy_uncertainty_curve([], [], [])

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [(0.5, 100.0), (1.0, 50.0)])
        text = path.read_text()
        assert text.splitlines()[0] == "fraction,accuracy_percent"
        assert "0.500000,100.000000" in text


class TestMeasurementConfig:
    def test_shipped_defaults_load(self):
        meas = load_measurements()
        assert set(meas) == {"ANB", "SNB", "SNA", "ODI", "APDI", "FHI", "FMA", "MW"}
        for mdef, thresholds in meas.values():
            assert len(thresholds.labels) == len(thresholds.breakpoints) + 1

    def test_shipped_defaults_evaluable(self):
        for name, (mdef, thresholds) in load_measurements().items():
            value = evaluate_measurement(CEPHALOGRAM_MM, mdef)
            assert math.isfinite(value), name
            assert classify(value, thresholds) in thresholds.labels

    def test_parse_round_trip(self):
        items = {"M1.expression": "angle(a, b, c)", "M1.breakpoints": "10, 20",
                 "M1.labels": "low, mid, high"}
        meas = measurements_from_config(items)
        mdef, thresholds = meas["M1"]
        assert mdef.landmark_ids == ("a", "b", "c")
        assert thresholds.breakpoints == (10.0, 20.0)
        assert thresholds.labels == ("low", "mid", "high")

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown measurement config key"):
            measurements_from_config({"M1.expr": "angle(a, b, c)"})

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidParameterError, match="missing"):
            measurements_from_config({"M1.expression": "angle(a, b, c)"})

    @pytest.mark.parametrize("name", ["x/y", "/x", "x\0y", "x" + os.sep])
    def test_name_that_is_no_file_name_rejected(self, name):
        """A name names its curve_<name>.csv, so it holds no separator or NUL."""
        items = {f"{name}.{key}": value for key, value in
                 (("expression", "angle(a, b, c)"), ("breakpoints", "10"), ("labels", "a, b"))}
        with pytest.raises(InvalidParameterError,
                           match=f"measurement name {re.escape(repr(name))} cannot hold"):
            measurements_from_config(items)
