import math

import numpy as np
import pytest

from hmuq.dataio import Dataset
from hmuq.gauss import CovarianceDecomposition, InvalidParameterError, population_distribution
from hmuq.metrics import (
    REPORT_COLUMNS,
    aggregate_stats,
    circular_axis_mean_deg,
    interobserver_decomps,
    point_error,
    report_row,
    sdr,
    write_report_csv,
)


class TestPointError:
    def test_three_four_five(self):
        assert point_error((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_symmetry(self):
        assert point_error((1.0, 2.0), (4.0, 6.0)) == point_error((4.0, 6.0), (1.0, 2.0))

    def test_zero(self):
        assert point_error((2.5, -1.0), (2.5, -1.0)) == 0.0


class TestSdr:
    def test_boundary_inclusive(self):
        assert sdr([1.0, 2.0, 3.0], 2.0) == pytest.approx(200.0 / 3.0)

    def test_all_within(self):
        assert sdr([0.1, 0.2], 4.0) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            sdr([], 2.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(InvalidParameterError):
            sdr([1.0], 0.0)


class TestFitAnnotationDistribution:
    """population_distribution, as interobserver_decomps fits observer points."""

    def test_known_covariance(self):
        # 11 unit-circle points scaled by sqrt(2) have population covariance I
        k = np.arange(11)
        z = math.sqrt(2.0) * np.stack([np.cos(2 * np.pi * k / 11),
                                       np.sin(2 * np.pi * k / 11)], axis=1)
        theta, smaj, smin = 0.6, 2.0, 0.5
        r = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        pts = (r @ (z * (smaj, smin)).T).T + (5.0, -3.0)
        mean, d = population_distribution(pts)
        assert mean == pytest.approx((5.0, -3.0))
        assert d.sigma_maj == pytest.approx(smaj)
        assert d.sigma_min == pytest.approx(smin)
        assert d.theta == pytest.approx(theta)

    def test_collinear_degenerate_not_error(self):
        pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        _, d = population_distribution(pts)
        assert d.sigma_min == 0.0


class TestCircularAxisMean:
    def test_near_wraparound(self):
        mean, sd = circular_axis_mean_deg([89.0, -89.0])
        assert abs(abs(mean) - 90.0) < 1e-9
        assert sd == pytest.approx(1.0, abs=0.05)

    def test_naive_mean_would_be_wrong(self):
        mean, _ = circular_axis_mean_deg([85.0, -85.0])
        assert abs(mean) > 45.0  # arithmetic mean would report 0

    def test_single_angle(self):
        mean, sd = circular_axis_mean_deg([37.0])
        assert mean == pytest.approx(37.0)
        assert sd == 0.0

    def test_concentrated_cluster(self):
        mean, sd = circular_axis_mean_deg([29.0, 30.0, 31.0])
        assert mean == pytest.approx(30.0, abs=1e-9)
        assert 0.0 < sd < 2.0


class TestAggregateStats:
    def test_single_decomposition(self):
        d = CovarianceDecomposition(math.radians(20.0), 4.0, 2.0)
        s = aggregate_stats([d])
        assert s.ratio_mean == 2.0
        assert s.ratio_sd == 0.0
        assert s.product_mean == 8.0
        assert s.theta_mean_deg == pytest.approx(20.0)
        assert s.theta_sd_deg == 0.0

    def test_population_sd(self):
        ds = [CovarianceDecomposition(0.0, 2.0, 1.0),
              CovarianceDecomposition(0.0, 4.0, 1.0)]
        s = aggregate_stats(ds)
        assert s.ratio_mean == 3.0
        assert s.ratio_sd == 1.0  # divisor n, not n-1

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate_stats([])


class TestInterobserver:
    def make_dataset(self, spacing=1.0, observers=None, count=2):
        return Dataset([f"im_{k}" for k in "abc"[:count]], [np.zeros((32, 32))] * count,
                       None, np.full(count, spacing), 1, observers)

    def test_spacing_scales_to_mm(self):
        k = np.arange(11)
        z = math.sqrt(2.0) * np.stack([np.cos(2 * np.pi * k / 11),
                                       np.sin(2 * np.pi * k / 11)], axis=1)
        pts = z * (3.0, 1.0) + 16.0
        obs = {("im_a", 0): [(f"o{i}", x, y) for i, (x, y) in enumerate(pts)]}
        ds = self.make_dataset(spacing=0.1, observers=obs)
        (d,) = interobserver_decomps(ds, 0)
        assert d.sigma_maj == pytest.approx(0.3)
        assert d.sigma_min == pytest.approx(0.1)

    def test_skips_images_with_too_few_annotations(self):
        obs = {("im_a", 0): [("o1", 1.0, 1.0), ("o2", 2.0, 2.0)],
               ("im_b", 0): [("o1", 1.0, 1.0), ("o2", 2.0, 1.0), ("o3", 1.0, 2.0)],
               # three identical points: sigma_min = 0, no extent ratio
               ("im_c", 0): [("o1", 4.0, 4.0), ("o2", 4.0, 4.0), ("o3", 4.0, 4.0)]}
        ds = self.make_dataset(observers=obs, count=3)
        (d,) = interobserver_decomps(ds, 0)
        assert d.sigma_min > 0

    def test_collinear_only_is_error(self):
        obs = {("im_a", 0): [("o1", 1.0, 2.0), ("o2", 3.0, 5.0), ("o3", 5.0, 8.0)]}
        with pytest.raises(InvalidParameterError, match="non-collinear .* landmark 0"):
            interobserver_decomps(self.make_dataset(observers=obs), 0)

    def test_no_usable_images_is_error(self):
        obs = {("im_a", 0): [("o1", 1.0, 1.0)]}
        ds = self.make_dataset(observers=obs)
        with pytest.raises(InvalidParameterError, match="landmark 0"):
            interobserver_decomps(ds, 0)

    def test_requires_observer_annotations(self):
        ds = self.make_dataset(observers=None)
        with pytest.raises(InvalidParameterError):
            interobserver_decomps(ds, 0)


class TestReport:
    def test_row_has_all_columns(self):
        d = CovarianceDecomposition(0.1, 2.0, 1.0)
        row = report_row(3, aggregate_stats([d]), errors=[1.0, 2.0, 3.0])
        assert list(row) == REPORT_COLUMNS
        assert row["landmark_id"] == "3"
        assert float(row["sdr_2"]) == pytest.approx(200.0 / 3.0)
        assert float(row["sdr_4"]) == 100.0

    def test_absent_sections_stay_empty(self):
        row = report_row(0, None, errors=[1.0])
        assert row["ratio_mean"] == ""
        assert row["pe_mean"] == "1.000000"

    def test_csv_round_trip_is_stable(self, tmp_path):
        import csv

        d = CovarianceDecomposition(0.4, 3.0, 1.5)
        rows = [report_row(i, aggregate_stats([d]), errors=[0.5, 1.5]) for i in range(2)]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_report_csv(p1, rows)
        write_report_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["product_mean"] == "4.500000"
