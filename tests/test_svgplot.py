import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hmuq.gauss import CovarianceDecomposition, InvalidParameterError
from hmuq.svgplot import (
    render_accuracy_curve,
    render_ellipse_overlay,
    render_offset_scatter,
    render_sigma_vs_error,
)

DEC = CovarianceDecomposition(math.radians(30.0), 4.0, 1.5)


def tags(svg):
    root = ET.fromstring(svg)
    return [el.tag.split("}")[-1] for el in root.iter()]


class TestOffsetScatter:
    def test_well_formed_with_points_and_ellipse(self):
        rng = np.random.default_rng(0)
        svg = render_offset_scatter(rng.normal(0, 1, (40, 2)), overlays=[("fit", DEC)])
        t = tags(svg)
        assert t.count("circle") == 40
        assert t.count("ellipse") == 1

    def test_deterministic_without_timestamp(self):
        offs = [(0.5, -0.25), (-1.0, 2.0)]
        a = render_offset_scatter(offs)
        b = render_offset_scatter(offs)
        assert a == b
        assert "<!--" not in a


class TestEllipseOverlay:
    def test_one_ellipse_per_landmark(self):
        items = [(f"L{i}", (20.0 + 5 * i, 30.0), DEC) for i in range(4)]
        svg = render_ellipse_overlay((64, 64), items)
        assert tags(svg).count("ellipse") == 4

    def test_semi_axes_scale_with_sigma(self):
        items = [("L0", (32.0, 32.0), DEC)]
        svg3 = render_ellipse_overlay((64, 64), items, scale=3.0)
        svg6 = render_ellipse_overlay((64, 64), items, scale=6.0)
        rx3 = float(ET.fromstring(svg3).find(".//{*}ellipse").get("rx"))
        rx6 = float(ET.fromstring(svg6).find(".//{*}ellipse").get("rx"))
        assert rx6 == pytest.approx(2.0 * rx3, rel=1e-3)
        ry3 = float(ET.fromstring(svg3).find(".//{*}ellipse").get("ry"))
        assert rx3 / ry3 == pytest.approx(DEC.sigma_maj / DEC.sigma_min, rel=1e-3)


class TestCurves:
    def test_accuracy_curve_polyline(self):
        svg = render_accuracy_curve({"ANB": [(0.5, 100.0), (1.0, 75.0)]})
        assert tags(svg).count("polyline") == 1

    def test_multiple_curves_sorted_stable(self):
        curves = {"b": [(1.0, 50.0)], "a": [(1.0, 90.0)]}
        assert (render_accuracy_curve(curves)
                == render_accuracy_curve(dict(reversed(curves.items()))))

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            render_accuracy_curve({})

    def test_sigma_vs_error(self):
        svg = render_sigma_vs_error([1.0, 2.0, 3.0], [0.5, 0.2, 0.9])
        assert tags(svg).count("circle") == 3

    def test_markup_characters_in_text_escaped(self):
        """A title and a curve label holding &, < and > parse and keep their text."""
        label = "A&B<1>"
        svg = render_accuracy_curve({label: [(0.5, 100.0), (1.0, 75.0)]}, title=f"{label} > 0")
        texts = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
        assert f"{label} > 0" in texts and label in texts

    def test_sigma_vs_error_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            render_sigma_vs_error([1.0], [0.5, 0.2])
