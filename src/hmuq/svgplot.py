"""Static SVG plots: offset scatters, covariance ellipses, curves.

All geometry is emitted with fixed decimal formatting, and a document holds
nothing but its inputs, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .gauss import CovarianceDecomposition, InvalidParameterError

PLOT_KINDS = ("offset_scatter", "ellipse_overlay", "accuracy_curve", "sigma_vs_error")

WIDTH = 480.0
HEIGHT = 360.0
MARGIN = 48.0
DOT_RADIUS = 2.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_XML = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # escapes of XML text


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tag(name: str, text=None, **attrs) -> str:
    """One SVG element; an `_` in an attribute name is written `-`, floats via _fmt."""
    pairs = "".join(f' {key.replace("_", "-")}="'
                    f'{_fmt(v) if isinstance(v, (float, np.floating)) else v}"'
                    for key, v in attrs.items())
    body = "/>" if text is None else f">{text.translate(_XML)}</{name}>"
    return f"<{name}{pairs}{body}"


def svg_document(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
            f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


class _Axes:
    """Linear data-to-pixel mapping with a frame, ticks, and labels."""

    def __init__(self, xlim, ylim, xlabel="", ylabel="", title="", flip_y=True):
        self.x0, self.x1 = float(xlim[0]), float(xlim[1])
        self.y0, self.y1 = float(ylim[0]), float(ylim[1])
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InvalidParameterError(
                f"empty axis range x={xlim} y={ylim}")
        self.flip_y = flip_y
        self.parts: list[str] = []
        self._frame(xlabel, ylabel, title)

    def px(self, x):
        return MARGIN + (np.asarray(x) - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * MARGIN)

    def py(self, y):
        frac = (np.asarray(y) - self.y0) / (self.y1 - self.y0)
        if self.flip_y:
            frac = 1.0 - frac
        return MARGIN + frac * (HEIGHT - 2 * MARGIN)

    def _frame(self, xlabel, ylabel, title):
        grey = {"stroke": "#444444", "stroke_width": 1}
        bottom = HEIGHT - MARGIN
        self.parts.append(_tag("rect", x=MARGIN, y=MARGIN, width=WIDTH - 2 * MARGIN,
                               height=HEIGHT - 2 * MARGIN, fill="none", **grey))
        for i in range(5):
            fx = self.x0 + (self.x1 - self.x0) * i / 4
            fy = self.y0 + (self.y1 - self.y0) * i / 4
            x, y = float(self.px(fx)), float(self.py(fy))
            self.parts += [
                _tag("line", x1=x, y1=bottom, x2=x, y2=bottom + 4, **grey),
                _tag("text", f"{fx:g}", x=x, y=bottom + 16, font_size=10, text_anchor="middle"),
                _tag("line", x1=MARGIN - 4, y1=y, x2=MARGIN, y2=y, **grey),
                _tag("text", f"{fy:g}", x=MARGIN - 6, y=y + 3, font_size=10, text_anchor="end")]
        if xlabel:
            self.parts.append(_tag("text", xlabel, x=WIDTH / 2, y=HEIGHT - 8, font_size=12,
                                   text_anchor="middle"))
        if ylabel:
            self.parts.append(_tag("text", ylabel, x=12, y=HEIGHT / 2, font_size=12,
                                   text_anchor="middle",
                                   transform=f"rotate(-90 12 {_fmt(HEIGHT / 2)})"))
        if title:
            self.parts.append(_tag("text", title, x=WIDTH / 2, y=MARGIN - 10, font_size=13,
                                   text_anchor="middle"))

    def scatter(self, xs, ys, color):
        self.parts += (_tag("circle", cx=x, cy=y, r=DOT_RADIUS, fill=color, fill_opacity="0.6")
                       for x, y in zip(self.px(xs), self.py(ys)))

    def polyline(self, xs, ys, color):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(self.px(xs), self.py(ys)))
        self.parts.append(_tag("polyline", points=pts, fill="none", stroke=color,
                               stroke_width="1.5"))

    def ellipse(self, mean, decomp: CovarianceDecomposition, scale, color, label=""):
        cx = float(self.px(mean[0]))
        cy = float(self.py(mean[1]))
        sx = (WIDTH - 2 * MARGIN) / (self.x1 - self.x0)
        sy = (HEIGHT - 2 * MARGIN) / (self.y1 - self.y0)
        if abs(sx - sy) > 1e-9 * sx:
            raise InvalidParameterError(
                "ellipse overlays need equal x/y scales; pad the axis limits")
        rx = scale * decomp.sigma_maj * sx
        ry = scale * decomp.sigma_min * sx
        angle = -math.degrees(decomp.theta) if self.flip_y else math.degrees(decomp.theta)
        self.parts.append(_tag(
            "ellipse", cx=0, cy=0, rx=rx, ry=ry, fill="none", stroke=color, stroke_width="1.5",
            transform=f"translate({_fmt(cx)} {_fmt(cy)}) rotate({_fmt(angle)})"))
        if label:
            self.parts.append(_tag("text", label, x=cx + 4, y=cy - 4, font_size=10, fill=color))

    def legend(self, entries):
        for i, (label, color) in enumerate(entries):
            y = MARGIN + 14 + 14 * i
            self.parts += [_tag("line", x1=WIDTH - MARGIN - 70, y1=y, x2=WIDTH - MARGIN - 54,
                                y2=y, stroke=color, stroke_width=2),
                           _tag("text", label, x=WIDTH - MARGIN - 50, y=y + 3, font_size=10)]


def _square_limits(xs, ys, pad_frac=0.1):
    """Equal-scale limits covering the data, padded, centered."""
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    half = max(x_hi - x_lo, (y_hi - y_lo) * (WIDTH - 2 * MARGIN) / (HEIGHT - 2 * MARGIN),
               1e-6) * (0.5 + pad_frac)
    cx = 0.5 * (x_lo + x_hi)
    cy = 0.5 * (y_lo + y_hi)
    aspect = (HEIGHT - 2 * MARGIN) / (WIDTH - 2 * MARGIN)
    return (cx - half, cx + half), (cy - half * aspect, cy + half * aspect)


def render_offset_scatter(offsets, overlays=(), scale: float = 3.0, title: str = "") -> str:
    """Scatter of (pred - target) offsets with covariance ellipses at `scale` sigma.

    overlays: [(label, CovarianceDecomposition), ...] centered on the offset mean.
    """
    offsets = np.asarray(offsets, dtype=np.float64).reshape(-1, 2)
    reach = [np.abs(offsets).max()]
    for _, d in overlays:
        reach.append(scale * d.sigma_maj)
    lim = max(max(reach), 1e-3)
    xlim, ylim = _square_limits([-lim, lim], [-lim, lim])
    ax = _Axes(xlim, ylim, "offset x (px)", "offset y (px)", title)
    ax.scatter(offsets[:, 0], offsets[:, 1], PALETTE[0])
    center = offsets.mean(axis=0)
    for i, (label, d) in enumerate(overlays):
        ax.ellipse(center, d, scale, PALETTE[(i + 1) % len(PALETTE)], label)
    return svg_document(ax.parts)


def render_ellipse_overlay(image_shape, items, scale: float = 3.0, title: str = "") -> str:
    """Covariance ellipses in image coordinates over the image's extent box.

    items: [(label, mean_xy, CovarianceDecomposition), ...]
    """
    h, w = image_shape
    xlim, ylim = _square_limits([0.0, w - 1.0], [0.0, h - 1.0], pad_frac=0.05)
    ax = _Axes(xlim, ylim, "x (px)", "y (px)", title, flip_y=False)
    for i, (label, mean, d) in enumerate(items):
        color = PALETTE[i % len(PALETTE)]
        x, y = float(ax.px(mean[0])), float(ax.py(mean[1]))
        ax.parts += [_tag("line", x1=x - 3, y1=y, x2=x + 3, y2=y, stroke=color, stroke_width=1),
                     _tag("line", x1=x, y1=y - 3, x2=x, y2=y + 3, stroke=color, stroke_width=1)]
        ax.ellipse(mean, d, scale, color, label)
    return svg_document(ax.parts)


def render_accuracy_curve(curves, title: str = "") -> str:
    """Accuracy-vs-fraction-considered lines; curves: {label: [(frac, acc%), ...]}."""
    if not curves:
        raise InvalidParameterError("need at least one curve")
    accs = [a for pts in curves.values() for _, a in pts]
    lo = min(min(accs) - 5.0, 95.0)
    ax = _Axes((0.0, 1.0), (max(lo, 0.0), 100.0), "fraction of images considered",
               "accuracy (%)", title)
    entries = []
    for i, (label, pts) in enumerate(sorted(curves.items())):
        color = PALETTE[i % len(PALETTE)]
        ax.polyline([p[0] for p in pts], [p[1] for p in pts], color)
        entries.append((label, color))
    ax.legend(entries)
    return svg_document(ax.parts)


def render_sigma_vs_error(products, errors, title: str = "") -> str:
    """Scatter of per-image fitted sigma products against point errors."""
    products = np.asarray(products, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if products.shape != errors.shape or products.size == 0:
        raise InvalidParameterError(
            f"need matching nonempty arrays, got {products.shape} and {errors.shape}")
    xlim = (0.0, max(float(products.max()) * 1.1, 1e-3))
    ylim = (0.0, max(float(errors.max()) * 1.1, 1e-3))
    ax = _Axes(xlim, ylim, "fitted sigma_maj * sigma_min (px^2)", "point error (px)",
               title)
    ax.scatter(products, errors, PALETTE[0])
    return svg_document(ax.parts)
