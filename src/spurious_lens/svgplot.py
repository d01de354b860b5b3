"""Minimal static SVG scatter plot for accuracy-pair fits.

Built on xml.etree so the output is well-formed by construction and
references nothing outside the file itself.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .evaluation import FitLine, Transform, transform_coordinates

_WIDTH = 480
_HEIGHT = 480
_MARGIN = 56
_TICKS = 5


def render_fit_svg(points, fit: FitLine) -> str:
    """Scatter of the points with the fitted line and a dashed y=x reference.

    Coordinates are drawn in the fit's own space, so a probit fit plots the
    probit-mapped accuracies and the fitted line stays straight.
    """
    x, y = transform_coordinates(points, fit.transform)
    lo = float(min(x.min(), y.min()))
    hi = float(max(x.max(), y.max()))
    span = hi - lo if hi > lo else 1.0
    lo -= 0.08 * span
    hi += 0.08 * span
    span = hi - lo

    def sx(v: float) -> float:
        return _MARGIN + (v - lo) / span * (_WIDTH - 2 * _MARGIN)

    def sy(v: float) -> float:
        return _HEIGHT - _MARGIN - (v - lo) / span * (_HEIGHT - 2 * _MARGIN)

    def fmt(v: float) -> str:
        return f"{v:.6g}"

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(_WIDTH),
        "height": str(_HEIGHT),
        "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
    })
    ET.SubElement(svg, "rect", {
        "x": "0", "y": "0", "width": str(_WIDTH), "height": str(_HEIGHT),
        "fill": "white",
    })
    ET.SubElement(svg, "rect", {
        "x": fmt(_MARGIN), "y": fmt(_MARGIN),
        "width": fmt(_WIDTH - 2 * _MARGIN), "height": fmt(_HEIGHT - 2 * _MARGIN),
        "fill": "none", "stroke": "black", "stroke-width": "1",
    })
    for i in range(_TICKS):
        v = lo + span * i / (_TICKS - 1)
        px, py = sx(v), sy(v)
        ET.SubElement(svg, "line", {
            "x1": fmt(px), "y1": fmt(_HEIGHT - _MARGIN),
            "x2": fmt(px), "y2": fmt(_HEIGHT - _MARGIN + 5),
            "stroke": "black", "stroke-width": "1",
        })
        tick_x = ET.SubElement(svg, "text", {
            "x": fmt(px), "y": fmt(_HEIGHT - _MARGIN + 18),
            "font-size": "10", "text-anchor": "middle",
            "font-family": "sans-serif",
        })
        tick_x.text = f"{v:.2f}"
        ET.SubElement(svg, "line", {
            "x1": fmt(_MARGIN - 5), "y1": fmt(py),
            "x2": fmt(_MARGIN), "y2": fmt(py),
            "stroke": "black", "stroke-width": "1",
        })
        tick_y = ET.SubElement(svg, "text", {
            "x": fmt(_MARGIN - 8), "y": fmt(py + 3),
            "font-size": "10", "text-anchor": "end",
            "font-family": "sans-serif",
        })
        tick_y.text = f"{v:.2f}"

    space = "accuracy" if fit.transform is Transform.LINEAR else "probit(accuracy)"
    x_label = ET.SubElement(svg, "text", {
        "x": fmt(_WIDTH / 2), "y": fmt(_HEIGHT - 12),
        "font-size": "12", "text-anchor": "middle", "font-family": "sans-serif",
    })
    x_label.text = f"easy {space}"
    y_label = ET.SubElement(svg, "text", {
        "x": "14", "y": fmt(_HEIGHT / 2),
        "font-size": "12", "text-anchor": "middle", "font-family": "sans-serif",
        "transform": f"rotate(-90 14 {fmt(_HEIGHT / 2)})",
    })
    y_label.text = f"hard {space}"

    # dashed y = x reference across the drawing range
    ET.SubElement(svg, "line", {
        "x1": fmt(sx(lo)), "y1": fmt(sy(lo)),
        "x2": fmt(sx(hi)), "y2": fmt(sy(hi)),
        "stroke": "gray", "stroke-width": "1", "stroke-dasharray": "6 4",
    })
    ET.SubElement(svg, "line", {
        "x1": fmt(sx(lo)), "y1": fmt(sy(fit.slope * lo + fit.intercept)),
        "x2": fmt(sx(hi)), "y2": fmt(sy(fit.slope * hi + fit.intercept)),
        "stroke": "crimson", "stroke-width": "1.5",
    })
    for px, py in zip(x, y):
        ET.SubElement(svg, "circle", {
            "cx": fmt(sx(float(px))), "cy": fmt(sy(float(py))),
            "r": "3.5", "fill": "steelblue", "fill-opacity": "0.8",
            "stroke": "none",
        })
    caption = ET.SubElement(svg, "text", {
        "x": fmt(_MARGIN + 6), "y": fmt(_MARGIN - 8),
        "font-size": "11", "font-family": "sans-serif",
    })
    caption.text = (
        f"{fit.transform.value} fit: slope {fit.slope:.4f}, "
        f"intercept {fit.intercept:.4f}, rms {fit.residual_rms:.2e}"
    )
    return ET.tostring(svg, encoding="unicode", xml_declaration=True) + "\n"
