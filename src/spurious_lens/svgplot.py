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


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _line(svg: ET.Element, x1: float, y1: float, x2: float, y2: float,
          stroke: str = "black", width: str = "1", dash: str | None = None) -> None:
    attrs = {"x1": _fmt(x1), "y1": _fmt(y1), "x2": _fmt(x2), "y2": _fmt(y2),
             "stroke": stroke, "stroke-width": width, "stroke-dasharray": dash}
    ET.SubElement(svg, "line", {k: v for k, v in attrs.items() if v is not None})


def _text(svg: ET.Element, x: float, y: float, text: str, size: str,
          anchor: str | None = None, rotate: bool = False) -> None:
    """Sans-serif ``text`` at (x, y), turned a quarter left about that point
    when ``rotate``."""
    turn = f"rotate(-90 {_fmt(x)} {_fmt(y)})" if rotate else None
    attrs = {"x": _fmt(x), "y": _fmt(y), "font-size": size, "text-anchor": anchor,
             "font-family": "sans-serif", "transform": turn}
    ET.SubElement(svg, "text", {k: v for k, v in attrs.items() if v is not None}).text = text


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
        "x": _fmt(_MARGIN), "y": _fmt(_MARGIN),
        "width": _fmt(_WIDTH - 2 * _MARGIN), "height": _fmt(_HEIGHT - 2 * _MARGIN),
        "fill": "none", "stroke": "black", "stroke-width": "1",
    })
    bottom = _HEIGHT - _MARGIN
    for i in range(_TICKS):
        v = lo + span * i / (_TICKS - 1)
        px, py = sx(v), sy(v)
        _line(svg, px, bottom, px, bottom + 5)
        _text(svg, px, bottom + 18, f"{v:.2f}", "10", "middle")
        _line(svg, _MARGIN - 5, py, _MARGIN, py)
        _text(svg, _MARGIN - 8, py + 3, f"{v:.2f}", "10", "end")

    space = "accuracy" if fit.transform is Transform.LINEAR else "probit(accuracy)"
    _text(svg, _WIDTH / 2, _HEIGHT - 12, f"easy {space}", "12", "middle")
    _text(svg, 14, _HEIGHT / 2, f"hard {space}", "12", "middle", rotate=True)

    # dashed y = x reference across the drawing range
    _line(svg, sx(lo), sy(lo), sx(hi), sy(hi), "gray", dash="6 4")
    _line(svg, sx(lo), sy(fit.slope * lo + fit.intercept),
          sx(hi), sy(fit.slope * hi + fit.intercept), "crimson", "1.5")
    for px, py in zip(x, y):
        ET.SubElement(svg, "circle", {
            "cx": _fmt(sx(float(px))), "cy": _fmt(sy(float(py))),
            "r": "3.5", "fill": "steelblue", "fill-opacity": "0.8",
            "stroke": "none",
        })
    _text(svg, _MARGIN + 6, _MARGIN - 8,
          f"{fit.transform.value} fit: slope {fit.slope:.4f}, "
          f"intercept {fit.intercept:.4f}, rms {fit.residual_rms:.2e}", "11")
    return ET.tostring(svg, encoding="unicode", xml_declaration=True) + "\n"
