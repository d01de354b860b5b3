"""Minimal static SVG scatter plot for accuracy-pair fits.

Written as text: every attribute and text is a number or a fixed word, so
nothing needs escaping, and the file references nothing outside itself.
"""

from __future__ import annotations

from .evaluation import FitLine, Transform, transform_coordinates

_WIDTH = 480
_HEIGHT = 480
_MARGIN = 56
_TICKS = 5


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "black",
          width: str = "1", dash: str = "") -> str:
    dash = dash and f' stroke-dasharray="{dash}"'
    return (f'<line x1="{x1:.6g}" y1="{y1:.6g}" x2="{x2:.6g}" y2="{y2:.6g}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash} />')


def _text(x: float, y: float, text: str, size: str, anchor: str = "",
          rotate: bool = False) -> str:
    """Sans-serif ``text`` at (x, y), turned a quarter left about that point
    when ``rotate``."""
    anchor = anchor and f' text-anchor="{anchor}"'
    turn = f' transform="rotate(-90 {x:.6g} {y:.6g})"' if rotate else ""
    return (f'<text x="{x:.6g}" y="{y:.6g}" font-size="{size}"{anchor} '
            f'font-family="sans-serif"{turn}>{text}</text>')


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

    w, h, bottom = _WIDTH, _HEIGHT, _HEIGHT - _MARGIN
    parts = ["<?xml version='1.0' encoding='utf-8'?>\n"
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}"><rect x="0" y="0" width="{w}" height="{h}" fill="white" />'
             f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{w - 2 * _MARGIN}" '
             f'height="{h - 2 * _MARGIN}" fill="none" stroke="black" stroke-width="1" />']
    for i in range(_TICKS):
        v = lo + span * i / (_TICKS - 1)
        px, py = sx(v), sy(v)
        parts += [_line(px, bottom, px, bottom + 5),
                  _text(px, bottom + 18, f"{v:.2f}", "10", "middle"),
                  _line(_MARGIN - 5, py, _MARGIN, py),
                  _text(_MARGIN - 8, py + 3, f"{v:.2f}", "10", "end")]
    space = "accuracy" if fit.transform is Transform.LINEAR else "probit(accuracy)"
    parts += [_text(w / 2, h - 12, f"easy {space}", "12", "middle"),
              _text(14, h / 2, f"hard {space}", "12", "middle", rotate=True),
              # dashed y = x reference across the drawing range
              _line(sx(lo), sy(lo), sx(hi), sy(hi), "gray", dash="6 4"),
              _line(sx(lo), sy(fit.slope * lo + fit.intercept),
                    sx(hi), sy(fit.slope * hi + fit.intercept), "crimson", "1.5")]
    parts += [f'<circle cx="{sx(float(px)):.6g}" cy="{sy(float(py)):.6g}" r="3.5" '
              'fill="steelblue" fill-opacity="0.8" stroke="none" />' for px, py in zip(x, y)]
    title = (f"{fit.transform.value} fit: slope {fit.slope:.4f}, "
             f"intercept {fit.intercept:.4f}, rms {fit.residual_rms:.2e}")
    return "".join(parts) + _text(_MARGIN + 6, _MARGIN - 8, title, "11") + "</svg>\n"
