"""The fit SVG puts every mark where the plot's scale says.

Both axes share one linear scale in the fit's own coordinates (probit-mapped
for a probit fit): the range of all x and y values, widened by 8% of its
span at each end, runs from the frame's left edge to its right edge and
from its bottom edge to its top edge.  Positions read back through that
scale must give the points, the fitted line, the y = x reference and the
tick values.
"""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spurious_lens import Point, effective_robustness_fit
from spurious_lens.evaluation import FitLine, Transform, transform_coordinates
from spurious_lens.svgplot import render_fit_svg

WIDTH = HEIGHT = 480
MARGIN = 56
# x and y ranges that differ, away from 0 and of a span other than 1, so a
# scale that mixes up the axes, the offset or the span misplaces the marks
POINTS = [Point("a", 0.62, 0.41), Point("b", 0.70, 0.52), Point("c", 0.81, 0.58),
          Point("d", 0.93, 0.77)]


def _elements(svg: str, tag: str) -> list[ET.Element]:
    return [e for e in ET.fromstring(svg).iter() if e.tag.rsplit("}", 1)[-1] == tag]


def _plot(transform):
    """The SVG, its fit and transformed points, and the inverse of its
    scale on each axis."""
    fit = effective_robustness_fit(POINTS, transform)
    x, y = transform_coordinates(POINTS, transform)
    lo, hi = min(x.min(), y.min()), max(x.max(), y.max())
    lo, hi = lo - 0.08 * (hi - lo), hi + 0.08 * (hi - lo)

    def value_x(px: str) -> float:
        return lo + (float(px) - MARGIN) / (WIDTH - 2 * MARGIN) * (hi - lo)

    def value_y(py: str) -> float:
        return lo + (HEIGHT - MARGIN - float(py)) / (HEIGHT - 2 * MARGIN) * (hi - lo)

    return render_fit_svg(POINTS, fit), fit, (x, y), (lo, hi), value_x, value_y


@pytest.mark.parametrize("transform", list(Transform))
def test_points_and_lines_read_back_through_the_scale(transform):
    svg, fit, (x, y), (lo, hi), value_x, value_y = _plot(transform)
    # positions are written to 6 significant digits: about 1e-3 px
    tol = 1e-5 * (hi - lo)
    circles = [(value_x(c.get("cx")), value_y(c.get("cy"))) for c in _elements(svg, "circle")]
    np.testing.assert_allclose(circles, np.column_stack([x, y]), rtol=0, atol=tol)
    lines = {line.get("stroke"): line for line in _elements(svg, "line")}
    for stroke, slope, intercept in (("gray", 1.0, 0.0),
                                     ("crimson", fit.slope, fit.intercept)):
        line = lines[stroke]
        ends = [(value_x(line.get(f"x{i}")), value_y(line.get(f"y{i}"))) for i in (1, 2)]
        np.testing.assert_allclose(
            ends, [(lo, slope * lo + intercept), (hi, slope * hi + intercept)],
            rtol=0, atol=tol * (1 + abs(slope)))


@pytest.mark.parametrize("transform", list(Transform))
def test_tick_labels_name_their_ticks(transform):
    svg, _, _, (lo, hi), value_x, value_y = _plot(transform)
    tol = 1e-5 * (hi - lo)
    lines, texts = _elements(svg, "line"), _elements(svg, "text")
    x_ticks = [t for t in lines if float(t.get("y2")) == HEIGHT - MARGIN + 5]
    y_ticks = [t for t in lines if float(t.get("x1")) == MARGIN - 5]
    x_labels = [t for t in texts if t.get("y") == str(HEIGHT - MARGIN + 18)]
    y_labels = [t for t in texts if t.get("text-anchor") == "end"]
    assert len(x_ticks) == len(y_ticks) == len(x_labels) == len(y_labels) == 5
    values = np.linspace(lo, hi, 5)
    for value, tick, label in zip(values, x_ticks, x_labels):
        assert value_x(tick.get("x1")) == pytest.approx(value, abs=tol)
        assert label.get("x") == tick.get("x1")
        assert float(label.text) == pytest.approx(value, abs=0.005 + tol)
    for value, tick, label in zip(values, y_ticks, y_labels):
        assert value_y(tick.get("y1")) == pytest.approx(value, abs=tol)
        # right-aligned left of the tick mark, a 10 px label is centred on
        # its tick when its baseline lies 3 px below it
        assert float(label.get("x")) < float(tick.get("x1"))
        assert float(label.get("y")) - float(tick.get("y1")) == pytest.approx(3, abs=1e-3)
        assert float(label.text) == pytest.approx(value, abs=0.005 + tol)


@pytest.mark.parametrize("fit,sha256", [
    (FitLine(0.875, -0.125, Transform.LINEAR, 0.0234375),
     "23a5b33a3f5c717c4d08c2a537550bc3c20e2cfe92a151fcece385d5b134c3de"),
    (FitLine(1.125, -0.375, Transform.PROBIT, 0.046875),
     "c91fb371472782d4c307a6e96827714c5f059b3b261791e6ecc209866ac7bea3"),
], ids=["linear", "probit"])
def test_svg_bytes_are_pinned(fit, sha256):
    # the fit is given, not solved, so the bytes do not depend on the BLAS;
    # the hashes pin every attribute, its order and each number's format
    svg = render_fit_svg(POINTS, fit)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == sha256


ACCURACY = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(ACCURACY, ACCURACY), min_size=1, max_size=39),
       tie=st.booleans(), transform=st.sampled_from(list(Transform)),
       slope=st.floats(-1e6, 1e6), intercept=st.floats(-1e6, 1e6),
       rms=st.floats(0.0, 1e6))
def test_every_svg_is_well_formed(pairs, tie, transform, slope, intercept, rms):
    # the SVG is written as text: a parser must read back every mark
    points = [Point(f"p{i}", pairs[0][0] if tie else easy, hard)
              for i, (easy, hard) in enumerate(pairs)]
    svg = render_fit_svg(points, FitLine(slope, intercept, transform, rms))
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(_elements(svg, "circle")) == len(points)
    assert len(_elements(svg, "line")) == 2 * 5 + 2
    *_, title = _elements(svg, "text")
    assert title.text == (f"{transform.value} fit: slope {slope:.4f}, "
                          f"intercept {intercept:.4f}, rms {rms:.2e}")
