import math
import re

import pytest

from wgcorr.svgplot import line_plot


def points(text):
    """The (x, y) pixel pairs of every polyline."""
    return [[tuple(map(float, p.split(","))) for p in pts.split()]
            for pts in re.findall(r'<polyline points="([^"]*)"', text)]


def tick_labels(text):
    return re.findall(r'font-size="11">([^<]*)</text>', text)


@pytest.mark.parametrize("x, series, kwargs", [
    ([1.0, 2.0], [("P", [math.nan, -1.0])], {"logy": True}),     # no finite positive y
    ([-1.0, 0.0], [("P", [1.0, 2.0])], {"logx": True}),          # no positive x
    ([math.nan, math.inf], [("P", [1.0, 2.0])], {}),             # no finite x
], ids=["no_positive_y", "no_positive_x", "no_finite_x"])
def test_plot_with_nothing_to_place_spans_one_to_ten(tmp_path, x, series, kwargs):
    path = tmp_path / "p.svg"
    line_plot(path, x, series, title="empty", **kwargs)
    text = path.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert points(text) == [] and "nan" not in text
    assert "10" in tick_labels(text)


def test_samples_that_are_not_finite_are_skipped(tmp_path):
    path = tmp_path / "p.svg"
    line_plot(path, [0.0, 1.0, 2.0, math.inf], [("P", [1.0, math.nan, 3.0, 4.0])])
    text = path.read_text()
    (line,) = points(text)
    assert [x for x, _ in line] == [72.0, 776.0]   # x = 0 and 2, at the frame's edges
    assert "nan" not in text and "inf" not in text


def test_overflowing_span_gets_one_tick_and_the_plot_is_written(tmp_path):
    # 1e308 - (-1e308) overflows: the x axis gets one tick, at its left end
    path = tmp_path / "p.svg"
    line_plot(path, [-1e308, 1e308], [("P", [1.0, 2.0])])
    text = path.read_text()
    assert text.endswith("</svg>\n")
    assert [t for t in tick_labels(text) if "e+308" in t] == ["-1e+308"]


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [-1e308, 1e308]),
    ([0.0, 1.0], [-1.7e308, 1.7e308]),   # the padded frame would pass the float range
    ([-1e308, 1e308], [1.0, 2.0]),
], ids=["y_span", "y_span_at_the_float_limit", "x_span"])
def test_overflowing_span_places_every_sample_in_the_frame(tmp_path, x, y):
    path = tmp_path / "p.svg"
    line_plot(path, x, [("P", y)], title="decay (verdict: ok)")
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    assert "decay (verdict: ok)</text>" in text
    (line,) = points(text)
    assert len(line) == 2
    assert all(72.0 <= px <= 776.0 and 40.0 <= py <= 464.0 for px, py in line)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [4.4e16, 4.4e16]),   # the one mass of a 1e-16 square section
    ([1e17], [1.0]),
], ids=["one_y", "one_x"])
def test_one_value_where_adding_one_changes_nothing_gets_a_frame(tmp_path, x, y):
    # the unit span of a single value vanished in round-off and the mapping
    # divided by zero
    path = tmp_path / "p.svg"
    line_plot(path, x, [("m", y)])
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    assert len(points(text)[0]) == len(x)
