import re

import numpy as np
import pytest

from breakeven.svg import Panel, Series, render_panel


def simple_panel(**over):
    base = dict(
        title="demo",
        x_label="step",
        y_label="value",
        series=[
            Series(label="a", xs=list(range(10)), ys=[float(i * i) for i in range(10)]),
            Series(label="b", xs=list(range(10)), ys=[float(i) for i in range(10)]),
        ],
    )
    base.update(over)
    return Panel(**base)


def test_deterministic_bytes():
    p = simple_panel()
    assert render_panel(p) == render_panel(p)


def test_no_timestamps_or_randomness():
    svg = render_panel(simple_panel())
    assert "date" not in svg.lower()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


@pytest.mark.parametrize(
    "ys, polylines, circles",
    [
        ([1.0, 2.0, None, 4.0, 5.0], 2, 0),
        # a value with a missing value on each side, as null g_ratio readings leave
        ([1.0, None, 2.0, None, 3.0], 0, 3),
        ([1.0, 2.0, None, 3.0, None, 4.0, 5.0, None, 6.0], 2, 2),
    ],
)
def test_missing_values_split_polyline(ys, polylines, circles):
    p = simple_panel(series=[Series(label="a", xs=list(range(len(ys))), ys=ys)])
    svg = render_panel(p)
    assert svg.count("<polyline") == polylines
    assert svg.count("<circle") == circles


def test_log_scale_clamps_nonpositive_with_footnote():
    p = simple_panel(
        series=[Series(label="a", xs=[0, 1, 2, 3], ys=[0.0, 0.1, 1.0, 10.0])], log_y=True
    )
    svg = render_panel(p)
    assert "clamped" in svg


def test_log_scale_all_nonpositive_falls_back():
    p = simple_panel(series=[Series(label="a", xs=[0, 1], ys=[-1.0, -2.0])], log_y=True)
    svg = render_panel(p)
    assert "log scale unavailable" in svg


def test_vlines_rendered_with_labels():
    p = simple_panel(vlines=[(5, "acc>0.6")])
    svg = render_panel(p)
    assert "stroke-dasharray" in svg
    assert "acc&gt;0.6" in svg


def test_escaping():
    p = simple_panel(title='<&">')
    svg = render_panel(p)
    assert "&lt;&amp;&quot;&gt;" in svg


def test_single_point_series_renders_circle():
    p = simple_panel(series=[Series(label="a", xs=[3], ys=[2.0])])
    assert "<circle" in render_panel(p)


@pytest.mark.parametrize(
    "ys",
    [
        [1e20],
        [-3e300],
        # 1e16 + 2 is the next float after 1e16: a tick step of 0.5 cannot
        # advance at this magnitude
        [1e16, 1.0000000000000002e16],
        [12345.0, 12346.0, 12347.0],
        # finite, but the padded range and its span are past the float range
        [-1.7e308, 1.7e308],
    ],
)
def test_nearly_constant_large_values_render_with_few_ticks(ys):
    svg = render_panel(simple_panel(series=[Series(label="a", xs=list(range(len(ys))), ys=ys)]))
    assert svg.count("<circle") + svg.count("<polyline") == 1
    assert 1 <= svg.count('font-size="10" text-anchor="end"') <= 6
    assert "nan" not in svg and "inf" not in svg
    # each label carries the digits its tick step needs
    labels = re.findall(r'font-size="10" text-anchor="end">([^<]*)<', svg)
    assert all(a != b for a, b in zip(labels, labels[1:]))
