"""SVG chart rendering: structure, determinism, degenerate data."""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from epibias.charts import LineSeries, _nice_step, render_line_chart

NS = {"svg": "http://www.w3.org/2000/svg"}


def render_simple(**kwargs):
    series = [
        LineSeries("rising", (0.0, 1.0, 2.0), (0.0, 0.5, 2.0)),
        LineSeries("falling", (0.0, 1.0, 2.0), (2.0, 1.0, 0.2)),
    ]
    return render_line_chart(series, title="demo", x_label="x", y_label="y", **kwargs)


def test_output_is_well_formed_svg():
    doc = render_simple()
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert doc.endswith("\n")


def test_deterministic():
    assert render_simple() == render_simple()


def test_series_and_labels_present():
    doc = render_simple()
    assert "rising" in doc and "falling" in doc
    assert "demo" in doc and ">x<" in doc and ">y<" in doc
    root = ET.fromstring(doc)
    polylines = root.findall(".//svg:polyline", NS)
    # two data series plus any axis strokes drawn as lines, not polylines
    assert len(polylines) >= 2


@pytest.mark.parametrize("xs,ys,message", [
    ((0.0, 1.0), (1.0,), "2 x values, 1 y values"),
    ((), (), "is empty"),
])
def test_unplottable_series_is_refused(xs, ys, message):
    with pytest.raises(ValueError, match=message):
        LineSeries("bad", xs, ys)


def test_no_series_is_refused():
    with pytest.raises(ValueError, match="nothing to plot"):
        render_line_chart([], title="", x_label="t", y_label="v")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_value_is_refused(axis, value):
    # The figures plot finite values only, so a series has no gaps to draw.
    xs, ys = [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]
    (xs if axis == "x" else ys)[1] = value
    with pytest.raises(ValueError, match="not finite"):
        LineSeries("gappy", tuple(xs), tuple(ys))


def test_isolated_point_becomes_a_circle():
    # A one-point series, as the summary chart of a single threshold is.
    series = [LineSeries("dot", (1.0,), (5.0,))]
    doc = render_line_chart(series, title="", x_label="t", y_label="v")
    root = ET.fromstring(doc)
    assert root.findall(".//svg:circle", NS)


@pytest.mark.parametrize("raw,step", [
    (0.1, 0.1), (1.0, 1.0), (1.5, 2.0), (2.0, 2.0), (3.0, 5.0), (5.0, 5.0), (7.0, 10.0),
    (100.0, 100.0),
])
def test_tick_step_rounds_up_to_1_2_or_5_times_a_power_of_ten(raw, step):
    assert _nice_step(raw) == step


def test_constant_series_does_not_collapse_the_scale():
    series = [LineSeries("flat", (0.0, 1.0), (3.0, 3.0))]
    doc = render_line_chart(series, title="", x_label="t", y_label="v")
    ET.fromstring(doc)
    # a flat series must not produce divide-by-zero coordinates
    assert "nan" not in doc.lower()
    assert "inf" not in doc.lower()


def test_many_series_cycle_palette():
    series = [
        LineSeries(f"s{k}", (0.0, 1.0), (float(k), float(k + 1))) for k in range(10)
    ]
    doc = render_line_chart(series, title="", x_label="t", y_label="v")
    root = ET.fromstring(doc)
    assert len(root.findall(".//svg:polyline", NS)) >= 10


# sha256 of the SVG text for the branches no figure golden draws, recorded
# before the chart elements were drawn through shared helpers; the bytes
# must not move.
BRANCH_CHARTS = {
    "one point": ([LineSeries("dot", (1.0,), (5.0,))], "", "t", "v"),
    "constant": ([LineSeries("flat", (0.0, 1.0), (3.0, 3.0))], "", "t", "v"),
    "more series than colours": (
        [LineSeries(f"s{k}", (0.0, 1.0), (float(k), float(k + 1))) for k in range(10)],
        "", "t", "v"),
    "markup characters": (
        [LineSeries("a < b & c > d", (0.0, 1.0, 2.0), (1.0, -2.0, 0.5)),
         LineSeries("<&>", (0.5, 1.5), (0.0, 1.0))],
        "R&D <title>", "x > 0 & y", "<y & z>"),
}
BRANCH_GOLDEN = {
    "one point": "8267fb7830cc4fabe20d412be96a07b24e37ce7672b84415405978f6c557dc93",
    "constant": "7fae5d95146dc47fe3553c6f5ff04f7c3b18f473b98424fd5c14b7328381f456",
    "more series than colours": "1e454cf1af50aec13c2673cc53d532713a5e75e7da36a2bb8b61195ec131dba5",
    "markup characters": "f27f682145b46a0bc9d3e23c5974662159b4fe6bb975cf55d2dad5791a62c8ef",
}


@pytest.mark.parametrize("name", sorted(BRANCH_CHARTS))
def test_branch_golden_bytes(name):
    series, title, x_label, y_label = BRANCH_CHARTS[name]
    doc = render_line_chart(series, title=title, x_label=x_label, y_label=y_label)
    ET.fromstring(doc)
    assert hashlib.sha256(doc.encode()).hexdigest() == BRANCH_GOLDEN[name]
