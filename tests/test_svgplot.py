import math
import re

import numpy as np
import pytest

from kstruve.svgplot import _min_max, render_line_chart
from reference_writers import reference_points


def _with_gaps(ys):
    ys = ys.copy()
    ys[::9] = math.nan
    ys[4::17] = math.inf
    ys[6::19] = -math.inf
    return ys


def _points(svg):
    return re.findall(r'<polyline points="([^"]*)"', svg)


@pytest.mark.parametrize(
    "series",
    [
        {"a": np.sin(np.linspace(0.0, 7.0, 300)), "b": np.linspace(-2.0, 3.5, 300) ** 3},
        {"a": [1.0, math.nan, 2.0, 0.5, math.nan], "b": [0.0, 1e-300, -1e-300, 3.0, 2.0]},
        {"a": [1.0, math.inf, 2.0, -1.0, 0.0], "b": [0.1, 0.2, 0.3, 0.4, 0.5]},
        {"a": [-math.inf, 1.0, 2.0, 3.0, 4.0], "b": [math.nan, 1.0, 1.0, 1.0, 1.0]},
        {"flat": [2.5, 2.5, 2.5, 2.5, 2.5]},
        # -0.0 and 0.0 in either order, and a NaN-free column whose minimum is 0:
        # the bounds where numpy's min and max may differ from Python's
        {"a": [0.0, -0.0, 1.0, 2.0, 0.5], "b": [-0.0, 0.0, 3.0, -0.0, 0.0]},
        {"a": [0.5, 0.0, 2.0, 1.0, 0.25]},
        # the float writer's row block less and more one, with non-finite points
        {"a": _with_gaps(np.cos(np.linspace(0.0, 9.0, 1023))), "b": np.linspace(-1.0, 1.0, 1023)},
        {"a": _with_gaps(np.linspace(-3.0, 1e3, 1025) ** 2)},
    ],
)
def test_polyline_points_match_per_point_reference(series):
    n = len(next(iter(series.values())))
    x = np.linspace(0.01, 1.0, n)
    svg = render_line_chart(x, series, title="t", xlabel="x", ylabel="y")
    assert _points(svg) == reference_points(x, series)


@pytest.mark.parametrize("x", [[0.5], [3.0, 3.0, 3.0], [-2e3]])
def test_single_x_value_is_padded(x):
    # xmax == xmin: the x range is widened by max(|x|, 1) * 0.05 on each side
    series = {"a": [float(i) for i in range(len(x))]}
    svg = render_line_chart(x, series, title="t", xlabel="x", ylabel="y")
    points = _points(svg)
    assert points == reference_points(x, series)
    assert {p.split(",")[0] for p in points[0].split()} == {"315"}  # the middle of the plot
    assert svg.count("<line x1=") == 12 + len(series)  # six ticks on each axis and the legend


@pytest.mark.parametrize(
    "values",
    [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [-1.0, 0.0, -0.0], [-1.0, -0.0, 0.0],
     [2.0, math.nan, 1.0], [math.nan, 2.0, 1.0], [3.0, -math.inf, math.inf]],
)
def test_axis_bounds_are_pythons_min_and_max(values):
    # numpy's min of the first values is -0.0, and its min and max propagate a NaN
    assert repr(_min_max(np.array(values))) == repr((min(values), max(values)))


def test_empty_axis_is_pythons_error():
    with pytest.raises(ValueError, match="empty sequence"):
        _min_max(np.array([]))


def test_list_and_array_inputs_agree():
    x = [0.1 * i for i in range(1, 40)]
    ys = [math.cos(v) for v in x]
    as_lists = render_line_chart(x, {"c": ys}, title="t", xlabel="x", ylabel="y")
    as_arrays = render_line_chart(
        np.array(x), {"c": np.array(ys)}, title="t", xlabel="x", ylabel="y"
    )
    assert as_lists == as_arrays
