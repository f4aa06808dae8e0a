import math
import re

import numpy as np
import pytest

from kstruve.svgplot import render_line_chart


def _reference_points(x, series):
    """Polyline points as the per-point writer made them: sx, sy and ".6g" per point."""
    x = [float(v) for v in x]
    xmin, xmax = min(x), max(x)
    ymin = min(min(float(v) for v in ys) for ys in series.values())
    ymax = max(max(float(v) for v in ys) for ys in series.values())
    pad = 0.05 * (ymax - ymin) if ymax > ymin else max(abs(ymax), 1.0) * 0.05
    ymin -= pad
    ymax += pad
    plot_w, plot_h = 720 - 70 - 160, 480 - 40 - 55

    def sx(v):
        return 70 + (v - xmin) / (xmax - xmin) * plot_w

    def sy(v):
        return 40 + (ymax - v) / (ymax - ymin) * plot_h

    return [
        " ".join(
            f"{format(sx(xv), '.6g')},{format(sy(float(yv)), '.6g')}"
            for xv, yv in zip(x, ys)
            if math.isfinite(float(yv))
        )
        for ys in series.values()
    ]


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
    ],
)
def test_polyline_points_match_per_point_reference(series):
    n = len(next(iter(series.values())))
    x = np.linspace(0.01, 1.0, n)
    svg = render_line_chart(x, series, title="t", xlabel="x", ylabel="y")
    assert _points(svg) == _reference_points(x, series)


def test_list_and_array_inputs_agree():
    x = [0.1 * i for i in range(1, 40)]
    ys = [math.cos(v) for v in x]
    as_lists = render_line_chart(x, {"c": ys}, title="t", xlabel="x", ylabel="y")
    as_arrays = render_line_chart(
        np.array(x), {"c": np.array(ys)}, title="t", xlabel="x", ylabel="y"
    )
    assert as_lists == as_arrays
