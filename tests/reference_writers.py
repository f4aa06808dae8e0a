"""Per-row and per-point ``%`` writers: the reference the vectorised output is held to.

``reference_csv`` and ``reference_columns`` are the CSV writer the CLI used
before its numbers went through ``kstruve._floatfmt``; ``reference_points``
writes SVG polyline points one ``.6g`` format call at a time.
"""

import math

import numpy as np


def reference_csv(meta, header, row_format, rows):
    """The metadata and header lines, then ``row_format % row`` for each row."""
    lines = [meta, header]
    lines.extend(row_format % row for row in rows)
    return "\n".join(lines) + "\n"


def reference_columns(*columns):
    """Rows of Python floats, one from each column."""
    return zip(*(col.tolist() for col in columns))


def reference_points(x, series):
    """Polyline points as the per-point writer made them: sx, sy and ".6g" per point.

    A single x value (xmin == xmax) is padded by max(|x|, 1) * 0.05 on each
    side, as a flat y range is.
    """
    x = [float(v) for v in x]
    xmin, xmax = min(x), max(x)
    if xmax == xmin:
        xmin, xmax = xmin - max(abs(xmax), 1.0) * 0.05, xmax + max(abs(xmax), 1.0) * 0.05
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

    with np.errstate(all="ignore"):
        return [
            " ".join(
                f"{format(sx(xv), '.6g')},{format(sy(float(yv)), '.6g')}"
                for xv, yv in zip(x, ys)
                if math.isfinite(float(yv))
            )
            for ys in series.values()
        ]
