"""Minimal self-contained SVG line charts (no plotting dependency).

Emits SVG 1.1 with linear axes, tick labels, one polyline per series and a
legend.  Output is deterministic: every float is written as ``%.6g`` writes
it, and the palette is fixed.
"""

from __future__ import annotations

import numpy as np

from ._floatfmt import cells, join

__all__ = ["render_line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 160, 40, 55  # margins: left, right, top, bottom


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _min_max(v: np.ndarray) -> tuple[float, float]:
    """Python's min and max over ``v.tolist()``."""
    lo, hi = (v.min(), v.max()) if v.size else (0.0, 0.0)
    if np.isnan(lo) or lo == 0.0 or hi == 0.0:  # a NaN or a signed zero: the order of v counts
        return min(v.tolist()), max(v.tolist())
    return float(lo), float(hi)


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_line_chart(x, series, title: str, xlabel: str, ylabel: str) -> str:
    """Return an SVG document plotting each (label -> values) series over x."""
    x = np.asarray(x, dtype=float)
    columns = {label: np.asarray(ys, dtype=float) for label, ys in series.items()}
    xmin, xmax = _min_max(x)
    if xmax == xmin:  # a single x value sits in the middle of a padded range
        xpad = max(abs(xmax), 1.0) * 0.05
        xmin -= xpad
        xmax += xpad
    bounds = [_min_max(ys) for ys in columns.values()]
    ymin = min(lo for lo, _ in bounds)
    ymax = max(hi for _, hi in bounds)
    pad = 0.05 * (ymax - ymin) if ymax > ymin else max(abs(ymax), 1.0) * 0.05
    ymin -= pad
    ymax += pad
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(v):
        return _ML + (v - xmin) / (xmax - xmin) * plot_w

    def sy(v):
        return _MT + (ymax - v) / (ymax - ymin) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for tv in _ticks(xmin, xmax):
        px = sx(tv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MT + plot_h}" x2="{_fmt(px)}" '
            f'y2="{_MT + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MT + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tv)}</text>'
        )
    for tv in _ticks(ymin, ymax):
        py = sy(tv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tv)}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MT + plot_h // 2})">{ylabel}</text>'
    )
    # sx and sy at every point, in the same operation order; as in Python
    # float arithmetic, an infinite axis bound gives inf or nan silently.
    # Each x coordinate is formatted once per chart.
    with np.errstate(all="ignore"):
        px = cells(_ML + (x - xmin) / (xmax - xmin) * plot_w, 6)
    for idx, (label, ys) in enumerate(columns.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        finite = np.isfinite(ys)
        if finite.all():  # no copy of the columns
            finite = slice(None)
        with np.errstate(all="ignore"):
            py = _MT + (ymax - ys[finite]) / (ymax - ymin) * plot_h
        pts = join(np.stack([px[finite], cells(py, 6)], axis=1), b", ")[:-1].decode("ascii")
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 18 + 20 * idx
        lx = _W - _MR + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
