"""Exact ``%.17g`` and ``%.6g`` text for float64 arrays, vectorised.

``cells(values, precision)`` gives one fixed-width row of bytes per value;
with its NUL bytes deleted, row i is exactly ``'%.{precision}g' % values[i]``.
``join`` lays cells out as delimited rows and deletes the NUL bytes, and
``csv_rows`` and ``long_rows`` format and join table columns a block of rows
at a time, so the working set stays small whatever the table length.

Method.  For P significant digits and |x| in [1e-250, 1e250], the decimal
exponent e = floor(log10|x|) comes from ``np.log10`` and is corrected by
one where the scaled value leaves [10^(P-1), 10^P).  The scaled value
y = |x| * 10^(P-1-e) is a double-double (Dekker 1971): 10^k is held as a
pair hi + lo within 2^-106 relative of 10^k, built from Python integers,
and x * hi is an exact Dekker product.  y < 2^57 and its three roundings and
the table error are each below 2^-105 relative, so the integer and
fractional parts of y are within 2^-46 of the exact ones.  The P digits are
the integer part rounded by the fractional part; they come from a table of
4-digit ASCII chunks, and the ``%g`` layout (fixed or exponent form,
trailing zeros dropped) from tables indexed by the decimal exponent.

Fallback rule.  A cell is formatted with Python's ``%`` instead when x is
not finite, |x| is outside [1e-250, 1e250] (zero included), the fractional
part of y is within 2^-40 of 1/2 (so its rounding is not proven, exact ties
included), or y is still outside [10^(P-1), 10^P) after the one correction.

Tables are built on first use, once per precision.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["cells", "csv_rows", "join", "long_rows"]

_E_LO, _E_HI = -260, 260  # decimal exponents the tables cover; the fast path needs [-252, 252]
_X_MIN, _X_MAX = 1e-250, 1e250
_TIE_BAND = 2.0**-40
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_BLOCK = 1024  # table rows formatted per pass of csv_rows


def _pow10(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi is 10**k rounded, lo the remainder rounded."""
    if k >= 0:
        v = 10**k
        hi = float(v)
        return hi, float(v - int(hi))
    d = 10**-k
    hi = 1 / d  # int / int division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables(precision: int) -> SimpleNamespace:
    p = precision
    e = np.arange(_E_LO, _E_HI + 1)
    hi, lo = map(np.array, zip(*(_pow10(p - 1 - int(k)) for k in e)))
    hi_h, hi_l = _split(hi)
    nch = (p + 3) // 4  # 4-digit chunks; the first 4 * nch - p digits are leading zeros
    width = 4 * nch
    # digits 0000..9999 as 4 ASCII bytes in one uint32, and each chunk's trailing zeros
    # (small integer types keep the temporaries, and so the process's peak memory, small)
    c = np.arange(10000, dtype=np.int16)
    digits4 = (c[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    # ends[j * 10000 + c]: the digit string's end without trailing zeros if c,
    # nonzero, is chunk j and every later chunk is 0
    trailing = np.argmax(digits4[:, ::-1] != 48, axis=1).astype(np.int8)
    ends = np.where(c > 0, 4 * np.arange(1, nch + 1, dtype=np.int8)[:, None] - trailing, 0)
    ends = ends.astype(np.int8).ravel()
    # masks[:, a * (width + 1) + b]: the digit words with bytes a <= j < b kept
    j = np.arange(width)
    keep = (j >= c[: width + 1, None, None]) & (j < c[None, : width + 1, None])
    masks = (keep * np.uint8(255)).astype(np.uint8).view(np.uint32).reshape(-1, nch).T.copy()
    # %g layout per decimal exponent: fixed form for -4 <= e < p, else exponent form
    fixed_neg = (e >= -4) & (e < 0)
    fixed_pos = (e >= 0) & (e < p)
    sci = ~(fixed_neg | fixed_pos)
    # a cell: sign, "0" (fixed, e < 0), integer digits, point, -e-1 zeros (fixed, e < 0),
    # fraction digits, "e", exponent sign and two or three digits; NUL where nothing goes
    tpl = np.zeros((e.size, 4 * (2 * nch + 4)), np.uint8)
    tpl[:, 1] = np.where(fixed_neg, 48, 0)
    zeros = np.arange(3)
    tpl[:, width + 5 + zeros] = np.where(fixed_neg[:, None] & (zeros < -1 - e[:, None]), 48, 0)
    a = np.abs(e)
    exp_digits = np.stack([a // 100, a // 10 % 10, a % 10], axis=1) + 48
    x0 = 2 * width + 8
    tpl[:, x0] = ord("e")
    tpl[:, x0 + 1] = np.where(e < 0, ord("-"), ord("+"))
    tpl[:, x0 + 2 : x0 + 4] = np.where((a >= 100)[:, None], exp_digits[:, :2], exp_digits[:, 1:])
    tpl[:, x0 + 4] = np.where(a >= 100, exp_digits[:, 2], 0)
    tpl[~sci, x0:] = 0
    return SimpleNamespace(
        hi=hi,
        hi_h=hi_h,
        hi_l=hi_l,
        lo=lo,
        nch=nch,
        lead_zeros=width - p,
        digits4=digits4.view(np.uint32).ravel(),
        ends=ends,
        chunk_base=10000 * np.arange(nch)[:, None],
        masks=masks,
        mask_row=width + 1,
        # digits before the point, always shown
        lead=np.where(fixed_pos, e + 1, np.where(fixed_neg, 0, 1)),
        template=tpl.view(np.uint32),
        floor=float(10 ** (p - 1)),
        ceil=float(10**p),
    )


def _scaled(ax, e, t):
    """|x| * 10^(P-1-e) as a double-double (yh, yl)."""
    i = e - _E_LO
    hi = np.take(t.hi, i)
    ah, al = _split(ax)
    bh, bl = np.take(t.hi_h, i), np.take(t.hi_l, i)
    prod = ax * hi
    err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl
    s = err + ax * np.take(t.lo, i)
    yh = prod + s
    return yh, s - (yh - prod)


def _out_of_range(yh, yl, t):
    below = (yh < t.floor) | ((yh == t.floor) & (yl < 0))
    above = (yh > t.ceil) | ((yh == t.ceil) & (yl >= 0))
    return below, above


def cells(values, precision: int) -> np.ndarray:
    """(n, width) uint8: row i is ``'%.{precision}g' % values[i]`` with NUL bytes put in.

    The NUL bytes sit inside a row as well as at its end, and the last byte
    of a row is always NUL; ``join`` deletes them.
    """
    t = _tables(precision)
    p = precision
    x = np.asarray(values, dtype=np.float64).ravel()
    ax = np.abs(x)
    fast = (ax >= _X_MIN) & (ax <= _X_MAX)
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)
    yh, yl = _scaled(ax, e, t)
    below, above = _out_of_range(yh, yl, t)
    redo = np.flatnonzero(below | above)
    if redo.size:
        e[redo] += above[redo].astype(np.intp) - below[redo]
        yh[redo], yl[redo] = _scaled(ax[redo], e[redo], t)
        below, above = _out_of_range(yh[redo], yl[redo], t)
        fast[redo[below | above]] = False
    # integer part n and fraction f of y, then n rounded to nearest
    whole = np.floor(yh)
    f = (yh - whole) + yl
    carry = np.floor(f)
    f -= carry
    fast &= np.abs(f - 0.5) >= _TIE_BAND
    n = whole.astype(np.int64) + carry.astype(np.int64) + (f > 0.5)
    top = n == 10**p
    n[top] = 10 ** (p - 1)
    e += top
    # 4-digit chunks of n, one row per chunk; the first is never 0
    nch = t.nch
    chunks = np.empty((nch, x.size), np.intp)
    for j in range(nch - 1, 0, -1):
        high = n // 10000
        chunks[j], n = n - high * 10000, high
    chunks[0] = n
    end = np.take(t.ends, chunks + t.chunk_base).max(axis=0)  # trailing zeros dropped
    i = e - _E_LO
    point = t.lead_zeros + np.take(t.lead, i)
    end = np.maximum(end, point)
    words = np.take(t.digits4, chunks)  # one row per chunk, as are the masks taken below
    out = np.take(t.template, i, axis=0)
    out[:, 0] |= np.where(np.signbit(x), np.uint32(45), np.uint32(0))
    out[:, 1 : 1 + nch] = (words & np.take(t.masks, t.lead_zeros * t.mask_row + point, axis=1)).T
    out[:, 1 + nch] |= np.where(end > point, np.uint32(46), np.uint32(0))
    out[:, 2 + nch : 2 + 2 * nch] = (words & np.take(t.masks, point * t.mask_row + end, axis=1)).T
    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        fmt = f"%.{p}g"
        text = [(fmt % v).encode() for v in x[slow].tolist()]
        width = out.shape[1]
        out[slow] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out


def join(cell_rows: np.ndarray, ends: bytes, prefix: bytes = b"") -> bytes:
    """Rows of ``prefix`` then each column's cell followed by its byte of ``ends``.

    ``cell_rows`` is (rows, columns, width) from ``cells``; the end bytes are
    written into it, in the last byte of each cell, which is always NUL.  The
    NUL bytes are deleted from the result.
    """
    cell_rows[:, :, -1] = np.frombuffer(ends, np.uint8)
    rows = cell_rows.reshape(len(cell_rows), -1)
    if prefix:
        lead = np.broadcast_to(np.frombuffer(prefix, np.uint8), (len(rows), len(prefix)))
        rows = np.concatenate([lead, rows], axis=1)
    return rows.tobytes().translate(None, b"\0")


def csv_rows(columns, prefix: bytes = b"") -> bytes:
    """The columns' values as ``%.17g`` CSV rows, each led by ``prefix`` and ended by a newline."""
    columns = [np.asarray(col, dtype=np.float64) for col in columns]
    ends = b"," * (len(columns) - 1) + b"\n"
    parts = []
    for start in range(0, len(columns[0]), _BLOCK):
        block = np.stack([col[start : start + _BLOCK] for col in columns], axis=1)
        rows = len(block)
        parts.append(join(cells(block, 17).reshape(rows, len(columns), -1), ends, prefix))
    return b"".join(parts)


def long_rows(t, columns, prefixes) -> bytes:
    """``csv_rows((t, col), prefix)`` for each column and prefix in turn; t is formatted once."""
    columns = [np.asarray(col, dtype=np.float64) for col in (t, *columns)]
    parts = [[] for _ in prefixes]
    step = max(1, 2 * _BLOCK // len(columns))  # as many cells per block as csv_rows((t, col))
    for start in range(0, len(columns[0]), step):
        block = np.stack([col[start : start + step] for col in columns], axis=1)
        block_cells = cells(block, 17).reshape(len(block), len(columns), -1)
        for i, (out, prefix) in enumerate(zip(parts, prefixes), 1):
            out.append(join(block_cells[:, [0, i]], b",\n", prefix))
    return b"".join([row_block for out in parts for row_block in out])
