"""The vectorised float writer against Python's ``%`` at precisions 17 and 6."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstruve._floatfmt import _BLOCK, cells, csv_rows, join, long_rows
from reference_writers import reference_columns, reference_csv

PRECISIONS = (17, 6)


def _written(values, precision):
    """The writer's text for each value, one per line, as bytes."""
    return join(cells(values, precision)[:, None], b"\n")


def _expected(values, precision):
    fmt = f"%.{precision}g"
    return "".join(fmt % v + "\n" for v in np.asarray(values, dtype=float).tolist()).encode()


def _assert_matches(values, precision):
    got, want = _written(values, precision), _expected(values, precision)
    if got != want:
        pairs = zip(np.asarray(values, dtype=float).tolist(), got.split(b"\n"), want.split(b"\n"))
        v, g, w = next((v, g, w) for v, g, w in pairs if g != w)
        pytest.fail(f"%.{precision}g of {v!r} ({v.hex()}): wrote {g!r}, expected {w!r}")


def _floats_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("precision", PRECISIONS)
@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(precision, bits):
    _assert_matches(_floats_from_bits(bits), precision)


@pytest.mark.parametrize("precision", PRECISIONS)
@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float(precision, values):
    _assert_matches(values, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_seeded_battery(precision):
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    # and values spread evenly over the decades the fast path covers
    spread = 10.0 ** rng.uniform(-250.0, 250.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    _assert_matches(bits.view(np.float64), precision)
    _assert_matches(spread, precision)


def _edges():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
    values += [1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308]
    values += [1e16, 1e17, 1e-4, 1e-5, 123.0, 0.5, 0.1, 1 / 3, 2 / 3]
    values += [1e100, 1e-100, 1.5e250, 1e250, 1e-250, 9.9e-251, 1e-300, 1e300, -2.5e-123]
    # values that round up into the next decade
    values += [9.99999999999999999e-5, 9.9999999999999999e16, 999999.5, 9999995.0, 0.99999995]
    # exact ties at precision 6: %g rounds them half to even
    values += [1234565.0, 1234575.0, 0.1234565, 2.5, 12.5, 1000000.5, 0.000123456500000000]
    for k in range(-323, 309):
        v = float(f"1e{k}")
        values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    values += [2.0**k for k in range(-1074, 1024)]
    return values


@pytest.mark.parametrize("precision", PRECISIONS)
def test_edge_values(precision):
    values = _edges()
    _assert_matches(values, precision)
    _assert_matches([-v for v in values], precision)


def test_tie_at_precision_6():
    assert _written([1234565.0], 6) == b"1.23456e+06\n"


def test_cells_pad_with_nul_and_keep_the_last_byte_free():
    values = [1.5, -math.inf, 1e-300, -1.2345678901234567e-300, -0.00012345678901234567]
    for precision in PRECISIONS:
        out = cells(values, precision)
        assert out.dtype == np.uint8 and out.ndim == 2
        assert not out[:, -1].any()
        assert [bytes(row).replace(b"\0", b"").decode() for row in out] == [
            f"%.{precision}g" % v for v in values
        ]


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_csv_rows_match_reference_writer(n):
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 40.0, n)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    y[::7] = math.nan
    y[3::11] = math.inf
    y[5::13] = -math.inf
    z = -y[::-1].copy()
    expect = reference_csv("#", "h", "%.17g,%.17g,%.17g", reference_columns(t, y, z))
    assert csv_rows((t, y, z)).decode() == expect.split("\n", 2)[2]
    prefixed = reference_csv("#", "h", "nu,0.5,%.17g", reference_columns(y))
    assert csv_rows((y,), b"nu,0.5,").decode() == prefixed.split("\n", 2)[2]


@pytest.mark.parametrize("n", [0, 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_long_rows_match_csv_rows_per_column(n):
    t = np.linspace(0.0, 40.0, n)
    columns = [np.exp(-t), -(t**3), np.full(n, math.nan)]
    prefixes = [b"d,0.5,", b"d,1.25,", b""]
    expect = b"".join(csv_rows((t, col), prefix) for col, prefix in zip(columns, prefixes))
    assert long_rows(t, columns, prefixes) == expect


def test_empty_table():
    assert csv_rows((np.array([]), np.array([]))) == b""
