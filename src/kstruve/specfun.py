"""Special-function kernels.

Gamma, k-Gamma, Struve, k-Struve, Mittag-Leffler and Fox-Wright functions.
Each series is a Wright-type power series: a prefactor times
sum_n z^n prod Gamma(a + A n) / prod Gamma(b + B n).  One guarded loop sums
them all.  It assembles every term in log space with an explicit sign bit
(naive Gamma products overflow doubles well inside a 50-term sum) and
accumulates with compensated summation.  k-Struve is the classical Struve
series with a rescaled argument.  An array form of the loop sums a whole
grid of arguments at once for ``k_struve``, ``mittag_leffler`` and the
kinetic closed form.

Both loops read each term's Gamma ratio from a table cached per parameter
set and sign of the argument: the key is the (upper, lower) tuples and
whether z < 0, never z itself.  Row n holds n as a float, the ratio's sign
times the sign of z^n, and its log-magnitude, so the scalar loop is one
pass over the rows.  A table grows only as far as a call reaches.  At most
1024 tables of at most 256 rows are kept; the cache is cleared when a new
table finds it full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "TruncationPolicy",
    "KStruveParams",
    "WrightParams",
    "log_gamma",
    "k_gamma",
    "log_k_gamma",
    "struve_h",
    "struve_h_info",
    "k_struve",
    "k_struve_info",
    "mittag_leffler",
    "mittag_leffler_info",
    "fox_wright",
    "fox_wright_info",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop rules for truncated series summation.

    Summation halts at the first of: ``max_terms`` terms consumed, the last
    term satisfying ``|term| <= rel_tol * |partial_sum|`` with a nonzero
    partial sum, a zero partial sum whose later terms are all exactly 0, or
    a term whose log-magnitude exceeds 700 (an error).  The
    default of 50 terms is the plotting convention used throughout; tests
    that need tighter accuracy raise it explicitly.
    """

    max_terms: int = 50
    rel_tol: float = 1e-16

    def __post_init__(self):
        if not isinstance(self.max_terms, int) or self.max_terms < 1:
            raise DomainError(f"max_terms must be a positive integer, got {self.max_terms!r}")
        if not (self.rel_tol >= 0.0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be a finite real >= 0, got {self.rel_tol!r}")


# a term whose log-magnitude passes this raises in both series loops; below
# ln(DBL_MAX) ~ 709.8, so exp of a term that passes the check is finite
_OVERFLOW_GUARD = 700.0


@dataclass(frozen=True)
class KStruveParams:
    """Parameter bundle (k, order nu, alternation scale c) for the k-Struve family.

    Requires k > 0 and nu/k + 1 > -1/2, i.e. nu > -(3/2) k.
    """

    k: float
    nu: float
    c: float = 1.0

    def __post_init__(self):
        for name in ("k", "nu", "c"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be a finite real, got {v!r}")
        if self.k <= 0:
            raise DomainError(f"k must be > 0, got {self.k}")
        if self.nu / self.k + 1 <= -0.5:
            raise DomainError(
                f"order out of range: need nu > -(3/2)*k, got nu={self.nu}, k={self.k}"
            )

    @property
    def order_ratio(self) -> float:
        return self.nu / self.k


@dataclass(frozen=True)
class WrightParams:
    """Parameter tuples for the Fox-Wright series.

    ``upper`` holds (a, A) pairs, ``lower`` holds (b, B) pairs, all A, B > 0.
    The series is entire when ``delta = 1 + sum(B) - sum(A) > 0``.  The
    borderline ``delta == 0`` is accepted with the finite convergence radius
    ``radius = prod(A^-A) * prod(B^B)``; ``delta < 0`` is rejected.  Both
    are computed once per instance, like ``series_lower``; none of the
    three takes part in equality or hashing.
    """

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(A)) for a, A in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(B)) for b, B in self.lower))
        for offset, step in self.upper + self.lower:
            if not math.isfinite(offset):
                raise DomainError(f"all a, b offsets must be finite, got {offset}")
            if not (step > 0 and math.isfinite(step)):
                raise DomainError(f"all A, B coefficients must be strictly positive, got {step}")
        if self.delta < 0:
            raise DomainError(
                f"divergent parameter combination: 1 + sum(B) - sum(A) = {self.delta} < 0"
            )

    @cached_property
    def delta(self) -> float:
        return 1.0 + sum(B for _, B in self.lower) - sum(A for _, A in self.upper)

    @cached_property
    def radius(self) -> float:
        """Convergence radius when delta == 0 (infinite when delta > 0)."""
        if self.delta > 0:
            return math.inf
        log_r = sum(B * math.log(B) for _, B in self.lower) - sum(
            A * math.log(A) for _, A in self.upper
        )
        return math.exp(log_r)

    @cached_property
    def series_lower(self) -> tuple[tuple[float, float], ...]:
        """``lower`` and the (1, 1) pair whose Gamma(1 + n) is the series' n!."""
        return self.lower + ((1.0, 1.0),)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError(f"log_gamma requires a finite real, got {x!r}")
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _signed_log_gamma(x: float) -> tuple[float, float]:
    """(sign, ln|Gamma(x)|) for any non-pole x; (0, inf) at a pole.

    A zero sign marks a pole of Gamma, where the reciprocal 1/Gamma is taken
    as 0 inside series terms (analytic continuation of 1/Gamma).
    """
    if x > 0:
        return 1.0, math.lgamma(x)
    if x == math.floor(x):
        return 0.0, math.inf
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return sign, math.lgamma(x)


def log_k_gamma(gamma: float, k: float) -> float:
    """ln of the k-Gamma function: (gamma/k - 1) ln k + ln Gamma(gamma/k)."""
    if not (k > 0 and math.isfinite(k)):
        raise DomainError(f"k must be > 0, got {k!r}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise DomainError(f"gamma must be > 0, got {gamma!r}")
    return (gamma / k - 1.0) * math.log(k) + math.lgamma(gamma / k)


def k_gamma(gamma: float, k: float) -> float:
    """k-Gamma function k^(gamma/k - 1) Gamma(gamma/k)."""
    log_value = log_k_gamma(gamma, k)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ConvergenceError(
            f"k_gamma({gamma!r}, {k!r}) overflows a double: its log is {log_value:.6g}"
        ) from None


def _term_gamma_ratio(
    n: int,
    upper: tuple[tuple[float, float], ...],
    lower: tuple[tuple[float, float], ...],
) -> tuple[float, float]:
    """Sign and log-magnitude of prod Gamma(a + A n) / prod Gamma(b + B n).

    A Gamma pole in an upper factor is a DomainError.  A pole in a lower
    factor gives sign 0 (1/Gamma continued analytically).
    """
    log_up = log_low = 0.0
    sign = 1.0
    for a, step in upper:
        x = a + step * n
        g_sign, g_log = _signed_log_gamma(x)
        if g_sign == 0.0:
            raise DomainError(f"Gamma pole in a numerator factor at term {n}: argument {x}")
        log_up += g_log
        sign *= g_sign
    for b, step in lower:
        g_sign, g_log = _signed_log_gamma(b + step * n)
        if g_sign == 0.0:
            return 0.0, 0.0
        log_low += g_log
        sign *= g_sign
    # each side's log-Gammas are summed apart, so that matching upper and
    # lower factors cancel before the power is added
    return sign, log_up - log_low


# Row n of the table under key (upper, lower, negative) is _ratio_row(n,
# upper, lower, negative).  A published table is an immutable tuple, replaced
# only by a longer one, so a caller still reading an older table reads the
# same rows.  A call that raises publishes nothing, and an upper pole has no
# row, so the pole raises on every call that reaches its term.
_RATIO_TABLE_CAP = 1024  # tables; the cache is cleared when a new one finds it full
_RATIO_ROW_CAP = 256  # rows published per table; later rows are computed per call
_ratio_tables: dict[tuple, tuple[tuple[float, float, float], ...]] = {}


def _ratio_row(
    n: int,
    upper: tuple[tuple[float, float], ...],
    lower: tuple[tuple[float, float], ...],
    negative: bool,
) -> tuple[float, float, float]:
    """Row n of a ratio table: n, the sign and ln|.| of prod Gamma(a + A n) / prod Gamma(b + B n).

    With ``negative`` (z < 0) the sign also carries (-1)^n, the sign of z^n.
    It is 0 at a lower Gamma pole.  n is a float: the loops multiply ln|z| by it.
    """
    g_sign, log_ratio = _term_gamma_ratio(n, upper, lower)
    return float(n), (-g_sign if negative and n & 1 else g_sign), log_ratio


def _ratio_rows(count: int, upper, lower, negative: bool) -> list:
    """Rows 0 to count - 1 of the table under (upper, lower, negative): published, then computed."""
    rows = list(_ratio_tables.get((upper, lower, negative), ())[:count])
    rows += [_ratio_row(n, upper, lower, negative) for n in range(len(rows), count)]
    return rows


def _grown_rows(grown: list, start: int, stop: int, upper, lower, negative: bool):
    """Rows start to stop - 1 of ``_ratio_row``, each appended to ``grown`` as it is yielded."""
    for n in range(start, stop):
        grown.append(_ratio_row(n, upper, lower, negative))
        yield grown[-1]


def _publish_ratio_table(key: tuple, rows) -> None:
    """Cache rows under key if they extend the published table."""
    if min(len(rows), _RATIO_ROW_CAP) <= len(_ratio_tables.get(key, ())):
        return
    if key not in _ratio_tables and len(_ratio_tables) >= _RATIO_TABLE_CAP:
        _ratio_tables.clear()
    _ratio_tables[key] = tuple(rows[:_RATIO_ROW_CAP])


# below this log-magnitude a term is exactly 0: ln of half the smallest
# subnormal is -745.13, and the margin covers the rounding of log-magnitudes
_LOG_UNDERFLOW = math.log(math.ulp(0.0)) - 1.0


def _past_underflow(n: int, upper, lower, log_mag, log_abs_z, log_ratio):
    """Whether every term past term n is exactly 0, per node.

    ``log_mag`` is term n's log-magnitude, ``log_ratio`` its row's ln|ratio|
    and ``log_abs_z`` ln|z|.  With no upper pairs and every lower argument
    b + B n positive, the log-magnitudes are concave from term n on (ln Gamma
    is convex there), so once one is below ``_LOG_UNDERFLOW`` and falls to
    the next, every later one is below it too.  Elsewhere this is False.
    """
    if upper or not all(b + B * n > 0 for b, B in lower):
        return False
    fall = log_ratio - _ratio_row(n + 1, upper, lower, False)[2]
    return (log_mag < _LOG_UNDERFLOW) & (log_abs_z < fall)


def _wright_series(
    what: str,
    z: float,
    upper: tuple[tuple[float, float], ...],
    lower: tuple[tuple[float, float], ...],
    pol: TruncationPolicy,
    log_pref: float = 0.0,
) -> tuple[float, int]:
    """e^log_pref sum_n z^n prod Gamma(a + A n) / prod Gamma(b + B n).

    ``upper`` and ``lower`` hold the (a, A) and (b, B) pairs.  Summation
    stops under the policy's rules; a sum still 0 stops where
    ``_past_underflow`` shows every later term is 0.  A Gamma pole in an
    upper factor is a DomainError.  A pole in a lower factor zeroes the
    term (1/Gamma continued analytically), and the term still counts toward
    max_terms.  At z == 0 the series is exact after its n = 0 term.  A term
    whose log-magnitude exceeds the overflow guard, or is NaN (0 * inf at
    n = 0 when z is infinite), is a ConvergenceError.  ``_series_terms``
    rebuilds the terms.

    Returns (value, terms_used).
    """
    log_abs_z = math.log(abs(z)) if z != 0.0 else 0.0
    count = pol.max_terms if z != 0.0 else 1
    key = (upper, lower, z < 0)
    table = _ratio_tables.get(key, ())
    grown = []  # rows past the published table, computed as the loop reaches them
    if count <= len(table):
        rows = table if count == len(table) else table[:count]
    else:
        rows = chain(table, _grown_rows(grown, len(table), count, upper, lower, z < 0))
    rel_tol, exp = pol.rel_tol, math.exp
    total = carry = 0.0
    for n, sign, log_ratio in rows:
        if sign == 0.0:
            continue
        log_mag = log_pref + n * log_abs_z + log_ratio
        if not log_mag <= _OVERFLOW_GUARD:
            raise ConvergenceError(
                f"{what}: term {int(n)} has log-magnitude {float(log_mag)!r} "
                f"exceeding the overflow guard {_OVERFLOW_GUARD:.3g}"
            )
        term = sign * exp(log_mag)
        # Kahan step: alternating series lose digits otherwise
        compensated = term + carry
        previous = total
        total += compensated
        carry = compensated - (total - previous)
        if total != 0.0:
            if abs(term) <= rel_tol * abs(total):
                break
        elif _past_underflow(n, upper, lower, log_mag, log_abs_z, log_ratio):
            break
    if grown:
        _publish_ratio_table(key, table + tuple(grown))
    return total, int(n) + 1


def _series_terms(
    z: float,
    upper: tuple[tuple[float, float], ...],
    lower: tuple[tuple[float, float], ...],
    count: int,
    log_pref: float,
) -> list[float]:
    """The first ``count`` signed terms of ``_wright_series`` at z != 0, bit for bit.

    Each term is formed by the loop's expression from the same ratio rows;
    it is meant for terms the loop has already summed without raising.
    """
    log_abs_z = math.log(abs(z))
    exp = math.exp
    return [
        sign * exp(log_pref + n * log_abs_z + log_ratio) if sign else 0.0
        for n, sign, log_ratio in _ratio_rows(count, upper, lower, z < 0)
    ]


_LOG_2 = math.log(2.0)


def _log_half(x: float) -> float:
    """ln(x/2) for x > 0.

    Below the normal range x/2 loses bits or underflows to 0; there it is
    ln x - ln 2.  Wherever x/2 is exact its log is taken, as before.
    """
    half = x / 2.0
    if half * 2.0 == x:
        return math.log(half)
    return math.log(x) - _LOG_2


def _scalar_logs(v: np.ndarray) -> np.ndarray:
    """``math.log`` at every element of v, as the scalar loop takes its logs.

    numpy's log can differ from it by an ulp, and the term index multiplies
    that error in n log|z|; with the same logs the two loops' terms differ
    only by the last bit of exp.
    """
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def _unit_factor(n: int, nodes: np.ndarray) -> float:
    return 1.0


def _wright_series_array(
    what: str,
    z: np.ndarray,
    upper: tuple[tuple[float, float], ...],
    lower: tuple[tuple[float, float], ...],
    pol: TruncationPolicy,
    log_pref: np.ndarray | float = 0.0,
    log_abs_z: np.ndarray | None = None,
    factor=_unit_factor,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_wright_series`` at every node of a 1-D array z, with one stop mask per node.

    Each node follows the scalar loop's arithmetic and stop rules.  A node
    that stops is written out at once and parked: log-prefactor -inf makes
    its terms exactly 0, and a ``live`` mask keeps it from stopping again.
    The working arrays are compacted only when the live count has fallen to
    half their length.  The overflow guard raises if a live node trips it.
    ``log_abs_z`` is log|z| per node, any finite value where z = 0; by
    default the scalar loop's logs.  ``factor(n, nodes)`` multiplies term n
    at the working nodes, or is None where the term vanishes, as at a lower
    Gamma pole.  Returns (values, terms_used, converged); converged is
    False on a term-budget stop.
    """
    values = np.zeros(z.shape)
    used = np.full(z.shape, pol.max_terms)
    nonzero = z != 0.0
    if log_abs_z is None:
        log_abs_z = np.zeros(z.shape)
        log_abs_z[nonzero] = _scalar_logs(np.abs(z[nonzero]))
    z_sign = np.where(z < 0, -1.0, 1.0)
    # the working set, indexed by node; parked nodes stay until it halves
    nodes = np.arange(z.size)
    live = np.ones(z.shape, dtype=bool)
    log_pref = np.full(z.shape, log_pref, dtype=float)  # a copy: parked entries are written
    total = np.zeros(z.shape)
    carry = np.zeros(z.shape)
    # the z >= 0 rows: each node's own sign multiplies the odd terms
    key = (upper, lower, False)
    table = _ratio_tables.get(key, ())
    grown = []
    rows = chain(table, _grown_rows(grown, len(table), pol.max_terms, upper, lower, False))
    for n in range(pol.max_terms):
        if nodes.size == 0:
            break
        _, g_sign, log_ratio = next(rows)
        scale = factor(n, nodes) if g_sign != 0.0 else None
        if scale is None:
            stop = np.zeros(nodes.size, dtype=bool)
        else:
            log_mag = log_pref + n * log_abs_z + log_ratio
            peak = float(log_mag.max())  # NaN if any node's is
            if not peak <= _OVERFLOW_GUARD:
                raise ConvergenceError(
                    f"{what}: term {n} has log-magnitude {peak!r} "
                    f"exceeding the overflow guard {_OVERFLOW_GUARD:.3g}"
                )
            sign = g_sign * (z_sign if n % 2 else 1.0)
            term = np.exp(log_mag) * (sign * scale)
            compensated = term + carry
            previous = total
            total = total + compensated
            carry = compensated - (total - previous)
            # a node whose sum is 0 passes this only with a 0 term
            stop = live & (np.abs(term) <= pol.rel_tol * np.abs(total))
        if n == 0:  # z == 0: exact after the n = 0 term
            stop |= ~nonzero
        if stop.any():
            sums = total[stop]
            if not sums.all():
                # with z != 0 a 0 sum stops only once every later term is 0 too
                held = np.flatnonzero(stop)[sums == 0.0]
                held = held[nonzero[nodes[held]]]
                if held.size:
                    stop[held] = _past_underflow(n, upper, lower, log_mag[held],
                                                 log_abs_z[held], log_ratio)
                    sums = total[stop]
            done = nodes[stop]
            values[done] = sums
            used[done] = n + 1
            live &= ~stop
            log_pref[stop] = -np.inf
            if 2 * np.count_nonzero(live) <= nodes.size:
                keep = np.flatnonzero(live)
                nodes, live, log_pref, log_abs_z, z_sign, total, carry = (
                    arr[keep] for arr in (nodes, live, log_pref, log_abs_z, z_sign, total, carry)
                )
    if grown:
        _publish_ratio_table(key, table + tuple(grown))
    values[nodes[live]] = total[live]
    converged = np.ones(z.shape, dtype=bool)
    converged[nodes[live]] = False  # still summing when the term budget ran out
    return values, used, converged


def _check_nodes(x: np.ndarray, name: str) -> None:
    if x.ndim != 1:
        raise DomainError(f"array {name} must be 1-D, got {x.ndim} dimensions")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} must be finite")


_DEFAULT_POLICY = TruncationPolicy()


def _argument_overflow(what: str, x: float, name: str = "x") -> str:
    return f"{what}: the series argument -c ({name}/2)^2 / k overflows a double at {name} = {x:.6g}"


def _struve_setup(what: str, q: float, c: float, k: float, x: float, power: float, name: str = "x"):
    """(z, log prefactor) of a k-Struve family series at x > 0, x named ``name``.

    S^k, its Sumudu image and their inverse are (x/2)^power k^-(q+1/2) times
    a series in z = -c (x/2)^2 / k; the loops add the log prefactor to each
    term's log-magnitude.  A z past the largest double is a ConvergenceError.
    """
    half = x / 2.0  # x * x overflows from x = 1.4e154, (x/2)^2 from twice that
    z = -c * half * half / k
    if not math.isfinite(z):
        raise ConvergenceError(_argument_overflow(what, x, name))
    return z, power * _log_half(x) - (q + 0.5) * math.log(k)


def _struve_series(what: str, q: float, c: float, k: float, x: float, pol: TruncationPolicy):
    """``k_struve_info``'s sum at x > 0, q = nu/k, and H_q at k = c = 1; (value, terms_used)."""
    z, log_pref = _struve_setup(what, q, c, k, x, q + 1.0)
    return _wright_series(what, z, (), ((1.5, 1.0), (q + 1.5, 1.0)), pol, log_pref)


def _struve_transform_series(what: str, name: str, params: KStruveParams, x: float, power: float,
                             upper, lower, pol: TruncationPolicy):
    """The Sumudu image of S^k (power q + 1) or its inverse (power q).

    A series whose lower B's, the n! pair's included, sum to its upper A's
    has a finite radius (the image does, the inverse not); it is summed as
    ``fox_wright_info`` sums such a borderline series.  Returns (value,
    terms_used); a term past the overflow guard names x.
    """
    z, log_pref = _struve_setup(what, params.order_ratio, params.c, params.k, x, power, name)
    borderline = sum(B for _, B in lower) == sum(A for _, A in upper)
    series = _borderline_series if borderline else _wright_series
    try:
        return series(what, z, upper, lower, pol, log_pref)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{exc}: the sum overflows a double at {name} = {x:.6g}") from None


def struve_h_info(p: float, x: float, pol: TruncationPolicy = _DEFAULT_POLICY):
    """Classical Struve function H_p(x); returns (value, terms_used)."""
    if not (math.isfinite(p) and math.isfinite(x)):
        raise DomainError("p and x must be finite")
    if p <= -1.5:
        raise DomainError(f"struve_h requires p > -3/2, got p={p}")
    if x == 0.0:
        if p + 1 <= 0:
            raise DomainError(f"struve_h at x=0 needs p > -1, got p={p}")
        return 0.0, 1
    if x < 0 and p != math.floor(p):
        raise DomainError(
            f"struve_h at x < 0 requires an integer order (fractional power of a "
            f"negative base), got p={p}, x={x}"
        )
    p = float(p)  # a float key: an equal float32 would sum its table's rows in float32
    value, used = _struve_series("struve_h", p, 1.0, 1.0, abs(x), pol)
    # H_p(-x) = (-1)^(p+1) H_p(x) for integer p
    return (-value if x < 0 and int(p) % 2 == 0 else value), used


def struve_h(p: float, x: float, pol: TruncationPolicy = _DEFAULT_POLICY) -> float:
    return struve_h_info(p, x, pol)[0]


def k_struve_info(params: KStruveParams, x: float, pol: TruncationPolicy = _DEFAULT_POLICY):
    """k-Struve function; returns (value, terms_used).

    With Gamma_k(r k + nu + 3k/2) = k^(r + q + 1/2) Gamma(r + q + 3/2),
    q = nu/k, the series is the classical Struve series rescaled:
    S^k_{nu,c}(x) = k^-(q+1/2) (k/|c|)^((q+1)/2) H_q(x sqrt(|c|/k)) for c > 0,
    the modified Struve L_q in place of H_q for c < 0, and the single r = 0
    term at c = 0.  All three are the sum
    k^-(q+1/2) (x/2)^(q+1) sum_r (-c x^2/(4k))^r / (Gamma(r+3/2) Gamma(r+q+3/2)).
    """
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if x < 0:
        raise DomainError(f"k_struve requires x >= 0, got {x}")
    q = params.order_ratio
    if x == 0.0:
        if q + 1 <= 0:
            raise DomainError(f"k_struve at x=0 needs nu/k > -1, got nu/k={q}")
        return 0.0, 1
    return _struve_series("k_struve", q, params.c, params.k, x, pol)


def _k_struve_series(q: float, c: float, k: float, half: np.ndarray, log_half: np.ndarray):
    """(z, ln|z|, log-prefactor, lower pairs) of ``k_struve_info``'s series at x = 2 half, q = nu/k.

    z = -c (x/2)(x/2) / k, which can pass the largest double; ln|z| is
    2 ln(x/2) + ln(|c|/k), or any finite value at c = 0, where z is 0.  Each
    caller forms ln(x/2) its own way.
    """
    z = -c * half * half / k
    log_abs_z = 2.0 * log_half + (math.log(abs(c) / k) if c else 0.0)
    log_pref = (q + 1.0) * log_half - (q + 0.5) * math.log(k)
    return z, log_abs_z, log_pref, ((1.5, 1.0), (q + 1.5, 1.0))


def _k_struve_array(params: KStruveParams, x: np.ndarray, pol: TruncationPolicy):
    """``k_struve_info`` at every node of a 1-D array x; returns (values, terms_used).

    ln(x/2) and ln|z| are the scalar loop's ``math.log`` maps, which keep
    each value within 16 eps sum|term| of ``k_struve_info``'s.  A series
    argument -c (x/2)^2 / k past the largest double is a ConvergenceError.
    """
    _check_nodes(x, "x")
    if (x < 0).any():
        raise DomainError(f"k_struve requires x >= 0, got {x.min()}")
    q = params.order_ratio
    positive = x > 0.0
    if q + 1 <= 0 and not positive.all():
        raise DomainError(f"k_struve at x=0 needs nu/k > -1, got nu/k={q}")
    values = np.zeros(x.shape)
    used = np.ones(x.shape, dtype=int)
    xp = x[positive]
    half = xp / 2.0  # as in _struve_series
    # _log_half at every node: ln(x/2) where x/2 is exact, else ln x - ln 2
    exact = half * 2.0 == xp
    log_half = _scalar_logs(np.where(exact, half, xp))
    log_half[~exact] -= _LOG_2
    with np.errstate(over="ignore"):
        z, _, log_pref, lower = _k_struve_series(q, params.c, params.k, half, log_half)
    if not np.isfinite(z).all():
        raise ConvergenceError(_argument_overflow("k_struve", xp.max()))
    values[positive], used[positive], _ = _wright_series_array(
        "k_struve", z, (), lower, pol, log_pref)
    return values, used


def k_struve(
    params: KStruveParams, x: float | np.ndarray, pol: TruncationPolicy = _DEFAULT_POLICY
) -> float | np.ndarray:
    """k-Struve function at x >= 0 (see ``k_struve_info``).

    A 1-D ndarray x is summed in one array pass and gives an ndarray.
    """
    if isinstance(x, np.ndarray):
        return _k_struve_array(params, x, pol)[0]
    return k_struve_info(params, x, pol)[0]


def _ml_params(alpha: float, beta: float) -> tuple[float, float]:
    """alpha and beta, checked, as floats, so equal ratio-table keys mean equal rows."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")
    return float(alpha), float(beta)


def mittag_leffler_info(
    alpha: float, beta: float, z: float, pol: TruncationPolicy = _DEFAULT_POLICY
):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z); (value, terms_used).

    1/Gamma at a pole of Gamma(alpha*n + beta) is taken as 0.  Practical
    double-precision envelope for z < 0: cancellation grows like
    exp(|z|^(1/alpha)), so accuracy degrades once |z|^(1/alpha) exceeds ~35
    and the overflow guard trips near 700.  The kinetic solvers only need
    z = -(d t)^nu on bounded time windows, well inside the envelope.
    """
    alpha, beta = _ml_params(alpha, beta)
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    return _wright_series("mittag_leffler", z, (), ((beta, alpha),), pol)


def _mittag_leffler_array(alpha: float, beta: float, z: np.ndarray, pol: TruncationPolicy):
    """``mittag_leffler_info`` at every node of a 1-D array z: (values, terms_used, converged)."""
    alpha, beta = _ml_params(alpha, beta)
    _check_nodes(z, "z")
    return _wright_series_array("mittag_leffler", z, (), ((beta, alpha),), pol)


def mittag_leffler(
    alpha: float, beta: float, z: float | np.ndarray, pol: TruncationPolicy = _DEFAULT_POLICY
) -> float | np.ndarray:
    """E_{alpha,beta}(z) (see ``mittag_leffler_info``).

    A 1-D ndarray z is summed in one array pass and gives an ndarray.
    """
    if isinstance(z, np.ndarray):
        return _mittag_leffler_array(alpha, beta, z, pol)[0]
    return mittag_leffler_info(alpha, beta, z, pol)[0]


_CVZ_RATE = 3.0 + math.sqrt(8.0)


def _cvz_alternating(abs_terms: list[float]) -> float:
    """Cohen-Rodriguez Villegas-Zagier acceleration of sum (-1)^n b_n.

    Geometric convergence ~ (3 + sqrt(8))^(-N) for moment-type b_n; used for
    borderline Fox-Wright arguments where plain truncation stalls at the
    convergence radius.
    """
    n = len(abs_terms)
    d = _CVZ_RATE ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for j in range(n):
        c = b - c
        s += c * abs_terms[j]
        b = (j + n) * (j - n) * b / ((j + 0.5) * (j + 1.0))
    return s / d


def _borderline_series(what, z, upper, lower, pol: TruncationPolicy, log_pref: float = 0.0):
    """``_wright_series`` of a delta == 0 series, accelerated as ``fox_wright_info`` says."""
    value, used = _wright_series(what, z, upper, lower, pol, log_pref)
    if used < pol.max_terms or z == 0:
        return value, used
    signed = _series_terms(z, upper, lower, used, log_pref)
    alternating = all(t != 0.0 for t in signed) and all(
        signed[i] * signed[i + 1] < 0 for i in range(len(signed) - 1)
    )
    # 100 terms already give ~ 5.83^-100; more would overflow the divisor
    window = signed[: min(len(signed), 100)]
    # The CVZ error is at most 2 |b_0| / 5.83^n; the plain partial sum's is at
    # most the first omitted term, below the last one taken.  One or two
    # terms bound nothing, and a fast-decaying window keeps its partial sum.
    better = 2.0 * abs(window[0]) * _CVZ_RATE ** -len(window) < abs(signed[-1])
    if alternating and len(window) >= 3 and better:
        lead = 1.0 if signed[0] > 0 else -1.0
        value = lead * _cvz_alternating([abs(t) for t in window])
    return value, used


def fox_wright_info(w: WrightParams, z: float, pol: TruncationPolicy = _DEFAULT_POLICY):
    """Fox-Wright series pPsiq; returns (value, terms_used).

    A Gamma pole in a numerator factor is a DomainError; a pole in a
    denominator factor zeroes the term.  On the borderline delta == 0 with
    |z| near the convergence radius, plain truncation cannot reach the stop
    tolerance; if three or more collected terms alternate strictly in sign
    and the acceleration's error bound is the smaller one, the series is
    resummed with alternating-series acceleration instead.
    """
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    if w.delta == 0 and abs(z) > w.radius * (1 + 1e-12):
        raise DomainError(
            f"argument |z|={abs(z)} outside the convergence radius {w.radius} "
            "of a borderline (delta == 0) series"
        )
    series = _wright_series if w.delta > 0 else _borderline_series
    return series("fox_wright", z, w.upper, w.series_lower, pol)


def fox_wright(w: WrightParams, z: float, pol: TruncationPolicy = _DEFAULT_POLICY) -> float:
    return fox_wright_info(w, z, pol)[0]
