"""Special-function kernels.

Gamma, k-Gamma, Struve, k-Struve, Mittag-Leffler and Fox-Wright functions.
Each series is a Wright-type power series: a prefactor times
sum_n z^n prod Gamma(a + A n) / prod Gamma(b + B n).  One guarded loop sums
them all.  It assembles every term in log space with an explicit sign bit
(naive Gamma products overflow doubles well inside a 50-term sum) and
accumulates with compensated summation.  k-Struve is the classical Struve
series with a rescaled argument.  An array form of the loop sums a whole
grid of arguments at once for ``k_struve`` and ``mittag_leffler``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    partial sum, or a term whose log-magnitude exceeds ``overflow_guard``
    (an error).  The default of 50 terms is the plotting convention used
    throughout; tests that need tighter accuracy raise it explicitly.
    """

    max_terms: int = 50
    rel_tol: float = 1e-16
    overflow_guard: float = 700.0

    def __post_init__(self):
        if not isinstance(self.max_terms, int) or self.max_terms < 1:
            raise DomainError(f"max_terms must be a positive integer, got {self.max_terms!r}")
        if not (self.rel_tol >= 0.0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be a finite real >= 0, got {self.rel_tol!r}")
        if not math.isfinite(self.overflow_guard):
            raise DomainError("overflow_guard must be finite")


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
    ``radius = prod(A^-A) * prod(B^B)``; ``delta < 0`` is rejected.
    """

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(A)) for a, A in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(B)) for b, B in self.lower))
        for _, step in self.upper + self.lower:
            if not (step > 0 and math.isfinite(step)):
                raise DomainError(f"all A, B coefficients must be strictly positive, got {step}")
        if self.delta < 0:
            raise DomainError(
                f"divergent parameter combination: 1 + sum(B) - sum(A) = {self.delta} < 0"
            )

    @property
    def delta(self) -> float:
        return 1.0 + sum(B for _, B in self.lower) - sum(A for _, A in self.upper)

    @property
    def radius(self) -> float:
        """Convergence radius when delta == 0 (infinite when delta > 0)."""
        if self.delta > 0:
            return math.inf
        log_r = sum(B * math.log(B) for _, B in self.lower) - sum(
            A * math.log(A) for _, A in self.upper
        )
        return math.exp(log_r)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError(f"log_gamma requires a finite real, got {x!r}")
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _signed_log_gamma(x: float) -> tuple[float, float]:
    """(sign, ln|Gamma(x)|) for any non-pole x; (0, -inf) at a pole.

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
    return math.exp(log_k_gamma(gamma, k))


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
    # positive arguments, the common case, skip the call to _signed_log_gamma
    for a, step in upper:
        x = a + step * n
        if x > 0:
            log_up += math.lgamma(x)
            continue
        g_sign, g_log = _signed_log_gamma(x)
        if g_sign == 0.0:
            raise DomainError(f"Gamma pole in a numerator factor at term {n}: argument {x}")
        log_up += g_log
        sign *= g_sign
    for b, step in lower:
        x = b + step * n
        if x > 0:
            log_low += math.lgamma(x)
            continue
        g_sign, g_log = _signed_log_gamma(x)
        if g_sign == 0.0:
            return 0.0, 0.0
        log_low += g_log
        sign *= g_sign
    # each side's log-Gammas are summed apart, so that matching upper and
    # lower factors cancel before the power is added
    return sign, log_up - log_low


def _wright_series(
    what: str,
    z: float,
    upper: tuple[tuple[float, float], ...],
    lower: tuple[tuple[float, float], ...],
    pol: TruncationPolicy,
    log_pref: float = 0.0,
    sign_pref: float = 1.0,
) -> tuple[float, int, list[float]]:
    """sign_pref e^log_pref sum_n z^n prod Gamma(a + A n) / prod Gamma(b + B n).

    ``upper`` and ``lower`` hold the (a, A) and (b, B) pairs.  Summation
    stops under the policy's rules.  A Gamma pole in an upper factor is a
    DomainError.  A pole in a lower factor zeroes the term (1/Gamma continued
    analytically), and the term still counts toward max_terms.  At z == 0
    the series is exact after its n = 0 term.

    Returns (value, terms_used, signed_term_values).
    """
    log_abs_z = math.log(abs(z)) if z != 0.0 else 0.0
    z_sign = -1.0 if z < 0 else 1.0
    total = carry = 0.0
    terms: list[float] = []
    for n in range(pol.max_terms if z != 0.0 else 1):
        g_sign, log_ratio = _term_gamma_ratio(n, upper, lower)
        if g_sign == 0.0:
            terms.append(0.0)
            continue
        log_mag = log_pref + n * log_abs_z + log_ratio
        if log_mag > pol.overflow_guard:
            raise ConvergenceError(
                f"{what}: term {n} has log-magnitude {log_mag:.3g} "
                f"exceeding the overflow guard {pol.overflow_guard:.3g}"
            )
        term = sign_pref * z_sign ** n * g_sign * math.exp(log_mag)
        terms.append(term)
        # Kahan step: alternating series lose digits otherwise
        compensated = term + carry
        previous = total
        total += compensated
        carry = compensated - (total - previous)
        if total != 0.0 and abs(term) <= pol.rel_tol * abs(total):
            break
    return total, len(terms), terms


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


def _scalar_logs(v: np.ndarray, log=math.log) -> np.ndarray:
    """``log`` at every element of v, as the scalar loop takes its logs.

    numpy's log can differ from it by an ulp, and the term index multiplies
    that error in n log|z|; with the same logs the two loops' terms differ
    only by the last bit of exp.
    """
    return np.fromiter(map(log, v.tolist()), float, v.size)


def _wright_series_array(
    what: str,
    z: np.ndarray,
    upper: tuple[tuple[float, float], ...],
    lower: tuple[tuple[float, float], ...],
    pol: TruncationPolicy,
    log_pref: np.ndarray | float = 0.0,
    sign_pref: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """``_wright_series`` at every node of a 1-D array z, with one stop mask per node.

    Each node follows the scalar loop's arithmetic and stop rules.  The
    working arrays hold only the nodes still summing, so a converged node
    costs nothing further.  The overflow guard raises if any of them trips
    it.  Returns (values, terms_used).
    """
    values = np.zeros(z.shape)
    used = np.full(z.shape, pol.max_terms)
    nonzero = z != 0.0
    log_abs_z = np.zeros(z.shape)
    log_abs_z[nonzero] = _scalar_logs(np.abs(z[nonzero]))
    z_sign = np.where(z < 0, -1.0, 1.0)
    # the working set, indexed by node
    nodes = np.arange(z.size)
    log_pref = np.broadcast_to(log_pref, z.shape)
    sign = np.full(z.shape, sign_pref)
    total = np.zeros(z.shape)
    carry = np.zeros(z.shape)
    for n in range(pol.max_terms):
        if nodes.size == 0:
            break
        g_sign, log_ratio = _term_gamma_ratio(n, upper, lower)
        if g_sign == 0.0:
            stop = np.zeros(nodes.size, dtype=bool)
        else:
            log_mag = log_pref + n * log_abs_z + log_ratio
            peak = float(log_mag.max())
            if peak > pol.overflow_guard:
                raise ConvergenceError(
                    f"{what}: term {n} has log-magnitude {peak:.3g} "
                    f"exceeding the overflow guard {pol.overflow_guard:.3g}"
                )
            term = sign * g_sign * np.exp(log_mag)
            compensated = term + carry
            previous = total
            total = total + compensated
            carry = compensated - (total - previous)
            stop = (total != 0.0) & (np.abs(term) <= pol.rel_tol * np.abs(total))
        if n == 0:  # z == 0: exact after the n = 0 term
            stop |= ~nonzero
        if stop.any():
            values[nodes[stop]] = total[stop]
            used[nodes[stop]] = n + 1
            keep = ~stop
            nodes, log_pref, log_abs_z, z_sign, sign, total, carry = (
                arr[keep] for arr in (nodes, log_pref, log_abs_z, z_sign, sign, total, carry)
            )
        sign = sign * z_sign
    values[nodes] = total
    return values, used


def _check_nodes(x: np.ndarray, name: str) -> None:
    if x.ndim != 1:
        raise DomainError(f"array {name} must be 1-D, got {x.ndim} dimensions")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} must be finite")


_DEFAULT_POLICY = TruncationPolicy()


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
    half_x = abs(x) / 2.0
    # H_p(-x) = (-1)^(p+1) H_p(x) for integer p
    sign = -1.0 if (x < 0 and int(p) % 2 == 0) else 1.0
    value, used, _ = _wright_series(
        "struve_h", -half_x * half_x, (), ((1.5, 1.0), (p + 1.5, 1.0)), pol,
        (p + 1.0) * _log_half(abs(x)), sign,
    )
    return value, used


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
    k = params.k
    value, used, _ = _wright_series(
        "k_struve", -params.c * x * x / (4.0 * k), (), ((1.5, 1.0), (q + 1.5, 1.0)), pol,
        (q + 1.0) * _log_half(x) - (q + 0.5) * math.log(k),
    )
    return value, used


def _k_struve_array(params: KStruveParams, x: np.ndarray, pol: TruncationPolicy):
    """``k_struve_info`` at every node of a 1-D array x; returns (values, terms_used)."""
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
    k = params.k
    values[positive], used[positive] = _wright_series_array(
        "k_struve", -params.c * xp * xp / (4.0 * k), (), ((1.5, 1.0), (q + 1.5, 1.0)), pol,
        (q + 1.0) * _scalar_logs(xp, _log_half) - (q + 0.5) * math.log(k),
    )
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


def _check_ml_params(alpha: float, beta: float) -> None:
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")


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
    _check_ml_params(alpha, beta)
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    value, used, _ = _wright_series("mittag_leffler", z, (), ((beta, alpha),), pol)
    return value, used


def _mittag_leffler_array(alpha: float, beta: float, z: np.ndarray, pol: TruncationPolicy):
    """``mittag_leffler_info`` at every node of a 1-D array z; returns (values, terms_used)."""
    _check_ml_params(alpha, beta)
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
    # the (1, 1) lower pair is the n! of the series
    value, used, signed = _wright_series("fox_wright", z, w.upper, w.lower + ((1.0, 1.0),), pol)
    if used < pol.max_terms or w.delta > 0 or z == 0:
        return value, used
    # Borderline series truncated without meeting the stop rule: accelerate
    # if the terms alternate strictly.
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


def fox_wright(w: WrightParams, z: float, pol: TruncationPolicy = _DEFAULT_POLICY) -> float:
    return fox_wright_info(w, z, pol)[0]
