"""Closed-form solutions of the generalized fractional kinetic equation
N(t) = forcing(t) - d^nu * D^(-nu) N(t), and an independent Volterra solver
that adjudicates between the two printed/re-derived solution variants.

Two closed-form variants are first class:

* ``as_printed``   - the displayed solution series verbatim, including the 1/t
  prefactor and the Mittag-Leffler index nu*(2r + mu/k) + 1;
* ``sumudu_consistent`` - the same outer series with each term inverted by
  the power rule S^-1{u^m} = t^m / Gamma(m+1): no 1/t factor and the index
  shifted to nu*(2r + mu/k + 1) + 1.

The two differ because the source derivation uses two mutually inconsistent
inverse-transform rules; neither variant is asserted as the truth.  The
direct Volterra discretization is the ground truth and ``adjudicate``
measures both variants against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SolverError
from .specfun import (
    KStruveParams,
    TruncationPolicy,
    _signed_log_gamma,
    k_struve,
    mittag_leffler,
)
from .transforms import (
    TimeGrid,
    rl_boundary_weights,
    rl_fractional_integral,
    rl_interior_kernel,
    rl_weight_scale,
)

__all__ = [
    "FORCINGS",
    "VARIANTS",
    "KineticProblem",
    "SeriesSolution",
    "OracleResult",
    "AdjudicationReport",
    "classical_decay",
    "solve_closed_form",
    "solve_corollary_k1",
    "volterra_oracle",
    "adjudicate",
]

FORCINGS = ("thm1", "thm2", "thm3", "constant")
VARIANTS = ("as_printed", "sumudu_consistent")


@dataclass(frozen=True)
class KineticProblem:
    """One instance of the kinetic equation N = forcing - d^nu D^(-nu) N.

    ``forcing`` selects the k-Struve argument: ``thm1`` -> (d t)^nu,
    ``thm2`` -> (a t)^nu with a != d, ``thm3`` -> t^nu, and ``constant``
    is the unit forcing used only for validation.
    """

    n0: float
    d: float
    nu: float
    mu: float
    c: float = 1.0
    k: float = 1.0
    a: float = 2.0
    forcing: str = "thm1"

    def __post_init__(self):
        for name in ("n0", "d", "nu", "mu", "c", "k", "a"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be a finite real, got {v!r}")
        if self.n0 <= 0:
            raise DomainError(f"n0 must be > 0, got {self.n0}")
        if self.d <= 0:
            raise DomainError(f"d must be > 0, got {self.d}")
        if self.nu <= 0:
            raise DomainError(f"nu must be > 0, got {self.nu}")
        if self.k <= 0:
            raise DomainError(f"k must be > 0, got {self.k}")
        if self.mu <= -1.5 * self.k:
            raise DomainError(f"mu must exceed -(3/2)*k = {-1.5 * self.k}, got {self.mu}")
        if self.forcing not in FORCINGS:
            raise DomainError(f"forcing must be one of {FORCINGS}, got {self.forcing!r}")
        if self.forcing == "thm2":
            if self.a <= 0:
                raise DomainError(f"thm2 requires a > 0, got {self.a}")
            if self.a == self.d:
                raise DomainError("thm2 requires a != d")

    def struve_params(self) -> KStruveParams:
        return KStruveParams(k=self.k, nu=self.mu, c=self.c)

    def forcing_argument(self, t: float | np.ndarray) -> float | np.ndarray:
        """k-Struve argument at time t, a float or an ndarray of times."""
        if self.forcing == "thm1":
            return (self.d * t) ** self.nu
        if self.forcing == "thm2":
            return (self.a * t) ** self.nu
        if self.forcing == "thm3":
            return t ** self.nu
        raise DomainError("constant forcing has no k-Struve argument")

    def forcing_value(self, t: float | np.ndarray, pol: TruncationPolicy) -> float | np.ndarray:
        """Forcing at time t; a 1-D ndarray of times gives an ndarray in one call."""
        if self.forcing == "constant":
            return np.full(t.shape, self.n0) if isinstance(t, np.ndarray) else self.n0
        return self.n0 * k_struve(self.struve_params(), self.forcing_argument(t), pol)

    def forcing_at_zero(self) -> float:
        """Limit of the forcing at t -> 0+ (the oracle's starting value)."""
        if self.forcing == "constant":
            return self.n0
        if self.mu / self.k + 1 > 0:
            return 0.0
        raise DomainError(
            "forcing diverges at t=0 for mu/k <= -1; the oracle needs a finite start"
        )


@dataclass(frozen=True)
class SeriesSolution:
    """Closed-form solution samples with per-node truncation diagnostics."""

    grid: TimeGrid
    values: np.ndarray
    variant: str
    terms_used: np.ndarray
    truncation_flag: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        if not (self.values.shape == self.terms_used.shape == self.truncation_flag.shape == (n,)):
            raise DomainError("solution arrays must match the grid length")


@dataclass(frozen=True)
class OracleResult:
    """Direct Volterra-discretization solution plus an a-posteriori residual."""

    grid: TimeGrid
    values: np.ndarray
    value_at_zero: float
    residual_norm: float
    grid_spacing: float


@dataclass(frozen=True)
class AdjudicationReport:
    """Deviation of both closed-form variants from the Volterra oracle."""

    problem: KineticProblem
    grid: TimeGrid
    oracle: OracleResult
    printed: SeriesSolution
    consistent: SeriesSolution
    dev_printed: float
    dev_consistent: float
    dev_printed_at_end: float
    dev_consistent_at_end: float
    tol: float
    agreeing: tuple[str, ...]
    oracle_monotone_increasing: bool

    def summary(self) -> str:
        verdict = ", ".join(self.agreeing) if self.agreeing else "neither variant"
        return (
            f"max|dev|/max|N_oracle|: as_printed={self.dev_printed:.6g} "
            f"sumudu_consistent={self.dev_consistent:.6g}; "
            f"relative at t_max: as_printed={self.dev_printed_at_end:.6g} "
            f"sumudu_consistent={self.dev_consistent_at_end:.6g}; "
            f"within tol {self.tol:g} at t_max: {verdict}; "
            f"oracle monotone increasing: {self.oracle_monotone_increasing}"
        )


def classical_decay(n0: float, c: float, t: float) -> float:
    """Exponential decay n0 * e^(-c t) of the order-one kinetic model."""
    return n0 * math.exp(-c * t)


def _variant_inputs(p: KineticProblem, t: np.ndarray, variant: str):
    """Per-variant prefactor base X, Mittag-Leffler argument, index shift and 1/t flag."""
    tn = t ** p.nu
    if variant == "as_printed":
        ml_shift = 0.0
        over_t = True
        if p.forcing == "thm1":
            x = (p.d ** p.nu) * tn
            ml_arg = -(p.d ** p.nu) * tn
        elif p.forcing == "thm2":
            x = (p.d ** p.nu) * tn  # the displayed form keeps d in the power
            ml_arg = -(p.a ** p.nu) * tn
        else:  # thm3, printed: plain (t/2)^e with 1/t in front
            x = t.copy()
            ml_arg = -(p.d ** p.nu) * tn
    else:
        ml_shift = p.nu
        over_t = False
        if p.forcing == "thm1":
            x = (p.d ** p.nu) * tn
        elif p.forcing == "thm2":
            x = (p.a ** p.nu) * tn  # re-derived: forcing scale in the power
        else:
            x = tn.copy()
        ml_arg = -(p.d ** p.nu) * tn
    return x, ml_arg, ml_shift, over_t


def solve_closed_form(
    p: KineticProblem,
    grid: TimeGrid,
    variant: str = "sumudu_consistent",
    pol: TruncationPolicy = TruncationPolicy(),
) -> SeriesSolution:
    """Evaluate the closed-form solution series on the grid.

    The outer r-series follows the truncation policy per node (Kahan
    accumulation, stop on rel_tol or max_terms); the inner Mittag-Leffler
    factor is folded together with the large Gamma coefficient so neither
    overflows on its own.  That factor is max_terms terms at every node:
    the powers z^m are tabulated once per solve and the Gamma ratios once
    per r, so each r costs one matrix-vector product.  One table of
    log-Gammas holds every lower Gamma argument and the coefficient's.
    """
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
    t = grid.points()
    n = grid.n_points
    if p.forcing == "constant":
        # geometric resummation of the unit-forcing series, exact for both variants
        values = p.n0 * mittag_leffler(p.nu, 1.0, -((p.d * t) ** p.nu), pol)
        return SeriesSolution(
            grid=grid,
            values=values,
            variant=variant,
            terms_used=np.ones(n, dtype=int),
            truncation_flag=np.zeros(n, dtype=bool),
        )

    q = p.mu / p.k
    x, ml_arg, ml_shift, over_t = _variant_inputs(p, t, variant)
    log_pref_base = np.log(x / 2.0)
    log_t = np.log(t)
    log_k = math.log(p.k)
    log_abs_c = math.log(abs(p.c)) if p.c != 0 else 0.0
    c_step = -1.0 if p.c > 0 else 1.0

    # powers z^m of the Mittag-Leffler argument, m < max_terms, one row each
    powers = np.empty((pol.max_terms, n))
    powers[0] = 1.0
    for m in range(1, pol.max_terms):
        np.multiply(powers[m - 1], ml_arg, out=powers[m])
    # every lower Gamma argument is nu*j + c0 with j = m + 2r; one table of
    # (sign, ln|Gamma|) serves all r and grows with r
    c0 = p.nu * q + 1.0 + ml_shift
    big_index = 0 if variant == "sumudu_consistent" else 1
    gamma_sign = np.empty(3 * pol.max_terms)
    gamma_log = np.empty(3 * pol.max_terms)
    filled = 0

    totals = np.zeros(n)
    carry = np.zeros(n)
    terms_used = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    # at c = 0 only the r = 0 term is nonzero, so the series is exact after it
    for r in range(pol.max_terms if p.c != 0 else 1):
        if not active.any():
            break
        while filled < 2 * r + pol.max_terms:
            gamma_sign[filled], gamma_log[filled] = _signed_log_gamma(p.nu * filled + c0)
            filled += 1
        # Gamma argument of the resummed coefficient, nu*(2r + q + 1) + 1
        sign_big = gamma_sign[2 * r + big_index]
        log_big = gamma_log[2 * r + big_index]
        if sign_big == 0.0:
            terms_used[active] = r + 1
            continue
        # ln Gamma_k(r k + mu + 3k/2) = (r + q + 1/2) ln k + ln Gamma(r + q + 3/2)
        log_coeff = (
            r * log_abs_c
            - ((r + q + 0.5) * log_k + math.lgamma(r + q + 1.5))
            - math.lgamma(r + 1.5)
        )
        sign = c_step ** r * sign_big
        # scaled Mittag-Leffler: sum_m z^m Gamma(big) / Gamma(nu*(m + 2r) + c0),
        # a zero weight at a pole of the lower Gamma
        lower = slice(2 * r, 2 * r + pol.max_terms)
        weights = gamma_sign[lower] * np.exp(log_big - gamma_log[lower])
        ml = weights @ powers
        log_mag = log_coeff + (2 * r + q + 1) * log_pref_base
        if over_t:
            log_mag = log_mag - log_t
        peak = float(np.max(log_mag[active]))
        if peak > pol.overflow_guard:
            raise ConvergenceError(
                f"closed-form term r={r} has log-magnitude {peak:.3g} exceeding "
                f"the overflow guard {pol.overflow_guard:.3g}"
            )
        term = np.where(active, sign * np.exp(log_mag) * ml, 0.0)
        y = term - carry
        tot = totals + y
        carry = np.where(active, (tot - totals) - y, carry)
        totals = tot
        terms_used[active] = r + 1
        done = active & (totals != 0.0) & (np.abs(term) <= pol.rel_tol * np.abs(totals))
        active &= ~done
    values = p.n0 * totals
    return SeriesSolution(
        grid=grid,
        values=values,
        variant=variant,
        terms_used=terms_used,
        truncation_flag=active & (p.c != 0),
    )


def solve_corollary_k1(
    p: KineticProblem,
    grid: TimeGrid,
    pol: TruncationPolicy = TruncationPolicy(),
) -> SeriesSolution:
    """The k=1 corollary formulas, evaluated by an independent scalar path.

    Implements the printed k=1 reductions directly (classical Struve
    coefficients, no k-Gamma), for reduction testing against
    ``solve_closed_form(..., "as_printed")`` at k=1.
    """
    if p.k != 1.0:
        raise DomainError(f"corollary path requires k=1, got k={p.k}")
    if p.forcing == "constant":
        raise DomainError("constant forcing has no corollary formula")
    t = grid.points()
    n = grid.n_points
    mu, nu, c, d = p.mu, p.nu, p.c, p.d
    values = np.empty(n)
    terms_used = np.zeros(n, dtype=int)
    flags = np.zeros(n, dtype=bool)
    for i, ti in enumerate(t):
        if p.forcing == "thm1":
            xb = (d * ti) ** nu
            z = -((d * ti) ** nu)
        elif p.forcing == "thm2":
            xb = (d * ti) ** nu
            z = -((p.a * ti) ** nu)
        else:
            xb = ti
            z = -((d * ti) ** nu)
        total = 0.0
        comp = 0.0
        used = 0
        converged = False
        for r in range(pol.max_terms):
            used = r + 1
            big = nu * (2 * r + mu + 1) + 1.0
            sb, lb = _signed_log_gamma(big)
            if sb == 0.0:
                continue
            coeff_sign = ((-1.0 if c > 0 else 1.0) ** r if c != 0 else (1.0 if r == 0 else 0.0))
            if coeff_sign == 0.0:
                continue
            log_c_r = r * math.log(abs(c)) if c != 0 else 0.0
            log_coeff = log_c_r - math.lgamma(r + mu + 1.5) - math.lgamma(r + 1.5)
            beta = nu * (2 * r + mu) + 1.0
            ml = 0.0
            zp = 1.0
            for m in range(pol.max_terms):
                gs, gl = _signed_log_gamma(nu * m + beta)
                if gs != 0.0:
                    ml += gs * math.exp(lb - gl) * zp
                zp *= z
            term = (
                coeff_sign
                * sb
                * math.exp(log_coeff + (2 * r + mu + 1) * math.log(xb / 2.0) - math.log(ti))
                * ml
            )
            y = term - comp
            tot = total + y
            comp = (tot - total) - y
            total = tot
            if total != 0.0 and abs(term) <= pol.rel_tol * abs(total):
                converged = True
                break
        values[i] = p.n0 * total
        terms_used[i] = used
        flags[i] = not converged
    return SeriesSolution(
        grid=grid,
        values=values,
        variant="as_printed",
        terms_used=terms_used,
        truncation_flag=flags,
    )


_ORACLE_POLICY = TruncationPolicy(max_terms=200, rel_tol=1e-17)

# nodes per leaf of the oracle's divide-and-conquer solve.  At n = 512 to 8192,
# 16 and 32 were slower and 256 up to 2.4x slower; 128 was up to 13% faster
# in the oracle, about 1% of a validate call.
_LEAF = 64


def _leaf_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular Toeplitz matrix with first column c.

    It is again lower-triangular Toeplitz; its first column holds the
    leading coefficients of the power series 1/c.
    """
    size = len(c)
    g = np.empty(size)
    g[0] = 1.0 / c[0]
    for m in range(1, size):
        g[m] = -float(np.dot(c[1 : m + 1], g[m - 1 :: -1])) / c[0]
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    return np.where(lag >= 0, g[np.maximum(lag, 0)], 0.0)


def _solve_toeplitz(
    c: np.ndarray, rhs: np.ndarray, out: np.ndarray, lo: int, hi: int, leaf_inv: np.ndarray
) -> None:
    """Solve sum_{j<=i} c[i-j] out[j] = rhs[i] for lo <= i < hi.

    ``rhs[lo:hi]`` must already exclude the history of the nodes before lo;
    the solve updates it in place.  Each split subtracts the left half's
    history from the right half with one FFT product, so the error it adds
    at a node is relative to that node's own history, not to max|out|.
    """
    size = hi - lo
    if size <= _LEAF:
        out[lo:hi] = leaf_inv[:size, :size] @ rhs[lo:hi]
        return
    mid = lo + _LEAF * (-(-size // _LEAF) // 2)
    _solve_toeplitz(c, rhs, out, lo, mid, leaf_inv)
    # the linear convolution has no wrap-around below index size
    left = np.fft.rfft(out[lo:mid], size) * np.fft.rfft(c[:size])
    rhs[mid:hi] -= np.fft.irfft(left, size)[mid - lo :]
    _solve_toeplitz(c, rhs, out, mid, hi, leaf_inv)


def volterra_oracle(
    p: KineticProblem,
    grid: TimeGrid,
    pol: TruncationPolicy = _ORACLE_POLICY,
) -> OracleResult:
    """Solve the kinetic equation directly as a linear Volterra recurrence.

    The forcing F is evaluated on the whole grid in one array call.  The
    product-trapezoidal Riemann-Liouville weights make the recurrence
    N_i = (F_i - d^nu * sum_{j<i} w_ij N_j) / (1 + d^nu * w_ii) a
    lower-triangular Toeplitz system c * N = F - d^nu * w0 * N(0), with
    c_0 = 1 + d^nu * w_ii and c_m = d^nu * kernel[m-1].  It is solved by
    divide and conquer: 64-node leaves apply the inverse of the leading
    64x64 block, and each split removes the left half's history from the
    right half with one FFT convolution, O(n log^2 n) in all.  The error at
    a node stays relative to its forcing and history, as in the node-by-node
    recurrence; one global FFT product would err by eps * max|N| at every
    node, which swamps the small values near t = 0.  The residual norm is
    recomputed a posteriori by re-applying the fractional integral to the
    solution.
    """
    n = grid.n_points
    h = grid.spacing
    t = grid.points()
    dn = p.d ** p.nu
    forcing = p.forcing_value(t, pol)
    n_zero = p.forcing_at_zero()

    scale = rl_weight_scale(p.nu, h)
    diag = scale  # unscaled diagonal weight is exactly 1
    if 1.0 + dn * diag <= 0.0:
        raise SolverError("recurrence denominator 1 + d^nu * w_ii not positive")
    w0 = scale * rl_boundary_weights(p.nu, n)
    kernel = scale * rl_interior_kernel(p.nu, n)

    c = np.empty(n)
    c[0] = 1.0 + dn * diag
    c[1:] = dn * kernel
    rhs = forcing - dn * (w0 * n_zero)
    values = np.empty(n)
    _solve_toeplitz(c, rhs, values, 0, n, _leaf_inverse(c[:_LEAF]))

    rl = rl_fractional_integral(values, grid, p.nu, f_zero=n_zero)
    residual = float(np.max(np.abs(values - forcing + dn * rl)))
    return OracleResult(
        grid=grid,
        values=values,
        value_at_zero=n_zero,
        residual_norm=residual,
        grid_spacing=h,
    )


def adjudicate(
    p: KineticProblem,
    grid: TimeGrid,
    pol: TruncationPolicy = TruncationPolicy(max_terms=100),
    tol: float = 1e-3,
) -> AdjudicationReport:
    """Measure both closed-form variants against the Volterra oracle.

    Deviations are normalized by the oracle's maximum magnitude over the
    grid; the at-end deviations are relative at t = t_max, which is what the
    tolerance verdict uses.  Nothing about the printed formula is presumed.
    """
    oracle = volterra_oracle(p, grid)
    printed = solve_closed_form(p, grid, "as_printed", pol)
    consistent = solve_closed_form(p, grid, "sumudu_consistent", pol)
    norm = float(np.max(np.abs(oracle.values)))
    if norm == 0.0:
        norm = 1.0
    dev_p = float(np.max(np.abs(printed.values - oracle.values))) / norm
    dev_c = float(np.max(np.abs(consistent.values - oracle.values))) / norm
    end_ref = abs(oracle.values[-1]) or 1.0
    dev_p_end = abs(printed.values[-1] - oracle.values[-1]) / end_ref
    dev_c_end = abs(consistent.values[-1] - oracle.values[-1]) / end_ref
    agreeing = tuple(
        name
        for name, dev in (("as_printed", dev_p_end), ("sumudu_consistent", dev_c_end))
        if dev <= tol
    )
    monotone = bool(np.all(np.diff(oracle.values) >= 0))
    return AdjudicationReport(
        problem=p,
        grid=grid,
        oracle=oracle,
        printed=printed,
        consistent=consistent,
        dev_printed=dev_p,
        dev_consistent=dev_c,
        dev_printed_at_end=dev_p_end,
        dev_consistent_at_end=dev_c_end,
        tol=tol,
        agreeing=agreeing,
        oracle_monotone_increasing=monotone,
    )
