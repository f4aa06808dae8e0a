"""Closed-form solutions of the generalized fractional kinetic equation
N(t) = forcing(t) - d^nu * D^(-nu) N(t), and an independent Volterra solver
that adjudicates between the two printed/re-derived solution variants.

Two closed-form variants are first class:

* ``as_printed``   - the displayed solution series verbatim, including the 1/t
  prefactor and the Mittag-Leffler index nu*(2r + mu/k) + 1;
* ``sumudu_consistent`` - the same outer series with each term inverted by
  the power rule S^-1{u^m} = t^m / Gamma(m+1): no 1/t factor and the index
  shifted to nu*(2r + mu/k + 1) + 1.

Each is ``specfun``'s k-Struve series of the forcing argument with a
Mittag-Leffler factor on each term: ``specfun`` forms the series and reads
its Gamma-ratio rows, and this module adds the factors.  The two differ
because the source derivation uses two mutually inconsistent
inverse-transform rules; neither variant is asserted as the truth.  The
direct Volterra discretization is the ground truth and ``adjudicate``
measures both variants against it; a variant whose value at t_max is
flagged is undecided, never agreeing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, SolverError
from .specfun import (
    _OVERFLOW_GUARD,
    KStruveParams,
    TruncationPolicy,
    _argument_overflow,
    _check_nodes,
    _k_struve_series,
    _ratio_rows,
    _signed_log_gamma,
    _wright_series_array,
    k_struve,
)
from .transforms import TimeGrid, _rl_weights, _toeplitz_product

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

    def _forcing_rate(self) -> float:
        """The rate in the forcing argument (rate t)^nu: d, a, or 1 for thm3."""
        return {"thm1": self.d, "thm2": self.a}.get(self.forcing, 1.0)

    def forcing_argument(self, t: float | np.ndarray) -> float | np.ndarray:
        """k-Struve argument at time t, a float or an ndarray of times.

        An argument past the largest double is a ``ConvergenceError``.
        """
        if self.forcing == "constant":
            raise DomainError("constant forcing has no k-Struve argument")
        try:
            with np.errstate(over="ignore"):
                x = (self._forcing_rate() * t) ** self.nu
        except OverflowError:  # a float power past the largest double
            x = math.inf
        if not np.isfinite(x).all():
            raise ConvergenceError(f"{self.forcing} forcing argument overflows a double")
        return x

    def forcing_value(self, t: float | np.ndarray) -> float | np.ndarray:
        """Forcing at time t under the oracle's policy; an ndarray of times gives an ndarray.

        A 1-D array of times is one array sum of the k-Struve series, set up
        as the closed form sets up its own (``_k_struve_inputs``): ln(x/2)
        and ln|z| = 2 ln(x/2) + ln(|c|/k) come from numpy's log, not from a
        ``math.log`` per node, and below the normal range, where x has lost
        its bits or is 0, from ln t.  That ln|z| is a few ulps off the scalar
        loop's and term n carries n times the error, so the grid is within
        eps sum_n (a + b n) |term_n| of the scalar ``k_struve``, with a and b
        a few times |ln(x/2)|, |ln|z|| and |ln|term_n||; 45.5 eps sum|term|
        has been seen at c < 0.  A time 0 takes ``forcing_at_zero``.
        """
        if self.forcing == "constant":
            return np.full(t.shape, self.n0) if isinstance(t, np.ndarray) else self.n0
        x = self.forcing_argument(t)
        if not isinstance(x, np.ndarray):
            return self.n0 * k_struve(self.struve_params(), x, _ORACLE_POLICY)
        _check_nodes(t, "t")
        if (t < 0).any():
            raise DomainError(f"forcing_value requires times t >= 0, got {t.min()}")
        values = np.full(t.shape, self.forcing_at_zero() if (t == 0).any() else 0.0)
        later = t > 0
        with np.errstate(over="ignore"):
            z, log_abs_z, log_pref, lower = _k_struve_inputs(
                self, t[later], x[later], self._forcing_rate(), self.nu)
        if not np.isfinite(z).all():
            raise ConvergenceError(_argument_overflow("k_struve", x.max()))
        values[later] = self.n0 * _wright_series_array(
            "k_struve", z, (), lower, _ORACLE_POLICY, log_pref, log_abs_z)[0]
        return values

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
    truncation_flag: np.ndarray  # a budget stop, or a rounding estimate past _ROUNDING_LIMIT
    budget_stop: np.ndarray  # still summing when the term budget ran out

    def __post_init__(self):
        arrays = (self.values, self.terms_used, self.truncation_flag, self.budget_stop)
        if any(a.shape != (self.grid.n_points,) for a in arrays):
            raise DomainError("solution arrays must match the grid length")


@dataclass(frozen=True)
class OracleResult:
    """Direct Volterra-discretization solution plus an a-posteriori residual."""

    grid: TimeGrid
    values: np.ndarray
    value_at_zero: float
    residual_norm: float


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
        flagged = [sol.variant for sol in (self.printed, self.consistent)
                   if sol.truncation_flag[-1]]
        if flagged:
            verdict += f"; undecided (flagged at t_max): {', '.join(flagged)}"
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


def _rate_power(rate: float, nu: float) -> float:
    """rate^nu for the rates d and a, or ConvergenceError past the largest double."""
    try:
        return math.pow(rate, nu)
    except OverflowError:
        raise ConvergenceError(f"{rate!r} ** {nu!r} overflows a double") from None


def _k_struve_inputs(p: KineticProblem, t: np.ndarray, x: np.ndarray, rate: float,
                     power: float):
    """``_k_struve_series``' (z, ln|z|, log-prefactor, lower pairs) at x = (rate t)^power."""
    half = x / 2.0
    # below the normal range x / 2 has lost bits or is 0: ln(x/2) from ln t there
    tiny = x < sys.float_info.min
    log_half = np.log(np.where(tiny, 1.0, half))
    log_half[tiny] = power * (math.log(rate) + np.log(t[tiny])) - math.log(2.0)
    # ln|z| comes from the same ln(x/2); z sets only each node's sign and whether it is 0
    return _k_struve_series(p.mu / p.k, p.c, p.k, half, log_half)


def _variant_inputs(p: KineticProblem, t: np.ndarray, variants: tuple[str, ...]):
    """(b_0, b_1, the outer lower pairs, and per variant (z, ln|z|, log-prefactor, argument, row)).

    z, ln|z| and the log-prefactor are the outer series'.  Term r's factor is
    Gamma(b_(2r+1)) E_{nu,b_(2r+row)}(argument) on the lattice b_0 = nu q + 1,
    b_j = b_1 + (j - 1) nu, b_1 = nu q + 1 + nu (q = mu/k), so Gamma(b_(2r+1))
    is term r's large coefficient in both variants.  The constant forcing is
    one term at z = 0 whose factor is row 1 at b_1 = 1, as if q were -1:
    E_{nu,1}(-(d t)^nu).  The other outer series are specfun's k-Struve
    series of x = rate^e t^e.  ``as_printed`` keeps the displayed forms: d in
    the power for thm2 and a plain (t/2)^e for thm3, with 1/t in front, and
    reads the even rows.  ``sumudu_consistent`` puts the forcing's own
    argument in the power and reads the odd rows, its index shifted by nu.
    Variants with one argument share its array, and variants with one x share
    its series.
    """
    tn = t ** p.nu
    d_tn = _rate_power(p.d, p.nu) * tn
    if p.forcing == "constant":
        zero = np.zeros(t.shape)
        return 1.0 - p.nu, 1.0, (), [(zero, zero, zero, -d_tn, 1)] * len(variants)
    q = p.mu / p.k
    b0 = p.nu * q + 1.0
    d_arg, series, inputs = -d_tn, {}, []
    for variant in variants:
        if variant == "as_printed":
            ml_arg, row = (-_rate_power(p.a, p.nu) * tn if p.forcing == "thm2" else d_arg), 0
            x, rate, power = (t, 1.0, 1.0) if p.forcing == "thm3" else (d_tn, p.d, p.nu)
        elif p.forcing == "thm2":
            ml_arg, row, (x, rate, power) = d_arg, 1, (_rate_power(p.a, p.nu) * tn, p.a, p.nu)
        else:
            ml_arg, row = d_arg, 1
            x, rate, power = (tn, 1.0, p.nu) if p.forcing == "thm3" else (d_tn, p.d, p.nu)
        if (rate, power) not in series:
            series[rate, power] = _k_struve_inputs(p, t, x, rate, power)
        z, log_abs_z, log_pref, lower = series[rate, power]
        if variant == "as_printed":
            log_pref = log_pref - np.log(t)
        inputs.append((z, log_abs_z, log_pref, ml_arg, row))
    return b0, b0 + p.nu, lower, inputs


def _times_n0(n0: float, totals: np.ndarray) -> np.ndarray:
    """n0 * totals, or ConvergenceError if any product is not finite."""
    # the largest product as a Python float overflows without a warning; a
    # NaN total makes the maximum NaN
    if not math.isfinite(n0 * float(np.max(np.abs(totals)))):
        raise ConvergenceError("closed form: n0 times the series sum is not finite")
    return n0 * totals


def solve_closed_form(
    p: KineticProblem,
    grid: TimeGrid,
    variant: str = "sumudu_consistent",
    pol: TruncationPolicy = TruncationPolicy(),
) -> SeriesSolution:
    """Evaluate the closed-form solution series on the grid.

    The outer r-series is the k-Struve series of the forcing argument x
    (divided by t for ``as_printed``) with term r multiplied at each node by
    a Mittag-Leffler factor, scaled by the large Gamma coefficient so that
    neither overflows alone; the constant forcing's n0 E_{nu,1}(-(d t)^nu)
    is its one term at z = 0, so its ``terms_used`` is 1.  The shared array
    loop ``_wright_series_array`` sums it under the truncation policy and
    marks the nodes that stop on the term budget.  The factors are not
    bound by that budget: one backward recurrence over the Gamma lattice
    b_0 = nu q + 1, b_j = (nu q + 1 + nu) + (j - 1) nu (q = mu/k) gives all
    of them, each summed until its dropped tail is below 2^-64 of its
    largest term.  Term r reads row 2r (``as_printed``) or row 2r + 1
    (``sumudu_consistent``), so both variants read one walk of the lattice
    where their factors share an argument (thm1, thm3); thm2's two
    arguments walk it one after the other.  ``validate`` and ``solve`` sum
    both variants in one pass that gives each the sums, terms used, budget
    stops and flags this function gives it alone.  A node is flagged too
    where its rounding estimate, 2^-52 times the magnitudes of every term it
    gathered in both series, passes 1e-8 of its value: the factors lose
    about e^(d t) 2^-52 to cancellation, and the outer series its condition
    number times 2^-52.  The factors' magnitudes come from the argument's
    first walk whose rows cover the terms used: the first walk, or the
    rebuild if a node used a term past it.

    A series sum that is not finite, n0 times it, d^nu or a^nu past the
    largest double, or a factor whose terms pass the overflow guard before
    its tail can be dropped raises ``ConvergenceError``.  At a large t_max
    a factor or a term can overflow: the sum is evaluated with numpy's
    overflow and invalid-value warnings off, because an inf or NaN that
    reaches a node's running sum keeps it non-finite to the end, and that
    one check after the loop raises.
    """
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return _solutions(p, grid, (variant,), pol)[0]


# outer terms of the first Mittag-Leffler lattice; the figures at t_max = 1 use
# at most 10, and a longer outer series rebuilds it once for all of max_terms
_FIRST_LATTICE_TERMS = 16
_LATTICE_ROWS = 1 << 16  # past these a factor is a ConvergenceError, not a hang
# a node whose rounding estimate, 2^-52 times the magnitudes of every term it
# gathered in both series, passes this share of its value is flagged; the
# magnitudes are taken at the last node of each of at most this many blocks
_ROUNDING_LIMIT = 1e-8
_ROUNDING_BLOCKS = 64


def _ml_lattice(
    lattice: tuple[float, float, float], gammas: tuple[list[float], list[float]], most: int,
    z: np.ndarray, z_max: float, refs: np.ndarray, reads: tuple[int, ...], count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(u_j at z, w_j at refs), u_j = e^L_j E_{nu,b_j}(z), b_j on ``lattice``.

    ``lattice`` is (b_0, b_1, nu), b_j = b_1 + (j - 1) nu for j >= 1, and
    ``gammas`` its record (s_j, L_j) = ``_signed_log_gamma(b_j)``: two lists
    that each walk extends past the rows already in them.  At a pole a walk
    sets L_j = L_{j+1}, the L of the nearest row above that is no pole, so
    every walk sets the same value.
    z is one argument at the nodes, bounded by z_max on the whole grid, and
    the rows 2r + i, i in ``reads`` and r < count, are stored.
    E_{a,b}(z) = 1/Gamma(b) + z E_{a,b+a}(z) runs down the lattice as
    u_j = s_j + e^(L_j - L_{j+1}) z u_{j+1}, which damps where b_j^nu > |z|.
    The walk starts past rows 0 to 2 count - 1, at the first row j with
    b_{j-1} > 0 whose term at z_max falls and is below 2^-64 of each of
    those rows' largest term; ln Gamma is convex there, so later terms fall
    faster.  The rows past them up to the smallest term, and r < most, meet
    the same rule: the arrays hold the rows j < 2 served, and the rows
    not read are not set.  A term past the overflow guard relative to the
    first of a row read is a ConvergenceError.  w_j is the same recurrence
    at the magnitudes ``refs`` with |s_j| for s_j: e^L_j times the sum of
    the magnitudes of E_{nu,b_j}'s terms there, over the same rows, so a
    ref past z_max drops more than 2^-64.
    """
    if not math.isfinite(z_max):
        raise ConvergenceError("closed form: the Mittag-Leffler argument is not finite")
    b0, b1, nu = lattice
    first, top = min(reads), 2 * count - 1
    log_z = math.log(max(z_max, math.ulp(0.0)))  # finite at z = 0
    lead = -math.inf  # the largest L_j - (j - 1) log|z| of the rows read so far
    low = math.inf  # the smallest from row top on, at or below every row's largest
    sign, log_gamma = gammas
    for j in range(_LATTICE_ROWS):
        if j == len(sign):
            s, g = _signed_log_gamma(b1 + nu * (j - 1) if j else b0)
            sign.append(s)
            log_gamma.append(g)
        s, g = sign[j], log_gamma[j]
        if j < first or s == 0.0:
            continue
        scaled = g - (j - 1) * log_z
        if not lead - scaled <= _OVERFLOW_GUARD:
            raise ConvergenceError(
                f"closed form: Mittag-Leffler term {j - first} has log-magnitude "
                f"{lead - scaled!r} relative to its row's first, exceeding the overflow "
                f"guard {_OVERFLOW_GUARD:.3g}"
            )
        if j <= top:
            if j % 2 in reads:
                lead = max(lead, scaled)
        elif b1 + nu * (j - 2) > 0 and log_z + log_gamma[j - 1] < g:
            if low - scaled < -64 * math.log(2.0):
                break
        if j >= top and scaled <= low:
            low, low_at = scaled, j
    else:
        raise ConvergenceError(f"closed form: a Mittag-Leffler factor needs {_LATTICE_ROWS}+ rows")
    x = np.concatenate((z, refs))
    stored = 2 * max(count, min(most, (low_at - 1) // 2 + 1))
    rows = np.empty((stored, x.size))
    u = spare = np.zeros(x.size)  # u_j = 0: the terms from row j on are dropped
    for i in range(j - 1, first - 1, -1):
        s = sign[i]
        if s == 0.0:
            log_gamma[i] = log_gamma[i + 1]
        u = np.multiply(u, x, out=rows[i] if i < stored and i % 2 in reads else spare)
        u *= math.exp(log_gamma[i] - log_gamma[i + 1])
        u += s
        if s < 0.0:
            u[z.size:] += 2.0  # |s_j| at refs
    return rows[:, : z.size], rows[:, z.size :]


def _rounding_flags(
    totals: np.ndarray, log_pref: np.ndarray, log_abs_z: np.ndarray, edges: np.ndarray,
    lower: tuple[tuple[float, float], ...], scales: dict[int, float], sizes: np.ndarray,
) -> np.ndarray:
    """The nodes whose rounding estimate passes ``_ROUNDING_LIMIT`` of their sum.

    A node's estimate is 2^-52 times its mass: the sum over the terms r of
    |outer term r| times e^scales[r] times the magnitudes of the terms of
    r's factor.  The outer weight 1/|prod Gamma(b + B r)| is the array
    loop's own row; a term with no scale, at a pole of Gamma(big), weighs 0.
    Over the prefactor e^log_pref, both grow with t, so they are taken at
    the last node of the node's block: block b holds the nodes edges[b] to
    edges[b + 1] - 1, and sizes[r, b] holds r's factor magnitudes at its
    last node.  That over-estimates a node's mass by at most its growth
    across the block.
    """
    rows = _ratio_rows(max(scales) + 1, (), lower, False)  # the outer array loop's rows
    log_weight = np.full(len(rows), -math.inf)
    for r, scale in scales.items():
        log_weight[r] = rows[r][2] + scale
    log_weight -= math.log(_ROUNDING_LIMIT * 2.0**52)
    terms = log_weight.size
    per_block = np.exp(np.arange(terms)[:, None] * log_abs_z[edges[1:] - 1] + log_weight[:, None])
    per_block = np.repeat((per_block * sizes[:terms]).sum(axis=0), edges[1:] - edges[:-1])
    return ~(np.exp(log_pref) * per_block <= np.abs(totals))


@np.errstate(over="ignore", invalid="ignore")
def _solutions(p: KineticProblem, grid: TimeGrid, variants: tuple[str, ...],
               pol: TruncationPolicy) -> tuple[SeriesSolution, ...]:
    """``solve_closed_form`` for each of ``variants``, summed in one pass.

    The variants' outer series are one array loop over their nodes laid end
    to end.  Variants whose factors share an argument and a first lattice
    share its walks, each over the rows all of them read; a factor reads the
    latest walk, and the argument is walked again, for the whole term
    budget, when one of its variants has working nodes past that walk's
    rows.  So each variant gets the sums, terms used and budget stops it
    gets alone.  Its rounding estimate reads the block magnitudes of the
    first walk whose rows cover the terms it used, which depends on those
    terms only: the walk it reads alone.  All walks extend one record
    (s_j, L_j) of the lattice, and the estimate reads its Gammas there too.
    """
    t = grid.points()
    n = t.size
    b0, b1, lower, inputs = _variant_inputs(p, t, variants)
    # a variant's key is its argument and its first lattice's outer terms:
    # one where z is 0 at every node (the constant forcing, c = 0), so that
    # the outer series ends at r = 0
    keys = [(id(arg), _FIRST_LATTICE_TERMS if z.any() else 1) for z, *_, arg, _ in inputs]
    reads = [tuple(row for other, (*_, row) in zip(keys, inputs) if other == key) for key in keys]
    # the lattice's record (s_j, L_j), which every walk extends
    sign, log_gamma = gammas = [], []
    # variant v's key's walks, the latest last: (rows at every node, sizes at
    # each rounding block's last node)
    shared = {key: [] for key in keys}
    walks = [shared[key] for key in keys]
    # the first node of each block and one past the last
    blocks = min(n, _ROUNDING_BLOCKS)
    edges = np.arange(blocks + 1) * n // blocks
    cuts = [v * n for v in range(1, len(inputs))]

    def ml_factor(r: int, nodes: np.ndarray) -> np.ndarray | None:
        # None at a pole of Gamma(big)
        big_sign, big_log = _signed_log_gamma(b1 + p.nu * (2 * r))
        if big_sign == 0.0:
            return None
        # variant v's working nodes are nodes[bounds[v]:bounds[v + 1]]
        bounds = [0, *nodes.searchsorted(cuts).tolist(), nodes.size] if cuts else [0, nodes.size]
        factors = []
        for v, ((*_, arg, row), ws, lo, hi) in enumerate(zip(inputs, walks, bounds, bounds[1:])):
            if lo == hi:
                continue
            if not ws or 2 * r >= len(ws[-1][0]):
                if ws:  # a superseded walk keeps its sizes for the flags
                    # (a copy: the sizes are a view that would keep every row)
                    ws[-1] = (), ws[-1][1].copy()
                # at every node: a rebuild is rare, and its rows cost little more there
                ws.append(_ml_lattice(
                    (b0, b1, p.nu), gammas, pol.max_terms, arg, float(np.max(np.abs(arg))),
                    np.abs(arg[edges[1:] - 1]), reads[v],
                    min(pol.max_terms if ws else keys[v][1], pol.max_terms)))
            ml = ws[-1][0][2 * r + row]
            if hi - lo != n:
                ml = ml[nodes[lo:hi] - v * n]
            factors.append((big_sign * math.exp(big_log - log_gamma[2 * r + row])) * ml)
        return factors[0] if len(factors) == 1 else np.concatenate(factors)

    z, log_abs_z, log_pref = inputs[0][:3] if len(inputs) == 1 else (
        np.concatenate(column) for column in list(zip(*inputs))[:3])
    totals, used, converged = _wright_series_array(
        "closed form", z, (), lower, pol, log_pref, log_abs_z=log_abs_z, factor=ml_factor,
    )
    solutions = []
    for v, (variant, (_, log_abs_z, log_pref, _, row), ws) in enumerate(
            zip(variants, inputs, walks)):
        part = slice(v * n, v * n + n)
        values = _times_n0(p.n0, totals[part])
        terms = used[part].max()
        # per term r its nodes reached, ln|Gamma(big)| - L_(2r+row), big = b_(2r+1); none
        # at a pole of Gamma(big), whose row no walk need have reached
        scales = {r: log_gamma[2 * r + 1] - log_gamma[2 * r + row]
                  for r in range(min(terms, len(sign) // 2)) if sign[2 * r + 1] != 0.0}
        rounded = np.zeros(n, dtype=bool)
        if scales:
            # the first walk that served every term used
            sizes = next(w[1] for w in ws if len(w[1]) >= 2 * terms)
            rounded = _rounding_flags(totals[part], log_pref, log_abs_z, edges, lower, scales,
                                      sizes[row::2])
        stopped = ~converged[part]
        solutions.append(SeriesSolution(grid, values, variant, used[part], stopped | rounded,
                                        stopped))
    return tuple(solutions)


def _solve_variants(p: KineticProblem, grid: TimeGrid, pol: TruncationPolicy):
    """``solve_closed_form`` for each of ``VARIANTS``, summed in one pass.

    The pass gives each variant its solo values, terms used, budget stops
    and flags (see ``_solutions``).  The constant forcing's one closed form
    is summed once.  On a ``ConvergenceError`` the pass gives way to one
    solve per variant, so the first variant that fails alone names the
    failure, and a variant whose nodes are all parked in the pass, yet ask
    for a lattice its own solve never builds, fails nothing.
    """
    if p.forcing == "constant":
        printed = solve_closed_form(p, grid, VARIANTS[0], pol)
        return printed, replace(printed, variant=VARIANTS[1])
    try:
        return _solutions(p, grid, VARIANTS, pol)
    except ConvergenceError:
        return tuple(solve_closed_form(p, grid, variant, pol) for variant in VARIANTS)


def solve_corollary_k1(
    p: KineticProblem,
    grid: TimeGrid,
    pol: TruncationPolicy = TruncationPolicy(),
) -> SeriesSolution:
    """The k=1 corollary formulas: the printed solution with k set to 1.

    The corollaries are the general k-Struve solution at k=1, so this is
    ``solve_closed_form(p, grid, "as_printed", pol)`` behind the corollaries'
    domain checks.
    """
    if p.k != 1.0:
        raise DomainError(f"corollary path requires k=1, got k={p.k}")
    if p.forcing == "constant":
        raise DomainError("constant forcing has no corollary formula")
    return solve_closed_form(p, grid, "as_printed", pol)


_ORACLE_POLICY = TruncationPolicy(max_terms=200, rel_tol=1e-17)

# nodes per leaf of the oracle's divide-and-conquer solve.  With the Newton
# leaf inverse, 128 made the oracle 12-13% slower than 64 at n = 512 and 1024
# and 13-15% faster at n = 2048 to 8192; a validate mix of mostly n = 512
# showed no difference beyond noise.  With the old inverse, 16 and 32 were
# slower and 256 up to 2.4x slower.
_LEAF = 64

# largest split whose history product is a direct np.convolve: per split it
# took 5 and 9 us against 14 and 16 us for numpy's three FFT calls at 128 and
# 256 nodes, and 22 against 20 us at 512
_DIRECT_SPLIT = 256


def _leaf_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular Toeplitz matrix with first column c.

    It is again lower-triangular Toeplitz; its first column holds the
    leading coefficients of the power series 1/c.
    """
    size = len(c)
    g = np.zeros(size)
    g[0] = 1.0 / c[0]
    # Newton's iteration g <- g - g (c g - 1), each product cut at m terms,
    # doubles the number of correct terms per round
    m = 1
    while m < size:
        m = min(2 * m, size)
        residual = np.convolve(c[:m], g[:m])[:m]
        residual[0] -= 1.0
        g[:m] -= np.convolve(g[:m], residual)[:m]
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    return np.where(lag >= 0, g[np.maximum(lag, 0)], 0.0)


def _solve_toeplitz(
    c: np.ndarray, rhs: np.ndarray, out: np.ndarray, lo: int, hi: int, leaf_inv: np.ndarray,
    spectra: dict[int, np.ndarray],
) -> None:
    """Solve sum_{j<=i} c[i-j] out[j] = rhs[i] for lo <= i < hi.

    ``rhs[lo:hi]`` must already exclude the history of the nodes before lo;
    the solve updates it in place.  Each split subtracts the left half's
    history from the right half with one convolution product, so the error
    it adds at a node is relative to that node's own history, not to
    max|out|.  Up to ``_DIRECT_SPLIT`` nodes the product is ``np.convolve``;
    above, an FFT product, and ``spectra`` holds ``rfft(c[:size])`` by size,
    filled as the splits need them.
    """
    size = hi - lo
    if size <= _LEAF:
        out[lo:hi] = leaf_inv[:size, :size] @ rhs[lo:hi]
        return
    mid = lo + _LEAF * (-(-size // _LEAF) // 2)
    _solve_toeplitz(c, rhs, out, lo, mid, leaf_inv, spectra)
    if size <= _DIRECT_SPLIT:
        rhs[mid:hi] -= np.convolve(out[lo:mid], c[:size])[mid - lo : size]
    else:
        if size not in spectra:
            spectra[size] = np.fft.rfft(c[:size])
        # the linear convolution has no wrap-around below index size
        left = np.fft.rfft(out[lo:mid], size) * spectra[size]
        rhs[mid:hi] -= np.fft.irfft(left, size)[mid - lo :]
    _solve_toeplitz(c, rhs, out, mid, hi, leaf_inv, spectra)


def volterra_oracle(p: KineticProblem, grid: TimeGrid) -> OracleResult:
    """Solve the kinetic equation directly as a linear Volterra recurrence.

    The forcing F is evaluated on the whole grid in one array call.  The
    product-trapezoidal Riemann-Liouville weights make the recurrence
    N_i = (F_i - d^nu * sum_{j<i} w_ij N_j) / (1 + d^nu * w_ii) a
    lower-triangular Toeplitz system c * N = F - d^nu * w0 * N(0), with
    c_0 = 1 + d^nu * w_ii and c_m = d^nu * kernel[m-1].  It is solved by
    divide and conquer: 64-node leaves apply the inverse of the leading
    64x64 block, and each split removes the left half's history from the
    right half with one convolution (direct up to 256 nodes, by FFT above),
    O(n log^2 n) in all.  The error at
    a node stays relative to its forcing and history, as in the node-by-node
    recurrence; one global FFT product would err by eps * max|N| at every
    node, which swamps the small values near t = 0.  The residual norm is
    max|c * N - rhs| over the grid, with the Toeplitz column and right-hand
    side of the solve, computed by the Toeplitz product that
    ``rl_fractional_integral`` uses.
    """
    n = grid.n_points
    dn = _rate_power(p.d, p.nu)
    n_zero = p.forcing_at_zero()  # first: a forcing that diverges at 0 is a DomainError
    forcing = p.forcing_value(grid.points())

    boundary, column = _rl_weights(p.nu, grid.spacing, n)
    c = dn * column
    c[0] += 1.0
    if c[0] <= 0.0:
        raise SolverError("recurrence denominator 1 + d^nu * w_ii not positive")
    rhs = forcing - dn * (boundary * n_zero)
    # The solve is linear in rhs: it runs on rhs scaled by the power of two
    # that brings max|rhs| into [1/2, 1), which rounds nothing, and keeps the
    # FFT products' sums from overflowing when |N| nears the largest double.
    peak = float(np.max(np.abs(rhs)))
    if not math.isfinite(peak):
        raise SolverError("oracle right-hand side is not finite")
    shift = math.frexp(peak)[1]
    scaled = np.empty(n)
    _solve_toeplitz(c, np.ldexp(rhs, -shift), scaled, 0, n, _leaf_inverse(c[:_LEAF]), {})
    peak = float(np.max(np.abs(scaled)))
    if not (math.isfinite(peak) and math.frexp(peak)[1] + shift <= 1024):
        raise SolverError("oracle solution exceeds the largest double")
    values = np.ldexp(scaled, shift)
    residual = float(np.max(np.abs(_toeplitz_product(c, values) - rhs)))
    return OracleResult(grid=grid, values=values, value_at_zero=n_zero, residual_norm=residual)


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
    A variant whose node at t_max is flagged (``truncation_flag[-1]``) is
    never agreeing, whatever its deviation; the summary names it undecided.
    A NaN, infinite or negative ``tol`` is a ``DomainError``.
    """
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be a finite real >= 0, got {tol!r}")
    oracle = volterra_oracle(p, grid)
    printed, consistent = _solve_variants(p, grid, pol)
    norm = float(np.max(np.abs(oracle.values)))
    if norm == 0.0:
        norm = 1.0
    with np.errstate(over="ignore"):  # a deviation past the largest double is inf
        dev_p = float(np.max(np.abs(printed.values - oracle.values))) / norm
        dev_c = float(np.max(np.abs(consistent.values - oracle.values))) / norm
        end_ref = abs(oracle.values[-1]) or 1.0
        dev_p_end = abs(printed.values[-1] - oracle.values[-1]) / end_ref
        dev_c_end = abs(consistent.values[-1] - oracle.values[-1]) / end_ref
    agreeing = tuple(
        sol.variant
        for sol, dev in ((printed, dev_p_end), (consistent, dev_c_end))
        if dev <= tol and not sol.truncation_flag[-1]
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
