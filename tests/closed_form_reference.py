"""The closed-form solution summed term by term: the reference ``solve_closed_form`` is held to.

It builds each variant's inputs from the displayed formulas itself, so at
k = 1 it also checks the printed corollaries' inputs.
"""

import math

import numpy as np

from kstruve.specfun import _signed_log_gamma


def variant_inputs(p, t, variant):
    """(prefactor base x, Mittag-Leffler argument z, index shift, 1/t in front) per node.

    ``as_printed`` keeps the displayed forms: thm1 and thm2 raise (d t)^nu to
    the series power, thm3 the plain t, all under a 1/t factor, and thm2's
    Mittag-Leffler argument is -(a t)^nu.  ``sumudu_consistent`` raises the
    forcing's own argument, (d t)^nu, (a t)^nu or t^nu, takes -(d t)^nu as the
    Mittag-Leffler argument and shifts its index by nu.
    """
    dt = p.d ** p.nu * t ** p.nu
    at = p.a ** p.nu * t ** p.nu
    if variant == "as_printed":
        x = {"thm1": dt, "thm2": dt, "thm3": t}[p.forcing]
        z = -(at if p.forcing == "thm2" else dt)
        return x, z, 0.0, True
    x = {"thm1": dt, "thm2": at, "thm3": t ** p.nu}[p.forcing]
    return x, -dt, p.nu, False


def closed_form_reference(p, grid, variant, pol):
    """The closed-form r-series with its Mittag-Leffler factor summed term by term.

    For each r and each m it takes the Gamma ratio Gamma(big)/Gamma(nu*m + beta)
    and adds weight * z^m over the grid, skipping zero weights.  The m-sum
    runs to its own tolerance, whatever ``pol`` says: it stops at the first
    m with nu*(m - 1) + beta > 0 whose term falls from the one before at
    max|z| and is below 2^-64 of the largest term so far.  A term r whose
    Gamma(big) is at a pole is zero and skipped.  A node stops on the
    tolerance with a nonzero sum; where the outer series' argument
    -c (x/2)^2 / k is 0 (c = 0, or x/2 squared underflows) after term 0,
    which is then the whole sum; and with a zero sum once its outer term
    lies below ln of the smallest subnormal minus 1, where exp gives 0, and
    the next one is smaller.  The outer log-magnitudes are concave in r
    (ln Gamma is convex, and r + q + 1.5 > 0), so every later term is 0 too.
    A node is flagged where it stops on the budget, or where 2^-52 times its
    mass, the sum over its terms r of |outer term r| times the sum over m of
    |weight| |z|^m, passes 1e-8 of its value.  Returns (values, terms_used,
    truncation_flag).
    """
    t = grid.points()
    n = grid.n_points
    q = p.mu / p.k
    x, ml_arg, ml_shift, over_t = variant_inputs(p, t, variant)
    log_z = math.log(max(float(np.max(np.abs(ml_arg))), math.ulp(0.0)))
    log_pref_base = np.log(x / 2.0)
    outer_z = -p.c * (x / 2.0) * (x / 2.0) / p.k
    # ln|c|/k, the outer log-magnitude's step in r past its 2 ln(x/2) and Gammas
    log_c = math.log(abs(p.c) / p.k) if p.c else -math.inf
    totals = np.zeros(n)
    carry = np.zeros(n)
    mass = np.zeros(n)
    terms_used = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    for r in range(pol.max_terms):
        if not active.any():
            break
        sign_big, log_big = _signed_log_gamma(p.nu * (2 * r + q + 1) + 1.0)
        # the coefficient 1/Gamma(big) is 0 at a pole: a zero term, no stop test
        stop = np.zeros(n, dtype=bool)
        if sign_big != 0.0:
            log_coeff = (
                (r * math.log(abs(p.c)) if r else 0.0)
                - ((r + q + 0.5) * math.log(p.k) + math.lgamma(r + q + 1.5))
                - math.lgamma(r + 1.5)
            )
            sign = (-1.0 if p.c > 0 else 1.0) ** r * sign_big
            beta = p.nu * (2 * r + q) + 1.0 + ml_shift
            ml = np.zeros(n)
            ml_size = np.zeros(n)
            zp = np.ones(n)
            largest = previous = -math.inf  # term log-magnitudes at max|z|
            for m in range(1 << 16):
                g_sign, g_log = _signed_log_gamma(p.nu * m + beta)
                if g_sign != 0.0:
                    ml += g_sign * math.exp(log_big - g_log) * zp
                    ml_size += math.exp(log_big - g_log) * np.abs(zp)
                    size = m * log_z - g_log
                    falling = p.nu * m + beta > p.nu and size < previous
                    if falling and size < largest - 64 * math.log(2.0):
                        break
                    largest, previous = max(largest, size), size
                zp *= ml_arg
            else:
                raise AssertionError("the Mittag-Leffler factor did not reach its tolerance")
            log_mag = log_coeff + (2 * r + q + 1) * log_pref_base
            if over_t:
                log_mag = log_mag - np.log(t)
            term = np.where(active, sign * np.exp(log_mag) * ml, 0.0)
            mass += np.where(active, np.exp(log_mag) * ml_size, 0.0)
            y = term - carry
            tot = totals + y
            carry = np.where(active, (tot - totals) - y, carry)
            totals = tot
            stop = (totals != 0.0) & (np.abs(term) <= pol.rel_tol * np.abs(totals))
            # term r + 1 over term r is |z| / ((r + 1.5) (r + q + 1.5))
            shrinks = 2.0 * log_pref_base + log_c < math.log((r + 1.5) * (r + q + 1.5))
            stop |= (totals == 0.0) & (log_mag < math.log(math.ulp(0.0)) - 1.0) & shrinks
        terms_used[active] = r + 1
        if r == 0:
            stop |= outer_z == 0.0
        active &= ~stop
    return p.n0 * totals, terms_used, active | ~(2.0**-52 * mass <= 1e-8 * np.abs(totals))
