"""Print the closed form's usable horizon in double precision, as a Markdown table.

    python tests/make_horizon_table.py
    python tests/make_horizon_table.py --values
    python tests/make_horizon_table.py --sum VARIANT FORCING t=T [nu=.. d=.. a=.. mu=.. c=.. k=..]

The ``sumudu_consistent`` closed form is the outer series
N/n0 = sum_r k^-(q+1/2) (X/2)^(q+1) (-c X^2 / (4k))^r / (Gamma(r+3/2) Gamma(r+q+3/2))
       * Gamma(b_r) E_{nu,b_r}(-(d t)^nu),   b_r = nu (2r + q + 1) + 1,  q = mu/k,
with X = (d t)^nu (thm1), (a t)^nu (thm2) or t^nu (thm3).  Its condition
number kappa = sum|term| / |sum term| is computed here with every
Mittag-Leffler factor summed in mpmath at 60 digits plus the digits its own
cancellation, about e^(d t), takes.  In double precision the sum cannot be
trusted beyond about kappa * 2^-52 relative error, so the horizon is the
first t at which that passes 1e-8, found by scanning t by factors of 1.25
from 0.5 and bisecting, and printed to two significant digits.  The case is
n0 = d = k = c = 1, a = 2, mu = 1 at nu in {0.5, 0.9, 1.5}; at d = 1 thm1
and thm3 are the same series.  It runs for about five minutes, most of
them at nu = 0.5, where the horizon is longest.  ``--values`` prints
instead the series' sum itself at the long-horizon cases of ``VALUES``, to
25 digits, for the regression constants in ``tests/test_kinetics.py``
(a few seconds).  ``--sum`` prints N/n0 of either variant at one time t
and any parameters (the others default to the table's case), to 25
digits: ``as_printed`` is the displayed series, 1/t times the sum of
the same outer terms with x = (d t)^nu (thm1, thm2) or t (thm3), the
factor Gamma(b_r) E_{nu,b_r - nu}(z) and z = -(a t)^nu for thm2.
Pytest does not collect this file.
"""

import math
import sys

import mpmath as mp

NU = ("0.5", "0.9", "1.5")
D = K = C = 1
A, MU = 2, 1
LIMIT = 2.0**52 * 1e-8  # kappa at which kappa * 2^-52 passes 1e-8
# (forcing, nu, t) of the printed sums
VALUES = (("thm1", "0.3", 5), ("thm1", "0.5", 10), ("thm1", "0.5", 20),
          ("thm2", "0.5", 10), ("thm1", "0.9", 20), ("thm2", "0.9", 20))


def _mittag_leffler(alpha, beta, z):
    """E_{alpha,beta}(z) for z <= 0 by its power series at the current precision."""
    total, m = mp.mpf(0), 0
    reach = abs(z) ** (1 / alpha)  # the terms peak near m = |z|^(1/alpha) / alpha
    tiny = mp.mpf(10) ** -mp.mp.dps
    while True:
        term = z**m * mp.rgamma(alpha * m + beta)
        total += term
        if m > 2 * reach / alpha + 10 and abs(term) < tiny:
            return total
        m += 1


def outer_sums(forcing: str, nu: str, t: float, variant: str = "sumudu_consistent",
               d=D, a=A, mu=MU, c=C, k=K) -> tuple[mp.mpf, mp.mpf]:
    """(sum term, sum|term|) of a variant's outer series, N/n0, at time t."""
    printed = variant == "as_printed"
    rate = max(d, a) if printed and forcing == "thm2" else d
    cancel = int(float(rate) * t / math.log(10)) + 1  # digits the Mittag-Leffler sums lose
    with mp.workdps(60 + cancel):
        nu, t, d, a, c, k = (mp.mpf(v) for v in (nu, t, d, a, c, k))
        q = mp.mpf(mu) / k
        if printed:
            x = t if forcing == "thm3" else (d * t) ** nu
            z = -((a * t) ** nu) if forcing == "thm2" else -((d * t) ** nu)
        else:
            x = {"thm1": (d * t) ** nu, "thm2": (a * t) ** nu, "thm3": t**nu}[forcing]
            z = -((d * t) ** nu)
        lead = k ** -(q + 0.5) * (x / 2) ** (q + 1) / (t if printed else 1)
        ratio = -c * x * x / (4 * k)
        total = abs_total = mp.mpf(0)
        r = 0
        while True:
            outer = lead * ratio**r / (mp.gamma(r + 1.5) * mp.gamma(r + q + 1.5))
            b = nu * (2 * r + q + 1) + 1
            if b > 0 or b != mp.floor(b):  # Gamma(b) at a pole: the term is 0
                term = outer * mp.gamma(b) * _mittag_leffler(nu, b - nu if printed else b, z)
                total += term
                abs_total += abs(term)
            if r > abs(ratio) and abs(outer) < mp.mpf(10) ** -60 * abs_total:
                return total, abs_total
            r += 1


def kappa(forcing: str, nu: str, t: float) -> mp.mpf:
    """sum|term| / |sum term| of the sumudu_consistent outer series at time t."""
    total, abs_total = outer_sums(forcing, nu, t)
    return abs_total / abs(total)


def horizon(forcing: str, nu: str) -> float:
    """The first t at which kappa * 2^-52 passes 1e-8."""
    lo = hi = 0.5
    while kappa(forcing, nu, hi) < LIMIT:
        lo, hi = hi, hi * 1.25
    while hi - lo > 1e-3 * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if kappa(forcing, nu, mid) < LIMIT else (lo, mid)
    return hi


def main() -> None:
    if sys.argv[1:2] == ["--sum"]:
        variant, forcing, *pairs = sys.argv[2:]
        params = {key: float(value) for key, value in (pair.split("=") for pair in pairs)}
        nu, t = params.pop("nu", 0.9), params.pop("t")
        print(mp.nstr(outer_sums(forcing, nu, t, variant, **params)[0], 25))
        return
    if sys.argv[1:] == ["--values"]:
        for forcing, nu, t in VALUES:
            print(f"{forcing} nu={nu} t={t}: {mp.nstr(outer_sums(forcing, nu, t)[0], 25)}")
        return
    print("| forcing | " + " | ".join(f"nu = {nu}" for nu in NU) + " |")
    print("|---|" + "---|" * len(NU))
    for forcing in ("thm1", "thm2", "thm3"):
        cells = [f"{float(f'{horizon(forcing, nu):.2g}'):g}" for nu in NU]  # two digits
        print(f"| {forcing} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
