"""Print one SHA-256 over the outcomes of a seeded battery of kernel calls.

    PYTHONPATH=src python tests/kernel_outcomes.py [--seed 1] [--lines]

An outcome is the value's ``float.hex`` and ``terms_used``, or the type and
message of the error the call raised.  The battery runs twice: cold, with
the Gamma-ratio tables (and an older checkout's image-params cache)
cleared before every call, then warm, with every table already grown.
It covers ``struve_h`` (x < 0 too), ``k_struve`` at c in {1, -1, 0}, ``mittag_leffler`` (lower
Gamma poles, z down to -35), ``fox_wright`` (borderline on and inside the
radius, entire, an upper pole), ``sumudu_kstruve_closed``,
``sumudu_numeric`` of ``k_struve``, ``inverse_sumudu_kstruve`` (t from 0
to 1e300, nu/k <= 0 too), and series arguments past the overflow
guard, under the policies (50, 1e-16), (200, 0) and (7, 1e-16); the
overflow cases also run at one term.  Array calls are hashed node by node:
``k_struve`` and ``mittag_leffler`` on 1-D arrays, and
``specfun._k_struve_array`` with numpy's log, as the Volterra oracle's
forcing calls it, with x at 0, below the normal range and past the
argument's overflow too.  Last come scalar and array draws whose series
argument is subnormal but not 0.  Two checkouts that print the same
digest give the same outcomes bit for bit; ``--lines`` prints every
outcome, so a ``diff`` of two runs names the calls that differ.  Tier-1
does not collect this file.
"""

import argparse
import hashlib
import math
import random

import numpy as np

from kstruve import specfun, transforms
from kstruve.errors import ConvergenceError, DomainError, QuadratureError
from kstruve.specfun import KStruveParams, TruncationPolicy, WrightParams

POLICIES = (
    TruncationPolicy(max_terms=50, rel_tol=1e-16),
    TruncationPolicy(max_terms=200, rel_tol=0.0),
    TruncationPolicy(max_terms=7, rel_tol=1e-16),
)
ONE_TERM = TruncationPolicy(max_terms=1, rel_tol=1e-16)
ORDERS = (-2.0, -1.0, 0.0, 1.0, 2.0)  # integer orders put poles into the lower Gammas
CASES = 100  # random draws per family and policy
ARRAY_CASES = 20  # random 1-D arrays per array family and policy


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _image(q: float) -> WrightParams:
    """The borderline (delta = 0, radius 1/4) 2Psi2 of the k-Struve Sumudu image."""
    return WrightParams(upper=((q + 2.0, 2.0), (1.0, 1.0)), lower=((q + 1.5, 1.0), (1.5, 1.0)))


def battery(seed: int) -> list:
    """(label, call) pairs; call(pol) returns (value, terms_used) or a value."""
    rng = random.Random(f"kernel_outcomes/{seed}")
    calls = []

    def add(label, call):
        calls.append((label, call))

    for _ in range(CASES):
        p = rng.choice((-1.0, 0.0, 1.0, 2.0, rng.uniform(-1.4, 4.0)))
        x = rng.choice((1.0, -1.0)) * _log_uniform(rng, 1e-3, 60.0)
        add(("struve_h", p, x), lambda pol, p=p, x=x: specfun.struve_h_info(p, x, pol))
    for _ in range(CASES):
        k = rng.choice((0.5, 1.0, 2.0, 3.0))
        params = KStruveParams(k, rng.uniform(-1.45, 3.0) * k, rng.choice((1.0, -1.0, 0.0)))
        x = _log_uniform(rng, 1e-3, 50.0)
        add(("k_struve", params, x), lambda pol, pr=params, x=x: specfun.k_struve_info(pr, x, pol))
    for _ in range(CASES):
        alpha = rng.choice((0.5, 1.0, 2.0, rng.uniform(0.2, 3.0)))
        beta = rng.choice(ORDERS + (rng.uniform(-3.0, 4.0),))
        z = rng.uniform(-35.0, 10.0)
        add(("mittag_leffler", alpha, beta, z),
            lambda pol, a=alpha, b=beta, z=z: specfun.mittag_leffler_info(a, b, z, pol))
    for i in range(CASES):
        w = _image(rng.uniform(-1.4, 3.0))
        # on the radius, just inside it, and anywhere inside
        z = -(w.radius, w.radius * (1 - 1e-9), rng.uniform(0.0, w.radius))[i % 3]
        add(("fox_wright", w, z), lambda pol, w=w, z=z: specfun.fox_wright_info(w, z, pol))
    for _ in range(CASES):
        upper = [(rng.choice((1.0, 2.0, rng.uniform(-3.0, 4.0))), rng.uniform(0.2, 1.0))]
        lower = [(rng.choice(ORDERS + (rng.uniform(-3.0, 4.0),)), rng.uniform(0.2, 1.5))
                 for _ in range(rng.randrange(3))]
        w = WrightParams(tuple(upper[: rng.randrange(2)]), tuple(lower))
        z = rng.uniform(-20.0, 5.0)
        add(("fox_wright", w, z), lambda pol, w=w, z=z: specfun.fox_wright_info(w, z, pol))
    # Gamma(-2.5 + n/2) has its first pole at n = 1
    pole = WrightParams(upper=((-2.5, 0.5),), lower=((1.0, 1.0),))
    add(("fox_wright", pole, 0.5), lambda pol: specfun.fox_wright_info(pole, 0.5, pol))
    for _ in range(CASES):
        k = rng.choice((0.5, 1.0, 2.0, 3.0))
        c = rng.choice((1.0, -1.0, 0.0, rng.uniform(0.5, 1.5)))
        params = KStruveParams(k, rng.uniform(-1.45, 3.0) * k, c)
        # |z| = |c| u^2 / (4k) up to 0.9^2 of the radius 1/4
        u = _log_uniform(rng, 0.01, 0.9 * math.sqrt(k / abs(c)) if c else 10.0)
        add(("sumudu_kstruve_closed", params, u),
            lambda pol, pr=params, u=u: transforms._sumudu_kstruve_image(pr, u, pol))
    for _ in range(4):
        params = KStruveParams(rng.choice((1.0, 2.0, 3.0)), rng.uniform(0.3, 1.5),
                               rng.uniform(0.5, 1.5))
        u = _log_uniform(rng, 0.01, 0.9 * math.sqrt(params.k / params.c))
        add(("sumudu_numeric", params, u),
            lambda pol, pr=params, u=u: transforms.sumudu_numeric(
                lambda t: specfun.k_struve(pr, t, pol), u))
    for _ in range(CASES):
        k = rng.choice((0.5, 1.0, 2.0, 3.0))
        # nu/k = 0 or -1 puts a pole of Gamma(nu/k + 2n) at n = 0
        q = rng.choice((-1.0, 0.0, rng.uniform(-1.45, 0.0), rng.uniform(0.0, 3.0)))
        params = KStruveParams(k, q * k, rng.choice((1.0, -1.0, 0.0, rng.uniform(0.5, 1.5))))
        t = rng.choice((0.0, _log_uniform(rng, 1e-3, 30.0), _log_uniform(rng, 1e-3, 1e300)))
        add(("inverse_sumudu_kstruve", params, t),
            lambda pol, pr=params, t=t: transforms.inverse_sumudu_kstruve(pr, t, pol))
    # (t/2)^q k^-(q+1/2) overflows a double, the value (about 3e-2134) underflows
    tiny = KStruveParams(0.5, 500.0, 1e-300)
    add(("inverse_sumudu_kstruve", tiny, 1e3),
        lambda pol: transforms.inverse_sumudu_kstruve(tiny, 1e3, pol))
    for _ in range(ARRAY_CASES):
        k = rng.choice((0.5, 1.0, 2.0, 3.0))
        params = KStruveParams(k, rng.uniform(-1.45, 3.0) * k, rng.choice((1.0, -1.0, 0.0)))
        # 0, x whose half is not exact or underflows, and x whose z overflows
        x = [_log_uniform(rng, 1e-3, 50.0) for _ in range(rng.randrange(1, 40))]
        x += rng.sample((0.0, 5e-324, 3e-308, 1e-170, 3e154), rng.randrange(3))
        x = np.array(sorted(x))
        add(("k_struve array", params, *x),
            lambda pol, pr=params, x=x: specfun.k_struve(pr, x, pol))
        add(("_k_struve_array np.log", params, *x),
            lambda pol, pr=params, x=x: specfun._k_struve_array(pr, x, pol, np.log))
    for _ in range(ARRAY_CASES):
        alpha = rng.choice((0.5, 1.0, 2.0, rng.uniform(0.2, 3.0)))
        beta = rng.choice(ORDERS + (rng.uniform(-3.0, 4.0),))
        z = np.array([rng.choice((0.0, rng.uniform(-35.0, 10.0)))
                      for _ in range(rng.randrange(1, 40))])
        add(("mittag_leffler array", alpha, beta, *z),
            lambda pol, a=alpha, b=beta, z=z: specfun.mittag_leffler(a, b, z, pol))
    # series arguments that are subnormal but not 0, whose terms can all lie
    # below the subnormal range: x from 4.5e-162 to 3e-154 puts (x/2)^2 there
    for _ in range(ARRAY_CASES):
        p, x = rng.uniform(-1.4, 4.0), _log_uniform(rng, 4.5e-162, 3e-154)
        add(("struve_h", p, x), lambda pol, p=p, x=x: specfun.struve_h_info(p, x, pol))
        k = rng.choice((0.5, 1.0, 2.0, 3.0))
        params = KStruveParams(k, rng.uniform(-1.45, 3.0) * k, rng.choice((1.0, -1.0)))
        add(("k_struve", params, x), lambda pol, pr=params, x=x: specfun.k_struve_info(pr, x, pol))
        x = np.array(sorted(_log_uniform(rng, 4.5e-162, 3e-154)
                            for _ in range(rng.randrange(1, 40))))
        # the private array calls give terms_used too
        add(("_k_struve_array", params, *x),
            lambda pol, pr=params, x=x: specfun._k_struve_array(pr, x, pol))
        # 1/Gamma(beta + alpha n) is 0 at the first terms, z^n below the range from then on
        alpha, beta = rng.choice((0.5, 1.0, 2.0)), rng.choice((-2.0, -1.0, 0.0))
        z = np.array([rng.choice((1.0, -1.0)) * _log_uniform(rng, 5e-324, 2.2e-308)
                      for _ in range(rng.randrange(1, 40))])
        add(("mittag_leffler", alpha, beta, float(z[0])),
            lambda pol, a=alpha, b=beta, z=float(z[0]): specfun.mittag_leffler_info(a, b, z, pol))
        add(("_mittag_leffler_array", alpha, beta, *z),
            lambda pol, a=alpha, b=beta, z=z: specfun._mittag_leffler_array(a, b, z, pol)[:2])
    return calls


def overflow_battery() -> list:
    """Calls whose series argument or terms pass the overflow guard."""
    calls = []
    for x in (1e60, 3e154, 1e300):
        calls.append((("struve_h", 1.0, x), lambda pol, x=x: specfun.struve_h_info(1.0, x, pol)))
        params = KStruveParams(1.0, 0.5, 1.0)
        calls.append((("k_struve", params, x),
                       lambda pol, pr=params, x=x: specfun.k_struve_info(pr, x, pol)))
    for z in (1e300, -1e300):
        calls.append((("mittag_leffler", 1.0, 1.0, z),
                       lambda pol, z=z: specfun.mittag_leffler_info(1.0, 1.0, z, pol)))
    return calls


def _clear_caches() -> None:
    specfun._ratio_tables.clear()
    # only checkouts that cached the image's parameters have this to clear
    image_params = getattr(transforms, "_kstruve_image_params", None)
    if hasattr(image_params, "cache_clear"):
        image_params.cache_clear()


def _outcome(call, pol) -> str:
    try:
        out = call(pol)
    except (DomainError, ConvergenceError, QuadratureError) as exc:
        return f"{type(exc).__name__}: {exc}"
    value, used = out if isinstance(out, tuple) else (out, None)
    # an array call gives one value (and terms_used) per node
    text = " ".join(float(v).hex() for v in np.ravel(value))
    return text if used is None else f"{text} {' '.join(map(str, np.ravel(used).tolist()))}"


def _label(label) -> str:
    return " ".join(v.hex() if isinstance(v, float) else repr(v) for v in label)


def outcome_lines(seed: int) -> list[str]:
    runs = [(label, call, pol) for label, call in battery(seed) for pol in POLICIES]
    runs += [(label, call, pol) for label, call in overflow_battery()
             for pol in POLICIES + (ONE_TERM,)]
    lines = []
    for cache in ("cold", "warm"):
        for label, call, pol in runs:
            if cache == "cold":
                _clear_caches()
            lines.append(f"{cache} {_label(label)} | {pol.max_terms} {pol.rel_tol!r} | "
                         f"{_outcome(call, pol)}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lines", action="store_true", help="print every outcome line too")
    args = parser.parse_args()
    lines = outcome_lines(args.seed)
    if args.lines:
        print("\n".join(lines))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{digest}  {len(lines)} outcomes, seed {args.seed}")


if __name__ == "__main__":
    main()
