"""Time the closed forms of two ``src`` trees side by side, in one process.

    python tests/closed_form_timing.py --parent OTHER/src [--change src]
        [--pairs 15] [--json out.json]

Both trees are imported under their own module names, so each keeps its own
Gamma-ratio caches.  For every forcing (thm1, thm2, thm3, constant), t_max
in {1, 30} and n in {512, 2048, 8192, 32768} it times three operations: the
two-variant pass that ``validate`` and ``solve`` run
(``kinetics._solve_variants``) and a one-variant ``solve_closed_form`` of
each variant.  The problem is n0 = 1, d = 2, a = 2.5, mu = 0.5, c = k = 1
and nu = 0.9, under ``TruncationPolicy(max_terms=100)``.  One sample is
the mean over enough back-to-back calls to take at least 20 ms; the parent
and the change take turns, and the side that runs first alternates from
pair to pair.  A row gives each side's median in ms, the change's median
over the parent's, the parent's interquartile range over its median (its
run-to-run spread), the pairs the change won, and whether both trees
returned the same values, terms used and flags bit for bit.  An operation
that raises prints its error instead.  Tier-1 does not collect this file.
"""

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time

FORCINGS = ("thm1", "thm2", "thm3", "constant")
T_MAXES = (1.0, 30.0)
SIZES = (512, 2048, 8192, 32768)
OPS = ("pass", "as_printed", "sumudu_consistent")
NU = 0.9
SAMPLE_S = 0.02


def load(src: str, alias: str):
    """The ``kstruve`` package under ``src``, imported as the module ``alias``."""
    root = os.path.join(os.path.abspath(src), "kstruve")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def operation(K, forcing: str, t_max: float, n: int, op: str):
    """A call with no arguments that runs ``op`` on one problem with tree ``K``."""
    p = K.kinetics.KineticProblem(n0=1.0, d=2.0, nu=NU, mu=0.5, a=2.5, forcing=forcing)
    grid = K.transforms.TimeGrid(t_max=t_max, n_points=n)
    pol = K.specfun.TruncationPolicy(max_terms=100)
    if op == "pass":
        return lambda: K.kinetics._solve_variants(p, grid, pol)
    return lambda: (K.kinetics.solve_closed_form(p, grid, op, pol),)


def outcome(call) -> bytes | str:
    """The bytes of every returned array, or the error the call raised."""
    try:
        sols = call()
    except Exception as exc:  # a ConvergenceError at a long horizon, reported per row
        return f"{type(exc).__name__}: {exc}"
    return b"".join(getattr(sol, field).tobytes() for sol in sols
                    for field in ("values", "terms_used", "truncation_flag", "budget_stop"))


def sample(call, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - start) / repeats


def measure(calls, pairs: int) -> list[list[float]]:
    """Per side, ``pairs`` samples in s, the side that runs first alternating."""
    for call in calls:  # warm the caches
        call()
    repeats = max(1, round(SAMPLE_S / sample(calls[0], 1)))
    times = [[], []]
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(sample(calls[side], repeats))
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent checkout's src directory")
    parser.add_argument("--change", default="src", help="the change's src directory")
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--json", help="also write the rows to this file")
    args = parser.parse_args()
    trees = load(args.parent, "kstruve_parent"), load(args.change, "kstruve_change")
    rows = []
    print(f"{'forcing':<9}{'t_max':>6}{'n':>7}  {'op':<18}{'parent':>9}{'change':>9}"
          f"{'ratio':>7}{'p_iqr':>7}{'won':>6}  bits")
    for forcing in FORCINGS:
        for t_max in T_MAXES:
            for n in SIZES:
                for op in OPS:
                    calls = [operation(K, forcing, t_max, n, op) for K in trees]
                    results = [outcome(call) for call in calls]
                    head = f"{forcing:<9}{t_max:>6g}{n:>7}  {op:<18}"
                    if any(isinstance(r, str) for r in results):
                        print(f"{head}{results[0] if isinstance(results[0], str) else results[1]}")
                        rows.append(dict(forcing=forcing, t_max=t_max, n=n, op=op,
                                         error=[r if isinstance(r, str) else None
                                                for r in results]))
                        continue
                    parent, change = measure(calls, args.pairs)
                    p_med, c_med = statistics.median(parent), statistics.median(change)
                    quartiles = statistics.quantiles(parent, n=4)
                    iqr = (quartiles[2] - quartiles[0]) / p_med
                    won = sum(c < p for p, c in zip(parent, change))
                    same = results[0] == results[1]
                    print(f"{head}{1e3 * p_med:9.3f}{1e3 * c_med:9.3f}{c_med / p_med:7.3f}"
                          f"{iqr:7.3f}{won:>3}/{args.pairs:<2}  {'same' if same else 'DIFFER'}")
                    rows.append(dict(forcing=forcing, t_max=t_max, n=n, op=op,
                                     parent_ms=1e3 * p_med, change_ms=1e3 * c_med,
                                     ratio=c_med / p_med, parent_iqr=iqr, won=won,
                                     pairs=args.pairs, same_bits=same))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dict(nu=NU, pairs=args.pairs, sample_s=SAMPLE_S, rows=rows), fh,
                      indent=1)


if __name__ == "__main__":
    main()
