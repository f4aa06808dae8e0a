"""Command-line front end.

Subcommands: ``eval`` (special-function tables), ``solve`` (closed-form
kinetic solutions), ``validate`` (oracle adjudication), ``sweep`` (parameter
sweeps) and ``figures`` (the six CSV+SVG figure files).

Contracts: CSV output is UTF-8 with a leading ``#`` metadata line recording
the resolved configuration, 17-significant-digit floats, ``\\n`` line
endings, whole-file atomic writes.  Exit codes: 0 success, 2 input error,
3 numerical failure, 4 adjudication disagreement.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from itertools import chain, repeat

import numpy as np

from .errors import ConvergenceError, DomainError, QuadratureError, SolverError
from .kinetics import (
    FORCINGS,
    KineticProblem,
    adjudicate,
    solve_closed_form,
)
from .specfun import (
    KStruveParams,
    TruncationPolicy,
    k_gamma,
    k_struve_info,
    mittag_leffler_info,
    struve_h_info,
)
from .svgplot import render_line_chart
from .transforms import TimeGrid, _sumudu_kstruve_image

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_DISAGREE = 4

_FIGURE_NUS = (0.5, 0.7, 0.9, 1.0, 1.5)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_line(args: argparse.Namespace, skip=("config",)) -> str:
    items = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        items.append(f"{key}={getattr(args, key)}")
    return "# " + " ".join(items)


def _csv(meta: str, header: str, row_format: str, rows) -> str:
    """The metadata and header lines, then ``row_format % row`` for each row.

    Floats take ``%.17g``, which prints the same digits as ``format(v, ".17g")``.
    """
    lines = [meta, header]
    lines.extend(row_format % row for row in rows)
    return "\n".join(lines) + "\n"


def _columns(*columns: np.ndarray):
    """Rows of Python floats, one from each column."""
    return zip(*(col.tolist() for col in columns))


def _policy(args: argparse.Namespace) -> TruncationPolicy:
    return TruncationPolicy(max_terms=args.max_terms, rel_tol=args.rel_tol)


def _problem(args: argparse.Namespace) -> KineticProblem:
    return KineticProblem(
        n0=args.n0,
        d=args.d,
        nu=args.nu,
        mu=args.mu,
        c=args.c,
        k=args.k,
        a=args.a,
        forcing=args.forcing,
    )


def _grid(args: argparse.Namespace) -> TimeGrid:
    return TimeGrid(t_max=args.t_max, n_points=args.n_points)


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from exc


def cmd_eval(args: argparse.Namespace) -> int:
    pol = _policy(args)
    rows = []
    if args.fn == "kgamma":
        for x in args.gamma:
            rows.append((x, k_gamma(x, args.k), 1))
    elif args.fn == "struve":
        for x in args.x:
            value, used = struve_h_info(args.p, x, pol)
            rows.append((x, value, used))
    elif args.fn == "kstruve":
        params = KStruveParams(k=args.k, nu=args.nu, c=args.c)
        for x in args.x:
            value, used = k_struve_info(params, x, pol)
            rows.append((x, value, used))
    elif args.fn == "mittag_leffler":
        for x in args.z:
            value, used = mittag_leffler_info(args.alpha, args.beta, x, pol)
            rows.append((x, value, used))
    else:  # sumudu_kstruve
        params = KStruveParams(k=args.k, nu=args.nu, c=args.c)
        for x in args.u:
            value, used = _sumudu_kstruve_image(params, x, pol)
            rows.append((x, value, used))
    path = f"{args.out}.csv"
    _write_atomic(path, _csv(_meta_line(args), "x,value,terms_used", "%.17g,%.17g,%d", rows))
    print(path)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    problem = _problem(args)
    grid = _grid(args)
    pol = _policy(args)
    try:
        printed = solve_closed_form(problem, grid, "as_printed", pol)
        consistent = solve_closed_form(problem, grid, "sumudu_consistent", pol)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = _columns(grid.points(), printed.values, consistent.values)
    path = f"{args.out}.csv"
    _write_atomic(
        path, _csv(_meta_line(args), "t,N_printed,N_consistent", "%.17g,%.17g,%.17g", rows)
    )
    print(path)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    problem = _problem(args)
    grid = _grid(args)
    pol = _policy(args)
    report = adjudicate(problem, grid, pol, tol=args.tol)
    oracle = report.oracle.values
    printed = report.printed.values
    consistent = report.consistent.values
    norm = float(np.max(np.abs(oracle))) or 1.0
    rows = _columns(
        grid.points(),
        oracle,
        printed,
        consistent,
        np.abs(printed - oracle) / norm,
        np.abs(consistent - oracle) / norm,
    )
    body = _csv(
        _meta_line(args),
        "t,N_oracle,N_printed,N_consistent,dev_printed,dev_consistent",
        ",".join(["%.17g"] * 6),
        rows,
    )
    body += f"# summary: {report.summary()}\n"
    path = f"{args.out}.csv"
    _write_atomic(path, body)
    print(path)
    print(report.summary())
    return EXIT_OK if report.agreeing else EXIT_DISAGREE


def _figure_spec(which: int) -> tuple[str, float]:
    # figures 1-3: the thm1-forcing solution at k=1,2,3
    # figures 4-6: the thm3-forcing solution at k=1,2,3
    forcing = "thm1" if which <= 3 else "thm3"
    k = float(((which - 1) % 3) + 1)
    return forcing, k


def cmd_figures(args: argparse.Namespace) -> int:
    pol = TruncationPolicy(max_terms=50, rel_tol=0.0)  # fixed 50-term convention
    grid = TimeGrid(t_max=args.t_max, n_points=args.n_points)
    which_list = range(1, 7) if args.which == "all" else [int(args.which)]
    t = grid.points()
    written = []
    for which in which_list:
        forcing, k = _figure_spec(which)
        columns = {}
        for nu in _FIGURE_NUS:
            problem = KineticProblem(n0=1.0, d=1.0, nu=nu, mu=1.0, c=1.0, k=k, forcing=forcing)
            try:
                sol = solve_closed_form(problem, grid, "as_printed", pol)
            except ConvergenceError as exc:
                print(f"numerical failure on figure {which}, nu={nu}: {exc}", file=sys.stderr)
                return EXIT_NUMERICAL
            columns[f"nu_{nu:g}"] = sol.values
        meta = (
            f"# figure={which} forcing={forcing} k={k:g} n0=1 d=1 mu=1 c=1 "
            f"variant=as_printed max_terms=50 t_max={args.t_max} n_points={args.n_points}"
        )
        header = "t," + ",".join(columns)
        csv_path = os.path.join(args.out_dir, f"fig{which}.csv")
        svg_path = os.path.join(args.out_dir, f"fig{which}.svg")
        if args.format in ("csv", "both"):
            row_format = ",".join(["%.17g"] * (1 + len(columns)))
            _write_atomic(csv_path, _csv(meta, header, row_format, _columns(t, *columns.values())))
            written.append(csv_path)
        if args.format in ("svg", "both"):
            svg = render_line_chart(
                t,
                columns,
                title=f"Figure {which}: kinetic solution, k={k:g}",
                xlabel="t",
                ylabel="N(t)",
            )
            _write_atomic(svg_path, svg)
            written.append(svg_path)
    for path in written:
        print(path)
    return EXIT_OK


_SWEEPABLE = ("nu", "k", "mu", "c", "d")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in _SWEEPABLE:
        print(f"unknown sweep parameter {args.param!r}; choose from {_SWEEPABLE}", file=sys.stderr)
        return EXIT_INPUT
    grid = _grid(args)
    pol = _policy(args)
    t = grid.points().tolist()
    blocks = []
    for value in args.values:
        fields = dict(
            n0=args.n0, d=args.d, nu=args.nu, mu=args.mu, c=args.c, k=args.k,
            a=args.a, forcing=args.forcing,
        )
        fields[args.param] = value
        problem = KineticProblem(**fields)
        sol = solve_closed_form(problem, grid, "sumudu_consistent", pol)
        blocks.append(zip(repeat(args.param), repeat(value), t, sol.values.tolist()))
    rows = chain.from_iterable(blocks)
    path = f"{args.out}.csv"
    _write_atomic(path, _csv(_meta_line(args), "param,value,t,N", "%s,%.17g,%.17g,%.17g", rows))
    print(path)
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "solve": cmd_solve,
    "validate": cmd_validate,
    "figures": cmd_figures,
    "sweep": cmd_sweep,
}


def _add_policy_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-terms", type=int, default=50, help="series term budget")
    sub.add_argument("--rel-tol", type=float, default=1e-16, help="series stop tolerance")


def _add_problem_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n0", type=float, default=1.0, help="initial number density")
    sub.add_argument("--d", type=float, default=1.0, help="decay parameter")
    sub.add_argument("--a", type=float, default=2.0, help="forcing scale (thm2 only)")
    sub.add_argument("--nu", type=float, default=0.9, help="fractional order")
    sub.add_argument("--mu", type=float, default=1.0, help="Struve order")
    sub.add_argument("--c", type=float, default=1.0, help="series alternation scale")
    sub.add_argument("--k", type=float, default=1.0, help="k-deformation parameter")
    sub.add_argument("--forcing", choices=FORCINGS, default="thm1")


def _add_grid_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t-max", type=float, default=1.0, help="end of the time window")
    sub.add_argument("--n-points", type=int, default=4096, help="grid points on (0, t_max]")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kstruve",
        description="k-Struve functions and fractional kinetic equation solvers",
    )
    parser.add_argument("--config", default=None, help="key=value defaults file (flags override)")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="tabulate a special function to CSV")
    p_eval.add_argument(
        "--fn",
        required=True,
        choices=("struve", "kstruve", "mittag_leffler", "kgamma", "sumudu_kstruve"),
    )
    p_eval.add_argument("--p", type=float, default=0.0, help="classical Struve order")
    p_eval.add_argument("--x", type=_float_list, default=[1.0], help="argument(s), comma-separated")
    p_eval.add_argument("--k", type=float, default=1.0)
    p_eval.add_argument("--nu", type=float, default=1.0)
    p_eval.add_argument("--c", type=float, default=1.0)
    p_eval.add_argument("--alpha", type=float, default=1.0)
    p_eval.add_argument("--beta", type=float, default=1.0)
    p_eval.add_argument("--z", type=_float_list, default=[1.0])
    p_eval.add_argument("--gamma", type=_float_list, default=[1.0])
    p_eval.add_argument("--u", type=_float_list, default=[0.5])
    p_eval.add_argument("--out", default="eval")
    _add_policy_args(p_eval)

    p_solve = subs.add_parser("solve", help="closed-form kinetic solution to CSV")
    _add_problem_args(p_solve)
    _add_grid_args(p_solve)
    _add_policy_args(p_solve)
    p_solve.add_argument("--out", default="solve")

    p_val = subs.add_parser("validate", help="adjudicate closed forms against the Volterra oracle")
    _add_problem_args(p_val)
    _add_grid_args(p_val)
    _add_policy_args(p_val)
    p_val.add_argument("--tol", type=float, default=1e-3, help="relative tolerance at t_max")
    p_val.add_argument("--out", default="validate")

    p_fig = subs.add_parser("figures", help="emit the six figure CSV/SVG pairs")
    p_fig.add_argument("--which", default="all", choices=("all", "1", "2", "3", "4", "5", "6"))
    p_fig.add_argument("--t-max", type=float, default=1.0)
    p_fig.add_argument("--n-points", type=int, default=500)
    p_fig.add_argument("--format", default="both", choices=("csv", "svg", "both"))
    p_fig.add_argument("--out-dir", default=".")

    p_sweep = subs.add_parser("sweep", help="sweep one problem parameter, long-format CSV")
    p_sweep.add_argument("--param", required=True, help=f"one of {_SWEEPABLE}")
    p_sweep.add_argument("--values", type=_float_list, required=True)
    _add_problem_args(p_sweep)
    _add_grid_args(p_sweep)
    _add_policy_args(p_sweep)
    p_sweep.add_argument("--out", default="sweep")
    return parser, {
        "eval": p_eval,
        "solve": p_solve,
        "validate": p_val,
        "figures": p_fig,
        "sweep": p_sweep,
    }


def _with_config(subcommands: dict[str, argparse.ArgumentParser], argv: list[str]) -> list[str]:
    """argv with the --config key=value pairs as flags right after the subcommand.

    Only keys the subcommand has an option for become ``--key=value`` tokens
    (every optional flag has a non-None default; a required flag takes none),
    so the key matches an option exactly, never by prefix.  Flags given on
    the command line come later, and argparse keeps the last occurrence, so
    they win.  The parsers themselves are never changed.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise DomainError("--config requires a path")
    path = argv[idx + 1]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    pairs = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"malformed config line (expected key=value): {line!r}")
        key, value = line.split("=", 1)
        pairs[key.strip().replace("-", "_")] = value.strip()
    pos = next(
        (i for i, tok in enumerate(argv) if tok in subcommands and i != idx + 1), None
    )
    if pos is None:
        return argv  # argparse reports the missing subcommand
    sub = subcommands[argv[pos]]
    tokens = [
        f"--{key.replace('_', '-')}={value}"
        for key, value in pairs.items()
        if sub.get_default(key) is not None
    ]
    return argv[: pos + 1] + tokens + argv[pos + 1 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands = _parsers()
    try:
        args = parser.parse_args(_with_config(subcommands, argv))
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, QuadratureError, SolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
