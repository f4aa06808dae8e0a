"""Command-line front end.

Subcommands: ``eval`` (special-function tables), ``solve`` (closed-form
kinetic solutions), ``validate`` (oracle adjudication), ``sweep`` (parameter
sweeps) and ``figures`` (the six CSV+SVG figure files).

Contracts: CSV output is UTF-8 with a leading ``#`` metadata line recording
the resolved configuration, floats written exactly as ``%.17g`` writes them,
``\\n`` line endings, whole-file atomic writes with the permissions the
umask gives a new file.  Exit codes: 0 success, 2 input error,
3 numerical failure, 4 no variant agrees (``validate``: none lies within
tol of the oracle at t_max, or each that does is flagged there, undecided).

``figures`` sums each node's series under the package default policy, as
``solve``, ``sweep`` and ``validate`` do by default: at most 50 terms,
stopping once a term is at most 1e-16 of the running sum.  For each
closed-form column with nodes that stopped on the term budget instead
(a figure's nu, a sweep's value, ``solve``'s and ``validate``'s two
variants), one line on stderr gives their count, and one more counts the
nodes whose rounding estimate passes 1e-8 of their value; the notes
change no file, stdout or exit code, though a flag at t_max leaves a
``validate`` variant undecided.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys

import numpy as np

from ._floatfmt import cells, csv_rows, join, long_rows
from .errors import ConvergenceError, DomainError, QuadratureError, SolverError
from .kinetics import (
    _ROUNDING_LIMIT,
    FORCINGS,
    KineticProblem,
    SeriesSolution,
    _solve_variants,
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


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        # mode 0o666 less the umask, as for a file opened plainly
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_line(args: argparse.Namespace) -> str:
    items = (f"{key}={getattr(args, key)}" for key in sorted(vars(args)) if key != "config")
    return "# " + " ".join(items)


def _head(meta: str, header: str) -> bytes:
    return f"{meta}\n{header}\n".encode("utf-8")


def _write_table(args: argparse.Namespace, header: str, body: bytes) -> None:
    """Write ``<out>.csv`` atomically (metadata line, header, body) and print its path."""
    path = f"{args.out}.csv"
    _write_atomic(path, _head(_meta_line(args), header) + body)
    print(path)


def _policy(args: argparse.Namespace) -> TruncationPolicy:
    return TruncationPolicy(max_terms=args.max_terms, rel_tol=args.rel_tol)


def _problem(args: argparse.Namespace, **override) -> KineticProblem:
    """The problem the command's flags describe, with ``override``'s fields in their place."""
    fields = {field.name: getattr(args, field.name) for field in dataclasses.fields(KineticProblem)}
    return KineticProblem(**(fields | override))


def _grid(args: argparse.Namespace) -> TimeGrid:
    return TimeGrid(t_max=args.t_max, n_points=args.n_points)


def _note_budget_stops(label: str, sol: SeriesSolution, pol: TruncationPolicy) -> None:
    """Stderr lines counting the flagged nodes of ``sol``, if any.

    A node still summing when the term budget ran out stopped on it; any
    other flagged node was flagged for its rounding estimate.
    """
    stopped = int(np.count_nonzero(sol.budget_stop))
    rounded = int(np.count_nonzero(sol.truncation_flag)) - stopped
    if stopped:
        print(f"{label}: {stopped} of {sol.grid.n_points} nodes stopped on the "
              f"{pol.max_terms}-term budget", file=sys.stderr)
    if rounded:
        print(f"{label}: {rounded} of {sol.grid.n_points} nodes flagged: their rounding "
              f"estimate passes {_ROUNDING_LIMIT:g} of the value", file=sys.stderr)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one real, got {text!r}")
    return values


def cmd_eval(args: argparse.Namespace) -> int:
    pol = _policy(args)
    if args.fn in ("kstruve", "sumudu_kstruve"):
        params = KStruveParams(k=args.k, nu=args.nu, c=args.c)
    # the kernels are read from this module's names at each call, so a wrapper
    # bound to one of them (a tracer's, say) sees the call
    points, kernel = {
        "kgamma": (args.gamma, lambda x: (k_gamma(x, args.k), 1)),
        "struve": (args.x, lambda x: struve_h_info(args.p, x, pol)),
        "kstruve": (args.x, lambda x: k_struve_info(params, x, pol)),
        "mittag_leffler": (args.z, lambda x: mittag_leffler_info(args.alpha, args.beta, x, pol)),
        "sumudu_kstruve": (args.u, lambda x: _sumudu_kstruve_image(params, x, pol)),
    }[args.fn]
    # terms_used is an integer below 1e17, which %.17g writes as %d does
    columns = np.array([(x, *kernel(x)) for x in points], dtype=float).reshape(-1, 3).T
    _write_table(args, "x,value,terms_used", csv_rows(columns))
    return EXIT_OK


# the CSV columns of VARIANTS
_VARIANT_COLUMNS = ("N_printed", "N_consistent")


def cmd_solve(args: argparse.Namespace) -> int:
    problem, grid, pol = _problem(args), _grid(args), _policy(args)
    solutions = _solve_variants(problem, grid, pol)
    for column, sol in zip(_VARIANT_COLUMNS, solutions):
        _note_budget_stops(f"solve, {column}", sol, pol)
    _write_table(args, "t," + ",".join(_VARIANT_COLUMNS),
                 csv_rows((grid.points(), *(sol.values for sol in solutions))))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    problem, grid, pol = _problem(args), _grid(args), _policy(args)
    report = adjudicate(problem, grid, pol, tol=args.tol)
    for column, sol in zip(_VARIANT_COLUMNS, (report.printed, report.consistent)):
        _note_budget_stops(f"validate, {column}", sol, pol)
    oracle, printed, consistent = (report.oracle.values, report.printed.values,
                                   report.consistent.values)
    norm = float(np.max(np.abs(oracle))) or 1.0
    with np.errstate(over="ignore"):  # a deviation past the largest double is inf
        deviations = np.abs(printed - oracle) / norm, np.abs(consistent - oracle) / norm
    rows = csv_rows((grid.points(), oracle, printed, consistent, *deviations))
    summary = report.summary()
    header = "t,N_oracle,N_printed,N_consistent,dev_printed,dev_consistent"
    _write_table(args, header, rows + f"# summary: {summary}\n".encode("utf-8"))
    print(summary)
    return EXIT_OK if report.agreeing else EXIT_DISAGREE


def _figure_spec(which: int) -> tuple[str, float]:
    # figures 1-3: the thm1-forcing solution at k=1,2,3; figures 4-6: thm3
    return ("thm1" if which <= 3 else "thm3"), float((which - 1) % 3 + 1)


def cmd_figures(args: argparse.Namespace) -> int:
    pol = TruncationPolicy()
    grid = _grid(args)
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
            _note_budget_stops(f"figure {which}, nu={nu:g}", sol, pol)
        meta = (
            f"# figure={which} forcing={forcing} k={k:g} n0=1 d=1 mu=1 c=1 "
            f"variant=as_printed max_terms={pol.max_terms} rel_tol={pol.rel_tol:g} "
            f"t_max={args.t_max} n_points={args.n_points}"
        )
        header = "t," + ",".join(columns)
        csv_path = os.path.join(args.out_dir, f"fig{which}.csv")
        svg_path = os.path.join(args.out_dir, f"fig{which}.svg")
        if args.format in ("csv", "both"):
            _write_atomic(csv_path, _head(meta, header) + csv_rows((t, *columns.values())))
            written.append(csv_path)
        if args.format in ("svg", "both"):
            title = f"Figure {which}: kinetic solution, k={k:g}"
            svg = render_line_chart(t, columns, title=title, xlabel="t", ylabel="N(t)")
            _write_atomic(svg_path, svg.encode("utf-8"))
            written.append(svg_path)
    for path in written:
        print(path)
    return EXIT_OK


_SWEEPABLE = ("nu", "k", "mu", "c", "d")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in _SWEEPABLE:
        print(f"unknown sweep parameter {args.param!r}; choose from {_SWEEPABLE}", file=sys.stderr)
        return EXIT_INPUT
    grid, pol = _grid(args), _policy(args)
    solutions = []
    for value in args.values:
        label = f"sweep, {args.param}={value:g}"
        problem = _problem(args, **{args.param: value})
        try:
            sol = solve_closed_form(problem, grid, "sumudu_consistent", pol)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{label}: {exc}") from None
        _note_budget_stops(label, sol, pol)
        solutions.append(sol.values)
    # "param,value," is a constant first field of each value's rows
    name = f"{args.param},".encode("ascii")
    prefixes = [join(cell[None, None], b",", name) for cell in cells(args.values, 17)]
    _write_table(args, "param,value,t,N", long_rows(grid.points(), solutions, prefixes))
    return EXIT_OK


_COMMANDS = {"eval": cmd_eval, "solve": cmd_solve, "validate": cmd_validate,
             "figures": cmd_figures, "sweep": cmd_sweep}


class _ArgumentParser(argparse.ArgumentParser):
    """A subcommand parser that reads ``--c -1e-3`` and ``--x -1,-2`` as their ``=`` forms.

    argparse takes such tokens for options (only -2 or -.5 read as numbers).  Here a token
    that starts with '-' then a digit or '.', after an option taking one value, is its value.
    Options must be spelled in full, as on the top-level parser.
    """

    valued: frozenset[str] = frozenset()  # the option strings that take one value

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self.valued = self.valued | frozenset(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        tokens: list[str] = []
        for token in args or ():  # a subcommand parser is always given its tokens
            if tokens and tokens[-1] in self.valued and re.match(r"-[0-9.]", token):
                tokens[-1] += "=" + token
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)


def _add_policy_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-terms", type=int, default=50, help="series term budget")
    sub.add_argument("--rel-tol", type=float, default=1e-16, help="series stop tolerance")


def _add_problem_args(sub: argparse.ArgumentParser) -> None:
    """The options of a kinetic problem, its time grid and the series policy."""
    sub.add_argument("--n0", type=float, default=1.0, help="initial number density")
    sub.add_argument("--d", type=float, default=1.0, help="decay parameter")
    sub.add_argument("--a", type=float, default=2.0, help="forcing scale (thm2 only)")
    sub.add_argument("--nu", type=float, default=0.9, help="fractional order")
    sub.add_argument("--mu", type=float, default=1.0, help="Struve order")
    sub.add_argument("--c", type=float, default=1.0, help="series alternation scale")
    sub.add_argument("--k", type=float, default=1.0, help="k-deformation parameter")
    sub.add_argument("--forcing", choices=FORCINGS, default="thm1")
    sub.add_argument("--t-max", type=float, default=1.0, help="end of the time window")
    sub.add_argument("--n-points", type=int, default=4096, help="grid points on (0, t_max]")
    _add_policy_args(sub)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kstruve",
        description="k-Struve functions and fractional kinetic equation solvers",
        allow_abbrev=False,
    )
    parser.add_argument("--config", default=None, help="key=value defaults file (flags override)")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

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
    p_solve.add_argument("--out", default="solve")

    p_val = subs.add_parser("validate", help="adjudicate closed forms against the Volterra oracle")
    _add_problem_args(p_val)
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
    p_sweep.add_argument("--out", default="sweep")
    return parser, subs.choices


def _with_config(sub: argparse.ArgumentParser, argv: list[str], path: str) -> list[str]:
    """argv with the key=value pairs of config file ``path`` as flags right after the subcommand.

    Only keys the subcommand parser ``sub`` has an option for become
    ``--key=value`` tokens (an optional flag has a non-None default, a
    required one none), so the key matches an option exactly, never by prefix.  Flags given on
    the command line come later, and argparse keeps the last occurrence, so
    they win.  The parsers themselves are never changed.
    """
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
    tokens = [f"--{key.replace('_', '-')}={value}"
              for key, value in pairs.items() if sub.get_default(key) is not None]
    # only --config PATH and --config=PATH come before the subcommand
    pos = 0
    while argv[pos] == "--config" or argv[pos].startswith("--config="):
        pos += 2 if argv[pos] == "--config" else 1
    return argv[: pos + 1] + tokens + argv[pos + 1 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands = _parsers()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_with_config(subcommands[args.command], argv, args.config))
        return _COMMANDS[args.command](args)
    except (DomainError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, QuadratureError, SolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
