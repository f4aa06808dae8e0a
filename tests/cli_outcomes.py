"""Print one SHA-256 over the outcomes of a fixed battery of ``kstruve`` command lines.

    PYTHONPATH=src python tests/cli_outcomes.py [--lines]

Each argv runs in-process through ``cli.main`` in an empty directory of its
own.  Its outcome is the exit code (a usage error's ``SystemExit`` code, or
the type and message of an exception that escapes ``main``), stdout, stderr,
the warnings raised (each one recorded, none filtered), and the name and
bytes of every file the run left behind.  The temporary directory's path is
replaced by ``<tmp>`` in all text.  The battery covers every subcommand,
each exit code, both ``--config`` spellings, ``figures --format
csv/svg/both``, negative values after a flag and in ``=`` form, and the
closed form and Sumudu image at arguments that underflow or overflow,
series whose terms all lie below the subnormal range, the
overflow guard tripped in ``solve`` and ``sweep`` (by the constant
forcing's Mittag-Leffler factor too), n0 times the sum past the largest
double, a long horizon that stops on the term budget, ``validate`` verdicts
left undecided by closed forms flagged at t_max, thm2 with d > a,
a 17-term outer series that rebuilds its Mittag-Leffler lattice, and
tables longer than the float writer's 1024-row block.  Two
checkouts that print the same digest write the same bytes for every argv;
``--lines`` prints one digest per argv, so a ``diff`` of two runs names the
argvs that differ.  Tier-1 does not collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import os
import tempfile
import warnings

from kstruve import cli

CONFIG = "# defaults\nnu = 0.5\nn-points = 4\nmu = -0.25\n"

BATTERY = [
    # eval: every function, lists, and each failure
    ["eval", "--fn", "struve", "--p", "0", "--x", "0.5,1,2.5"],
    ["eval", "--fn", "struve", "--p", "1", "--x", "-1,-2"],
    ["eval", "--fn", "struve", "--p", "1", "--x=-1,-2"],
    ["eval", "--fn", "struve", "--k", "-1", "--x", "1"],
    ["eval", "--fn", "kstruve", "--k", "2", "--nu", "0.7", "--c", "-0.5", "--x", "0.1,3,40"],
    ["eval", "--fn", "kstruve", "--k", "-1", "--x", "1"],
    ["eval", "--fn", "kstruve", "--x", "5e-324", "--nu", "-0.5"],
    ["eval", "--fn", "kstruve", "--x", "1e300", "--max-terms", "1"],
    ["eval", "--fn", "kstruve", "--x", "1e300"],
    ["eval", "--fn", "struve", "--p", "1", "--x", "3e154"],
    ["eval", "--fn", "struve", "--p", "3", "--x", "1e-160"],
    ["eval", "--fn", "mittag_leffler", "--alpha", "0.5", "--beta", "2", "--z", "1,2"],
    ["eval", "--fn", "mittag_leffler", "--z", "-0.05,-0.5"],
    ["eval", "--fn", "mittag_leffler", "--z=-0.05,-0.5"],
    ["eval", "--fn", "mittag_leffler", "--z", "-30"],
    ["eval", "--fn", "kgamma", "--k", "2", "--gamma", "0.5,3"],
    ["eval", "--fn", "kgamma", "--gamma", "300"],
    ["eval", "--fn", "sumudu_kstruve", "--u", "0.01,0.5", "--max-terms", "80", "--rel-tol", "0"],
    ["eval", "--fn", "sumudu_kstruve", "--nu", "2", "--c", "1e-300", "--u", "1e150"],
    ["eval", "--fn", "sumudu_kstruve", "--nu", "2", "--c", "1e-300", "--u", "1e300"],
    ["eval", "--fn", "sumudu_kstruve", "--u", "3"],
    ["eval", "--fn", "struve", "--p", "-2", "--x", "1"],
    ["eval", "--fn", "struve", "--frobnicate", "1"],
    ["eval", "--fn", "struve", "--x", "1,zebra"],
    ["eval", "--fn", "struve", "--x", ","],
    ["eval", "--fn", "struve", "--x", "--out", "t"],
    ["eval", "--fn", "struve", "--out", "sub/dir/t"],
    ["eval"],
    ["eval", "--help"],
    # solve
    ["solve", "--n-points", "5"],
    ["solve", "--forcing", "thm2", "--a", "3", "--nu", "1.5", "--n-points", "7", "--out", "s2"],
    ["solve", "--forcing", "thm3", "--k", "2", "--mu", "-1", "--n-points", "6"],
    ["solve", "--forcing", "constant", "--nu", "0.5", "--t-max", "3", "--n-points", "4"],
    ["solve", "--c", "-1e-3", "--n-points", "4"],
    ["solve", "--c=-1e-3", "--n-points", "4"],
    ["solve", "--d", "-1"],
    ["solve", "--d=-1"],
    ["solve", "--t-max", "1e-200", "--nu", "2", "--n-points", "4"],
    ["solve", "--nu", "1", "--mu", "-0.4", "--d", "1e-10", "--t-max", "1e-313", "--n-points", "4"],
    ["solve", "--nu", "1", "--mu", "-0.4", "--d", "1", "--t-max", "1e-310", "--n-points", "4"],
    ["solve", "--n0", "1.7e308", "--t-max", "20", "--n-points", "8"],
    ["solve", "--n0", "1.7e308", "--c", "-1", "--t-max", "5", "--n-points", "8"],
    ["solve", "--forcing", "thm2", "--nu", "0.9", "--t-max", "20", "--n-points", "8"],
    # every N_consistent term below the subnormal range, though z is not 0
    ["solve", "--forcing", "thm2", "--nu", "1.4747", "--mu", "0.78", "--c", "-1", "--k", "0.5",
     "--a", "2.5", "--t-max", "8.5e-110", "--n-points", "700"],
    ["solve", "--d", "1e300", "--nu", "2", "--n-points", "4"],
    ["solve", "--t-max", "40", "--nu", "0.5", "--n-points", "6"],
    ["solve", "--forcing", "constant", "--n-points", "1030"],
    ["solve", "--forcing", "constant", "--nu", "0.3", "--d", "1.3", "--n-points", "64"],
    ["solve", "--forcing", "constant", "--nu", "0.5", "--t-max", "1e10", "--n-points", "4"],
    ["solve", "--nu", "0.9", "--t-max", "1e9", "--n-points", "4"],
    ["solve", "--forcing", "thm2", "--d", "2.5", "--a", "1.2", "--n-points", "64"],
    ["solve", "--forcing", "thm2", "--n0", "0.899508", "--d", "1.24305", "--a", "3.56385",
     "--nu", "1.46682", "--mu", "1.5", "--c", "0.883669", "--k", "2", "--n-points", "512"],
    ["solve", "--c"],
    ["solve", "--help"],
    # validate: agreement, disagreement, input and numerical failures
    ["validate", "--n-points", "64"],
    ["validate", "--forcing", "thm3", "--nu", "0.5", "--n-points", "32", "--tol", "1e-12"],
    ["validate", "--tol", "-1", "--n-points", "8"],
    ["validate", "--forcing", "thm2", "--a", "1e300", "--nu", "2", "--n-points", "4"],
    ["validate", "--forcing", "constant", "--n-points", "1030"],
    ["validate", "--forcing", "thm2", "--d", "2.5", "--a", "1.2", "--n-points", "64"],
    ["validate", "--forcing", "thm2", "--n0", "0.899508", "--d", "1.24305", "--a", "3.56385",
     "--nu", "1.46682", "--mu", "1.5", "--c", "0.883669", "--k", "2", "--n-points", "512"],
    # long horizons whose closed forms are flagged at t_max: an undecided verdict
    ["validate", "--forcing", "thm2", "--nu", "0.9", "--t-max", "30", "--n-points", "257",
     "--max-terms", "100", "--tol", "0.1"],
    ["validate", "--forcing", "thm2", "--nu", "0.9", "--t-max", "20", "--n-points", "257",
     "--max-terms", "100"],
    ["validate", "--bogus", "-1"],
    # figures
    ["figures", "--which", "2", "--n-points", "9", "--format", "csv"],
    ["figures", "--which", "5", "--n-points", "9", "--format", "svg"],
    ["figures", "--which", "4", "--n-points", "1", "--format", "both"],
    ["figures", "--n-points", "12"],
    ["figures", "--which", "3", "--t-max", "20", "--n-points", "16", "--format", "csv"],
    ["figures", "--which", "1", "--n-points", "1100"],
    ["figures", "--out-dir", "nope/missing"],
    # sweep
    ["sweep", "--param", "nu", "--values", "0.5,0.9", "--n-points", "4"],
    ["sweep", "--param", "k", "--values", "1,2,3", "--forcing", "thm3", "--n-points", "3"],
    ["sweep", "--param", "c", "--values", "-1,1", "--n-points", "4"],
    ["sweep", "--param", "c", "--values=-1,1", "--n-points", "4"],
    ["sweep", "--param", "mu", "--values", "0.5,1,1.5", "--n-points", "1500"],
    ["sweep", "--param", "nu", "--values", "0.5,0.7", "--forcing", "constant", "--t-max", "1e10",
     "--n-points", "4"],
    ["sweep", "--param", "q", "--values", "1"],
    ["sweep", "--param", "nu", "--values", ","],
    ["sweep", "--values", "-1"],
    # --config, both spellings, a flag overriding it, and its failures
    ["--config", "run.cfg", "solve"],
    ["--config=run.cfg", "solve", "--nu", "0.9"],
    ["--config", "run.cfg", "eval", "--fn", "kstruve", "--x", "1"],
    ["--config", "run.cfg", "sweep", "--param", "mu", "--values", "0,1"],
    ["--config", "missing.cfg", "solve"],
    ["--config", "bad.cfg", "solve"],
    ["--conf", "run.cfg", "solve"],
    [],
]


def run(argv: list[str], root: str) -> tuple[str, bytes]:
    """Run ``argv`` in a new directory under ``root``; (exit outcome, digest payload)."""
    work = tempfile.mkdtemp(dir=root)
    with open(os.path.join(work, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(CONFIG)
    with open(os.path.join(work, "bad.cfg"), "w", encoding="utf-8") as fh:
        fh.write("this is not a pair\n")
    inputs = set(os.listdir(work))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = f"exit {cli.main(list(argv))}"
            except SystemExit as exc:
                outcome = f"exit {exc.code}"
            except Exception as exc:  # a traceback on the command line
                outcome = f"raised {type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    parts = [outcome, out.getvalue(), err.getvalue()]
    parts += [f"{w.category.__name__}: {w.message}" for w in caught]
    payload = "\0".join(parts).replace(work, "<tmp>").encode()
    for dirpath, _, filenames in sorted(os.walk(work)):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if dirpath == work and name in inputs:
                continue
            with open(path, "rb") as fh:
                payload += b"\0" + os.path.relpath(path, work).encode() + b"\0" + fh.read()
    return outcome, payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", action="store_true", help="print one digest per argv too")
    args = parser.parse_args()
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as root:
        for argv in BATTERY:
            outcome, payload = run(argv, root)
            total.update(hashlib.sha256(payload).digest())
            if args.lines:
                print(f"{hashlib.sha256(payload).hexdigest()[:16]} {outcome:<28} {' '.join(argv)}")
    print(f"{total.hexdigest()}  {len(BATTERY)} argvs")


if __name__ == "__main__":
    main()
