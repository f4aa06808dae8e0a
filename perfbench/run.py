"""kstruve benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The package is imported from ``src``
(it is not installed).  With ``--trace 0`` the run measures the workload in a
closed loop for ``--seconds`` of operation time and prints the end-to-end
metrics; with ``--trace 1`` it runs a fixed number of cycles untraced and
then traced, and prints the per-layer metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy is imported: one caller, one thread.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_BEFORE, SETUP_DURING = 3, 6  # fresh interpreters timed for setup_s
IMPORTTIME_REPEATS = 3  # fresh interpreters under -X importtime (traced runs)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10
IMPORT_STMT = "import kstruve, kstruve.cli"
MODULES = ("kstruve", "kstruve.specfun", "kstruve.transforms", "kstruve.kinetics",
           "kstruve.svgplot", "kstruve.cli")


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def fresh_import_seconds(src: str) -> float:
    """Time ``import kstruve, kstruve.cli`` in a new interpreter."""
    code = (f"import time; t = time.perf_counter(); {IMPORT_STMT}; "
            "print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(src), cwd=src,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def importtime_breakdown(src: str) -> tuple[float, float]:
    """(scipy self seconds, kstruve self seconds) from ``-X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_STMT],
                         env=child_env(src), cwd=src, capture_output=True, text=True,
                         timeout=120, check=True)
    scipy_us = kstruve_us = 0
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # header line
        top = fields[2].strip().split(".")[0]
        if top == "scipy":
            scipy_us += int(fields[0])
        elif top == "kstruve":
            kstruve_us += int(fields[0])
    return scipy_us / 1e6, kstruve_us / 1e6


def import_package(src: str) -> dict:
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(name) for name in MODULES}
    origin = os.path.realpath(mods["kstruve"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"kstruve imported from {origin}, not from {src}")
    return mods


class Package:
    """Attribute access to the kstruve modules: ``K.specfun``, ``K.cli``."""

    def __init__(self, mods: dict):
        self.mods = mods
        for name, mod in mods.items():
            setattr(self, name.split(".")[-1], mod)


class Tally:
    """Outcome of whole cycles of a workload's operations."""

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.latency = array("d")  # in execution order: cycle after cycle
        self.cycles = 0
        self.work = 0
        self.attempted = 0
        self.failed = 0  # failures outside the ROADMAP aim-3 probe strata
        self.probe_failed = 0  # known-defect failures, inside those strata
        self.bytes_written = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0

    @property
    def busy(self) -> float:
        return math.fsum(self.latency)

    def best(self) -> list[float]:
        """Each operation's latency: the best of its repeats in this run."""
        return [min(self.latency[i::self.n_ops]) for i in range(self.n_ops)]


def run_ops(workload, tally: Tally, seconds: float | None = None, cycles: int | None = None,
            tracer=None, between_cycles=None) -> None:
    """Closed loop, one caller: the workload's operations in whole cycles.

    A timed run stops at the first cycle boundary after ``seconds`` of
    operation time, and never before the workload's ``min_cycles``; a
    traced run does exactly ``cycles`` cycles.  ``between_cycles(busy)`` is
    called, untimed, after every cycle.
    """
    perf = time.perf_counter
    busy = 0.0
    while ((busy < seconds or tally.cycles < workload.min_cycles) if cycles is None
           else tally.cycles < cycles):
        for op in workload.ops:
            op_id = tally.attempted
            t0 = perf()
            try:
                out = op.call() if tracer is None else tracer.run_op(op_id, op.call)
            except Exception as exc:  # an operation that raises has failed
                out = exc
            dt = perf() - t0
            busy += dt
            tally.latency.append(dt)
            tally.attempted += 1
            returned = not isinstance(out, Exception)
            ok = returned and op.check(out)
            if returned and op.produced(out):
                tally.work += op.work
            if not ok and op.probe:
                tally.probe_failed += 1
            elif not ok:
                tally.failed += 1
                if len(tally.failures) < 5:
                    tally.failures.append(f"{op.spec!r}: {out!r}")
            if tracer is not None:
                tally.bytes_written += sum(os.path.getsize(p) for p in op.outputs
                                           if os.path.exists(p))
        tally.cycles += 1
        if between_cycles is not None:
            between_cycles(busy)
    tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(sorted_vals) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond) at the highest ladder step with >= 10 beyond."""
    n = len(sorted_vals)
    for p in TAIL_LADDER:
        idx = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - (idx + 1) >= TAIL_MIN_BEYOND:
            return p, sorted_vals[idx], n - (idx + 1)
    return None


def end_to_end(tally: Tally, setup_times: list[float]) -> tuple[dict, dict]:
    best = sorted(tally.best())
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (tally.work / tally.cycles / math.fsum(best), "1/s"),
        "op_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "error_rate": ((tally.failed + tally.probe_failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    details = {
        "operations": tally.n_ops, "repeats": tally.cycles, "setup_samples_s": setup_times,
        # every execution, host contention included
        "all_runs_work_per_s": tally.work / tally.busy,
        "all_runs_op_ms_p50": statistics.median(tally.latency) * 1e3,
    }
    t = tail(best)
    if t is not None:
        details["op_ms_tail"] = {"value": t[1] * 1e3, "unit": "ms", "percentile": t[0],
                                 "beyond": t[2]}
    return metrics, details


def per_layer(tracer, traced: Tally, untraced: Tally, imports: list[tuple[float, float]]) -> dict:
    names = tracer.names
    own = tracer.self_times()
    calls: dict[str, int] = {}
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    oracle_forcing = 0.0
    forcing_id = tracer.name_id("kinetics.forcing_value")
    oracle_id = tracer.name_id("kinetics.volterra_oracle")
    for sid, nid in enumerate(tracer.name):
        name = names[nid]
        d = tracer.end[sid] - tracer.start[sid]
        calls[name] = calls.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + d
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        parent = tracer.parent[sid]
        if nid == forcing_id and parent >= 0 and tracer.name[parent] == oracle_id:
            oracle_forcing += d

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    def per_call_us(name):
        return dur[name] / calls[name] * 1e6 if calls.get(name) else 0.0

    layer_self: dict[str, float] = {}
    for name, v in self_s.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + v
    total = sum(layer_self.values())
    shares = {k: round(v / total, 4) for k, v in sorted(layer_self.items())}
    shares["kinetics.volterra_oracle inclusive"] = round(
        dur.get("kinetics.volterra_oracle", 0.0) / total, 4)

    terms = tracer.terms
    forms = tracer.closed_forms
    nodes = sum(n for _, _, n in forms)
    m = {
        "specfun.k_struve.calls": (calls.get("specfun.k_struve", 0), "count"),
        "specfun.k_struve.us_per_call": (per_call_us("specfun.k_struve"), "us"),
        "specfun.mittag_leffler.calls": (calls.get("specfun.mittag_leffler", 0), "count"),
        "specfun.mittag_leffler.us_per_call": (per_call_us("specfun.mittag_leffler"), "us"),
        "specfun.struve_h.us_per_call": (per_call_us("specfun.struve_h"), "us"),
        "specfun.fox_wright.us_per_call": (per_call_us("specfun.fox_wright"), "us"),
        "specfun.self_s": (layer_sum(self_s, "specfun"), "s"),
        "specfun.calls": (layer_sum(calls, "specfun"), "count"),
        "specfun.terms_per_eval": (sum(t for t, _ in terms) / len(terms) if terms else 0.0,
                                   "terms"),
        "specfun.budget_stop_share": (sum(b for _, b in terms) / len(terms) if terms else 0.0,
                                      "ratio"),
        "transforms.rl_fractional_integral.calls":
            (calls.get("transforms.rl_fractional_integral", 0), "count"),
        "transforms.rl_fractional_integral.self_s":
            (self_s.get("transforms.rl_fractional_integral", 0.0), "s"),
        "transforms.sumudu_numeric.us_per_call": (per_call_us("transforms.sumudu_numeric"), "us"),
        "transforms.sumudu_kstruve_closed.us_per_call":
            (per_call_us("transforms.sumudu_kstruve_closed"), "us"),
        "transforms.self_s": (layer_sum(self_s, "transforms"), "s"),
        "kinetics.volterra_oracle.calls": (calls.get("kinetics.volterra_oracle", 0), "count"),
        "kinetics.volterra_oracle.self_s": (self_s.get("kinetics.volterra_oracle", 0.0), "s"),
        "kinetics.oracle_forcing_share":
            (oracle_forcing / dur["kinetics.volterra_oracle"]
             if dur.get("kinetics.volterra_oracle") else 0.0, "ratio"),
        "kinetics.solve_closed_form.calls": (calls.get("kinetics.solve_closed_form", 0), "count"),
        "kinetics.solve_closed_form.self_s": (self_s.get("kinetics.solve_closed_form", 0.0), "s"),
        "kinetics.closed_form_terms_mean":
            (sum(t * n for t, _, n in forms) / nodes if nodes else 0.0, "terms"),
        "kinetics.truncated_node_share":
            (sum(s * n for _, s, n in forms) / nodes if nodes else 0.0, "ratio"),
        "kinetics.self_s": (layer_sum(self_s, "kinetics"), "s"),
        "cli.self_s": (layer_sum(self_s, "cli"), "s"),
        "cli.bytes_written": (traced.bytes_written, "bytes"),
        "svgplot.self_s": (layer_sum(self_s, "svgplot"), "s"),
        "setup.scipy_import_s": (statistics.median(s for s, _ in imports), "s"),
        "setup.kstruve_import_self_s": (statistics.median(k for _, k in imports), "s"),
        "trace.overhead": (math.fsum(traced.best()) / math.fsum(untraced.best()) - 1.0, "ratio"),
    }
    return m, shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kstruve", "__init__.py")):
        print(f"error: no kstruve package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up cost a CLI user pays on every run, measured in fresh interpreters.
    if args.trace:
        imports = [importtime_breakdown(src) for _ in range(IMPORTTIME_REPEATS)]
    else:
        setup_times = [fresh_import_seconds(src) for _ in range(SETUP_BEFORE)]

    K = Package(import_package(src))
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](K, args.seed, workdir)
        wl.prepare()
        if args.trace:
            untraced = Tally(len(wl.ops))
            run_ops(wl, untraced, cycles=wl.trace_cycles)
            tracer = tracing.Tracer()
            tracer.install(K.mods)
            traced = Tally(len(wl.ops))
            try:
                run_ops(wl, traced, cycles=wl.trace_cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            tally = traced
            metrics, shares = per_layer(tracer, traced, untraced, imports)
            details = {"spans": len(tracer), "cycles": wl.trace_cycles,
                       "share_of_traced_time": shares}
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv.gz")
            tracer.write(spans_path)
            details["spans_file"] = os.path.relpath(spans_path, root)
        else:
            # The rest of the set-up samples are spread over the run, between
            # cycles, so that one burst of host contention cannot skew them all.
            def sample_setup(busy):
                taken = len(setup_times) - SETUP_BEFORE
                if taken < SETUP_DURING and busy >= taken * args.seconds / SETUP_DURING:
                    setup_times.append(fresh_import_seconds(src))

            tally = Tally(len(wl.ops))
            run_ops(wl, tally, seconds=args.seconds, between_cycles=sample_setup)
            metrics, details = end_to_end(tally, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    details.update(workload=args.workload, seed=args.seed, attempted=tally.attempted,
                   failed=tally.failed, probe_failed=tally.probe_failed,
                   work=tally.work, busy_s=tally.busy)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if "op_ms_tail" in details:
        t = details["op_ms_tail"]
        print(f"{args.workload} op_ms_tail = {t['value']:.6g} ms (p{t['percentile']:g} of "
              f"{tally.n_ops} operations, {t['beyond']} beyond; not gated)")
    for failure in tally.failures:
        print(f"unexpected failure: {failure}", file=sys.stderr)
    print("details " + json.dumps(details))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
