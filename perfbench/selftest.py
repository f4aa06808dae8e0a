"""Self-tests for the benchmark harness.

Run from the root of a checkout (the file name keeps it out of the tier-1
test collection):

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import run as harness  # noqa: E402  (pins BLAS threads before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

_K = None


def package():
    global _K
    if _K is None:
        _K = harness.Package(harness.import_package(SRC))
    return _K


def workdir(tag: str) -> str:
    path = os.path.join(ROOT, ".bench_work", f"selftest-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


class _Ops:
    """A workload of the given operations, for driving ``run_ops`` directly."""

    min_cycles = 1

    def __init__(self, ops):
        self.ops = ops


def _specs(wl) -> list:
    return [op.spec for op in wl.ops]


def test_same_seed_same_inputs():
    K = package()
    d = workdir("seed")
    try:
        for cls in workloads.WORKLOADS.values():
            first, again, other = cls(K, 7, d), cls(K, 7, d), cls(K, 8, d)
            assert _specs(first) == _specs(again), cls.name
            assert _specs(first) != _specs(other), cls.name
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _failed(op) -> int:
    tally = harness.Tally(1)
    harness.run_ops(_Ops([op]), tally, cycles=1)
    return tally.failed


def _perturbed(op, call, probe=None):
    return workloads.Op(spec=op.spec, call=call, check=op.check, work=op.work,
                        probe=op.probe if probe is None else probe, outputs=op.outputs,
                        produced=op.produced)


def _append_byte(op):
    def call():
        rc = op.call()
        with open(op.outputs[0], "a", encoding="utf-8") as fh:
            fh.write("\n")
        return rc
    return call


def _scale_last_consistent(op, factor):
    def call():
        rc = op.call()
        path = op.outputs[0]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        last = max(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        cols = lines[last].split(",")
        cols[3] = repr(float(cols[3]) * factor)  # N_consistent
        lines[last] = ",".join(cols)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return rc
    return call


def test_perturbed_output_is_a_failure():
    K = package()
    d = workdir("perturb")
    try:
        kern = workloads.Kernels(K, 3, d)
        op = next(o for o in kern.ops if o.spec[0] == "struve_h" and not o.probe)
        assert _failed(op) == 0
        assert _failed(_perturbed(op, lambda: op.call() * (1 + 1e-6))) == 1
        assert _failed(_perturbed(op, lambda: 1 / 0)) == 1  # raising is failing
        # in a known-defect probe stratum the failure counts in error_rate only
        tally = harness.Tally(1)
        harness.run_ops(_Ops([_perturbed(op, lambda: 1 / 0, probe=True)]), tally, cycles=1)
        assert (tally.failed, tally.probe_failed) == (0, 1)
        metrics, _ = harness.end_to_end(tally, [0.5])
        assert metrics["error_rate"][0] == 1.0

        figs = workloads.FiguresSweep(K, 3, d)
        figs.prepare()
        solve = next(o for o in figs.ops if o.spec[0] == "solve")
        assert _failed(solve) == 0
        assert _failed(_perturbed(solve, _append_byte(solve))) == 1

        adj = workloads.Adjudicate(K, 3, d)
        val = adj.ops[0]  # n=512, t_max=1
        assert _failed(val) == 0
        assert _failed(_perturbed(val, _scale_last_consistent(val, 1.01))) == 1
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_named_metric_is_printed_with_its_unit():
    spec = _bench_spec()
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl["name"], "--seed", "11",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (wl["name"], trace)
            for name, unit in want.items():
                value = result["metrics"][name]["value"]
                assert isinstance(value, (int, float)), name
                assert any(ln.startswith(f"{wl['name']} {name} = ") and ln.endswith(f" {unit}")
                           for ln in lines), name


def test_self_times_add_up_to_the_op():
    K = package()
    d = workdir("trace")
    try:
        tracer = tracing.Tracer()
        tracer.install(K.mods)
        try:
            for op_id, argv in enumerate((
                    ["validate", "--n-points", "64", "--out", os.path.join(d, "v")],
                    ["figures", "--which", "4", "--n-points", "64", "--out-dir", d],
                    ["eval", "--fn", "kstruve", "--x", "0.5,2", "--out", os.path.join(d, "e")])):
                tracer.run_op(op_id, lambda argv=argv: workloads.run_cli(K.cli, argv))
        finally:
            tracer.uninstall()
        assert not hasattr(K.cli.main, "__wrapped__")  # uninstall restored the original
        own = tracer.self_times()
        names = [tracer.names[n] for n in tracer.name]
        for op_id in range(3):
            ids = [i for i, o in enumerate(tracer.op) if o == op_id]
            roots = [i for i in ids if tracer.parent[i] == -1]
            assert len(roots) == 1 and names[roots[0]] == tracing.ROOT
            root = roots[0]
            for i in ids:
                if i != root:
                    assert tracer.op[tracer.parent[i]] == op_id
                    assert own[i] >= 0.0
            duration = tracer.end[root] - tracer.start[root]
            assert abs(sum(own[i] for i in ids) - duration) <= 1e-9 * max(duration, 1.0)
        assert "kinetics.volterra_oracle" in names and "svgplot.render_line_chart" in names
        assert "specfun.k_struve" in names and "cli.main" in names
    finally:
        shutil.rmtree(d, ignore_errors=True)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as exc:  # report every test, then fail overall
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
        else:
            print(f"ok   {test.__name__}")
    try:
        os.rmdir(os.path.join(ROOT, ".bench_work"))
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
