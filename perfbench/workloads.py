"""The three seeded workloads: their inputs, operations and correctness gates.

Every workload is a closed loop with one caller.  Its operations come in
cycles; the harness runs whole cycles, so each run sees the same mix of
strata and ``error_rate`` repeats across seeds.

``kernels``        scalar calls into ``specfun`` and ``transforms``.
``adjudicate``     ``kstruve validate`` through ``cli.main`` at n = 512, 2048.
``figures_sweep``  ``figures``, ``sweep``, ``solve`` and ``eval`` at n <= 4096.

Operations in a ``probe`` stratum exercise a defect listed in ROADMAP aim 3
(series cancellation at large argument, long closed-form horizons).  They
fail their gate today and count in ``error_rate`` like any other failure;
a failure outside those strata means the program broke something that
worked, and the run reports ``correct: false``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import mpmath

KERNEL_RTOL = 1e-8  # stated accuracy bound for the scalar series
QUAD_RTOL = 1e-4  # 64-node Gauss-Laguerre on a t^(nu/k+1) integrand
ORACLE_RTOL = 1e-3  # closed form against the Volterra oracle at t_max

X_DECADES = ((0.01, 0.1), (0.1, 1.0), (1.0, 10.0), (10.0, 50.0))  # up to x ~ 50
Z_DECADES = ((0.01, 0.1), (0.1, 1.0), (1.0, 10.0), (10.0, 30.0))  # up to z ~ -30
ML_PAIRS = ((1.0, 1.0), (2.0, 1.0), (0.5, 1.0))  # closed-form identities exist
FORCINGS = ("thm1", "thm2", "thm3", "constant")


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` judges its result untimed."""

    spec: tuple  # the generated inputs, comparable across runs
    call: Callable[[], object]
    check: Callable[[object], bool]
    work: int
    probe: bool = False
    outputs: tuple[str, ...] = ()
    produced: Callable[[object], bool] = lambda out: True  # did the call return its work?


def _log_strata(rng: random.Random, lo: float, hi: float, m: int) -> list[float]:
    """m log-uniform draws, one in each of m equal sub-bins (jittered strata)."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / m) for i in range(m)]


def _lin_strata(rng: random.Random, lo: float, hi: float, m: int,
                shuffle: bool = True) -> list[float]:
    vals = [lo + (hi - lo) * (i + rng.random()) / m for i in range(m)]
    if shuffle:
        rng.shuffle(vals)
    return vals


def _n_grid(lo: int, hi: int, m: int) -> list[int]:
    """m grid sizes at the centres of m log-spaced bins of [lo, hi].

    Sizes are not drawn: the cost of an operation scales with n, and a fixed
    grid keeps each run's cost profile, and so its median, seed-independent.
    """
    return [int(lo * (hi / lo) ** ((i + 0.5) / m)) for i in range(m)]


def _r(v: float) -> float:
    """Round to 6 significant digits so argv text and parsed value agree."""
    return float(f"{v:.6g}")


def _rel_ok(got: float, ref: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - ref) <= rtol * abs(ref)


# ----- references (mpmath, computed outside the timed region) -------------

mpmath.mp.dps = 30


def ref_struve_h(p: float, x: float) -> float:
    return float(mpmath.struveh(p, x))


def ref_k_struve(k: float, nu: float, c: float, x: float) -> float:
    """S^k_{nu,c}(x) = k^-(q+1/2) (k/c)^((q+1)/2) H_q(x sqrt(c/k)), q = nu/k."""
    q = mpmath.mpf(nu) / k
    arg = x * mpmath.sqrt(abs(c) / mpmath.mpf(k))
    h = mpmath.struveh(q, arg) if c > 0 else mpmath.struvel(q, arg)
    return float(k ** -(q + 0.5) * (mpmath.mpf(k) / abs(c)) ** ((q + 1) / 2) * h)


def ref_mittag_leffler(alpha: float, beta: float, z: float) -> float:
    if (alpha, beta) == (1.0, 1.0):
        return float(mpmath.exp(z))
    if (alpha, beta) == (2.0, 1.0):
        return float(mpmath.cos(mpmath.sqrt(-z)))
    if (alpha, beta) == (0.5, 1.0):
        return float(mpmath.exp(z * z) * mpmath.erfc(-z))
    raise ValueError(f"no identity for E_({alpha},{beta})")


def ref_image_wright(q: float, z: float) -> float:
    """2Psi2[(q+2,2),(1,1);(q+3/2,1),(3/2,1); z] as Gamma ratio times 3F2(4z)."""
    c = mpmath.gamma(q + 2) / (mpmath.gamma(q + 1.5) * mpmath.gamma(1.5))
    return float(c * mpmath.hyp3f2((q + 2) / 2, (q + 3) / 2, 1, q + 1.5, 1.5, 4 * z))


def ref_sumudu_kstruve(k: float, nu: float, c: float, u: float) -> float:
    q = nu / k
    return (u / 2.0) ** (q + 1.0) * k ** (-0.5 - q) * ref_image_wright(q, -c * u * u / (4.0 * k))


def ref_k_gamma(g: float, k: float) -> float:
    return float(mpmath.power(k, g / k - 1) * mpmath.gamma(g / k))


# ----- kernels ---------------------------------------------------------------


class Kernels:
    """Seeded scalar calls; one fixed case list per seed, repeated each cycle."""

    name = "kernels"
    trace_cycles = 130
    min_cycles = 1

    def __init__(self, K, seed: int, workdir: str):
        self.S, self.T = K.specfun, K.transforms
        rng = random.Random(f"kernels/{seed}")
        S = self.S
        self.ops: list[Op] = []
        # Small parameter pools: even-indexed cases share a pool entry, odd-
        # indexed cases get a parameter set of their own.  Pool entries and
        # own draws are both stratified, so the accurate and the cancelling
        # share of each decade (and hence error_rate) repeats across seeds.
        p_pool = [_r(v) for v in _lin_strata(rng, 0.0, 3.0, 3)]
        ks_pool = [S.KStruveParams(k=float(k), nu=_r(nu), c=_r(c)) for k, nu, c in
                   zip((1, 2, 3), _lin_strata(rng, 0.3, 1.5, 3), _lin_strata(rng, 0.5, 1.5, 3))]
        own_p = [_r(v) for v in _lin_strata(rng, 0.0, 3.0, 36)]
        own_ks = [S.KStruveParams(k=float(1 + j % 3), nu=_r(nu), c=_r(c)) for j, (nu, c) in
                  enumerate(zip(_lin_strata(rng, 0.3, 1.5, 36), _lin_strata(rng, 0.5, 1.5, 36)))]

        def ks_params(i):
            return ks_pool[i % 3] if i % 2 == 0 else own_ks[(i // 2) % 36]

        for lo, hi in X_DECADES:
            for i, x in enumerate(_log_strata(rng, lo, hi, 72)):
                p = p_pool[i % 3] if i % 2 == 0 else own_p[i // 2]
                self._scalar(("struve_h", p, x), lambda p=p, x=x: self.S.struve_h(p, x),
                             ref_struve_h(p, x), KERNEL_RTOL, probe=lo >= 10.0)
        # decades of the classical Struve argument x sqrt(c/k) that S^k rescales
        for lo, hi in X_DECADES:
            for i, y in enumerate(_log_strata(rng, lo, hi, 72)):
                pr = ks_params(i)
                x = y * math.sqrt(pr.k / pr.c)
                self._scalar(("k_struve", pr.k, pr.nu, pr.c, x),
                             lambda pr=pr, x=x: self.S.k_struve(pr, x),
                             ref_k_struve(pr.k, pr.nu, pr.c, x), KERNEL_RTOL, probe=lo >= 10.0)
        for lo, hi in Z_DECADES:
            for i, az in enumerate(_log_strata(rng, lo, hi, 72)):
                alpha, beta = ML_PAIRS[i % 3]
                z = -az
                self._scalar(("mittag_leffler", alpha, beta, z),
                             lambda a=alpha, b=beta, z=z: self.S.mittag_leffler(a, b, z),
                             ref_mittag_leffler(alpha, beta, z), KERNEL_RTOL, probe=lo >= 1.0)
        # borderline (delta = 0) Sumudu-image series: radius 1/4; the last
        # stratum sits on the radius, where summation takes the CVZ path
        images = [(pr.order_ratio, self._image(pr.order_ratio)) for pr in ks_pool]
        for lo, hi in ((0.0025, 0.025), (0.025, 0.25)):
            for i, az in enumerate(_log_strata(rng, lo, hi, 24)):
                q, w = images[i % 3]
                self._scalar(("fox_wright", q, -az), lambda w=w, z=-az: self.S.fox_wright(w, z),
                             ref_image_wright(q, -az), KERNEL_RTOL)
        for i in range(12):
            q, w = images[i % 3]
            z = -w.radius
            self._scalar(("fox_wright", q, z), lambda w=w, z=z: self.S.fox_wright(w, z),
                         ref_image_wright(q, z), KERNEL_RTOL)
        # an entire (delta = 1) series with a closed form: 1Psi1[(1,1);(1,1);z] = e^z
        exp_w = S.WrightParams(upper=((1.0, 1.0),), lower=((1.0, 1.0),))
        for lo, hi in ((0.01, 0.1), (0.1, 1.0), (1.0, 10.0)):
            for az in _log_strata(rng, lo, hi, 18):
                self._scalar(("fox_wright", "exp", -az),
                             lambda z=-az: self.S.fox_wright(exp_w, z),
                             float(mpmath.exp(-az)), KERNEL_RTOL, probe=lo >= 1.0)
        for stratum in range(2):
            params = [ks_params(i) for i in range(24)]
            for i, (pr, f) in enumerate(zip(params, _lin_strata(rng, 0.0, 1.0, 24))):
                u = self._u(stratum, pr, f)
                self._scalar(("sumudu_kstruve_closed", pr.k, pr.nu, pr.c, u),
                             lambda pr=pr, u=u: self.T.sumudu_kstruve_closed(pr, u),
                             ref_sumudu_kstruve(pr.k, pr.nu, pr.c, u), KERNEL_RTOL)
            # Gauss-Laguerre of k_struve: 64 scalar k_struve calls per transform
            for pr, f in zip(ks_pool, _lin_strata(rng, 0.0, 1.0, 3)):
                u = self._u(stratum, pr, f)
                self._scalar(("sumudu_numeric", pr.k, pr.nu, pr.c, u),
                             lambda pr=pr, u=u: self.T.sumudu_numeric(
                                 lambda t: self.S.k_struve(pr, t), u),
                             ref_sumudu_kstruve(pr.k, pr.nu, pr.c, u), QUAD_RTOL)

    @staticmethod
    def _u(stratum: int, pr, f: float) -> float:
        """Sumudu argument at log-fraction f of stratum [0.01, 0.1) or [0.1, 0.9 u_max).

        u_max = sqrt(k/c) keeps the image argument -c u^2/(4k) inside radius 1/4.
        """
        lo, hi = (0.01, 0.1) if stratum == 0 else (0.1, 0.9 * math.sqrt(pr.k / pr.c))
        return lo * (hi / lo) ** f

    def _image(self, q: float):
        return self.S.WrightParams(upper=((q + 2.0, 2.0), (1.0, 1.0)),
                                   lower=((q + 1.5, 1.0), (1.5, 1.0)))

    def _scalar(self, spec, call, ref: float, rtol: float, probe: bool = False) -> None:
        self.ops.append(Op(spec=spec, call=call, check=lambda v: _rel_ok(v, ref, rtol),
                           work=1, probe=probe))

    def prepare(self) -> None:
        pass  # references are computed while the cases are generated


# ----- CLI workloads ---------------------------------------------------------


def run_cli(cli, argv: list[str]) -> int:
    """``kstruve <argv>`` in-process; stdout and stderr are swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


def _data_rows(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        return [[float(v) for v in line.split(",")]
                for line in fh if line and not line.startswith("#") and line[0] in "-0123456789."]


def _last_data_row(path: str) -> list[float]:
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 16384))
        lines = fh.read().decode("utf-8").splitlines()
    for line in reversed(lines):
        if line and not line.startswith("#"):
            return [float(v) for v in line.split(",")]
    raise ValueError(f"no data row in {path}")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _problem_args(pr: dict) -> list[str]:
    out = []
    for key in ("forcing", "n0", "d", "a", "nu", "mu", "c", "k", "t_max", "n_points"):
        if key in pr:
            out += ["--" + key.replace("_", "-"), str(pr[key])]
    return out


def _draw_problem(rng: random.Random, forcing: str, nu: float, n: int, t_max: float) -> dict:
    return dict(forcing=forcing, n0=_r(rng.uniform(0.5, 2.0)), d=_r(rng.uniform(0.5, 2.0)),
                a=_r(rng.uniform(2.5, 4.0)), nu=_r(nu), mu=rng.choice((0.5, 1.0, 1.5)),
                c=_r(rng.uniform(0.5, 1.5)), k=float(rng.choice((1, 2, 3))),
                t_max=t_max, n_points=n)


class _CliWorkload:
    def __init__(self, K, seed: int, workdir: str):
        self.K = K
        self.workdir = workdir
        # originals, so that untimed checks stay outside any trace
        self._solve = K.kinetics.solve_closed_form
        self._oracle = K.kinetics.volterra_oracle

    def _model(self, pr: dict):
        K = self.K
        problem = K.kinetics.KineticProblem(
            n0=pr["n0"], d=pr["d"], nu=pr["nu"], mu=pr["mu"], c=pr["c"], k=pr["k"],
            a=pr["a"], forcing=pr["forcing"])
        grid = K.transforms.TimeGrid(t_max=pr["t_max"], n_points=pr["n_points"])
        return problem, grid

    def _consistent_ok(self, pr: dict, got_end: float, oracle_end: float) -> bool:
        """Within ORACLE_RTOL of the oracle at t_max, or flagged as truncated."""
        if math.isfinite(got_end) and abs(got_end - oracle_end) <= ORACLE_RTOL * (
                abs(oracle_end) or 1.0):
            return True
        problem, grid = self._model(pr)
        pol = self.K.specfun.TruncationPolicy(max_terms=50, rel_tol=1e-16)
        return bool(self._solve(problem, grid, "sumudu_consistent", pol).truncation_flag[-1])

    def _cli_op(self, argv: list[str], outputs, work: int, check, probe=False) -> Op:
        cli = self.K.cli
        return Op(spec=tuple(argv), call=lambda: run_cli(cli, argv), check=check,
                  work=work, probe=probe, outputs=tuple(outputs),
                  produced=lambda rc: rc in (0, 4))


class Adjudicate(_CliWorkload):
    """``validate`` on nine seeded problems per seed, repeated each cycle.

    The cycle: six thm problems and one constant-forcing problem at n=512,
    one thm problem at n=2048 (all at t_max=1), and one long horizon
    (t_max in [20, 40], nu <= 0.7, a ROADMAP aim-3 probe) at n=512.  Every
    slot has a fixed forcing, k and mu, and draws nu, d, a and c from a
    sub-interval of its own (nu in slot order, the others in shuffled
    orders), so each slot keeps its stratum, and its cost, from seed to
    seed.  The median operation is one of the six thm problems at n=512.

    The sizes are far below the ROADMAP's large-grid cases (n = 8192 and
    32768).  On a shared 2-vCPU host whose speed drops by about a third for
    minutes at a time, with only short gaps, an operation of 0.05-1.5 s
    rarely runs whole in a gap: at n = 2048 to 32768 its best-of latency
    was up to 37% higher in a contended run than in a calm one.  At n = 512
    an operation takes ~15 ms and a 30 s run repeats it ~110 times.  The
    oracle's per-node forcing still dominates; the O(n^2) part of its loop
    is a smaller share than at the ROADMAP's sizes (traced self time 4-6 us
    per node here, 12 us at n = 32768).
    """

    name = "adjudicate"
    trace_cycles = 16
    min_cycles = 6  # each operation's latency is the best of at least 6 repeats
    N_SMALL, N_LARGE = 512, 2048
    # t_max=1 slots in nu order: thm at N_SMALL ("s"), thm at N_LARGE ("L"), constant ("c")
    SLOTS = "ssLscsss"
    MUS = (0.5, 1.0, 1.5)
    # slot order of the d, a and c sub-intervals: fixed, decorrelated permutations
    ORDERS = {"d": (3, 6, 0, 5, 1, 7, 2, 4, 8), "a": (7, 2, 5, 0, 8, 3, 1, 6, 4),
              "c": (1, 4, 8, 2, 6, 0, 5, 3, 7)}
    RANGES = {"d": (0.5, 2.0), "a": (2.5, 4.0), "c": (0.5, 1.5)}

    def __init__(self, K, seed: int, workdir: str):
        super().__init__(K, seed, workdir)
        rng = random.Random(f"adjudicate/{seed}")
        m = len(self.SLOTS) + 1
        strata = {key: _lin_strata(rng, lo, hi, m, shuffle=False)
                  for key, (lo, hi) in self.RANGES.items()}
        nus = _lin_strata(rng, 0.3, 1.5, len(self.SLOTS), shuffle=False)
        nus.append(0.3 + 0.4 * rng.random())
        slots = [(s, {"s": ("thm1", "thm2", "thm3")[j % 3], "L": "thm1", "c": "constant"}[s])
                 for j, s in enumerate(self.SLOTS)] + [("long", "thm3")]
        self.ops = []
        for j, ((slot, forcing), nu) in enumerate(zip(slots, nus)):
            n = self.N_LARGE if slot == "L" else self.N_SMALL
            t_max = _r(20.0 + 20.0 * rng.random()) if slot == "long" else 1.0
            pr = dict(forcing=forcing, n0=_r(rng.uniform(0.5, 2.0)),
                      **{key: _r(strata[key][self.ORDERS[key][j]]) for key in self.RANGES},
                      nu=_r(nu), mu=self.MUS[(j // 3) % 3], k=float(1 + j % 3),
                      t_max=t_max, n_points=n)
            out = os.path.join(self.workdir, f"validate{j}")
            argv = ["validate"] + _problem_args(pr) + ["--tol", str(ORACLE_RTOL), "--out", out]
            self.ops.append(self._cli_op(
                argv, [out + ".csv"], 3 * pr["n_points"],
                lambda rc, pr=pr, out=out: self._check(pr, rc, out + ".csv"),
                probe=slot == "long"))

    def prepare(self) -> None:
        pass

    def _check(self, pr: dict, rc, path: str) -> bool:
        if rc not in (0, 4):  # 4: neither variant agrees, a verdict, not an error
            return False
        row = _last_data_row(path)  # t, N_oracle, N_printed, N_consistent, ...
        return self._consistent_ok(pr, row[3], row[1])


class FiguresSweep(_CliWorkload):
    """A fixed list of short CLI runs per seed, repeated each cycle.

    Every output must be byte-identical to the first, untimed run of the
    same argv, and that first run must pass its gate: ``sumudu_consistent``
    columns against an untimed oracle, ``eval`` tables against mpmath.
    """

    name = "figures_sweep"
    trace_cycles = 10
    min_cycles = 1

    def __init__(self, K, seed: int, workdir: str):
        super().__init__(K, seed, workdir)
        rng = random.Random(f"figures_sweep/{seed}")
        self.plan = []  # (argv, outputs, work, kind, payload, probe)

        d = self.workdir
        for which, n in zip(rng.sample("123456", 4), _n_grid(1000, 4096, 4)):
            out_dir = os.path.join(d, f"fig{which}")
            os.makedirs(out_dir, exist_ok=True)
            argv = ["figures", "--which", which, "--n-points", str(n), "--out-dir", out_dir]
            files = [os.path.join(out_dir, f"fig{which}.{ext}") for ext in ("csv", "svg")]
            self.plan.append((argv, files, 5 * n, "figures", None, False))

        sweep_values = {
            "nu": lambda: [_r(v) for v in _log_strata(rng, 0.3, 1.5, 3)],
            "k": lambda: [1.0, 2.0, 3.0],
            "c": lambda: [_r(v) for v in _log_strata(rng, 0.5, 1.5, 3)],
            "d": lambda: [_r(v) for v in _log_strata(rng, 0.5, 2.0, 3)],
            "mu": lambda: [0.5, 1.0, 1.5],
        }
        params = tuple(sweep_values)
        sweeps = [(params[j % 5], FORCINGS[j % 4], 1.0, n, nu) for j, (n, nu) in enumerate(
            zip(_n_grid(500, 4096, 8), _lin_strata(rng, 0.3, 1.5, 8, shuffle=False)))]
        # long horizon: a ROADMAP aim-3 probe
        sweeps.append(("mu", "thm3", _r(rng.uniform(20.0, 40.0)), 1000, rng.uniform(0.3, 0.7)))
        for j, (param, forcing, t_max, n, nu) in enumerate(sweeps):
            base = _draw_problem(rng, forcing, nu, n, t_max)
            values = sweep_values[param]()
            out = os.path.join(d, f"sweep{j}")
            argv = (["sweep", "--param", param, "--values", _join(values)]
                    + _problem_args(base) + ["--out", out])
            problems = [dict(base, **{param: v}) for v in values]
            self.plan.append((argv, [out + ".csv"], len(values) * n, "sweep", problems,
                              t_max > 1.0))
        for j, (n, nu) in enumerate(zip(_n_grid(500, 4096, 6),
                                        _lin_strata(rng, 0.3, 1.5, 6, shuffle=False))):
            pr = _draw_problem(rng, FORCINGS[j % 4], nu, n, 1.0)
            out = os.path.join(d, f"solve{j}")
            argv = ["solve"] + _problem_args(pr) + ["--out", out]
            self.plan.append((argv, [out + ".csv"], 2 * n, "solve", [pr], False))

        def decades(ranges):
            return [_r(_log_strata(rng, lo, hi, 1)[0]) for lo, hi in ranges]

        p = _r(rng.uniform(0.0, 3.0))
        xs = decades(X_DECADES[:3] + ((45.0, 55.0),))  # x ~ 50: ROADMAP aim-3 probe
        self._eval(["--fn", "struve", "--p", str(p), "--x", _join(xs)],
                   [ref_struve_h(p, x) for x in xs], True)
        zs = [-v for v in decades(Z_DECADES[:3] + ((27.0, 33.0),))]  # z ~ -30: probe
        self._eval(["--fn", "mittag_leffler", "--alpha", "1", "--beta", "1", "--z", _join(zs)],
                   [ref_mittag_leffler(1.0, 1.0, z) for z in zs], True)
        k, nu, c = float(rng.choice((1, 2, 3))), _r(rng.uniform(0.3, 1.5)), _r(rng.uniform(0.5, 1.5))
        xs = decades(X_DECADES[:3])
        self._eval(["--fn", "kstruve", "--k", str(k), "--nu", str(nu), "--c", str(c),
                    "--x", _join(xs)], [ref_k_struve(k, nu, c, x) for x in xs], False)
        us = decades(((0.01, 0.1), (0.1, 0.9 * math.sqrt(k / c))))
        self._eval(["--fn", "sumudu_kstruve", "--k", str(k), "--nu", str(nu), "--c", str(c),
                    "--u", _join(us)], [ref_sumudu_kstruve(k, nu, c, u) for u in us], False)
        gs = decades(((0.5, 1.0), (1.0, 10.0)))
        self._eval(["--fn", "kgamma", "--k", str(k), "--gamma", _join(gs)],
                   [ref_k_gamma(g, k) for g in gs], False)
        self._ref: dict[int, tuple[str, bool]] = {}
        self.ops = [self._cli_op(argv, files, work,
                                 lambda rc, i=i, files=files: self._check(i, rc, files), probe)
                    for i, (argv, files, work, _, _, probe) in enumerate(self.plan)]

    def _eval(self, args: list[str], refs: list[float], probe: bool) -> None:
        out = os.path.join(self.workdir, f"eval{len(self.plan)}")
        self.plan.append((["eval"] + args + ["--out", out], [out + ".csv"], 0, "eval", refs, probe))

    def prepare(self) -> None:
        """First, untimed run of every argv: reference bytes and gate verdict."""
        for i, (argv, files, _, kind, payload, _) in enumerate(self.plan):
            rc = run_cli(self.K.cli, argv)
            ok = rc == 0 and self._gate(kind, payload, files)
            self._ref[i] = (_digest(files) if rc == 0 else "", ok)

    def _gate(self, kind: str, payload, files) -> bool:
        if kind == "figures":
            return True  # as_printed only: no sumudu_consistent column to judge
        if kind == "eval":
            rows = _data_rows(files[0])  # x, value, terms_used
            return len(rows) == len(payload) and all(
                _rel_ok(row[1], ref, KERNEL_RTOL) for row, ref in zip(rows, payload))
        if kind == "solve":
            ends = [_last_data_row(files[0])[2]]  # t, N_printed, N_consistent
        else:  # sweep, long format: param,value,t,N -- last row of each value
            with open(files[0], encoding="utf-8") as fh:
                lines = [ln.split(",") for ln in fh if not ln.startswith("#")][1:]
            n = payload[0]["n_points"]
            ends = [float(lines[(j + 1) * n - 1][3]) for j in range(len(payload))]
        for pr, end in zip(payload, ends):
            problem, grid = self._model(pr)
            if not self._consistent_ok(pr, end, float(self._oracle(problem, grid).values[-1])):
                return False
        return True

    def _check(self, i: int, rc, files) -> bool:
        digest, ok = self._ref.get(i, ("", False))
        return rc == 0 and ok and _digest(files) == digest



def _join(values) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS = {w.name: w for w in (Kernels, Adjudicate, FiguresSweep)}
