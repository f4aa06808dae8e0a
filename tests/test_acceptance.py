"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
directly to the terminal (bypassing capture) so the gate's verdict is visible
in the plain pytest log.
"""

import math
import time

import numpy as np
import pytest

from kstruve.cli import EXIT_OK, main
from kstruve.errors import QuadratureWarning
from kstruve.kinetics import (
    KineticProblem,
    solve_closed_form,
    solve_corollary_k1,
    volterra_oracle,
)
from kstruve.specfun import (
    KStruveParams,
    TruncationPolicy,
    k_gamma,
    k_struve,
    mittag_leffler,
    struve_h,
)
from kstruve.transforms import (
    QuadratureSpec,
    TimeGrid,
    rl_fractional_integral,
    sumudu_kstruve_closed,
    sumudu_numeric,
    sumudu_power_rule,
)
from closed_form_reference import closed_form_reference

POL = TruncationPolicy(max_terms=200, rel_tol=1e-16)
ADAPTIVE = QuadratureSpec(scheme="truncated_adaptive")


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_special_function_suite(capsys):
    ok = True
    for k in (0.5, 1.0, 2.0, 3.0):
        ok &= abs(k_gamma(k, k) - 1.0) <= 1e-14
    for g in np.linspace(0.05, 49.95, 300):
        ref = math.gamma(float(g))
        ok &= abs(k_gamma(float(g), 1.0) - ref) <= 1e-13 * abs(ref)
    params = KStruveParams(k=1.0, nu=0.8, c=1.0)
    for x in np.linspace(0.05, 5.0, 60):
        ref = struve_h(0.8, float(x), POL)
        ok &= abs(k_struve(params, float(x), POL) - ref) <= 1e-13 * abs(ref)
    for z in np.linspace(-3.0, 3.0, 41):
        z = float(z)
        ok &= abs(mittag_leffler(1.0, 1.0, z, POL) - math.exp(z)) <= 1e-12 * math.exp(z)
        ok &= abs(mittag_leffler(2.0, 1.0, z * z, POL) - math.cosh(z)) <= 1e-12 * math.cosh(z)
    _report(capsys, 1, "k-Gamma / k-Struve / Mittag-Leffler identity suite", ok)


def test_criterion_02_struve_ode_residual(capsys):
    h = 1e-4
    worst = 0.0
    for p in (0.0, 1.0):
        for x in (0.5, 1.0, 2.0):
            y0 = struve_h(p, x, POL)
            yp = struve_h(p, x + h, POL)
            ym = struve_h(p, x - h, POL)
            d1 = (yp - ym) / (2 * h)
            d2 = (yp - 2 * y0 + ym) / (h * h)
            rhs = 4 * (x / 2) ** (p + 1) / (math.sqrt(math.pi) * math.gamma(p + 0.5))
            worst = max(worst, abs(x * x * d2 + x * d1 + (x * x - p * p) * y0 - rhs))
    _report(capsys, 2, f"non-homogeneous Bessel ODE residual (max {worst:.3g})", worst <= 1e-6)


def test_criterion_03_sumudu_image_identity(capsys):
    start = time.perf_counter()
    worst = 0.0
    for k in (1.0, 2.0, 3.0):
        for nu in (0.5, 1.0):
            params = KStruveParams(k=k, nu=nu, c=1.0)
            for u in np.linspace(0.05, 1.0, 12):
                u = float(u)
                closed = sumudu_kstruve_closed(params, u, POL)
                numeric = sumudu_numeric(lambda t: k_struve(params, t, POL), u, ADAPTIVE)
                worst = max(worst, abs(closed - numeric) / abs(numeric))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        capsys, 3,
        f"transform image identity (max rel {worst:.3g}, {elapsed:.1f}s)", ok,
    )


def test_criterion_04_transform_composition(capsys):
    u = 0.4
    worst = 0.0
    sp = KStruveParams(k=1.0, nu=1.0, c=1.0)
    samplers = {
        "t": (lambda t: t, lambda uu: sumudu_power_rule(2.0, uu)),
        "kstruve": (
            lambda t: k_struve(sp, t, POL),
            lambda uu: sumudu_kstruve_closed(sp, uu, POL),
        ),
    }
    for name, (f, image) in samplers.items():
        for nu in (0.5, 1.0):
            grid = TimeGrid(t_max=40.0 * u, n_points=8000)
            t = grid.points()
            samples = np.array([f(ti) for ti in t])
            rl = rl_fractional_integral(samples, grid, nu)
            # the interpolant's kinks stop the adaptive rule on its budget
            with pytest.warns(QuadratureWarning):
                lhs = sumudu_numeric(lambda s: float(np.interp(s, t, rl)), u, ADAPTIVE)
            rhs = u**nu * image(u)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report(capsys, 4, f"S(RL^nu f) = u^nu S(f) composition (max rel {worst:.3g})", worst <= 1e-5)


def test_criterion_05_rl_convergence_order(capsys):
    worst_ratio = math.inf
    for nu, mu in ((0.5, 3.0), (0.9, 3.0), (0.5, 2.5)):
        errs = []
        for n in (512, 1024, 2048, 4096):
            grid = TimeGrid(t_max=1.0, n_points=n)
            t = grid.points()
            out = rl_fractional_integral(t ** (mu - 1.0), grid, nu)
            exact = math.gamma(mu) / math.gamma(mu + nu) * t ** (mu + nu - 1.0)
            errs.append(float(np.max(np.abs(out - exact))))
        worst_ratio = min(worst_ratio, min(a / b for a, b in zip(errs, errs[1:])))
    _report(
        capsys, 5,
        f"fractional-integral error shrinks per doubling (worst ratio {worst_ratio:.2f})",
        worst_ratio >= 3.0,
    )


def test_criterion_06_degenerate_exactness(capsys):
    grid = TimeGrid(t_max=1.0, n_points=4096)
    p = KineticProblem(n0=1.0, d=1.0, nu=1.0, mu=1.0, forcing="constant")
    oracle = volterra_oracle(p, grid).values
    closed = solve_closed_form(p, grid, "sumudu_consistent", POL).values
    decay = np.exp(-grid.points())
    worst = max(
        float(np.max(np.abs(oracle - closed))),
        float(np.max(np.abs(oracle - decay))),
        float(np.max(np.abs(closed - decay))),
    )
    _report(capsys, 6, f"order-one model collapses to e^-dt (max dev {worst:.3g})", worst <= 1e-6)


def test_criterion_07_mittag_leffler_resummation(capsys):
    # exact solution has a t^nu cusp at 0; the discretization's first-layer
    # nodes converge slowly there, so agreement is measured past the layer
    grid = TimeGrid(t_max=1.0, n_points=4096)
    t = grid.points()
    worst = 0.0
    layer_max = 0.0
    for nu in (0.3, 0.5, 0.9):
        p = KineticProblem(n0=1.0, d=1.0, nu=nu, mu=1.0, forcing="constant")
        oracle = volterra_oracle(p, grid).values
        exact = np.array([mittag_leffler(nu, 1.0, -(ti**nu), POL) for ti in t])
        err = np.abs(oracle - exact)
        worst = max(worst, float(err[t >= 0.1].max()))
        layer_max = max(layer_max, float(err.max()))
    _report(
        capsys, 7,
        f"constant forcing matches Mittag-Leffler decay "
        f"(max {worst:.3g} past the initial layer; {layer_max:.3g} including it)",
        worst <= 1e-4,
    )


def test_criterion_08_k1_reduction(capsys):
    grid = TimeGrid(t_max=1.0, n_points=32)
    worst = 0.0
    for forcing in ("thm1", "thm2", "thm3"):
        for nu in (0.5, 1.0, 1.5):
            p = KineticProblem(
                n0=1.0, d=1.0, nu=nu, mu=1.0, c=1.0, k=1.0, a=2.0, forcing=forcing
            )
            corollary = solve_corollary_k1(p, grid, POL).values
            reference = closed_form_reference(p, grid, "as_printed", POL)[0]
            scale = float(np.max(np.abs(reference))) or 1.0
            worst = max(worst, float(np.max(np.abs(corollary - reference))) / scale)
    _report(capsys, 8, f"k=1 corollary reduction (max rel {worst:.3g})", worst <= 1e-14)


def test_criterion_09_adjudication_deliverable(capsys, tmp_path):
    base = [
        "validate", "--nu", "0.9", "--mu", "1", "--d", "1", "--c", "1", "--k", "1",
        "--t-max", "1", "--max-terms", "100",
    ]
    tables = {}
    for n in (256, 512):
        out = tmp_path / f"val{n}"
        rc = main(base + ["--n-points", str(n), "--out", str(out)])
        text = (tmp_path / f"val{n}.csv").read_text(encoding="utf-8")
        rows = [
            [float(c) for c in line.split(",")]
            for line in text.splitlines()
            if line and not line.startswith(("#", "t,"))
        ]
        tables[n] = (rc, text, np.array(rows))
    rc256, text256, t256 = tables[256]
    rc512, _, t512 = tables[512]
    # table produced with both variants' deviations, disagreement surfaced
    produced = (
        rc256 in (EXIT_OK, 4)
        and "dev_printed" in text256
        and "dev_consistent" in text256
        and "# summary:" in text256
        and t256.shape == (256, 6)
    )
    # grid-doubling stability: oracle at shared nodes (past the cusp layer)
    # and the end-point deviation of the as-printed variant, 3 sig figs
    shared = t512[1::2, 1]
    t_vals = t256[:, 0]
    rel = np.abs(shared - t256[:, 1]) / np.abs(shared)
    stable_oracle = float(rel[t_vals >= 0.1].max()) <= 5e-4
    stable_dev = abs(t256[-1, 4] - t512[-1, 4]) / t512[-1, 4] <= 5e-4
    ok = produced and stable_oracle and stable_dev
    _report(
        capsys, 9,
        "validate emits a convergence-stable deviation table "
        f"(dev_printed={t512[-1, 4]:.3g}, dev_consistent={t512[-1, 5]:.3g} at t_max)",
        ok,
    )


def test_criterion_10_figure_reproduction(capsys, tmp_path):
    rc = main(["figures", "--n-points", "100", "--out-dir", str(tmp_path)])
    ok = rc == EXIT_OK
    for which in range(1, 7):
        csv = tmp_path / f"fig{which}.csv"
        svg = tmp_path / f"fig{which}.svg"
        ok &= csv.exists() and svg.exists()
        rows = [
            [float(c) for c in line.split(",")]
            for line in csv.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith(("#", "t,"))
        ]
        ok &= all(math.isfinite(v) for row in rows for v in row)
    # positivity of the true solution at the figure parameters
    grid = TimeGrid(t_max=1.0, n_points=200)
    for forcing in ("thm1", "thm3"):
        for k in (1.0, 2.0, 3.0):
            for nu in (0.5, 0.7, 0.9, 1.0, 1.5):
                p = KineticProblem(n0=1.0, d=1.0, nu=nu, mu=1.0, c=1.0, k=k, forcing=forcing)
                ok &= bool(np.all(volterra_oracle(p, grid).values > 0.0))
    _report(capsys, 10, "six figure CSV+SVG pairs, finite values, positive oracle", ok)


def test_criterion_11_determinism(capsys, tmp_path):
    cmds = {
        "eval": lambda d: ["eval", "--fn", "kstruve", "--k", "2", "--nu", "0.5",
                           "--x", "0.5,1.0,2.0", "--out", str(d / "ev")],
        "solve": lambda d: ["solve", "--nu", "0.9", "--n-points", "32", "--out", str(d / "so")],
        "figures": lambda d: ["figures", "--which", "4", "--n-points", "40",
                              "--out-dir", str(d)],
    }
    ok = True
    for name, argv in cmds.items():
        d = tmp_path / name
        d.mkdir()
        ok &= main(argv(d)) == EXIT_OK
        first = {f.name: f.read_bytes() for f in d.iterdir()}
        ok &= main(argv(d)) == EXIT_OK
        second = {f.name: f.read_bytes() for f in d.iterdir()}
        ok &= first == second
    _report(capsys, 11, "re-running commands yields byte-identical files", ok)
