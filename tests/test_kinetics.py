import math

import numpy as np
import pytest

from kstruve import kinetics
from kstruve.errors import DomainError
from kstruve.kinetics import (
    _ORACLE_POLICY,
    FORCINGS,
    KineticProblem,
    adjudicate,
    classical_decay,
    solve_closed_form,
    solve_corollary_k1,
    volterra_oracle,
)
from kstruve.specfun import TruncationPolicy, _signed_log_gamma, mittag_leffler
from kstruve.transforms import (
    TimeGrid,
    rl_boundary_weights,
    rl_fractional_integral,
    rl_interior_kernel,
    rl_weight_scale,
)

# Frozen with a 40-digit mpmath evaluation of the resummed series during the
# build (n0=d=mu=c=k=1, thm1 forcing, t = 0.5, sumudu_consistent variant).
KINETIC_THM1_NU1_T05 = 0.044416235956754749423
KINETIC_THM1_NU09_T05 = 0.048721866863959855229

POL = TruncationPolicy(max_terms=120, rel_tol=1e-16)


def _problem(**kw):
    base = dict(n0=1.0, d=1.0, nu=0.9, mu=1.0, c=1.0, k=1.0, forcing="thm1")
    base.update(kw)
    return KineticProblem(**base)


class TestKineticProblem:
    def test_forcings_enumerated(self):
        assert FORCINGS == ("thm1", "thm2", "thm3", "constant")

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n0=0.0),
            dict(d=-1.0),
            dict(nu=0.0),
            dict(k=0.0),
            dict(mu=-1.6, k=1.0),
            dict(forcing="thm4"),
            dict(forcing="thm2", a=1.0, d=1.0),
            dict(forcing="thm2", a=-2.0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            _problem(**kw)

    def test_forcing_arguments(self):
        t = 0.3
        assert _problem(forcing="thm1", d=2.0).forcing_argument(t) == pytest.approx(
            (2.0 * t) ** 0.9
        )
        assert _problem(forcing="thm2", a=3.0).forcing_argument(t) == pytest.approx(
            (3.0 * t) ** 0.9
        )
        assert _problem(forcing="thm3").forcing_argument(t) == pytest.approx(t**0.9)
        with pytest.raises(DomainError):
            _problem(forcing="constant").forcing_argument(t)

    def test_forcing_at_zero(self):
        assert _problem().forcing_at_zero() == 0.0
        assert _problem(forcing="constant", n0=2.5).forcing_at_zero() == 2.5


class TestClassicalDecay:
    def test_values(self):
        assert classical_decay(2.0, 3.0, 0.0) == 2.0
        assert classical_decay(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def _closed_form_reference(p, grid, variant, pol):
    """The closed-form r-series with its Mittag-Leffler factor summed term by term.

    For each r and each m it takes the Gamma ratio Gamma(big)/Gamma(nu*m + beta)
    and adds weight * z^m over the grid, skipping zero weights.  Returns
    (values, terms_used, truncation_flag).
    """
    t = grid.points()
    n = grid.n_points
    q = p.mu / p.k
    x, ml_arg, ml_shift, over_t = kinetics._variant_inputs(p, t, variant)
    log_pref_base = np.log(x / 2.0)
    totals = np.zeros(n)
    carry = np.zeros(n)
    terms_used = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    for r in range(pol.max_terms):
        if not active.any():
            break
        sign_big, log_big = _signed_log_gamma(p.nu * (2 * r + q + 1) + 1.0)
        log_coeff = (
            r * math.log(abs(p.c))
            - ((r + q + 0.5) * math.log(p.k) + math.lgamma(r + q + 1.5))
            - math.lgamma(r + 1.5)
        )
        sign = (-1.0 if p.c > 0 else 1.0) ** r * sign_big
        beta = p.nu * (2 * r + q) + 1.0 + ml_shift
        ml = np.zeros(n)
        zp = np.ones(n)
        for m in range(pol.max_terms):
            g_sign, g_log = _signed_log_gamma(p.nu * m + beta)
            if g_sign != 0.0:
                ml += g_sign * math.exp(log_big - g_log) * zp
            zp *= ml_arg
        log_mag = log_coeff + (2 * r + q + 1) * log_pref_base
        if over_t:
            log_mag = log_mag - np.log(t)
        term = np.where(active, sign * np.exp(log_mag) * ml, 0.0)
        y = term - carry
        tot = totals + y
        carry = np.where(active, (tot - totals) - y, carry)
        totals = tot
        terms_used[active] = r + 1
        active &= ~((totals != 0.0) & (np.abs(term) <= pol.rel_tol * np.abs(totals)))
    return p.n0 * totals, terms_used, active


class TestClosedForm:
    @pytest.mark.parametrize("k", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("c", [1.3, -0.8])
    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    @pytest.mark.parametrize("forcing", ["thm1", "thm2", "thm3"])
    @pytest.mark.parametrize("max_terms", [6, 60])  # 6 truncates the later nodes
    def test_matches_term_by_term_reference(self, k, c, variant, forcing, max_terms):
        grid = TimeGrid(t_max=1.0, n_points=48)
        pol = TruncationPolicy(max_terms=max_terms, rel_tol=1e-16)
        p = _problem(k=k, c=c, forcing=forcing, nu=1.3 if k == 3.0 else 0.7, mu=0.5, d=1.4, a=2.5)
        sol = solve_closed_form(p, grid, variant, pol)
        values, terms_used, flags = _closed_form_reference(p, grid, variant, pol)
        assert np.max(np.abs(sol.values - values)) <= 1e-14 * np.max(np.abs(values))
        np.testing.assert_array_equal(sol.terms_used, terms_used)
        np.testing.assert_array_equal(sol.truncation_flag, flags)

    def test_frozen_values(self):
        grid = TimeGrid(t_max=0.5, n_points=50)
        p1 = _problem(nu=1.0)
        s1 = solve_closed_form(p1, grid, "sumudu_consistent", POL)
        assert s1.values[-1] == pytest.approx(KINETIC_THM1_NU1_T05, rel=1e-13)
        p9 = _problem(nu=0.9)
        s9 = solve_closed_form(p9, grid, "sumudu_consistent", POL)
        assert s9.values[-1] == pytest.approx(KINETIC_THM1_NU09_T05, rel=1e-13)

    def test_variants_differ(self):
        grid = TimeGrid(t_max=1.0, n_points=16)
        p = _problem()
        printed = solve_closed_form(p, grid, "as_printed", POL)
        consistent = solve_closed_form(p, grid, "sumudu_consistent", POL)
        assert not np.allclose(printed.values, consistent.values, rtol=1e-3)

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            solve_closed_form(_problem(), TimeGrid(t_max=1.0, n_points=4), "verbatim")

    def test_constant_forcing_is_mittag_leffler(self):
        grid = TimeGrid(t_max=1.0, n_points=20)
        p = _problem(forcing="constant", n0=2.0, d=1.5, nu=0.7)
        sol = solve_closed_form(p, grid, "sumudu_consistent", POL)
        for ti, vi in zip(grid.points(), sol.values):
            expect = 2.0 * mittag_leffler(0.7, 1.0, -((1.5 * ti) ** 0.7), POL)
            assert vi == pytest.approx(expect, rel=1e-12)

    def test_constant_forcing_is_one_array_call(self, monkeypatch):
        calls = []
        real = kinetics.mittag_leffler
        monkeypatch.setattr(
            kinetics, "mittag_leffler", lambda *args: calls.append(args) or real(*args)
        )
        solve_closed_form(_problem(forcing="constant"), TimeGrid(t_max=1.0, n_points=64))
        assert len(calls) == 1
        assert calls[0][2].shape == (64,)

    def test_diagnostics_shapes(self):
        grid = TimeGrid(t_max=1.0, n_points=10)
        sol = solve_closed_form(_problem(), grid, "sumudu_consistent", POL)
        assert sol.terms_used.shape == (10,)
        assert sol.truncation_flag.shape == (10,)
        assert not sol.truncation_flag.any()  # 120 terms ample on (0, 1]
        assert sol.terms_used.max() <= POL.max_terms

    def test_truncation_flag_raised_when_budget_too_small(self):
        grid = TimeGrid(t_max=1.0, n_points=4)
        sol = solve_closed_form(_problem(), grid, "sumudu_consistent", TruncationPolicy(max_terms=2))
        assert sol.truncation_flag.any()

    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    def test_c_zero_is_exact_after_one_term(self, variant):
        grid = TimeGrid(t_max=1.0, n_points=8)
        sol = solve_closed_form(_problem(c=0.0), grid, variant, POL)
        assert np.all(np.isfinite(sol.values))
        assert not sol.truncation_flag.any()
        assert np.all(sol.terms_used == 1)

    def test_scales_linearly_in_n0(self):
        grid = TimeGrid(t_max=1.0, n_points=8)
        one = solve_closed_form(_problem(n0=1.0), grid, "sumudu_consistent", POL)
        three = solve_closed_form(_problem(n0=3.0), grid, "sumudu_consistent", POL)
        assert np.allclose(three.values, 3.0 * one.values, rtol=1e-14)


class TestCorollaryReduction:
    @pytest.mark.parametrize("forcing", ["thm1", "thm2", "thm3"])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
    def test_k1_reduction(self, forcing, nu):
        grid = TimeGrid(t_max=1.0, n_points=16)
        p = _problem(forcing=forcing, nu=nu, a=2.0)
        general = solve_closed_form(p, grid, "as_printed", POL)
        corollary = solve_corollary_k1(p, grid, POL)
        scale = float(np.max(np.abs(corollary.values))) or 1.0
        assert float(np.max(np.abs(general.values - corollary.values))) / scale <= 1e-14

    def test_requires_k1(self):
        with pytest.raises(DomainError):
            solve_corollary_k1(_problem(k=2.0), TimeGrid(t_max=1.0, n_points=4))

    def test_rejects_constant(self):
        with pytest.raises(DomainError):
            solve_corollary_k1(
                _problem(forcing="constant"), TimeGrid(t_max=1.0, n_points=4)
            )


def _oracle_reference(p, grid):
    """The node-by-node recurrence N_i = (F_i - d^nu sum_{j<i} w_ij N_j) / (1 + d^nu w_ii).

    Returns the solution and each node's local scale
    s_i = (|F_i| + d^nu |w0_i N(0)| + d^nu sum_{j<i} |kernel_{i-1-j}| |N_j|) / (1 + d^nu w_ii),
    the size of what the recurrence sums at that node.
    """
    n = grid.n_points
    dn = p.d ** p.nu
    forcing = p.forcing_value(grid.points(), _ORACLE_POLICY)
    n_zero = p.forcing_at_zero()
    scale = rl_weight_scale(p.nu, grid.spacing)
    w0 = scale * rl_boundary_weights(p.nu, n)
    kernel = scale * rl_interior_kernel(p.nu, n)
    values = np.empty(n)
    local = np.empty(n)
    for i in range(1, n + 1):
        hist = w0[i - 1] * n_zero
        hist_abs = abs(hist)
        if i >= 2:
            lags = kernel[: i - 1][::-1]
            hist += float(np.dot(lags, values[: i - 1]))
            hist_abs += float(np.dot(np.abs(lags), np.abs(values[: i - 1])))
        values[i - 1] = (forcing[i - 1] - dn * hist) / (1.0 + dn * scale)
        local[i - 1] = (abs(forcing[i - 1]) + dn * hist_abs) / (1.0 + dn * scale)
    return values, local


class TestVolterraOracle:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000, 2048])
    @pytest.mark.parametrize(
        "kw",
        [
            dict(forcing="thm1", nu=1.5, k=0.5, mu=1.5),
            dict(forcing="thm2", nu=0.3, k=2.0, c=-0.7, mu=0.5),
            dict(forcing="thm3", nu=0.9, k=3.0, c=1.3),
            dict(forcing="constant", nu=0.5, d=2.0),
        ],
    )
    def test_each_node_matches_recurrence(self, n, kw):
        # every node within 64 eps of its own local scale, however small the
        # node is next to max|N|
        p = _problem(**kw)
        grid = TimeGrid(t_max=1.0, n_points=n)
        ref, local = _oracle_reference(p, grid)
        got = volterra_oracle(p, grid).values
        assert np.all(np.abs(got - ref) <= 64 * np.finfo(float).eps * local)

    @pytest.mark.parametrize(
        "forcing,c", [("thm1", 1.0), ("thm2", 1.3), ("thm3", -0.7)]
    )
    def test_early_nodes_keep_verdicts(self, forcing, c):
        # N_1 is ~1e-21 here; an error of eps * max|N| makes it negative and
        # the solution non-monotone
        p = _problem(forcing=forcing, nu=1.5, k=0.5, mu=1.5, c=c)
        grid = TimeGrid(t_max=1.0, n_points=2048)
        ref, _ = _oracle_reference(p, grid)
        report = adjudicate(p, grid)
        got = report.oracle.values
        assert report.oracle_monotone_increasing == bool(np.all(np.diff(ref) >= 0))
        assert bool(np.all(got > 0)) == bool(np.all(ref > 0))

    def test_residual_small(self):
        grid = TimeGrid(t_max=1.0, n_points=512)
        res = volterra_oracle(_problem(), grid)
        assert res.residual_norm <= 1e-12

    def test_constant_forcing_matches_mittag_leffler(self):
        # N = n0 - d^nu D^(-nu) N has the exact solution n0 E_nu(-(d t)^nu).
        # The solution has a t^nu cusp at the origin, so the discretization
        # converges slowly inside the first boundary layer; agreement is
        # measured past it (t >= 0.1).
        grid = TimeGrid(t_max=1.0, n_points=4096)
        t = grid.points()
        for nu in (0.3, 0.5, 0.9):
            p = _problem(forcing="constant", nu=nu)
            res = volterra_oracle(p, grid)
            exact = np.array([mittag_leffler(nu, 1.0, -(ti**nu), POL) for ti in t])
            err = np.abs(res.values - exact)
            assert float(err[t >= 0.1].max()) <= 1e-4
            assert float(err[-1]) <= 1e-5

    def test_order_one_is_exponential_decay_plus_forcing(self):
        grid = TimeGrid(t_max=1.0, n_points=4096)
        p = _problem(forcing="constant", nu=1.0, d=2.0)
        res = volterra_oracle(p, grid)
        exact = np.exp(-2.0 * grid.points())
        assert float(np.max(np.abs(res.values - exact))) <= 1e-6

    @pytest.mark.parametrize("forcing", FORCINGS)
    def test_forcing_is_one_array_call(self, forcing, monkeypatch):
        # the whole grid goes through forcing_value and k_struve once per solve
        forcing_calls = []
        struve_calls = []
        real_forcing = KineticProblem.forcing_value
        real_struve = kinetics.k_struve

        def counted_forcing(self, t, pol):
            forcing_calls.append(t)
            return real_forcing(self, t, pol)

        def counted_struve(params, x, pol):
            struve_calls.append(x)
            return real_struve(params, x, pol)

        monkeypatch.setattr(KineticProblem, "forcing_value", counted_forcing)
        monkeypatch.setattr(kinetics, "k_struve", counted_struve)
        grid = TimeGrid(t_max=1.0, n_points=64)
        res = volterra_oracle(_problem(forcing=forcing), grid)
        assert len(forcing_calls) == 1
        assert forcing_calls[0].shape == (64,)
        assert len(struve_calls) == (0 if forcing == "constant" else 1)
        assert np.all(np.isfinite(res.values))

    def test_linearity_in_n0(self):
        grid = TimeGrid(t_max=1.0, n_points=128)
        one = volterra_oracle(_problem(n0=1.0), grid)
        two = volterra_oracle(_problem(n0=2.0), grid)
        assert np.allclose(two.values, 2.0 * one.values, rtol=1e-12)

    def test_grid_convergence(self):
        # solution at shared nodes should converge as the grid refines
        p = _problem()
        coarse = volterra_oracle(p, TimeGrid(t_max=1.0, n_points=256))
        fine = volterra_oracle(p, TimeGrid(t_max=1.0, n_points=512))
        finest = volterra_oracle(p, TimeGrid(t_max=1.0, n_points=1024))
        d1 = abs(coarse.values[-1] - fine.values[-1])
        d2 = abs(fine.values[-1] - finest.values[-1])
        assert d2 < d1

    def test_checks_starting_value(self):
        with pytest.raises(DomainError):
            volterra_oracle(_problem(mu=-1.2, k=1.0), TimeGrid(t_max=1.0, n_points=8))


class TestAdjudicate:
    def test_consistent_variant_wins(self):
        grid = TimeGrid(t_max=1.0, n_points=256)
        report = adjudicate(_problem(), grid)
        assert report.agreeing == ("sumudu_consistent",)
        assert report.dev_consistent < 1e-3
        assert report.dev_printed > 0.1
        assert report.oracle_monotone_increasing

    def test_summary_mentions_both_variants(self):
        grid = TimeGrid(t_max=1.0, n_points=128)
        text = adjudicate(_problem(), grid).summary()
        assert "as_printed" in text
        assert "sumudu_consistent" in text
        assert "monotone" in text

    def test_tight_tolerance_rejects_both(self):
        grid = TimeGrid(t_max=1.0, n_points=64)
        report = adjudicate(_problem(), grid, tol=1e-15)
        assert report.agreeing == ()
