import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

from kstruve import kinetics, specfun
from kstruve.cli import EXIT_NUMERICAL, main
from kstruve.errors import ConvergenceError, DomainError, SolverError
from kstruve.kinetics import (
    FORCINGS,
    VARIANTS,
    KineticProblem,
    adjudicate,
    classical_decay,
    solve_closed_form,
    solve_corollary_k1,
    volterra_oracle,
)
from kstruve.specfun import (
    KStruveParams,
    TruncationPolicy,
    _signed_log_gamma,
    k_struve,
    mittag_leffler,
)
from kstruve.transforms import TimeGrid, _rl_weights, rl_fractional_integral
from closed_form_reference import closed_form_reference

# Frozen with a 40-digit mpmath evaluation of the resummed series during the
# build (n0=d=mu=c=k=1, thm1 forcing, t = 0.5, sumudu_consistent variant).
KINETIC_THM1_NU1_T05 = 0.044416235956754749423
KINETIC_THM1_NU09_T05 = 0.048721866863959855229

# sumudu_consistent N/n0 at n0 = d = k = c = 1, a = 2, mu = 1, summed in
# mpmath at 60 digits: ``python tests/make_horizon_table.py --values``.
HORIZON_THM1_NU03_T5 = 0.1788389651530907008062012
HORIZON_THM1_NU05_T10 = 0.2400302760543358909685479
HORIZON_THM1_NU05_T20 = 0.1073950683054902028522762
HORIZON_THM2_NU05_T10 = 0.1539907639623730352612597
HORIZON_THM1_NU09_T20 = 0.08515229617155919044378318
HORIZON_THM2_NU09_T20 = 0.08481174349146495767192411

POL = TruncationPolicy(max_terms=120, rel_tol=1e-16)


def _mittag_leffler_mp(nu, z):
    """E_{nu,1}(z) for real z <= 0, summed term by term at 60 digits."""
    import mpmath as mp

    with mp.workdps(60):
        nu, z = mp.mpf(nu), mp.mpf(z)
        total = size = mp.mpf(0)
        for m in itertools.count():
            term = z**m * mp.rgamma(nu * m + 1)
            total, size = total + term, size + abs(term)
            if nu * m > 1 + abs(z) ** (1 / nu) and abs(term) < 1e-40 * size:
                return float(total)


# a thm3 problem whose factors cancel from d t = 10 or so on
_THM3 = dict(forcing="thm3", nu=0.42, d=1.9, mu=1.5, c=1.3, k=3.0)


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

    @pytest.mark.parametrize(
        "kw", [dict(forcing="thm2", a=1e300, nu=2.0), dict(forcing="thm1", d=1e200, nu=2.0)]
    )
    def test_overflowing_forcing_argument_raises(self, kw):
        # (a t)^nu past the largest double: a numerical failure, not an
        # input error, and no numpy warning (an error under this suite's filter)
        p = _problem(**kw)
        for t in (np.array([0.25, 0.5, 1.0]), 1.0):
            with pytest.raises(ConvergenceError, match="forcing argument overflows a double"):
                p.forcing_argument(t)

    def test_overflowing_kstruve_argument_in_oracle_raises(self):
        # (d t)^2 = 1e300 t^2 is finite, but the series argument (x/2)^2 is not
        with pytest.raises(ConvergenceError, match="overflows a double at x"):
            volterra_oracle(_problem(d=1e150, nu=2.0), TimeGrid(t_max=1.0, n_points=4))

    def test_forcing_at_zero(self):
        assert _problem().forcing_at_zero() == 0.0
        assert _problem(forcing="constant", n0=2.5).forcing_at_zero() == 2.5


class TestClassicalDecay:
    def test_values(self):
        assert classical_decay(2.0, 3.0, 0.0) == 2.0
        assert classical_decay(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


# general k and c, then the k = 1 corollaries (mu = c = d = 1, a = 2)
_REFERENCE_CASES = [
    dict(k=k, c=c, forcing=forcing, nu=1.3 if k == 3.0 else 0.7, mu=0.5, d=1.4, a=2.5)
    for k in (0.5, 2.0, 3.0)
    for c in (1.3, -0.8)
    for forcing in ("thm1", "thm2", "thm3")
] + [
    dict(k=1.0, forcing=forcing, nu=nu, a=2.0)
    for forcing in ("thm1", "thm2", "thm3")
    for nu in (0.5, 1.0, 1.5)
]



def _case_id(kw):
    return f"{kw['forcing']}-k{kw['k']:g}-c{kw.get('c', 1.0):g}-nu{kw['nu']:g}"


class TestClosedForm:
    @pytest.mark.parametrize("kw", _REFERENCE_CASES, ids=_case_id)
    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    @pytest.mark.parametrize("max_terms", [6, 60])  # 6 truncates the later nodes
    def test_matches_term_by_term_reference(self, kw, variant, max_terms):
        self._check_reference(_problem(**kw), variant, max_terms)

    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    @pytest.mark.parametrize("forcing", ["thm1", "thm3"])
    @pytest.mark.parametrize("max_terms", [6, 60])
    def test_coefficient_pole_matches_reference(self, variant, forcing, max_terms):
        # nu = 4, mu/k = -1.25: Gamma(nu*(2r + mu/k + 1) + 1) = Gamma(0) at r = 0
        p = _problem(k=1.0, forcing=forcing, nu=4.0, mu=-1.25, d=1.4)
        assert _signed_log_gamma(p.nu * (p.mu / p.k + 1) + 1.0)[0] == 0.0
        self._check_reference(p, variant, max_terms)

    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    @pytest.mark.parametrize("forcing", ["thm1", "thm2", "thm3"])
    @pytest.mark.parametrize(
        "nu,d,max_terms",
        [
            (0.3, 2.0, 100),  # Mittag-Leffler terms fall slowly: 97 to 104 lattice rows
            (1.5, 1.0, 100),  # they fall fast: 39 to 42 rows
            (0.9, 1.0, 1),  # one term: the lattice stores rows 0 and 1 only
        ],
    )
    def test_row_cut_matches_reference(self, variant, forcing, nu, d, max_terms):
        p = _problem(k=1.0, c=1.0, forcing=forcing, nu=nu, mu=1.0, d=d, a=2.5)
        self._check_reference(p, variant, max_terms)

    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    def test_rebuilt_lattice_matches_reference(self, variant):
        # x up to 40 at c = -1 takes the outer series past the first lattice's
        # 16 terms (41 and 52 of 100), and |z| <= 0.06 keeps the factors
        # free of cancellation; the lattice is rebuilt for all 100 terms
        p = _problem(forcing="thm3", nu=0.9, d=1e-3, c=-1.0)
        self._check_reference(p, variant, 100, t_max=40.0)

    @pytest.mark.parametrize(
        "b0, b1, nu, zs, count, most, reads, served",
        [
            # the odd rows, as sumudu_consistent reads them: row 2r + 1 is b_1 + 2r nu
            (1.0, 1.1, 0.1, [0.0, -0.5, -1.23], 16, 50, (1,), 37),  # the terms peak past row 31
            (-8.0, -4.0, 4.0, [-0.3, -2.0, -9.0], 3, 3, (1,), 3),  # Gamma poles at rows 1 and 2
            (-3.5, -2.5, 1.0, [-0.7, -3.0], 3, 3, (1,), 3),  # Gamma(b_j) < 0 at rows 1 and 3
            (2.0, 2.9, 0.9, [-1.0, -14.8], 16, 50, (1,), 16),  # they peak below row 31 and cancel
            (1.0, 1.5, 0.5, [-3.0], 1, 1, (1,), 1),
            # row 0 at nu q + 1 and the even rows, as as_printed reads them: b_1 is
            # b_0 + nu in doubles, so their Gamma arguments round apart from b_0 + j nu
            (0.1 * 0.3 + 1.0, None, 0.1, [0.0, -0.5, -1.23], 16, 50, (0,), 37),
            (0.9 * 1.1 + 1.0, None, 0.9, [-1.0, -14.8], 16, 50, (0, 1), 16),
            (2.0 * -0.5 + 1.0, None, 2.0, [-0.3, -2.0, -9.0], 3, 3, (0, 1), 3),  # a pole at row 0
        ],
    )
    def test_lattice_rows_match_mpmath(self, b0, b1, nu, zs, count, most, reads, served):
        # row j is e^L_j E_{nu, b_j}(z), against the 30-digit power series
        # summed past its peak to 1e-30; each lattice row adds a few
        # roundings to every term, so the error is held to 4 eps per
        # lattice row walked times e^L_j sum|term|.  The rows at the
        # references |z| are e^L_j sum|term|, to the same bound.  The terms
        # checked are the first, the last asked for and the last served, in
        # each row parity read.  Where b_1 is None the reference is the
        # exact lattice b_0 + j nu, else b_1 + (j - 1) nu from row 1 on.
        import mpmath as mp

        lattice = (b0, b0 + nu if b1 is None else b1, nu)
        _, log_gamma = gammas = [], []
        rows, sizes = kinetics._ml_lattice(
            lattice, gammas, most, np.array(zs), max(map(abs, zs)), np.abs(zs), reads, count)
        assert len(rows) == len(sizes) == 2 * served
        walked = len(log_gamma) - min(reads)
        with mp.workdps(30):
            for j in (2 * r + i for r in sorted({0, count - 1, served - 1}) for i in reads):
                scale = mp.exp(log_gamma[j])
                if b1 is None or j == 0:
                    beta = mp.mpf(b0) + j * mp.mpf(nu)
                else:
                    beta = mp.mpf(b1) + (j - 1) * mp.mpf(nu)
                for i, z in enumerate(zs):
                    total = size = mp.mpf(0)
                    for m in itertools.count():
                        term = mp.mpf(z) ** m * mp.rgamma(beta + m * mp.mpf(nu))
                        total, size = total + term, size + abs(term)
                        if beta + m * nu > 1 + abs(z) ** (1 / nu) and abs(term) < 1e-30 * size:
                            break
                    bound = 4 * walked * 2.0**-52 * scale * size
                    assert abs(rows[j][i] - scale * total) <= bound
                    assert abs(sizes[j][i] - scale * size) <= bound

    @pytest.mark.parametrize(
        "kw, t_max, variants, walked, arguments",
        [
            (dict(forcing="thm2", n0=0.899508, d=1.24305, a=3.56385, nu=1.46682, mu=1.5,
                  c=0.883669, k=2.0), 1.0, VARIANTS, 3, 2),
            # closed_form_timing.py's problem: two arguments, each rebuilt, and
            # a one-variant solve that rebuilds
            (dict(forcing="thm2", d=2.0, a=2.5, mu=0.5), 30.0, VARIANTS, 4, 2),
            (dict(forcing="thm3", d=2.0, mu=0.5), 30.0, ("sumudu_consistent",), 2, 1),
        ],
    )
    def test_argument_groups_walk_together_as_alone(self, kw, t_max, variants, walked, arguments,
                                                    monkeypatch):
        # thm2's two arguments take one walk each in the one pass, the
        # rebuild included; once the pass is done, every walk's rows and
        # sizes still hold the bits a fresh walk at its inputs gives, so no
        # walk or outer term wrote into another walk's rows, and the shared
        # record holds a fresh walk's (s_j, L_j) on every row that walk
        # reaches.  No walk computes a row of the record twice: the calls
        # to _signed_log_gamma from _ml_lattice never repeat an argument
        walks, rows_made = [], []
        real, real_gamma = kinetics._ml_lattice, kinetics._signed_log_gamma

        def spy(*args):
            walks.append((args, real(*args)))
            return walks[-1][1]

        def gamma_spy(x):
            if sys._getframe(1).f_code.co_name == "_ml_lattice":
                rows_made.append(x)
            return real_gamma(x)

        monkeypatch.setattr(kinetics, "_ml_lattice", spy)
        monkeypatch.setattr(kinetics, "_signed_log_gamma", gamma_spy)
        p, grid = _problem(**kw), TimeGrid(t_max=t_max, n_points=64)
        if len(variants) == 2:
            kinetics._solve_variants(p, grid, TruncationPolicy())
        else:
            solve_closed_form(p, grid, *variants)
        assert len(walks) == walked
        assert len({args[3].tobytes() for args, _ in walks}) == arguments
        assert len(rows_made) == len(set(rows_made)) == len(walks[0][0][1][0])
        kept = [(rows[min(args[6])::2].tobytes(), sizes[min(args[6])::2].tobytes())
                for args, (rows, sizes) in walks]
        for (args, _), walk in zip(walks, kept):
            gammas = [], []
            rows, sizes = real(args[0], gammas, *args[2:])
            read = slice(min(args[6]), None, 2)
            assert walk == (rows[read].tobytes(), sizes[read].tobytes())
            assert [column[: len(gammas[0])] for column in args[1]] == list(gammas)

    def test_guard_weighs_only_the_rows_read(self):
        # b_0 = 0.02 makes row 0's leading term 10 log-units above row 1's at
        # |z| = 4.9e5: the odd rows alone stay under the overflow guard, and
        # a walk that reads row 0 trips it
        b0 = 2.0 * -0.49 + 1.0
        lattice, z = (b0, b0 + 2.0, 2.0), np.array([-4.9e5])
        kinetics._ml_lattice(lattice, ([], []), 50, z, 4.9e5, -z, (1,), 16)
        for reads in ((0,), (0, 1)):
            with pytest.raises(ConvergenceError, match="Mittag-Leffler term 305 .* overflow guard"):
                kinetics._ml_lattice(lattice, ([], []), 50, z, 4.9e5, -z, reads, 16)

    @staticmethod
    def _check_reference(p, variant, max_terms, t_max=1.0):
        grid = TimeGrid(t_max=t_max, n_points=48)
        pol = TruncationPolicy(max_terms=max_terms, rel_tol=1e-16)
        sol = solve_closed_form(p, grid, variant, pol)
        values, terms_used, flags = closed_form_reference(p, grid, variant, pol)
        assert np.max(np.abs(sol.values - values)) <= 1e-14 * np.max(np.abs(values))
        np.testing.assert_array_equal(sol.terms_used, terms_used)
        np.testing.assert_array_equal(sol.truncation_flag, flags)

    def test_overflow_guard(self):
        # at t_max = 1e20 term 9 of the outer series has log-magnitude 739
        with pytest.raises(ConvergenceError, match="overflow guard"):
            solve_closed_form(_problem(), TimeGrid(t_max=1e20, n_points=8), "as_printed")

    def test_terms_below_the_subnormal_range_are_no_budget_stop(self):
        # thm2 at t_max = 8.5e-110: every outer term of sumudu_consistent lies
        # below the subnormal range, so its value is exactly 0 at every node,
        # and none stops on the budget, though z is subnormal, not 0, at 600
        p = _problem(forcing="thm2", nu=1.4747, mu=0.78, c=-1.0, k=0.5, a=2.5)
        grid = TimeGrid(t_max=8.5e-110, n_points=700)
        printed, consistent = kinetics._solve_variants(p, grid, TruncationPolicy())
        assert not (consistent.values.any() or consistent.budget_stop.any())
        assert consistent.terms_used.max() == 1
        assert not printed.budget_stop.any()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "kw, t_max",
        [
            # sumudu_consistent's outer terms lie below the subnormal range
            (dict(forcing="thm2", nu=1.4747, mu=0.78, c=-1.0, k=0.5, a=2.5), 8.5e-110),
            (dict(c=0.0), 1.0),  # z = 0: exact after term 0
            (dict(forcing="thm3", c=0.0), 1.0),
        ],
    )
    def test_stop_rules_match_reference(self, variant, kw, t_max):
        # the reference applies the zero-argument and underflow stops with
        # its own arithmetic; it ran to 50 terms and flagged every node of
        # the first case, and raised at c = 0
        self._check_reference(_problem(**kw), variant, 50, t_max=t_max)

    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    def test_subnormal_forcing_argument_matches_mpmath(self, variant):
        # x = d t is subnormal (about 1e-323), so x / 2 has lost its bits; the
        # r = 0, m = 0 term is the whole sum to double precision, since the
        # rest carry powers of -c x^2 / (4k) and of the Mittag-Leffler argument -d t
        import mpmath as mp

        p = _problem(nu=1.0, mu=-0.4, d=1e-10)
        grid = TimeGrid(t_max=1e-313, n_points=4)
        sol = solve_closed_form(p, grid, variant)
        q, nu = mp.mpf(p.mu), mp.mpf(p.nu)
        with mp.workdps(40):
            for t, got in zip(grid.points(), sol.values):
                t = mp.mpf(t)
                lead = (mp.mpf(p.d) * t / 2) ** (q + 1) / (mp.gamma(1.5) * mp.gamma(q + 1.5))
                if variant == "as_printed":  # Gamma(nu (q + 1) + 1) / Gamma(nu q + 1) and 1/t
                    lead *= mp.gamma(nu * (q + 1) + 1) / mp.gamma(nu * q + 1) / t
                assert got == pytest.approx(float(lead), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    @pytest.mark.parametrize("rate", [dict(d=1e300), dict(forcing="thm2", a=1e300)])
    def test_rate_power_overflow_raises(self, variant, rate):
        # d^nu (a^nu for thm2) passes the largest double; it was a bare OverflowError
        with pytest.raises(ConvergenceError, match="overflows a double"):
            solve_closed_form(_problem(nu=2.0, **rate), TimeGrid(t_max=1.0, n_points=4), variant)

    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    def test_n0_overflow_raises(self, variant):
        # at c = -1 the k-Struve series does not alternate and max|sum| is
        # 3.19 (as_printed) and 5.15 (sumudu_consistent) here, so n0 * sum
        # passes the largest double; it used to come back -inf
        p = _problem(n0=1.7e308, c=-1.0)
        with pytest.raises(ConvergenceError, match="not finite"):
            solve_closed_form(p, TimeGrid(t_max=5.0, n_points=8), variant)

    def test_n0_overflow_raises_constant_forcing(self, monkeypatch):
        # |E_nu(-x)| <= 1 for these orders, so the outer series is made to
        # return 2
        def two(what, z, *args, **kwargs):
            return np.full(z.shape, 2.0), np.ones(z.shape, dtype=int), np.ones(z.shape, dtype=bool)

        monkeypatch.setattr(kinetics, "_wright_series_array", two)
        p = _problem(forcing="constant", n0=1.7e308)
        with pytest.raises(ConvergenceError, match="not finite"):
            solve_closed_form(p, TimeGrid(t_max=1.0, n_points=8))

    @pytest.mark.parametrize("t_max", [1e10, 1e30, 1e308])
    @pytest.mark.parametrize(
        "forcing, nu",
        [(f, nu) for f in ("thm1", "thm2", "thm3") for nu in (0.5, 0.9, 1.5)]
        + [("constant", 0.9), ("constant", 1.5)],
    )
    def test_extreme_t_max_raises_without_warning(self, t_max, forcing, nu):
        # t^nu, a Mittag-Leffler factor's terms or an outer term overflow; under
        # the suite's "error" warning filter a RuntimeWarning would escape
        # in place of the ConvergenceError
        for variant in ("as_printed", "sumudu_consistent"):
            with pytest.raises(ConvergenceError):
                solve_closed_form(_problem(forcing=forcing, nu=nu), TimeGrid(t_max, 16), variant)

    @pytest.mark.parametrize(
        "forcing, nu, t, truth",
        [
            ("thm1", 0.3, 5.0, HORIZON_THM1_NU03_T5),
            ("thm1", 0.5, 10.0, HORIZON_THM1_NU05_T10),
            ("thm1", 0.5, 20.0, HORIZON_THM1_NU05_T20),
            ("thm2", 0.5, 10.0, HORIZON_THM2_NU05_T10),
            ("thm1", 0.9, 20.0, HORIZON_THM1_NU09_T20),
            ("thm2", 0.9, 20.0, HORIZON_THM2_NU09_T20),
        ],
    )
    def test_long_horizon_is_right_or_flagged(self, forcing, nu, t, truth):
        # each Mittag-Leffler factor is summed to its own tolerance, not to
        # the outer term budget; a node the outer budget stops is flagged, and
        # so is one whose factors' cancellation, about e^(d t) eps, passes
        # 1e-8 of its value (thm1 at t = 20 was 1.7e-8 and 1.8e-7 off, unflagged)
        p = _problem(forcing=forcing, nu=nu, a=2.0)
        sol = solve_closed_form(p, TimeGrid(t_max=t, n_points=8), "sumudu_consistent")
        assert sol.truncation_flag[-1] or abs(sol.values[-1] - truth) <= 1e-8

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    def test_outer_cancellation_is_flagged(self, mu):
        # the outer k-Struve series' argument (a t)^nu reaches 44 by t = 5:
        # every node stops on rel_tol, and the worst is 0.37 (mu 0.5) and
        # 0.13 (mu 1.5) of max|N| off the oracle; each node more than 1e-3
        # off is flagged by its rounding estimate
        p = _problem(n0=1.3, d=1.2, a=2.5, nu=1.5, k=0.5, c=1.0, mu=mu, forcing="thm2")
        grid = TimeGrid(t_max=5.0, n_points=256)
        pol = TruncationPolicy(max_terms=100, rel_tol=1e-16)
        sol = solve_closed_form(p, grid, "sumudu_consistent", pol)
        oracle = volterra_oracle(p, grid).values
        off = np.abs(sol.values - oracle) > 1e-3 * np.max(np.abs(oracle))
        assert off.any() and not sol.budget_stop.any()
        assert np.all(sol.truncation_flag[off])

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "kw, t_max",
        [
            (dict(forcing="thm1", nu=0.9), 20.0),
            (dict(forcing="thm2", nu=0.5, a=2.0), 20.0),
            (dict(forcing="thm3", nu=0.42, d=1.9, mu=1.5, c=1.3, k=3.0), 31.0),
        ],
    )
    def test_rounding_flags_match_reference(self, kw, t_max, variant):
        # at 48 nodes every block is one node, so each node's rounding
        # estimate is its own mass, as the term-by-term reference sums it;
        # the unflagged values agree to the estimate's 1e-8.  Where the sums
        # cancel, the stop on 1e-16 of the running sum can come a term
        # apart, so terms_used is not compared
        p = _problem(**kw)
        grid = TimeGrid(t_max=t_max, n_points=48)
        sol = solve_closed_form(p, grid, variant)
        values, _, flags = closed_form_reference(p, grid, variant, TruncationPolicy())
        np.testing.assert_array_equal(sol.truncation_flag, flags)
        assert flags.any() and not flags.all()
        kept = ~flags
        assert np.all(np.abs(sol.values - values)[kept] <= 2e-8 * np.abs(values[kept]))

    def test_node_next_to_a_sign_change_is_flagged(self):
        # figure 4's nu = 0.7 column at t_max = 10 crosses 0 between t = 9.8
        # and 9.9; at t = 9.9, N = -1.5e-4 is small against its terms
        p = _problem(forcing="thm3", nu=0.7)
        sol = solve_closed_form(p, TimeGrid(t_max=10.0, n_points=100), "as_printed")
        assert np.flatnonzero(sol.truncation_flag).tolist() == [98]
        assert abs(sol.values[98]) < 2e-4 < abs(sol.values[97])

    def test_blocks_only_add_flags(self):
        # on 4800 nodes a block holds 75, and its magnitudes at its last node
        # bound every node's own: the nodes the 48-node grid flags, one node a
        # block, stay flagged, and the flags start at most 100 nodes (the
        # coarse spacing) and one block before the coarse grid's first
        p = _problem(forcing="thm3", nu=0.42, d=1.9, mu=1.5, c=1.3, k=3.0)
        fine = solve_closed_form(p, TimeGrid(t_max=31.0, n_points=4800))
        coarse = solve_closed_form(p, TimeGrid(t_max=31.0, n_points=48))
        assert np.all(fine.truncation_flag[99::100][coarse.truncation_flag])
        first = np.argmax(fine.truncation_flag)
        assert 0 <= 100 * np.argmax(coarse.truncation_flag) + 99 - first < 100 + 75

    def test_cancelling_nodes_are_flagged(self):
        # thm3 at d t up to 59: the Mittag-Leffler factors lose about e^(d t)
        # eps, which passes 1e-8 of the value between d t = 10 and 38; every
        # node from there on is flagged
        p = _problem(forcing="thm3", nu=0.42, d=1.9, mu=1.5, c=1.3, k=3.0)
        grid = TimeGrid(t_max=31.0, n_points=64)
        sol = solve_closed_form(p, grid, "sumudu_consistent")
        flags = sol.truncation_flag
        assert flags[-1] and not flags[0]
        assert np.all(flags[np.argmax(flags):])  # from the first flag on
        assert 10.0 < 1.9 * grid.points()[np.argmax(flags)] < 38.0

    def test_frozen_values(self):
        grid = TimeGrid(t_max=0.5, n_points=50)
        p1 = _problem(nu=1.0)
        s1 = solve_closed_form(p1, grid, "sumudu_consistent", POL)
        assert s1.values[-1] == pytest.approx(KINETIC_THM1_NU1_T05, rel=1e-13)
        p9 = _problem(nu=0.9)
        s9 = solve_closed_form(p9, grid, "sumudu_consistent", POL)
        assert s9.values[-1] == pytest.approx(KINETIC_THM1_NU09_T05, rel=1e-13)

    @pytest.mark.parametrize(
        "kw, t_max, hexes",
        [
            (dict(), 1.0, ("0x1.356e0fe7c5c3fp-8", "0x1.8f212918fc190p-5", "0x1.18bbea7144d27p-3")),
            (dict(), 20.0,
             ("0x1.5765abf5af603p-2", "0x1.5cb499aca87cap-5", "0x1.5cc8d89c15bbep-4")),
            (dict(forcing="thm2", a=2.0), 1.0,
             ("0x1.0c4bf8ff2eb15p-6", "0x1.4a0467b279db5p-3", "0x1.9267041d5e48fp-2")),
            (dict(forcing="thm2", a=2.0), 20.0,
             ("0x1.e4b579ccc851fp-3", "0x1.6a395560cd977p-4", "0x1.5b9983a3c2525p-4")),
            (_THM3, 1.0, ("0x1.85813955bb216p-6", "0x1.6826dd1a34e5fp-5", "0x1.d447d34d92742p-5")),
            (_THM3, 20.0, ("0x1.37d8fd2005cf2p-4", "0x1.857bfdfb626d8p-4", "0x1.aea0c8fdf3fcep+2")),
            (dict(c=-1.0, nu=1.5, k=0.5, mu=-0.5), 5.0,
             ("0x1.7cb2ccbdf5068p-2", "0x1.863fdd4840486p+4", "0x1.c1e03c3ec3ec4p+18")),
        ],
    )
    def test_consistent_values_are_pinned(self, kw, t_max, hexes):
        # nodes 0, 3 and 7 of 8, flagged or not, as float.hex literals taken
        # before both variants shared one lattice: any later drift of the
        # sumudu_consistent column, alone or summed with as_printed, fails here
        p, grid = _problem(**kw), TimeGrid(t_max=t_max, n_points=8)
        alone = solve_closed_form(p, grid, "sumudu_consistent")
        together = kinetics._solve_variants(p, grid, TruncationPolicy())[1]
        for sol in (alone, together):
            assert tuple(v.hex() for v in sol.values[[0, 3, 7]]) == hexes

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
        real = kinetics._wright_series_array
        monkeypatch.setattr(
            kinetics, "_wright_series_array",
            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
        )
        solve_closed_form(_problem(forcing="constant"), TimeGrid(t_max=1.0, n_points=64))
        assert len(calls) == 1
        assert calls[0][1].shape == (64,)

    def test_constant_forcing_overflow_is_loud(self):
        # E_0.5(-t^0.5) lies in (0, 1); at t up to 1e10 its terms pass e^700
        # before they fall, and the factor raises where a 50-term power
        # series summed to -5.8e205 ... -3.2e220 and stopped on the budget
        with pytest.raises(ConvergenceError, match="Mittag-Leffler term 69 .* overflow guard"):
            solve_closed_form(_problem(forcing="constant", nu=0.5), TimeGrid(1e10, 4))
        sol = solve_closed_form(_problem(forcing="constant", nu=0.5), TimeGrid(1.0, 4))
        assert sol.terms_used.tolist() == [1] * 4 and not sol.truncation_flag.any()

    def test_constant_forcing_ignores_the_term_budget(self):
        # the one outer term's factor sums to its own tolerance: E_0.3 at
        # |z| up to 1.08 needs about 100 terms, and a 2-term budget stops none
        p = _problem(forcing="constant", nu=0.3, d=1.3)
        grid = TimeGrid(t_max=1.0, n_points=64)
        short = solve_closed_form(p, grid, pol=TruncationPolicy(max_terms=2))
        np.testing.assert_array_equal(short.values, solve_closed_form(p, grid).values)
        assert not short.truncation_flag.any() and not short.budget_stop.any()

    def test_constant_forcing_matches_mpmath_at_nu_0_3(self):
        # the 50-term power series stopped on the budget at 40 of these 64
        # nodes, up to 6.1e-11 off
        p = _problem(forcing="constant", nu=0.3, d=1.3)
        grid = TimeGrid(t_max=1.0, n_points=64)
        sol = solve_closed_form(p, grid)
        truth = [_mittag_leffler_mp(0.3, -((1.3 * t) ** 0.3)) for t in grid.points()]
        assert np.all(np.abs(sol.values - truth) <= 1e-13 * np.abs(truth))
        assert not sol.truncation_flag.any()

    @pytest.mark.parametrize(
        "nu, t_max, n",
        [
            # the value at t = 15 was 1.2e-7 off and not flagged
            (1.5, 15.0, 4),
            pytest.param(1.5, 15.0, 64, marks=pytest.mark.xfail(
                raises=AssertionError, strict=True,
                reason="ROADMAP item 1: five nodes unflagged, up to 3.8e-8 off")),
        ],
    )
    def test_constant_forcing_within_1e_8_or_flagged(self, nu, t_max, n):
        grid = TimeGrid(t_max=t_max, n_points=n)
        sol = solve_closed_form(_problem(forcing="constant", nu=nu), grid)
        truth = np.array([_mittag_leffler_mp(nu, -(t**nu)) for t in grid.points()])
        assert np.all(sol.truncation_flag | (np.abs(sol.values - truth) <= 1e-8 * np.abs(truth)))

    @pytest.mark.parametrize(
        "nu, d, t_max, n, exact",
        [
            (1.0, 1.0, 30.0, 64, np.exp),
            # 16 nodes were up to 2e-4 off cos(d t) and not flagged
            (2.0, 1.0, 30.0, 64, lambda z: np.cos(np.sqrt(-z))),
            pytest.param(
                2.0, 1.7, 20.0, 200, lambda z: np.cos(np.sqrt(-z)), marks=pytest.mark.xfail(
                    raises=AssertionError, strict=True,
                    reason="ROADMAP item 1: two nodes unflagged, 1.5e-8 off")),
        ],
    )
    def test_constant_forcing_exact_identities(self, nu, d, t_max, n, exact):
        # E_{1,1}(z) = e^z and E_{2,1}(-x^2) = cos x: each node within 1e-8
        # of the identity, or flagged
        grid = TimeGrid(t_max=t_max, n_points=n)
        sol = solve_closed_form(_problem(forcing="constant", nu=nu, d=d), grid)
        truth = exact(-((d * grid.points()) ** nu))
        assert np.all(sol.truncation_flag | (np.abs(sol.values - truth) <= 1e-8 * np.abs(truth)))
        assert sol.truncation_flag.any() and not sol.budget_stop.any()

    def test_diagnostics_shapes(self):
        grid = TimeGrid(t_max=1.0, n_points=10)
        sol = solve_closed_form(_problem(), grid, "sumudu_consistent", POL)
        assert sol.terms_used.shape == (10,)
        assert sol.truncation_flag.shape == sol.budget_stop.shape == (10,)
        assert not sol.truncation_flag.any()  # 120 terms ample on (0, 1]
        assert sol.terms_used.max() <= POL.max_terms

    def test_solution_arrays_must_match_the_grid(self):
        sol = solve_closed_form(_problem(), TimeGrid(t_max=1.0, n_points=4))
        with pytest.raises(DomainError, match="grid length"):
            dataclasses.replace(sol, budget_stop=sol.budget_stop[:3])

    def test_truncation_flag_raised_when_budget_too_small(self):
        grid = TimeGrid(t_max=1.0, n_points=4)
        sol = solve_closed_form(_problem(), grid, "sumudu_consistent", TruncationPolicy(max_terms=2))
        assert sol.budget_stop.any()
        np.testing.assert_array_equal(sol.truncation_flag, sol.budget_stop)

    @pytest.mark.parametrize("variant", ["as_printed", "sumudu_consistent"])
    def test_c_zero_is_exact_after_one_term(self, variant):
        grid = TimeGrid(t_max=1.0, n_points=8)
        sol = solve_closed_form(_problem(c=0.0), grid, variant, POL)
        assert np.all(np.isfinite(sol.values))
        assert not sol.truncation_flag.any()
        assert np.all(sol.terms_used == 1)

    @pytest.mark.parametrize("kw", [dict(forcing="constant"), dict(c=0.0)])
    def test_one_term_outer_series_builds_a_one_term_lattice(self, kw, monkeypatch):
        # z is 0 at every node, so the outer series ends at r = 0 and its
        # lattice need not store the first lattice's 16 terms
        counts = []
        real = kinetics._ml_lattice
        monkeypatch.setattr(kinetics, "_ml_lattice", lambda *args: (
            counts.append(args[-1]) or real(*args)))
        sol = solve_closed_form(_problem(**kw), TimeGrid(t_max=1.0, n_points=64))
        assert counts == [1] and np.all(sol.terms_used == 1)

    def test_scales_linearly_in_n0(self):
        grid = TimeGrid(t_max=1.0, n_points=8)
        one = solve_closed_form(_problem(n0=1.0), grid, "sumudu_consistent", POL)
        three = solve_closed_form(_problem(n0=3.0), grid, "sumudu_consistent", POL)
        assert np.allclose(three.values, 3.0 * one.values, rtol=1e-14)


class TestCorollaryReduction:
    @pytest.mark.parametrize("forcing", ["thm1", "thm2", "thm3"])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
    def test_k1_reduction(self, forcing, nu):
        # the corollary is the printed solution at k = 1, bit for bit
        grid = TimeGrid(t_max=1.0, n_points=16)
        p = _problem(forcing=forcing, nu=nu, a=2.0)
        general = solve_closed_form(p, grid, "as_printed", POL)
        corollary = solve_corollary_k1(p, grid, POL)
        assert corollary.variant == "as_printed"
        np.testing.assert_array_equal(corollary.values, general.values)
        np.testing.assert_array_equal(corollary.terms_used, general.terms_used)
        np.testing.assert_array_equal(corollary.truncation_flag, general.truncation_flag)

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
    forcing = p.forcing_value(grid.points())
    n_zero = p.forcing_at_zero()
    w0, column = _rl_weights(p.nu, grid.spacing, n)
    scale, kernel = column[0], column[1:]
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


_ORACLE_SIZES = [1, 2, 63, 64, 65, 1000, 2048]
_ORACLE_PROBLEMS = [
    dict(forcing="thm1", nu=1.5, k=0.5, mu=1.5),
    dict(forcing="thm2", nu=0.3, k=2.0, c=-0.7, mu=0.5),
    dict(forcing="thm3", nu=0.9, k=3.0, c=1.3),
    dict(forcing="constant", nu=0.5, d=2.0),
]


# grids on which the oracle's forcing is compared with the scalar k-Struve loop
_FORCING_GRIDS = [
    (dict(forcing="thm1", nu=0.3, d=0.5, k=1.0, mu=0.5, c=0.5), 1.0, 512),
    (dict(forcing="thm2", nu=0.9, d=1.5, a=4.0, k=2.0, mu=1.0, c=1.5), 1.0, 2048),
    (dict(forcing="thm3", nu=1.5, k=3.0, mu=1.5, c=1.0), 1.0, 512),
    (dict(forcing="thm1", nu=1.2, d=2.0, k=2.0, mu=1.0, c=0.9), 1.0, 2048),
    (dict(forcing="thm3", nu=0.7, k=1.0, mu=0.5, c=1.4), 40.0, 512),
    (dict(forcing="thm3", nu=0.3, k=2.0, mu=1.5, c=0.5), 40.0, 2048),
    (dict(forcing="thm2", nu=0.5, a=2.5, k=3.0, mu=1.0, c=-0.8), 20.0, 512),
    (dict(forcing="thm1", c=0.0), 1.0, 512),
    # x/2 below the normal range at the first nodes, 0 at the very first
    (dict(forcing="thm1", nu=1.5), 1e-206, 512),
]


def _forcing_log_error_bound(params, x, pol):
    """eps sum_n w_n |term_n|: how far the grid forcing may lie from scalar ``k_struve``.

    Term n of either loop is exp(M_n), M_n = P + n l + R_n, with l = ln|z|,
    P = (q + 1) L - (q + 1/2) ln k, L = ln(x/2) and R_n the shared Gamma
    ratio.  Each log and exp is within 1 ulp (ulp(v) <= eps |v|), and
    ln x - ln 2 within 1.5 ulps where x/2 is not exact.  The grid takes
    l = 2 L + C, C = ln(|c|/k), off the true l by eps (3 |L| + |C| + 1/2 + |l|/2);
    the scalar loop takes ln of z = -c (x/2)^2 / k after three roundings,
    off by eps (3/2 + |l|).  So the two loops' l differ by
    eps (3 |L| + |C| + 3/2 |l| + 2), their P by eps (4 |q + 1| |L| + |P|),
    and their M_n by those, n times the first, plus one ulp of each of n l,
    P + n l and M_n.  Two exps and two compensated sums add 4 eps, the
    rel_tol stop under 1 more.  Hence
    w_n = 5 + 4 |q + 1| |L| + 2 |P| + |M_n| + n (2 + 3 |L| + |C| + 7/2 |l|).
    """
    q, k, c = params.order_ratio, params.k, params.c
    bound = np.zeros(x.shape)
    positive = x > 0.0  # x = 0 gives 0 in both loops
    x = x[positive]
    log_half = np.log(x) - math.log(2.0)
    log_c = math.log(abs(c) / k) if c else 0.0
    log_z = 2.0 * log_half + log_c
    log_pref = (q + 1.0) * log_half - (q + 0.5) * math.log(k)
    # both loops stop after term 0 where z underflows to 0
    series = -c * (x / 2.0) ** 2 / k != 0.0
    weighted = np.zeros(x.shape)
    for n in range(pol.max_terms):
        g_sign, log_ratio = specfun._term_gamma_ratio(n, (), ((1.5, 1.0), (q + 1.5, 1.0)))
        if g_sign == 0.0:
            continue
        log_mag = log_pref + n * log_z + log_ratio
        w = 5.0 + 4.0 * abs(q + 1.0) * np.abs(log_half) + 2.0 * np.abs(log_pref) + np.abs(log_mag)
        w += n * (2.0 + 3.0 * np.abs(log_half) + abs(log_c) + 3.5 * np.abs(log_z))
        weighted += np.where(series | (n == 0), w * np.exp(log_mag), 0.0)
    bound[positive] = np.finfo(float).eps * weighted
    return bound


class TestVolterraOracle:
    @pytest.mark.parametrize("n", _ORACLE_SIZES)
    @pytest.mark.parametrize("kw", _ORACLE_PROBLEMS)
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

    @pytest.mark.parametrize(
        "n,t_max,kw",
        [(n, 1.0, kw) for n in _ORACLE_SIZES for kw in _ORACLE_PROBLEMS]
        + [(1000, 30.0, _ORACLE_PROBLEMS[1])],
    )
    def test_residual_matches_fractional_integral(self, n, t_max, kw):
        # max|c * N - rhs| from the solve's own Toeplitz system against
        # max|N - F + d^nu D^(-nu) N| with the separately built RL integral
        p = _problem(**kw)
        grid = TimeGrid(t_max=t_max, n_points=n)
        res = volterra_oracle(p, grid)
        forcing = p.forcing_value(grid.points())
        rl = rl_fractional_integral(res.values, grid, p.nu, f_zero=p.forcing_at_zero())
        old = float(np.max(np.abs(res.values - forcing + p.d**p.nu * rl)))
        size = max(float(np.max(np.abs(res.values))), float(np.max(np.abs(forcing))))
        assert abs(res.residual_norm - old) <= 64 * np.finfo(float).eps * size

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

    @pytest.mark.parametrize("size", [1, 5, 37, 64])
    @pytest.mark.parametrize("nu", [0.3, 0.9, 1.5])
    @pytest.mark.parametrize("d, h", [(0.5, 1 / 512), (2.0, 1 / 2048), (1.0, 1 / 64), (2.0, 40 / 512)])
    def test_leaf_inverse_inverts_the_leading_block(self, size, nu, d, h):
        # the Newton-doubled reciprocal series against the Toeplitz block it inverts
        _, column = _rl_weights(nu, h, size)
        c = d**nu * column
        c[0] += 1.0
        lag = np.subtract.outer(np.arange(size), np.arange(size))
        block = np.where(lag >= 0, c[np.maximum(lag, 0)], 0.0)
        product = kinetics._leaf_inverse(c) @ block
        assert np.max(np.abs(product - np.eye(size))) <= 1e-14

    @pytest.mark.parametrize("kw, t_max, n", _FORCING_GRIDS)
    def test_forcing_within_16_eps_of_the_scalar_loop(self, kw, t_max, n):
        # on these grids the sum stays within 16 eps sum|term|.  That is a
        # measurement, not a bound: term n carries n times the logs' error in
        # ln|z|, and the two c < 0 grids of the next test reach 43 and 46 eps.
        # sum|term| is the same series at c -> -|c|, whose terms are the
        # magnitudes of these
        p = _problem(**kw)
        t = TimeGrid(t_max=t_max, n_points=n).points()
        x = p.forcing_argument(t)
        params, pol = p.struve_params(), kinetics._ORACLE_POLICY
        scalar = np.array([k_struve(params, xi, pol) for xi in x.tolist()])
        abs_sum = k_struve(KStruveParams(params.k, params.nu, -abs(params.c)), x, pol)
        got = p.forcing_value(t)
        assert np.all(np.abs(got - scalar) <= 16 * np.finfo(float).eps * abs_sum)

    @pytest.mark.parametrize("kw, t_max, n", _FORCING_GRIDS + [
        (dict(forcing="thm2", a=2.0, d=1.0, c=-0.5, k=2.0, mu=1.5, nu=1.2), 12.0, 512),
        (dict(forcing="thm3", c=-0.7, k=0.5, mu=0.0, nu=1.0), 20.0, 512),
    ])
    def test_forcing_within_its_log_error_bound_of_the_scalar_loop(self, kw, t_max, n):
        p = _problem(**kw)
        t = TimeGrid(t_max=t_max, n_points=n).points()
        x = p.forcing_argument(t)
        params, pol = p.struve_params(), kinetics._ORACLE_POLICY
        scalar = np.array([k_struve(params, xi, pol) for xi in x.tolist()])
        got = p.forcing_value(t)
        assert np.all(np.abs(got - scalar) <= _forcing_log_error_bound(params, x, pol))

    @pytest.mark.parametrize("forcing", FORCINGS)
    def test_forcing_is_one_array_call(self, forcing, monkeypatch):
        # the whole grid goes through forcing_value and the k-Struve array sum once per solve
        forcing_calls = []
        struve_calls = []
        real_forcing = KineticProblem.forcing_value
        real_struve = kinetics._wright_series_array

        def counted_forcing(self, t):
            forcing_calls.append(t)
            return real_forcing(self, t)

        def counted_struve(what, z, *args):
            struve_calls.append(z)
            return real_struve(what, z, *args)

        monkeypatch.setattr(KineticProblem, "forcing_value", counted_forcing)
        monkeypatch.setattr(kinetics, "_wright_series_array", counted_struve)
        monkeypatch.setattr(kinetics, "k_struve", None)  # no scalar call per node
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

    def test_rate_power_overflow_raises(self):
        with pytest.raises(ConvergenceError, match="overflows a double"):
            volterra_oracle(_problem(d=1e300, nu=2.0), TimeGrid(t_max=1.0, n_points=4))

    def test_checks_starting_value(self):
        with pytest.raises(DomainError):
            volterra_oracle(_problem(mu=-1.2, k=1.0), TimeGrid(t_max=1.0, n_points=8))

    @pytest.mark.parametrize("mu, t_max", [(-0.4, 1e-313), (-0.5, 1e-320)])
    def test_subnormal_forcing_argument_matches_mpmath(self, mu, t_max):
        # x = d t is subnormal at 1e-313, where it has lost its bits, and 0 at
        # 1e-320; the forcing's r = 0 term is its whole sum to double
        # precision, and the oracle's N is the forcing there, since d^nu
        # times its integral is below 1e-300 of it.  The forcing was up to
        # 0.5 off at 1e-313 and 0.0 at every node at 1e-320
        import mpmath as mp

        p, grid = _problem(nu=1.0, mu=mu, d=1e-10), TimeGrid(t_max=t_max, n_points=4)
        forcing = p.forcing_value(grid.points())
        oracle = volterra_oracle(p, grid).values
        with mp.workdps(40):
            for t, got, solved in zip(grid.points(), forcing, oracle):
                x = mp.mpf(p.d) * mp.mpf(t)
                true = (x / 2) ** (mp.mpf(mu) + 1) / (mp.gamma(1.5) * mp.gamma(mp.mpf(mu) + 1.5))
                assert got == pytest.approx(float(true), rel=1e-13, abs=0.0)
                assert solved == pytest.approx(float(true), rel=1e-13, abs=0.0)

    def test_forcing_at_time_zero_is_its_limit(self):
        # a time 0 in an array gives the limit 0 there, and a DomainError
        # where the forcing diverges there, as before ln(x/2) came from ln t
        t = np.array([0.0, 0.5])
        forcing = _problem().forcing_value(t)
        assert forcing[0] == 0.0 and forcing[1] == _problem().forcing_value(0.5)
        with pytest.raises(DomainError):
            _problem(mu=-1.2).forcing_value(t)

    def test_solution_near_largest_double(self):
        # the solve runs on rhs scaled into [1/2, 1): unscaled, the split FFT
        # products overflowed and 449 of the 513 nodes came back NaN
        grid = TimeGrid(t_max=1.0, n_points=513)
        big = volterra_oracle(_problem(forcing="constant", n0=1e307), grid)
        one = volterra_oracle(_problem(forcing="constant", n0=1.0), grid)
        assert np.all(np.isfinite(big.values))
        assert math.isfinite(big.residual_norm)
        assert np.allclose(big.values / 1e307, one.values, rtol=1e-13, atol=0)

    def test_non_finite_forcing_raises(self, monkeypatch, tmp_path):
        def infinite(self, t):
            return np.full(t.shape, math.inf)

        monkeypatch.setattr(KineticProblem, "forcing_value", infinite)
        with pytest.raises(SolverError):
            volterra_oracle(_problem(), TimeGrid(t_max=1.0, n_points=8))
        argv = ["validate", "--n-points", "8", "--out", str(tmp_path / "v")]
        assert main(argv) == EXIT_NUMERICAL


class TestAdjudicate:
    def test_consistent_variant_wins(self):
        grid = TimeGrid(t_max=1.0, n_points=256)
        report = adjudicate(_problem(), grid)
        assert report.agreeing == ("sumudu_consistent",)
        assert report.dev_consistent < 1e-3
        assert report.dev_printed > 0.1
        assert report.oracle_monotone_increasing

    def test_deviation_past_the_largest_double_is_inf(self):
        # x = d t is subnormal: as_printed is about 1e119 where the oracle is
        # about 1e-194, so its deviations are inf, with no numpy overflow
        # warning (an error under this suite's filter)
        p = _problem(nu=1.0, mu=-0.4, d=1e-10)
        report = adjudicate(p, TimeGrid(t_max=1e-313, n_points=4))
        assert report.dev_printed == report.dev_printed_at_end == math.inf
        assert report.dev_consistent_at_end < 1e-13
        assert report.agreeing == ("sumudu_consistent",)

    def test_summary_mentions_both_variants(self):
        grid = TimeGrid(t_max=1.0, n_points=128)
        text = adjudicate(_problem(), grid).summary()
        assert "as_printed" in text
        assert "sumudu_consistent" in text
        assert "monotone" in text
        assert "undecided" not in text  # no node at t_max is flagged

    @pytest.mark.parametrize(
        "kw, t_max, n",
        [
            (dict(), 1.0, 64),
            (dict(forcing="thm2", a=2.0), 1.0, 64),
            (dict(forcing="thm2", d=2.5, a=1.2), 1.0, 64),  # d > a
            (dict(forcing="thm3"), 1.0, 64),
            (dict(forcing="constant", nu=0.5), 1.0, 64),  # the same closed form twice
            (dict(c=-1.0), 1.0, 64),
            (dict(forcing="thm3", c=0.0), 1.0, 64),
            (dict(nu=2.0, mu=-0.5), 1.0, 64),  # a Gamma pole at row 0: nu q + 1 = 0
            # the benchmark's validate slot whose outer series rebuilds the lattice
            (dict(forcing="thm2", n0=0.899508, d=1.24305, a=3.56385, nu=1.46682, mu=1.5,
                  c=0.883669, k=2.0), 1.0, 512),
            (_THM3, 28.0, 64),
        ],
    )
    def test_both_closed_forms_are_one_pass(self, kw, t_max, n, monkeypatch):
        # one outer array loop for both variants; each reported solution
        # holds the values, terms used, budget stops and flags
        # solve_closed_form gives it alone (a rebuild only the other variant
        # needs: the tests below).  The oracle's forcing is an array loop of
        # its own, not counted here
        calls = []
        real = kinetics._wright_series_array
        monkeypatch.setattr(
            kinetics, "_wright_series_array",
            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
        )
        p, grid = _problem(**kw), TimeGrid(t_max=t_max, n_points=n)
        report = adjudicate(p, grid, POL)
        assert [what for what, *_ in calls].count("closed form") == 1
        assert (report.printed.variant, report.consistent.variant) == VARIANTS
        for sol in (report.printed, report.consistent):
            alone = solve_closed_form(p, grid, sol.variant, POL)
            for field in ("values", "terms_used", "truncation_flag", "budget_stop"):
                assert getattr(sol, field).tobytes() == getattr(alone, field).tobytes()
        if kw.get("nu") == 1.46682:  # past the first lattice's 16 outer terms
            assert report.consistent.terms_used.max() == 17

    @pytest.mark.parametrize(
        "kw, t_max, quiet",
        [
            (dict(mu=1.1232, nu=0.589045, d=1.45202, a=0.781213, c=1.35916), 19.8563,
             "as_printed"),
            (dict(forcing="thm3", mu=-0.423, nu=0.449, d=2.228, a=2.549, c=1.084), 8.91,
             "sumudu_consistent"),
        ],
    )
    def test_a_rebuild_one_variant_needs_keeps_the_others_solo_flags(self, kw, t_max, quiet,
                                                                      monkeypatch):
        # thm1 and thm3 share one argument: the pass rebuilds its lattice
        # for one variant, while the other (quiet) walks it once alone.  In
        # the pass too the quiet variant's rounding estimate reads the first
        # walk's scales and block magnitudes, bit for bit and row for row,
        # not the rebuilt walk's; at n = 200 its rounding blocks hold
        # several nodes
        counts, estimates = [], []
        real, real_flags = kinetics._ml_lattice, kinetics._rounding_flags
        monkeypatch.setattr(kinetics, "_ml_lattice",
                            lambda *args: counts.append(args[-1]) or real(*args))

        def flags(*args):
            scales, sizes = args[5:]
            estimates.append(([(r, scale.hex()) for r, scale in scales.items()], sizes.shape,
                              sizes.tobytes()))
            return real_flags(*args)

        monkeypatch.setattr(kinetics, "_rounding_flags", flags)
        p, grid = _problem(**kw), TimeGrid(t_max=t_max, n_points=200)
        together = kinetics._solve_variants(p, grid, POL)
        assert counts == [16, POL.max_terms]
        read = estimates[:]
        assert len(read) == 2
        for sol, estimate in zip(together, read):
            counts.clear()
            estimates.clear()
            alone = solve_closed_form(p, grid, sol.variant, POL)
            assert counts == ([16] if sol.variant == quiet else [16, POL.max_terms])
            assert estimates == [estimate]
            for field in ("values", "terms_used", "truncation_flag", "budget_stop"):
                assert getattr(sol, field).tobytes() == getattr(alone, field).tobytes()
            if sol.variant == quiet:
                assert sol.truncation_flag.any() and not sol.budget_stop.any()

    def test_each_argument_keeps_the_lattices_of_its_solo_solve(self, monkeypatch):
        # the pass asks for thm2's lattices (largest |z| on the grid, rows
        # read, outer terms) that the two solo solves ask for, the rebuild
        # of the 17-term sumudu_consistent series included
        specs = []
        real = kinetics._ml_lattice

        def spy(lattice, gammas, most, z, z_max, refs, reads, count):
            specs.append((z_max, reads, count))
            return real(lattice, gammas, most, z, z_max, refs, reads, count)

        monkeypatch.setattr(kinetics, "_ml_lattice", spy)
        p = _problem(forcing="thm2", n0=0.899508, d=1.24305, a=3.56385, nu=1.46682, mu=1.5,
                     c=0.883669, k=2.0)
        grid = TimeGrid(t_max=1.0, n_points=64)
        kinetics._solve_variants(p, grid, TruncationPolicy())
        together = sorted(specs)
        specs.clear()
        for variant in VARIANTS:
            solve_closed_form(p, grid, variant)
        assert together == sorted(specs)
        assert len(together) == 3

    @pytest.mark.parametrize(
        "kw, t_max, failing",
        [
            (dict(forcing="thm2", a=2.0), 400.0, "as_printed"),  # a lattice guard
            (dict(forcing="thm2", a=2.0, nu=2.0), 120.0, "sumudu_consistent"),  # an outer guard
            (dict(forcing="thm3", nu=2.0), 400.0, "sumudu_consistent"),
            (dict(), 1e10, "as_printed"),  # both fail
        ],
    )
    def test_one_pass_fails_as_the_first_failing_variant(self, kw, t_max, failing):
        p, grid, pol = _problem(**kw), TimeGrid(t_max=t_max, n_points=4), TruncationPolicy()
        texts = {}
        for variant in VARIANTS:
            try:
                solve_closed_form(p, grid, variant, pol)
            except ConvergenceError as exc:
                texts[variant] = str(exc)
        assert next(iter(texts)) == failing
        assert len(texts) == (2 if t_max == 1e10 else 1)
        with pytest.raises(ConvergenceError) as caught:
            kinetics._solve_variants(p, grid, pol)
        assert str(caught.value) == texts[failing]

    def test_one_pass_matches_solo_solves_on_a_seeded_battery(self):
        # 60 problems over every forcing, c < 0 and c = 0, t_max 1 to 35,
        # budgets 10 to 100 and n 24 or 200 (one node or several per
        # rounding block, drawn apart so the problems stay those of
        # seed 24): the pass gives each variant its solo bits
        rng, sizes = np.random.default_rng(24), np.random.default_rng(26)
        for i in range(60):
            k = float(rng.choice([0.5, 1.0, 2.0]))
            p = _problem(forcing=FORCINGS[i % 4], k=k, mu=rng.uniform(-1.4, 2.0) * k,
                         nu=rng.uniform(0.2, 2.5), d=rng.uniform(0.3, 2.5), a=rng.uniform(0.3, 4.0),
                         c=float(rng.choice([-1.0, 0.0, 1.0, 1.0])) * rng.uniform(0.3, 1.6),
                         n0=rng.uniform(0.5, 2.0))
            grid = TimeGrid(t_max=float(np.exp(rng.uniform(0.0, np.log(35.0)))),
                            n_points=int(sizes.choice([24, 200])))
            pol = TruncationPolicy(max_terms=int(rng.choice([10, 50, 100])))
            try:
                together = kinetics._solve_variants(p, grid, pol)
            except ConvergenceError as exc:
                together = str(exc)
            alone = []
            for variant in VARIANTS:
                try:
                    alone.append(solve_closed_form(p, grid, variant, pol))
                except ConvergenceError as exc:
                    alone = str(exc)
                    break
            if isinstance(alone, str):
                assert together == alone
                continue
            for sol, solo in zip(together, alone):
                for field in ("values", "terms_used", "truncation_flag", "budget_stop"):
                    assert getattr(sol, field).tobytes() == getattr(solo, field).tobytes()

    @pytest.mark.parametrize("t_max, tol", [(30.0, 0.1), (20.0, 1e-3)])
    def test_a_variant_flagged_at_t_max_never_agrees(self, t_max, tol):
        # thm2 at nu = 0.9: sumudu_consistent lies within tol of the oracle at
        # t_max, but both closed forms flag that node, and at t_max = 30 the
        # closed form and the oracle are both far from the truth, 0.0415
        grid = TimeGrid(t_max=t_max, n_points=257)
        report = adjudicate(_problem(forcing="thm2"), grid, TruncationPolicy(max_terms=100), tol)
        assert report.dev_consistent_at_end <= tol
        assert report.printed.truncation_flag[-1] and report.consistent.truncation_flag[-1]
        assert report.agreeing == ()
        assert (f"within tol {tol:g} at t_max: neither variant; "
                "undecided (flagged at t_max): as_printed, sumudu_consistent; oracle"
                in report.summary())

    def test_tight_tolerance_rejects_both(self):
        grid = TimeGrid(t_max=1.0, n_points=64)
        report = adjudicate(_problem(), grid, tol=1e-15)
        assert report.agreeing == ()

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        # a NaN bound agreed with nothing, and an infinite one with everything
        with pytest.raises(DomainError, match="tol"):
            adjudicate(_problem(), TimeGrid(t_max=1.0, n_points=8), tol=tol)
