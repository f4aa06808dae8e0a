import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstruve.errors import ConvergenceError, DomainError, QuadratureError, QuadratureWarning
from kstruve.specfun import (
    KStruveParams,
    TruncationPolicy,
    WrightParams,
    _struve_transform_series,
    k_struve,
)
from kstruve.transforms import (
    QuadratureSpec,
    TimeGrid,
    _g7k15,
    _laguerre_rule,
    _rl_weights,
    _sumudu_kstruve_image,
    inverse_sumudu_kstruve,
    rl_fractional_integral,
    sumudu_kstruve_closed,
    sumudu_numeric,
    sumudu_power_rule,
    sumudu_rl_rule,
)

ADAPTIVE = QuadratureSpec(scheme="truncated_adaptive")

# Frozen with a 60-digit mpmath quadrature/series oracle during the build.
SUMUDU_K2_NUHALF_U03 = 0.074876914263428641747
INV_SUMUDU_K1_NU1_T1 = 0.41029974129282550543


class TestQuadratureSpec:
    def test_defaults(self):
        q = QuadratureSpec()
        assert q.node_count == 64
        assert q.scheme == "gauss_laguerre"

    @pytest.mark.parametrize("bad", [1, 513, 64.0])
    def test_node_count_bounds(self, bad):
        with pytest.raises(DomainError):
            QuadratureSpec(node_count=bad)

    def test_unknown_scheme(self):
        with pytest.raises(DomainError):
            QuadratureSpec(scheme="monte_carlo")


class TestLaguerreRule:
    def test_weights_sum_to_one(self):
        # int_0^inf e^(-t) dt = 1
        for n in (2, 16, 64, 256):
            _, w = _laguerre_rule(n)
            assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-12)

    def test_polynomial_exactness(self):
        # exact moments int e^(-t) t^m dt = m! for m <= 10 at n = 64
        nodes, w = _laguerre_rule(64)
        for m in range(11):
            assert float(np.sum(w * nodes**m)) == pytest.approx(
                math.factorial(m), rel=1e-12
            )

    def test_matches_mpmath_at_64(self):
        # laguerre_64.json is written by tests/make_laguerre_reference.py
        path = os.path.join(os.path.dirname(__file__), "laguerre_64.json")
        with open(path) as fh:
            ref = json.load(fh)
        nodes, w = _laguerre_rule(64)
        ref_nodes = np.array([float(v) for v in ref["nodes"]])
        ref_w = np.array([float(v) for v in ref["weights"]])
        assert ref_w[-1] == pytest.approx(2.0890635084369528e-101, rel=1e-15)
        assert float(np.max(np.abs(nodes - ref_nodes) / ref_nodes)) <= 1e-13
        assert float(np.max(np.abs(w - ref_w) / ref_w)) <= 1e-12

    @pytest.mark.parametrize("n", [400, 512])
    def test_largest_node_counts(self, n):
        # the far weights underflow to 0; nothing overflows
        nodes, w = _laguerre_rule(n)
        assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(w))
        assert abs(math.fsum(w) - 1.0) <= 1e-13

    @pytest.mark.parametrize("n,positive", [(64, 64), (256, 239), (512, 368)])
    def test_samples_only_positive_weight_nodes(self, n, positive):
        calls = []

        def f(t):
            calls.append(t)
            return 1.0

        assert sumudu_numeric(f, 1.0, QuadratureSpec(node_count=n)) == pytest.approx(1.0, rel=1e-12)
        assert len(calls) == positive

    @pytest.mark.parametrize("n", [256, 512])
    def test_non_finite_past_the_weights_is_not_sampled(self, n):
        # e^(-t) is below the smallest double past t = 745; the nodes there
        # have weight 0, and the last positive-weight node is below 745
        value = sumudu_numeric(lambda t: math.inf if t > 745.0 else 1.0, 1.0, QuadratureSpec(node_count=n))
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_far_weights_relative_accuracy(self):
        # the sampler reaches ~1e74 at the far nodes (budget stops), so the
        # 1e-101 weights there must be right relative to themselves, not
        # to the largest weight, or the transform is off by orders of magnitude
        params = KStruveParams(3.0, 0.4, 1.4)
        num = sumudu_numeric(lambda t: k_struve(params, t), 1.2)
        assert num == pytest.approx(sumudu_kstruve_closed(params, 1.2), rel=1e-4)


class TestTimeGrid:
    def test_points_exclude_zero(self):
        g = TimeGrid(t_max=1.0, n_points=4)
        assert np.allclose(g.points(), [0.25, 0.5, 0.75, 1.0])
        assert g.spacing == 0.25

    @pytest.mark.parametrize("t_max,n", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, 2.5)])
    def test_validation(self, t_max, n):
        with pytest.raises(DomainError):
            TimeGrid(t_max=t_max, n_points=n)


class TestSumuduNumeric:
    def test_power_rule_consistency(self):
        # the non-polynomial powers have an integrable branch point at 0,
        # where the fixed Laguerre rule converges only algebraically; the
        # adaptive scheme is the one that meets the tolerance
        for mu in (1.0, 1.5, 2.0, 3.5):
            for u in (0.1, 0.5, 1.0):
                num = sumudu_numeric(lambda t: t ** (mu - 1.0), u, ADAPTIVE)
                assert num == pytest.approx(sumudu_power_rule(mu, u), rel=1e-10)

    def test_laguerre_exact_on_polynomials(self):
        num = sumudu_numeric(lambda t: t**3, 0.7, QuadratureSpec())
        assert num == pytest.approx(sumudu_power_rule(4.0, 0.7), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            sumudu_numeric(lambda t: t, 0.0)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            sumudu_numeric(lambda t: math.inf, 1.0, QuadratureSpec())

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_integrand_rejected_adaptive(self, bad):
        with pytest.raises(QuadratureError):
            sumudu_numeric(lambda t: bad if t > 3.0 else 1.0, 1.0, ADAPTIVE)

    @pytest.mark.parametrize("q", [QuadratureSpec(), ADAPTIVE])
    def test_sampler_gets_python_floats(self, q):
        seen = set()

        def f(t):
            seen.add(type(t))
            return t

        sumudu_numeric(f, 0.5, q)
        assert seen == {float}

    def test_kronrod_rule_exact_to_degree_23(self):
        # K15 integrates polynomials of degree <= 3*7 + 2 exactly, G7 those
        # of degree <= 13, so |K15 - G7| is rounding alone up to degree 13
        for m in range(24):
            value, err = _g7k15(lambda t: t**m, 0.0, 2.0)
            assert value == pytest.approx(2.0 ** (m + 1) / (m + 1), rel=1e-14)
            if m <= 13:
                assert err <= 1e-14 * value

    def test_constant_transform(self):
        assert sumudu_numeric(lambda t: 1.0, 0.4, QuadratureSpec()) == pytest.approx(
            1.0, rel=1e-13
        )

    @given(u=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity_property(self, u):
        f = lambda t: 2.0 * t + 3.0
        assert sumudu_numeric(f, u, QuadratureSpec()) == pytest.approx(
            2.0 * sumudu_power_rule(2.0, u) + 3.0, rel=1e-11
        )


class TestSumuduKStruveClosed:
    def test_matches_numeric_transform(self, deep):
        # closed-form image vs direct quadrature of the series
        for k, nu in ((1.0, 0.5), (2.0, 0.5), (3.0, 1.0)):
            params = KStruveParams(k=k, nu=nu, c=1.0)
            for u in (0.1, 0.5, 1.0):
                closed = sumudu_kstruve_closed(params, u, deep)
                numeric = sumudu_numeric(lambda t: k_struve(params, t, deep), u, ADAPTIVE)
                assert closed == pytest.approx(numeric, rel=1e-9)

    def test_frozen_value(self, deep):
        params = KStruveParams(k=2.0, nu=0.5, c=1.0)
        assert sumudu_kstruve_closed(params, 0.3, deep) == pytest.approx(
            SUMUDU_K2_NUHALF_U03, rel=1e-13
        )

    def test_dilation_rule(self, deep):
        # S{f(3t)}(u) = F(3u)
        params = KStruveParams(k=1.0, nu=1.0, c=1.0)
        numeric = sumudu_numeric(lambda t: k_struve(params, 3.0 * t, deep), 0.2, ADAPTIVE)
        assert numeric == pytest.approx(sumudu_kstruve_closed(params, 0.6, deep), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            sumudu_kstruve_closed(KStruveParams(k=1.0, nu=1.0), -0.1)

    def test_overflow_inside_the_radius_is_a_convergence_error(self):
        # -c u^2/(4k) = -0.25 is on the radius, and (u/2)^(q+1) passes the
        # largest double; it was a bare OverflowError
        params = KStruveParams(k=1.0, nu=2.0, c=1e-300)
        with pytest.raises(ConvergenceError, match="overflows a double at u = 1e\\+150"):
            sumudu_kstruve_closed(params, 1e150)

    @pytest.mark.parametrize("u", [1e300, 1e160])
    def test_outside_the_radius_is_a_domain_error(self, u):
        # checked before (u/2)^(q+1) is formed, which overflowed first
        with pytest.raises(DomainError, match="convergence radius"):
            sumudu_kstruve_closed(KStruveParams(k=1.0, nu=2.0, c=1e-300), u)

    def test_tiny_image_with_a_large_prefactor(self):
        # (u/2)^(q+1) = 5e3^101 passes the largest double, the image is 1.1e-28;
        # the prefactor formed in linear space reported an overflow
        import mpmath as mp

        mp.mp.dps = 30
        k, q, c, u = 1e4, mp.mpf(100), 1e-5, 1e4
        z = -mp.mpf(c) * u * u / (4 * k)
        series = mp.nsum(lambda n: z**n * mp.gamma(q + 2 + 2 * n)
                         / (mp.gamma(q + 1.5 + n) * mp.gamma(1.5 + n)), [0, mp.inf])
        exact = float(mp.mpf(u / 2) ** (q + 1) * mp.mpf(k) ** (-q - 0.5) * series)
        value = sumudu_kstruve_closed(KStruveParams(k=k, nu=1e6, c=c), u)
        assert value == pytest.approx(exact, rel=1e-12)

    def test_image_params_cached_per_order_ratio(self):
        # nu/k = 0.5 in both
        first, second = KStruveParams(k=1.0, nu=0.5, c=1.0), KStruveParams(k=2.0, nu=1.0, c=0.5)
        images = [_sumudu_kstruve_image(p, 0.7, TruncationPolicy()) for p in (first, second)]
        # each image is bit for bit the one summed with parameters built afresh
        fresh = WrightParams(upper=((2.5, 2.0), (1.0, 1.0)), lower=((2.0, 1.0), (1.5, 1.0)))
        for p, (value, used) in zip((first, second), images):
            series, series_used = _struve_transform_series(
                "sumudu_kstruve", "u", p, 0.7, 1.5, fresh.upper, fresh.series_lower,
                TruncationPolicy(),
            )
            assert (value.hex(), used) == (series.hex(), series_used)


class TestInverseSumudu:
    def test_frozen_value(self, deep):
        params = KStruveParams(k=1.0, nu=1.0, c=1.0)
        assert inverse_sumudu_kstruve(params, 1.0, deep) == pytest.approx(
            INV_SUMUDU_K1_NU1_T1, rel=1e-13
        )

    def test_zero_limit(self):
        assert inverse_sumudu_kstruve(KStruveParams(k=1.0, nu=1.0), 0.0) == 0.0

    @pytest.mark.parametrize("nu, at_1e_8", [(0.0, -1.41e-17), (-1.0, -4.24e-9)])
    def test_zero_limit_at_a_lower_gamma_pole(self, nu, at_1e_8):
        # at nu/k = 0 and -1, 1/Gamma(nu/k + 2n) is 0 at n = 0: the series
        # starts at t^(nu/k + 2), so it tends to 0 as t -> 0
        params = KStruveParams(k=1.0, nu=nu, c=1.0)
        assert inverse_sumudu_kstruve(params, 1e-8) == pytest.approx(at_1e_8, rel=0.01)
        assert inverse_sumudu_kstruve(params, 1e-300) == 0.0
        assert inverse_sumudu_kstruve(params, 0.0) == 0.0

    def test_divergent_at_zero_is_a_domain_error(self):
        # nu/k = -0.5: the n = 0 term (t/2)^(nu/k) grows without bound
        params = KStruveParams(k=1.0, nu=-0.5, c=1.0)
        assert inverse_sumudu_kstruve(params, 1e-300) == pytest.approx(-4.5e149, rel=0.01)
        with pytest.raises(DomainError, match="needs nu/k > 0, 0 or -1, got -0.5"):
            inverse_sumudu_kstruve(params, 0.0)

    def test_underflow_is_zero(self):
        # the value is about 3e-2134; (t/2)^q k^-(q+1/2) alone overflowed
        assert inverse_sumudu_kstruve(KStruveParams(k=0.5, nu=500.0, c=1e-300), 1e3) == 0.0

    @pytest.mark.parametrize("t", [1e100, 1e160, 1e300])
    def test_overflow_is_a_convergence_error(self, t):
        # the 1Psi3 is entire, so every finite t is in its domain; from
        # t = 1e160, -c t^2 / (4k) itself overflows, which was a DomainError
        with pytest.raises(ConvergenceError):
            inverse_sumudu_kstruve(KStruveParams(k=1.0, nu=0.5, c=1.0), t)

    def test_roundtrip_reported(self, deep, capsys):
        # the displayed inverse formula does not round-trip through the
        # forward transform; the discrepancy is reported, not asserted
        params = KStruveParams(k=1.0, nu=1.0, c=1.0)
        u = 0.2
        back = sumudu_numeric(
            lambda t: inverse_sumudu_kstruve(params, t, deep), u, ADAPTIVE
        )
        forward = sumudu_kstruve_closed(params, u, deep)
        rel = abs(back - forward) / abs(forward)
        print(
            f"inverse-image round trip at u={u}: S[inverse]={back:.6g} "
            f"vs image={forward:.6g} (rel diff {rel:.3g})"
        )
        assert math.isfinite(rel)


def _rl_convolve_reference(samples, grid, nu, f_zero):
    """The product-trapezoidal rule as one O(n^2) ``np.convolve``."""
    n = grid.n_points
    scale = grid.spacing**nu / math.gamma(nu + 2.0)
    i = np.arange(1, n + 1, dtype=float)
    out = samples + f_zero * ((i - 1.0) ** (nu + 1.0) - i**nu * (i - nu - 1.0))
    if n > 1:
        p = np.arange(0, n + 1, dtype=float) ** (nu + 1.0)
        out[1:] += np.convolve(samples[:-1], p[2:] - 2.0 * p[1:-1] + p[:-2])[: n - 1]
    return scale * out


class TestRLFractionalIntegral:
    @pytest.mark.parametrize("n", [1, 2, 64, 65, 2048])
    @pytest.mark.parametrize("nu", [0.3, 1.0, 1.5])
    def test_matches_convolution(self, n, nu):
        # the FFT product errs by at most a few eps times max|f| times the
        # weights' sum at any node (2.7 of that at most in n <= 8192)
        grid = TimeGrid(t_max=3.0, n_points=n)
        t = grid.points()
        f_zero = 0.7
        for f in (np.cos(5.0 * t), np.random.default_rng(n).standard_normal(n)):
            got = rl_fractional_integral(f, grid, nu, f_zero=f_zero)
            ref = _rl_convolve_reference(f, grid, nu, f_zero)
            boundary, column = _rl_weights(nu, grid.spacing, n)
            size = np.sum(np.abs(column)) * np.max(np.abs(f)) + abs(f_zero) * np.abs(boundary)
            assert np.all(np.abs(got - ref) <= 16 * np.finfo(float).eps * size)

    def test_near_largest_double(self):
        # D^(-1.5) of the constant 1e307 is 1e307 t^1.5 / Gamma(2.5); the
        # unscaled convolution sums passed the largest double and gave inf
        grid = TimeGrid(t_max=1.0, n_points=2048)
        out = rl_fractional_integral(np.full(2048, 1e307), grid, 1.5, f_zero=1e307)
        exact = 1e307 * grid.points() ** 1.5 / math.gamma(2.5)
        assert np.all(np.isfinite(out))
        assert float(np.max(np.abs(out - exact))) <= 1e-12 * 1e307

    def test_order_one_is_plain_integral(self):
        grid = TimeGrid(t_max=1.0, n_points=200)
        t = grid.points()
        out = rl_fractional_integral(np.ones_like(t), grid, 1.0, f_zero=1.0)
        assert np.allclose(out, t, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nu,mu", [(0.5, 2.0), (0.5, 1.0), (0.9, 2.0), (1.5, 3.0)])
    def test_power_rule(self, nu, mu):
        # D^(-nu) t^(mu-1) = Gamma(mu)/Gamma(mu+nu) t^(mu+nu-1)
        grid = TimeGrid(t_max=1.0, n_points=2048)
        t = grid.points()
        f_zero = 1.0 if mu == 1.0 else 0.0
        out = rl_fractional_integral(t ** (mu - 1.0), grid, nu, f_zero=f_zero)
        exact = math.gamma(mu) / math.gamma(mu + nu) * t ** (mu + nu - 1.0)
        assert float(np.max(np.abs(out - exact))) <= 5e-7

    def test_semigroup(self):
        # D^(-a) D^(-b) f = D^(-(a+b)) f
        grid = TimeGrid(t_max=1.0, n_points=2048)
        t = grid.points()
        f = np.sin(t)
        once = rl_fractional_integral(rl_fractional_integral(f, grid, 0.4), grid, 0.6)
        both = rl_fractional_integral(f, grid, 1.0)
        assert float(np.max(np.abs(once - both))) <= 5e-7

    def test_second_order_convergence(self):
        # error should shrink by ~4x per grid doubling (at least 3x asserted)
        nu, mu = 0.5, 3.0  # quadratic f: the rule is exact on linear samples
        errs = []
        for n in (512, 1024, 2048, 4096):
            grid = TimeGrid(t_max=1.0, n_points=n)
            t = grid.points()
            out = rl_fractional_integral(t ** (mu - 1.0), grid, nu)
            exact = math.gamma(mu) / math.gamma(mu + nu) * t ** (mu + nu - 1.0)
            errs.append(float(np.max(np.abs(out - exact))))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 3.0

    def test_shape_and_finite_validation(self):
        grid = TimeGrid(t_max=1.0, n_points=8)
        with pytest.raises(DomainError):
            rl_fractional_integral(np.ones(7), grid, 0.5)
        with pytest.raises(DomainError):
            rl_fractional_integral(np.full(8, np.nan), grid, 0.5)
        with pytest.raises(DomainError):
            rl_fractional_integral(np.ones(8), grid, -0.5)

    @pytest.mark.parametrize("f_zero", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_f_zero(self, f_zero):
        # f_zero * boundary used to make every node NaN or inf
        with pytest.raises(DomainError, match="f_zero"):
            rl_fractional_integral(np.ones(8), TimeGrid(t_max=1.0, n_points=8), 0.5, f_zero=f_zero)

    def test_transform_composition(self):
        # S{D^(-nu) f}(u) = u^nu S{f}(u) for f(t) = t
        nu, u = 0.5, 0.4
        grid = TimeGrid(t_max=40.0 * u, n_points=6000)
        t = grid.points()
        rl = rl_fractional_integral(t, grid, nu)
        # the kinks of the 6000-node interpolant keep the error estimate
        # above 1e-12 when the 300-subinterval budget ends
        with pytest.warns(QuadratureWarning) as record:
            num = sumudu_numeric(lambda s: float(np.interp(s, t, rl)), u, ADAPTIVE)
        expect = sumudu_rl_rule(sumudu_power_rule(2.0, u), u, nu)
        assert num == pytest.approx(expect, rel=1e-5)
        assert 1e-12 < record[0].message.error_estimate < 1e-6


class TestSumuduRLRule:
    def test_power_rule_composition(self):
        # the two symbolic rules compose: S{D^(-nu) t^(mu-1)} known exactly
        mu, nu, u = 2.0, 0.5, 0.3
        lhs = sumudu_rl_rule(sumudu_power_rule(mu, u), u, nu)
        rhs = math.gamma(mu) / math.gamma(mu + nu) * sumudu_power_rule(mu + nu, u) * (
            math.gamma(mu + nu) / math.gamma(mu + nu)
        )
        assert lhs == pytest.approx(
            math.gamma(mu) * u ** (mu + nu - 1.0), rel=1e-14
        )
        assert rhs == pytest.approx(lhs, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            sumudu_rl_rule(1.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            sumudu_rl_rule(math.nan, 1.0, 0.5)
