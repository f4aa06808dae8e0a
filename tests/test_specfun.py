import itertools
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kstruve import specfun
from kstruve.errors import ConvergenceError, DomainError
from kstruve.specfun import (
    KStruveParams,
    TruncationPolicy,
    WrightParams,
    fox_wright,
    k_gamma,
    k_struve,
    k_struve_info,
    log_gamma,
    log_k_gamma,
    fox_wright_info,
    mittag_leffler,
    mittag_leffler_info,
    struve_h,
    struve_h_info,
)

# Frozen expected values, computed with a 60-digit mpmath series oracle
# (200-500 terms) during the build.
STRUVE_0_1 = 0.56865662704828795099
STRUVE_1_2 = 0.64676372828356211712
KGAMMA_3_2 = 1.2533141373155002512
KSTRUVE_K2_NU1_X1 = 0.19129713436242485694
ML_HALF_THREEHALF = 0.91861380907601302433  # E_{0.5,1.5}(-0.25)
PSI22_BOUNDARY = 0.95944904742310629921  # 2Psi2 image series at q=1, z=-1/4


class TestTruncationPolicy:
    def test_defaults(self):
        pol = TruncationPolicy()
        assert pol.max_terms == 50
        assert pol.rel_tol == 1e-16

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_rejects_bad_max_terms(self, bad):
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=bad)

    def test_rejects_negative_rel_tol(self):
        with pytest.raises(DomainError):
            TruncationPolicy(rel_tol=-1e-3)


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)

    def test_accuracy_contract(self):
        # accuracy contract: rel error <= 1e-13 on [0.5, 200]
        import mpmath as mp

        mp.mp.dps = 30
        for x in np.linspace(0.5, 200.0, 57):
            ref = float(mp.loggamma(mp.mpf(float(x))))
            if ref == 0.0:
                continue
            assert abs(log_gamma(float(x)) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestKGamma:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
    def test_identity_at_gamma_equals_k(self, k):
        assert k_gamma(k, k) == pytest.approx(1.0, abs=1e-14)

    def test_reduces_to_gamma_at_k_one(self):
        for g in np.linspace(0.05, 49.95, 211):
            assert k_gamma(float(g), 1.0) == pytest.approx(math.gamma(float(g)), rel=1e-13)

    def test_frozen_value(self):
        assert k_gamma(3.0, 2.0) == pytest.approx(KGAMMA_3_2, rel=1e-14)

    def test_recurrence_grid(self):
        # Gamma_k(gamma + k) = gamma * Gamma_k(gamma)
        for g in np.arange(0.5, 10.01, 0.5):
            for k in (0.5, 1.0, 2.0, 3.0):
                lhs = k_gamma(float(g) + k, k)
                rhs = float(g) * k_gamma(float(g), k)
                assert lhs == pytest.approx(rhs, rel=1e-13)

    @given(
        g=st.floats(min_value=0.1, max_value=30.0),
        k=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, g, k):
        assume(g / k <= 100.0)  # keep Gamma(g/k + 1) inside double range
        assert k_gamma(g + k, k) == pytest.approx(g * k_gamma(g, k), rel=1e-12)

    def test_log_variant_consistent(self):
        assert math.exp(log_k_gamma(3.0, 2.0)) == pytest.approx(k_gamma(3.0, 2.0), rel=1e-15)

    @pytest.mark.parametrize("g,k", [(-1.0, 1.0), (1.0, -1.0), (0.0, 2.0), (2.0, 0.0)])
    def test_domain(self, g, k):
        with pytest.raises(DomainError):
            k_gamma(g, k)

    @pytest.mark.parametrize("g,k", [(300.0, 1.0), (400.0, 2.0)])
    def test_overflow_raises(self, g, k):
        with pytest.raises(ConvergenceError, match=f"k_gamma\\({g!r}, {k!r}\\)"):
            k_gamma(g, k)
        assert math.isfinite(k_gamma(171.0, 1.0))  # Gamma(171) ~ 7.3e306 still fits


class TestStruveH:
    def test_zero_argument(self):
        assert struve_h(0.0, 0.0) == 0.0

    def test_frozen_series_values(self, tight):
        assert struve_h(0.0, 1.0, tight) == pytest.approx(STRUVE_0_1, rel=1e-14)
        assert struve_h(1.0, 2.0, tight) == pytest.approx(STRUVE_1_2, rel=1e-14)

    def test_negative_x_fractional_order_rejected(self):
        with pytest.raises(DomainError):
            struve_h(0.5, -1.0)

    def test_subnormal_argument(self):
        # H_{-1/2}(x) = sqrt(2/(pi x)) sin x, about sqrt(2x/pi) at tiny x
        for x in (5e-324, 1e-320, 3e-310):
            assert struve_h(-0.5, x) == pytest.approx(math.sqrt(2 * x / math.pi), rel=1e-14)
        assert struve_h_info(0.5, 5e-324) == (0.0, 1)
        assert struve_h(1.0, -5e-324) == 0.0

    def test_terms_below_the_subnormal_range_stop_the_sum(self):
        # at x = 1e-160, z = -(x/2)^2 is subnormal but not 0, and every term
        # lies below the subnormal range: the sum is exactly 0, and it stops
        # once the terms fall, not on the term budget
        assert struve_h_info(3.0, 1e-160) == (0.0, 1)
        assert k_struve_info(KStruveParams(1.0, 3.0), 1e-160) == (0.0, 1)
        x = np.array([1e-160, 1.0])
        values, used = specfun._k_struve_array(KStruveParams(1.0, 3.0), x, TruncationPolicy())
        assert (values[0], used.tolist()) == (0.0, [1, 9])
        # 1/Gamma(200 + n) is below it too; an upper pair keeps the budget stop
        assert fox_wright_info(WrightParams((), ((200.0, 1.0),)), 1e-10) == (0.0, 1)
        assert fox_wright_info(WrightParams(((1.0, 0.5),), ((200.0, 1.0),)), 1e-10) == (0.0, 50)

    def test_negative_x_integer_order_parity(self, tight):
        # H_p(-x) = (-1)^(p+1) H_p(x) for integer p
        assert struve_h(0.0, -1.0, tight) == pytest.approx(-STRUVE_0_1, rel=1e-14)
        assert struve_h(1.0, -2.0, tight) == pytest.approx(STRUVE_1_2, rel=1e-14)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            struve_h(-1.5, 1.0)

    def test_overflow_guard(self):
        # term 3 has log-magnitude 957
        with pytest.raises(ConvergenceError, match="term 3 .* overflow guard 700"):
            struve_h(0.0, 1e60)

    @pytest.mark.parametrize("max_terms", [1, 2, 50])
    @pytest.mark.parametrize("x", [3e154, 1e300])
    def test_overflowing_argument_raises(self, x, max_terms):
        # (x/2)^2 overflows, so term 0's log-magnitude is 0 * inf = NaN; one
        # term used to return (nan, 1)
        pol = TruncationPolicy(max_terms=max_terms)
        with pytest.raises(ConvergenceError, match="^struve_h: the series argument .* overflows"):
            struve_h_info(1.0, x, pol)
        with pytest.raises(ConvergenceError, match="^k_struve: the series argument .* overflows"):
            k_struve_info(KStruveParams(1.0, 0.5, 1.0), x, pol)

    @given(
        p=st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-1.49, 4.0)),
        x=st.one_of(st.floats(0.0, 60.0, exclude_min=True), st.floats(5e-324, 1e300)),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_k_struve_at_k_and_c_one(self, p, x):
        # H_p and S^1_{p,1} share one series setup, bit for bit
        try:
            value, used = k_struve_info(KStruveParams(1, p, 1), x)
        except ConvergenceError:
            with pytest.raises(ConvergenceError, match="overflow guard|overflows a double"):
                struve_h_info(p, x)
            return
        got, got_used = struve_h_info(p, x)
        assert (got.hex(), got_used) == (value.hex(), used)

    def test_ode_residual(self, tight):
        # central finite differences, h = 1e-4
        h = 1e-4
        for p in (0.0, 1.0):
            for x in (0.5, 1.0, 2.0):
                y0 = struve_h(p, x, tight)
                yp = struve_h(p, x + h, tight)
                ym = struve_h(p, x - h, tight)
                d1 = (yp - ym) / (2 * h)
                d2 = (yp - 2 * y0 + ym) / (h * h)
                rhs = 4 * (x / 2) ** (p + 1) / (math.sqrt(math.pi) * math.gamma(p + 0.5))
                res = x * x * d2 + x * d1 + (x * x - p * p) * y0 - rhs
                assert abs(res) <= 1e-6


class TestKStruve:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            KStruveParams(k=0.0, nu=1.0)
        with pytest.raises(DomainError):
            KStruveParams(k=1.0, nu=-1.6)
        KStruveParams(k=2.0, nu=-2.9)  # nu > -3k/2 = -3 is fine

    def test_zero_argument(self):
        assert k_struve(KStruveParams(k=2.0, nu=1.0), 0.0) == 0.0

    def test_reduces_to_struve(self, tight):
        params = KStruveParams(k=1.0, nu=0.7, c=1.0)
        for x in np.arange(0.1, 5.01, 0.35):
            assert k_struve(params, float(x), tight) == pytest.approx(
                struve_h(0.7, float(x), tight), rel=1e-13
            )

    def test_frozen_value(self, tight):
        params = KStruveParams(k=2.0, nu=1.0, c=1.0)
        assert k_struve(params, 1.0, tight) == pytest.approx(KSTRUVE_K2_NU1_X1, rel=1e-14)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            k_struve(KStruveParams(k=1.0, nu=1.0), -0.5)

    def test_terms_used_reported(self, tight):
        _, used = k_struve_info(KStruveParams(k=1.0, nu=1.0), 0.5, tight)
        assert 1 <= used < tight.max_terms

    def test_c_zero_is_single_term(self):
        # only r = 0 survives: k^-(q+1/2) (x/2)^(q+1) / (Gamma(3/2) Gamma(q+3/2))
        k, nu, x = 2.0, 1.0, 1.5
        q = nu / k
        expect = k ** -(q + 0.5) * (x / 2) ** (q + 1) / (math.gamma(1.5) * math.gamma(q + 1.5))
        value, used = k_struve_info(KStruveParams(k=k, nu=nu, c=0.0), x)
        assert value == pytest.approx(expect, rel=1e-14)
        assert used == 1

    @pytest.mark.parametrize("k,nu,c", [(1.0, 0.7, -1.0), (2.0, 1.0, -0.5), (0.5, -0.4, -1.3)])
    def test_negative_c_is_modified_struve(self, tight, k, nu, c):
        # S^k_{nu,c}(x) = k^-(q+1/2) (k/|c|)^((q+1)/2) L_q(x sqrt(|c|/k)) for c < 0
        import mpmath as mp

        mp.mp.dps = 30
        q = mp.mpf(nu) / k
        for x in (0.3, 1.0, 4.0):
            ref = k ** -(q + 0.5) * (k / mp.mpf(-c)) ** ((q + 1) / 2) * mp.struvel(
                q, x * mp.sqrt(-c / mp.mpf(k))
            )
            assert k_struve(KStruveParams(k=k, nu=nu, c=c), x, tight) == pytest.approx(
                float(ref), rel=1e-13
            )

    @pytest.mark.parametrize("k,nu", [(1.0, -0.5), (2.0, -1.0), (0.5, 0.2)])
    def test_subnormal_argument(self, k, nu):
        # x/2 underflows below the normal range, but for nu/k < 0 the value,
        # about (x/2)^(q+1), does not
        import mpmath as mp

        mp.mp.dps = 30
        params = KStruveParams(k=k, nu=nu)
        q = mp.mpf(nu) / k
        xs = (5e-324, 1.5e-323, 1e-320, 3e-310)
        for x in xs:
            # c = 1: k^-(q+1/2) k^((q+1)/2) H_q(x / sqrt(k))
            ref = k ** -(q + 0.5) * mp.mpf(k) ** ((q + 1) / 2) * mp.struveh(q, x / mp.sqrt(k))
            value, used = k_struve_info(params, x)
            assert value == pytest.approx(float(ref), rel=1e-14)
            assert used == 1
            assert value > 0.0 or q > 0
        np.testing.assert_allclose(
            k_struve(params, np.array(xs)), [k_struve(params, x) for x in xs], rtol=1e-15
        )

    def test_stop_rule_binds_not_max_terms(self):
        # raising max_terms from 50 to 200 must not move the value when
        # rel_tol triggers first
        params = KStruveParams(k=2.0, nu=0.5, c=1.0)
        v50 = k_struve(params, 2.0, TruncationPolicy(max_terms=50))
        v200 = k_struve(params, 2.0, TruncationPolicy(max_terms=200))
        assert v50 == pytest.approx(v200, rel=1e-12)


class TestMittagLeffler:
    def test_exponential_identity(self, tight):
        for z in np.linspace(-3.0, 3.0, 25):
            assert mittag_leffler(1.0, 1.0, float(z), tight) == pytest.approx(
                math.exp(float(z)), rel=1e-12
            )

    def test_cosh_identity(self, tight):
        for z in np.linspace(0.1, 3.0, 12):
            assert mittag_leffler(2.0, 1.0, float(z) ** 2, tight) == pytest.approx(
                math.cosh(float(z)), rel=1e-12
            )

    def test_frozen_value(self, tight):
        assert mittag_leffler(0.5, 1.5, -0.25, tight) == pytest.approx(
            ML_HALF_THREEHALF, rel=1e-14
        )

    def test_pole_reciprocal_is_zero(self, tight):
        # E_{1,0}(z) = z e^z once the n=0 term (1/Gamma(0)) drops out
        assert mittag_leffler(1.0, 0.0, 0.5, tight) == pytest.approx(
            0.5 * math.exp(0.5), rel=1e-12
        )

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, 1.0)

    def test_zero_argument_is_single_term(self):
        assert mittag_leffler_info(0.5, 1.5, 0.0) == (pytest.approx(1 / math.gamma(1.5)), 1)
        # 1/Gamma(-1) = 0
        assert mittag_leffler_info(0.5, -1.0, 0.0) == (0.0, 1)

    def test_stop_rule_binds_not_max_terms(self):
        v50 = mittag_leffler(0.9, 1.0, -0.8, TruncationPolicy(max_terms=50))
        v200 = mittag_leffler(0.9, 1.0, -0.8, TruncationPolicy(max_terms=200))
        assert v50 == pytest.approx(v200, rel=1e-12)

    @given(z=st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_exponential_property(self, z):
        pol = TruncationPolicy(max_terms=200)
        assert mittag_leffler(1.0, 1.0, z, pol) == pytest.approx(math.exp(z), rel=1e-11)


def _abs_term_sum_kstruve(params, x, used):
    """Sum of |term| over the first ``used`` terms of the k-Struve series."""
    q = params.order_ratio
    w = abs(params.c) * x * x / (4.0 * params.k)
    # (x/2)^(q+1) from logs: x/2 underflows at a subnormal x
    half_pow = math.exp((q + 1.0) * (math.log(x) - math.log(2.0))) if x > 0 else 0.0
    pref = params.k ** -(q + 0.5) * half_pow
    return pref * sum(
        w ** r * math.exp(-math.lgamma(r + 1.5) - math.lgamma(r + q + 1.5)) for r in range(used)
    )


def _abs_term_sum_ml(alpha, beta, z, used):
    """Sum of |term| over the first ``used`` terms of E_{alpha,beta}(z); 1/Gamma is 0 at a pole."""
    total = 0.0
    for n in range(used):
        g = alpha * n + beta
        if g <= 0 and g == math.floor(g):
            continue
        total += abs(z) ** n * math.exp(-math.lgamma(g))
    return total


def _assert_matches_scalar(array_out, scalar_out, abs_sums):
    values, used = array_out[:2]
    assert isinstance(values, np.ndarray) and values.shape == used.shape
    eps = np.finfo(float).eps
    for i, ((value, terms), abs_sum) in enumerate(zip(scalar_out, abs_sums)):
        assert used[i] == terms
        assert abs(values[i] - value) <= 16 * eps * abs_sum


class TestArrayPath:
    """The array summer against the scalar loop, node by node."""

    @pytest.mark.parametrize("c", [1.3, -0.7, 0.0])
    @given(
        xs=st.lists(
            st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=25
        ),
        k=st.sampled_from([0.5, 1.0, 2.5]),
        nu=st.floats(min_value=-0.4, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_k_struve_matches_scalar(self, c, xs, k, nu):
        params = KStruveParams(k=k, nu=nu, c=c)
        pol = TruncationPolicy(max_terms=200, rel_tol=1e-16)
        x = np.array(xs)
        scalar = [k_struve_info(params, xi, pol) for xi in xs]
        array = specfun._k_struve_array(params, x, pol)
        _assert_matches_scalar(
            array,
            scalar,
            [_abs_term_sum_kstruve(params, xi, used) for xi, (_, used) in zip(xs, scalar)],
        )
        np.testing.assert_array_equal(k_struve(params, x, pol), array[0])

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 1.0), (0.5, 1.0), (0.5, -1.0)])
    @given(zs=st.lists(st.floats(min_value=-6.0, max_value=6.0), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_mittag_leffler_matches_scalar(self, alpha, beta, zs):
        pol = TruncationPolicy(max_terms=200, rel_tol=1e-16)
        z = np.array(zs)
        scalar = [mittag_leffler_info(alpha, beta, zi, pol) for zi in zs]
        array = specfun._mittag_leffler_array(alpha, beta, z, pol)
        _assert_matches_scalar(
            array,
            scalar,
            [_abs_term_sum_ml(alpha, beta, zi, used) for zi, (_, used) in zip(zs, scalar)],
        )
        np.testing.assert_array_equal(mittag_leffler(alpha, beta, z, pol), array[0])

    def test_spread_stops_match_scalar(self):
        # nodes over seven decades, with z = 0 nodes between them, stop anywhere
        # from term 1 to past term 200; rel_tol = 0 stops only on underflow
        mags = np.logspace(-6.0, 0.8, 40)
        for rel_tol in (1e-16, 0.0):
            pol = TruncationPolicy(max_terms=400, rel_tol=rel_tol)
            z = np.insert(-mags, [0, 7, 23, 40], 0.0)
            scalar = [mittag_leffler_info(1.0, 1.0, zi, pol) for zi in z.tolist()]
            array = specfun._mittag_leffler_array(1.0, 1.0, z, pol)
            abs_sums = [_abs_term_sum_ml(1.0, 1.0, zi, used) for zi, (_, used) in zip(z, scalar)]
            _assert_matches_scalar(array, scalar, abs_sums)
            assert len(set(array[1].tolist())) > 10
            params = KStruveParams(k=1.5, nu=0.7, c=-0.9)
            x = np.insert(mags * 3.0, [0, 11, 40], 0.0)
            scalar = [k_struve_info(params, xi, pol) for xi in x.tolist()]
            array = specfun._k_struve_array(params, x, pol)
            abs_sums = [
                _abs_term_sum_kstruve(params, xi, used) for xi, (_, used) in zip(x, scalar)
            ]
            _assert_matches_scalar(array, scalar, abs_sums)
            assert len(set(array[1].tolist())) > 10

    def test_parked_node_is_inert(self):
        # node 1 stops at term 1 (its factor is 0 there).  It stays parked in the
        # working arrays, four of five live, while its term 2 would have
        # log-magnitude 2 ln(1e200) - ln 2 ~ 920, past the overflow guard
        z = np.array([0.5, 1e200, 0.3, 0.2, 0.1])
        seen = []

        def factor(n, nodes):
            seen.append(nodes.copy())
            return np.where(nodes == 1, 0.0, 1.0) if n else 1.0

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, used, converged = specfun._wright_series_array(
                "test", z, (), ((1.0, 1.0),), TruncationPolicy(), factor=factor
            )
        assert 1 in seen[2] and len(seen[2]) == 5
        assert values[1] == 1.0 and used[1] == 2
        for zi, value, terms in zip(z[[0, 2, 3, 4]], values[[0, 2, 3, 4]], used[[0, 2, 3, 4]]):
            assert (value, terms) == mittag_leffler_info(1.0, 1.0, zi)
        assert converged.all()

    def test_working_set_compacts_at_half(self):
        sizes = []

        def factor(n, nodes):
            sizes.append(nodes.size)
            return 1.0

        pol = TruncationPolicy(max_terms=60)
        z = -np.logspace(-8.0, 0.5, 64)
        values, used = specfun._wright_series_array(
            "test", z, (), ((1.0, 1.0),), pol, factor=factor
        )[:2]
        # live[n]: nodes still summing at term n
        live = [int((used > n).sum()) for n in range(len(sizes))]
        assert sizes[0] == 64 and sizes[-1] < 64
        # some terms park stopped nodes without compacting
        assert any(live[n] < live[n - 1] == sizes[n] for n in range(1, len(sizes)))
        for n in range(1, len(sizes)):
            # every live node is in the working set; it was compacted at term
            # n - 1 exactly when the live count fell to half its length
            assert live[n] <= sizes[n]
            assert (sizes[n] < sizes[n - 1]) == (2 * live[n] <= sizes[n - 1])
            assert sizes[n] in (sizes[n - 1], live[n])
        np.testing.assert_array_equal(values, specfun._mittag_leffler_array(1.0, 1.0, z, pol)[0])

    def test_zero_node_inside_array(self):
        values, used = specfun._k_struve_array(
            KStruveParams(k=2.0, nu=1.0), np.array([0.5, 0.0, 1.0]), TruncationPolicy()
        )
        assert values[1] == 0.0 and used[1] == 1
        assert values[0] == pytest.approx(k_struve(KStruveParams(k=2.0, nu=1.0), 0.5), rel=1e-14)

    def test_zero_argument_at_denominator_pole(self):
        # E_{0.5,-1}(0) = 1/Gamma(-1) = 0 after one term
        values, used, _ = specfun._mittag_leffler_array(
            0.5, -1.0, np.array([0.3, 0.0]), TruncationPolicy()
        )
        assert values[1] == 0.0 and used[1] == 1
        assert values[0] == pytest.approx(mittag_leffler(0.5, -1.0, 0.3), rel=1e-14)

    def test_negative_node_rejected(self):
        with pytest.raises(DomainError):
            k_struve(KStruveParams(k=1.0, nu=1.0), np.array([0.5, -0.5]))

    def test_numerator_pole_rejected(self):
        with pytest.raises(DomainError):
            specfun._wright_series_array(
                "test", np.array([0.5]), ((-2.0, 1.0),), ((1.0, 1.0),), TruncationPolicy()
            )

    def test_overflow_guard_on_one_node(self):
        # term 2 of e^z at z = 1e300 has log-magnitude ~1381
        with pytest.raises(ConvergenceError):
            mittag_leffler(1.0, 1.0, 1e300)
        with pytest.raises(ConvergenceError):
            mittag_leffler(1.0, 1.0, np.array([0.5, -1.0, 1e300, 2.0]))

    @pytest.mark.parametrize("max_terms", [1, 50])
    def test_overflowing_kstruve_argument_raises(self, max_terms):
        # -c (x/2)^2 / k overflows at the second node; it used to give NaN
        # there, with two numpy RuntimeWarnings (errors under this suite's filter)
        x = np.array([1.0, 1e300])
        with pytest.raises(ConvergenceError, match="overflows a double at x = 1e\\+300"):
            specfun._k_struve_array(KStruveParams(1, 0.5, 1), x, TruncationPolicy(max_terms))

    @pytest.mark.parametrize("x", [3e154, 1e300])
    def test_scalar_and_array_overflow_messages_agree(self, x):
        params = KStruveParams(1, 0.5, 1)
        with pytest.raises(ConvergenceError) as scalar:
            k_struve_info(params, x)
        with pytest.raises(ConvergenceError) as array:
            specfun._k_struve_array(params, np.array([1.0, x]), TruncationPolicy())
        assert str(scalar.value) == str(array.value)

    def test_nan_log_magnitude_trips_the_guard(self):
        # an infinite log|z| makes term 0's log-magnitude 0 * inf = NaN; the
        # closed form sums with numpy's invalid-value warnings off, as here
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConvergenceError, match="term 0 has log-magnitude nan"):
                specfun._wright_series_array(
                    "test", np.array([0.5, 2.0]), (), ((1.0, 1.0),),
                    TruncationPolicy(max_terms=1), log_abs_z=np.array([0.0, math.inf]),
                )

    def test_non_vector_rejected(self):
        with pytest.raises(DomainError):
            mittag_leffler(1.0, 1.0, np.ones((2, 2)))
        with pytest.raises(DomainError):
            mittag_leffler(1.0, 1.0, np.array([0.5, np.nan]))


def _image_series_terms(q, z, count):
    """The first terms z^n Gamma(q+2+2n) / (Gamma(q+1.5+n) Gamma(1.5+n)) of the image series."""
    return [
        z ** n
        * math.exp(math.lgamma(q + 2.0 + 2 * n) - math.lgamma(q + 1.5 + n) - math.lgamma(1.5 + n))
        for n in range(count)
    ]


def _image_series_mpmath(q, z):
    import mpmath as mp

    mp.mp.dps = 30
    q = mp.mpf(q)
    return float(
        mp.nsum(
            lambda n: mp.mpf(z) ** n
            * mp.gamma(q + 2 + 2 * n)
            / (mp.gamma(q + 1.5 + n) * mp.gamma(1.5 + n)),
            [0, mp.inf],
        )
    )


class TestFoxWright:
    def test_empty_is_exponential(self, tight):
        w = WrightParams(upper=(), lower=())
        for z in (-2.0, -0.3, 0.0, 1.3):
            assert fox_wright(w, z, tight) == pytest.approx(math.exp(z), rel=1e-13)

    def test_matches_mittag_leffler(self, tight):
        # 0Psi1 with lower (beta, alpha) and the n! cancelled by upper (1,1)
        alpha, beta = 0.7, 1.2
        w = WrightParams(upper=((1.0, 1.0),), lower=((beta, alpha),))
        for z in (-1.0, 0.4, 2.0):
            assert fox_wright(w, z, tight) == pytest.approx(
                mittag_leffler(alpha, beta, z, tight), rel=1e-12
            )

    def test_zero_argument_is_single_term(self):
        w = WrightParams(upper=((2.5, 2.0),), lower=((1.5, 1.0),))
        value, used = fox_wright_info(w, 0.0)
        assert value == pytest.approx(math.gamma(2.5) / math.gamma(1.5), rel=1e-15)
        assert used == 1
        # a pole of a denominator Gamma zeroes the only term
        pole = WrightParams(upper=((1.0, 1.0),), lower=((-1.0, 0.5),))
        assert fox_wright_info(pole, 0.0) == (0.0, 1)

    def test_divergent_params_rejected(self):
        with pytest.raises(DomainError):
            WrightParams(upper=((1.0, 2.0), (1.0, 1.5)), lower=((1.0, 1.0),))

    def test_nonpositive_step_rejected(self):
        with pytest.raises(DomainError):
            WrightParams(upper=((1.0, 0.0),), lower=())

    @pytest.mark.parametrize(
        "upper,lower",
        [
            (((math.nan, 1.0),), ()),  # once a raw ValueError
            ((), ((-math.inf, 1.0),)),  # once a raw OverflowError
            ((), ((math.inf, 1.0),)),  # once a silent (0.0, 50)
        ],
    )
    def test_nonfinite_offset_rejected(self, upper, lower):
        with pytest.raises(DomainError, match="offsets must be finite"):
            WrightParams(upper=upper, lower=lower)

    def test_numerator_pole_rejected(self, tight):
        w = WrightParams(upper=((-2.0, 1.0),), lower=((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(DomainError):
            fox_wright(w, 0.5, tight)

    def test_borderline_radius_enforced(self):
        # the image-series parameters have delta == 0 and radius 1/4
        w = WrightParams(
            upper=((3.0, 2.0), (1.0, 1.0)), lower=((2.5, 1.0), (1.5, 1.0))
        )
        assert w.delta == 0.0
        assert w.radius == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(DomainError):
            fox_wright(w, -0.3)

    @pytest.mark.parametrize("max_terms", [1, 2])
    def test_short_window_is_not_accelerated(self, max_terms):
        # one or two terms bound nothing: the partial sum stands as a budget stop
        w = WrightParams(upper=((3.0, 2.0), (1.0, 1.0)), lower=((2.5, 1.0), (1.5, 1.0)))
        z = -0.1
        terms = [
            z ** n * math.gamma(3.0 + 2 * n) / (math.gamma(2.5 + n) * math.gamma(1.5 + n))
            for n in range(max_terms)
        ]
        value, used = fox_wright_info(w, z, TruncationPolicy(max_terms=max_terms))
        assert used == max_terms
        assert value == pytest.approx(sum(terms), rel=1e-14)

    @pytest.mark.parametrize("max_terms,z", [(3, -0.1), (10, -0.25), (20, -0.25)])
    def test_short_window_near_radius_is_accelerated(self, max_terms, z):
        # near the radius the plain partial sum stalls; CVZ on the same window
        # gets closer to the mpmath value
        q = 1.0
        w = WrightParams(upper=((q + 2.0, 2.0), (1.0, 1.0)), lower=((q + 1.5, 1.0), (1.5, 1.0)))
        exact = _image_series_mpmath(q, z)
        plain = math.fsum(_image_series_terms(q, z, max_terms))
        value, used = fox_wright_info(w, z, TruncationPolicy(max_terms=max_terms))
        assert used == max_terms
        assert abs(value - exact) < abs(plain - exact)

    @pytest.mark.parametrize("max_terms", [3, 10])
    def test_fast_window_keeps_partial_sum(self, max_terms):
        # far inside the radius the partial sum is already closer than the
        # CVZ bound 2 b_0 / 5.83^n, so it stands as a budget stop
        q = 1.0
        z = -0.01
        w = WrightParams(upper=((q + 2.0, 2.0), (1.0, 1.0)), lower=((q + 1.5, 1.0), (1.5, 1.0)))
        terms = _image_series_terms(q, z, max_terms)
        value, used = fox_wright_info(w, z, TruncationPolicy(max_terms=max_terms))
        assert used == max_terms
        assert value == pytest.approx(sum(terms), rel=1e-14)
        exact = _image_series_mpmath(q, z)
        cvz = specfun._cvz_alternating([abs(t) for t in terms])
        assert abs(value - exact) < abs(cvz - exact)

    @pytest.mark.parametrize(
        "q,z,expect",
        [
            (0.0, -0.25, 0.7935150210236566),
            (0.0, -0.24, 0.8047721534133291),
            (1.0, -0.249, 0.9610751129204328),
            (1.0, -0.22, 1.010881515653568),
            (2.5, -0.25, 1.0515329923092929),
            (2.5, -0.24, 1.0746855564402893),
        ],
    )
    def test_default_policy_radius_cases(self, q, z, expect):
        # frozen from the default policy before the window check; 50 terms
        # pass it, so these values are still accelerated
        w = WrightParams(upper=((q + 2.0, 2.0), (1.0, 1.0)), lower=((q + 1.5, 1.0), (1.5, 1.0)))
        value, used = fox_wright_info(w, z)
        assert used == 50
        assert value == pytest.approx(expect, rel=1e-14)

    def test_boundary_acceleration(self):
        # frozen mpmath nsum value of the image series at the convergence radius
        w = WrightParams(
            upper=((3.0, 2.0), (1.0, 1.0)), lower=((2.5, 1.0), (1.5, 1.0))
        )
        v = fox_wright(w, -0.25, TruncationPolicy(max_terms=50))
        assert v == pytest.approx(PSI22_BOUNDARY, rel=1e-12)

    @pytest.mark.parametrize(
        "q,z,expect",
        [
            (0.0, -0.25, "0x1.964799d05cdaep-1"),
            (1.0, -0.25, "0x1.eb3ce7d1b88e6p-1"),
            (2.5, -0.25, "0x1.0d314424a228ap+0"),
            (1.0, -0.2499, "0x1.eb522f4a2a5b2p-1"),
        ],
    )
    def test_accelerated_values_are_frozen(self, q, z, expect):
        # the CVZ branch resums terms rebuilt after the loop; frozen bit for
        # bit from the loop that collected them as it summed, cold and warm
        w = WrightParams(upper=((q + 2.0, 2.0), (1.0, 1.0)), lower=((q + 1.5, 1.0), (1.5, 1.0)))
        specfun._ratio_tables.clear()
        for _ in range(2):
            value, used = fox_wright_info(w, z)
            assert (value.hex(), used) == (expect, 50)

    @pytest.mark.parametrize(
        "upper,lower",
        [
            (((3.0, 2.0), (1.0, 1.0)), ((2.5, 1.0), (1.5, 1.0))),
            (((0.5, 0.7),), ((1.5, 0.3), (-1.0, 1.2))),
            ((), ()),
        ],
    )
    def test_cached_properties_match_formulas(self, upper, lower):
        w = WrightParams(upper=upper, lower=lower)
        delta = 1.0 + sum(B for _, B in lower) - sum(A for _, A in upper)
        assert w.delta == delta
        if delta > 0:
            assert w.radius == math.inf
        else:
            log_r = sum(B * math.log(B) for _, B in lower) - sum(A * math.log(A) for _, A in upper)
            assert w.radius == math.exp(log_r)
        assert w.series_lower == w.lower + ((1.0, 1.0),)
        # cached once: the same objects on every read
        assert w.series_lower is w.series_lower

    def test_cache_leaves_equality_and_hash_alone(self):
        upper, lower = ((3.0, 2.0), (1.0, 1.0)), ((2.5, 1.0), (1.5, 1.0))
        read, fresh = WrightParams(upper, lower), WrightParams(upper, lower)
        read.radius, read.series_lower  # fill the caches of one instance only
        assert read == fresh and hash(read) == hash(fresh)
        assert hash(read) == hash((read.upper, read.lower))
        assert repr(read) == repr(fresh)
        assert {read: 1}[fresh] == 1
        assert read != WrightParams(upper, ((2.5, 1.0), (1.5, 1.1)))


def _reference_series(what, z, upper, lower, pol, log_pref=0.0):
    """The series loop with no ratio table: every term calls _term_gamma_ratio."""
    log_abs_z = math.log(abs(z)) if z != 0.0 else 0.0
    z_sign = -1.0 if z < 0 else 1.0
    total = carry = 0.0
    used = 0
    for n in range(pol.max_terms if z != 0.0 else 1):
        used = n + 1
        g_sign, log_ratio = specfun._term_gamma_ratio(n, upper, lower)
        if g_sign == 0.0:
            continue
        log_mag = log_pref + n * log_abs_z + log_ratio
        if not log_mag <= 700.0:
            raise ConvergenceError(
                f"{what}: term {n} has log-magnitude {float(log_mag)!r} "
                "exceeding the overflow guard 700"
            )
        term = z_sign ** n * g_sign * math.exp(log_mag)
        compensated = term + carry
        previous = total
        total += compensated
        carry = compensated - (total - previous)
        if total != 0.0:
            if abs(term) <= pol.rel_tol * abs(total):
                break
        # a 0 sum stops where no later term can be nonzero: no upper pairs, every
        # lower argument positive, the term past exp's range and the next one smaller
        elif (not upper and all(b + B * n > 0 for b, B in lower)
              and log_mag < math.log(math.ulp(0.0)) - 1.0
              and log_abs_z < log_ratio - specfun._term_gamma_ratio(n + 1, upper, lower)[1]):
            break
    return total, used


def _outcome(fn, args, pol):
    """The bits and terms of a kernel call, or the type and message of its error."""
    try:
        value, used = fn(*args, pol)
    except (DomainError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return float(value).hex(), used


_POLICIES = [
    TruncationPolicy(),
    TruncationPolicy(max_terms=200, rel_tol=0.0),
    TruncationPolicy(max_terms=7),
]
# integers among the orders put poles into the lower Gammas
_orders = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), st.floats(-3.0, 4.0))
_steps = st.floats(0.2, 1.5)
_kernel_calls = st.one_of(
    st.builds(
        lambda p, x: (struve_h_info, (p, x)),
        st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-1.4, 4.0)),
        st.floats(-40.0, 40.0),
    ),
    st.builds(
        lambda k, ratio, c, x: (k_struve_info, (KStruveParams(k, ratio * k, c), x)),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        st.floats(-1.45, 3.0),
        st.one_of(st.sampled_from([1.0, -1.0, 0.0]), st.floats(-2.0, 2.0)),
        st.floats(0.0, 50.0),
    ),
    st.builds(
        lambda alpha, beta, z: (mittag_leffler_info, (alpha, beta, z)),
        st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.2, 3.0)),
        _orders,
        st.floats(-35.0, 10.0),
    ),
    # at most one upper pair, with A <= 1, keeps delta = 1 + sum(B) - A >= 0,
    # so WrightParams accepts every draw; a borderline draw outside its
    # radius raises DomainError, compared like any other outcome
    st.builds(
        lambda upper, lower, z: (fox_wright_info, (WrightParams(upper, lower), z)),
        st.lists(st.tuples(_orders, st.floats(0.2, 1.0)), max_size=1),
        st.lists(st.tuples(_orders, _steps), max_size=2),
        st.floats(-20.0, 5.0),
    ),
    # arguments of 1e8 to 1e40 trip the overflow guard mid-series, from term
    # 3 up (or end on a budget stop first)
    st.builds(
        lambda p, e: (struve_h_info, (p, 10.0**e)),
        st.floats(-1.4, 4.0),
        st.floats(8.0, 40.0),
    ),
    st.builds(
        lambda alpha, e, sign: (mittag_leffler_info, (alpha, 1.0, sign * 10.0**e)),
        st.floats(0.5, 2.0),
        st.floats(8.0, 40.0),
        st.sampled_from([1.0, -1.0]),
    ),
)


class TestRatioTable:
    """The per-parameter-set Gamma-ratio cache of the series loops."""

    @given(case=_kernel_calls, pol=st.sampled_from(_POLICIES))
    @settings(max_examples=400, deadline=None)
    def test_cold_warm_and_reference_agree(self, case, pol):
        fn, args = case
        specfun._ratio_tables.clear()
        cold = _outcome(fn, args, pol)
        if cold[0] in (DomainError, ConvergenceError):  # a call that raises publishes nothing
            assert not specfun._ratio_tables
        warm = _outcome(fn, args, pol)
        with mock.patch.object(specfun, "_wright_series", _reference_series):
            reference = _outcome(fn, args, pol)
        assert cold == warm == reference

    def test_tables_are_keyed_on_both_sides(self):
        # the same lower pairs with and without an upper pair, and the same
        # pairs as upper and as lower, are three parameter sets
        sets = [
            WrightParams(upper=((0.5, 0.5),), lower=((1.5, 1.0),)),
            WrightParams(upper=(), lower=((1.5, 1.0),)),
            WrightParams(upper=((1.5, 1.0),), lower=((0.5, 0.5),)),
        ]
        pol = TruncationPolicy(max_terms=200)
        with mock.patch.object(specfun, "_wright_series", _reference_series):
            expected = [_outcome(fox_wright_info, (w, -1.5), pol) for w in sets]
        specfun._ratio_tables.clear()
        for _ in range(2):
            assert [_outcome(fox_wright_info, (w, -1.5), pol) for w in sets] == expected
        assert len(specfun._ratio_tables) == 3

    def test_float32_parameters_sum_in_double(self):
        # an equal float32 key must not sum its table's rows in float32
        p, alpha = np.float32(0.3), np.float32(0.7)
        for _ in range(2):
            assert struve_h(p, 2.0) == struve_h(float(p), 2.0)
            assert mittag_leffler(alpha, 1.0, -1.5) == mittag_leffler(float(alpha), 1.0, -1.5)

    def test_lower_pole_rows_are_cached(self):
        # E_{1,-1}(z) = z^2 e^z: 1/Gamma is 0 at the first two terms
        specfun._ratio_tables.clear()
        for _ in range(2):
            value, used = mittag_leffler_info(1.0, -1.0, 0.5)
            assert value == pytest.approx(0.25 * math.exp(0.5), rel=1e-14)
        rows = specfun._ratio_tables[((), ((-1.0, 1.0),), False)]
        assert len(rows) == used
        assert rows[:2] == ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    def test_upper_pole_raises_at_its_term_every_call(self):
        # Gamma(-2.5 + n/2) has its first pole at n = 1
        w = WrightParams(upper=((-2.5, 0.5),), lower=((1.0, 1.0),))
        specfun._ratio_tables.clear()
        for _ in range(3):
            with pytest.raises(DomainError) as info:
                fox_wright_info(w, 0.5)
            assert str(info.value) == "Gamma pole in a numerator factor at term 1: argument -2.0"
        # one term stops short of the pole; its row is cached and the pole still raises
        value, used = fox_wright_info(w, 0.5, TruncationPolicy(max_terms=1))
        assert (value, used) == (pytest.approx(math.gamma(-2.5), rel=1e-14), 1)
        assert len(specfun._ratio_tables[(w.upper, w.lower + ((1.0, 1.0),), False)]) == 1
        with pytest.raises(DomainError, match="at term 1: argument -2.0"):
            fox_wright_info(w, 0.5)

    def test_short_table_serves_a_longer_call(self):
        # E_{0.3,0.7}(-2) is still summing at term 200, so both calls use every term
        alpha, beta, z = 0.3, 0.7, -2.0
        key = ((), ((beta, alpha),), True)
        short = TruncationPolicy(max_terms=50, rel_tol=0.0)
        long = TruncationPolicy(max_terms=200, rel_tol=0.0)
        specfun._ratio_tables.clear()
        assert mittag_leffler_info(alpha, beta, z, short)[1] == 50
        assert len(specfun._ratio_tables[key]) == 50
        got = mittag_leffler_info(alpha, beta, z, long)
        assert len(specfun._ratio_tables[key]) == 200
        with mock.patch.object(specfun, "_wright_series", _reference_series):
            assert got == mittag_leffler_info(alpha, beta, z, long)
        # the array loop reads the z >= 0 table: a short one serves its
        # longer call too, which gives its cold result
        nodes = np.array([z, -0.5, 0.0])
        specfun._mittag_leffler_array(alpha, beta, nodes, short)
        assert len(specfun._ratio_tables[key[:2] + (False,)]) == 50
        warm = specfun._mittag_leffler_array(alpha, beta, nodes, long)
        assert len(specfun._ratio_tables[key[:2] + (False,)]) == 200
        specfun._ratio_tables.clear()
        cold = specfun._mittag_leffler_array(alpha, beta, nodes, long)
        assert warm[0].tobytes() == cold[0].tobytes()
        assert warm[1].tolist() == cold[1].tolist()

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(["negative", "zero", "positive", "array"]))
    )
    def test_signs_of_z_share_no_rows(self, order):
        # the rows of z < 0 flip the odd terms' signs, and Gamma(-0.4 + 0.7 n)
        # < 0 at n = 0 mixes the ratios' own; each call reaches past or stops
        # short of the tables the calls before it grew
        alpha, beta = 0.7, -0.4
        scalar = {
            "negative": (-1.7, TruncationPolicy(max_terms=40, rel_tol=0.0)),
            "zero": (0.0, TruncationPolicy(max_terms=60, rel_tol=0.0)),
            "positive": (1.3, TruncationPolicy(max_terms=25, rel_tol=0.0)),
        }
        nodes = np.array([-1.7, 0.0, 1.3, -0.4])
        array_pol = TruncationPolicy(max_terms=55, rel_tol=0.0)
        with mock.patch.object(specfun, "_wright_series", _reference_series):
            expected = {k: mittag_leffler_info(alpha, beta, *call) for k, call in scalar.items()}
        specfun._ratio_tables.clear()
        values, used, _ = specfun._mittag_leffler_array(alpha, beta, nodes, array_pol)
        expected["array"] = values.tobytes(), used.tolist()
        specfun._ratio_tables.clear()
        for _ in range(2):
            for kind in order:
                if kind == "array":
                    values, used, _ = specfun._mittag_leffler_array(alpha, beta, nodes, array_pol)
                    assert (values.tobytes(), used.tolist()) == expected[kind]
                else:
                    assert mittag_leffler_info(alpha, beta, *scalar[kind]) == expected[kind]

    @pytest.mark.parametrize("order", list(itertools.permutations(["radius", "zero", "positive"])))
    def test_borderline_rebuild_reads_its_own_sign(self, order):
        # the CVZ branch at z = -radius rebuilds its terms from the z < 0 rows;
        # rows of z > 0 would not alternate, and the plain partial sum would stay
        w = WrightParams(upper=((3.0, 2.0), (1.0, 1.0)), lower=((2.5, 1.0), (1.5, 1.0)))
        args = {"radius": -w.radius, "zero": 0.0, "positive": 0.2}
        pol = TruncationPolicy(max_terms=50)
        specfun._ratio_tables.clear()
        with mock.patch.object(specfun, "_wright_series", _reference_series):
            expected = {k: fox_wright_info(w, z, pol) for k, z in args.items()}
        assert expected["radius"] == (pytest.approx(PSI22_BOUNDARY, rel=1e-12), 50)
        for _ in range(2):
            for kind in order:
                assert fox_wright_info(w, args[kind], pol) == expected[kind]

    def test_ratio_rows_read_the_published_rows_then_compute_the_rest(self):
        # E_{1,-2}: 1/Gamma is 0 at n = 0, 1 and 2, and z < 0 makes n = 1's sign -0.0
        lower = ((-2.0, 1.0),)
        key = ((), lower, True)

        def hexes(rows):
            return [tuple(map(float.hex, row)) for row in rows]

        def check(count):
            expected = [specfun._ratio_row(n, (), lower, True) for n in range(count)]
            assert hexes(specfun._ratio_rows(count, (), lower, True)) == hexes(expected)

        specfun._ratio_tables.clear()
        check(9)
        assert key not in specfun._ratio_tables  # the reader publishes nothing
        mittag_leffler_info(1.0, -2.0, -0.5, TruncationPolicy(max_terms=5, rel_tol=0.0))
        for count in (3, 5, 12):  # inside, at the end of and past the published table
            check(count)
        assert len(specfun._ratio_tables[key]) == 5
        cap = specfun._RATIO_ROW_CAP
        mittag_leffler_info(1.0, -2.0, -30.0, TruncationPolicy(max_terms=cap + 40, rel_tol=0.0))
        assert len(specfun._ratio_tables[key]) == cap
        check(cap + 7)

    def test_cache_is_bounded(self):
        specfun._ratio_tables.clear()
        cap = specfun._RATIO_TABLE_CAP
        for i in range(cap + 100):
            mittag_leffler(1.0, 1.0 + i / 4096, 0.5)
            assert len(specfun._ratio_tables) <= cap
        assert ((), ((1.0 + (cap + 99) / 4096, 1.0),), False) in specfun._ratio_tables
        # a long call computes every row but publishes at most the row cap
        value, used = mittag_leffler_info(0.3, 0.7, -2.0, TruncationPolicy(max_terms=300, rel_tol=0.0))
        assert used == 300
        assert len(specfun._ratio_tables[((), ((0.7, 0.3),), True)]) == specfun._RATIO_ROW_CAP

    def test_threads_share_a_fresh_table(self):
        # each round, 4 threads start one fresh parameter set together, so
        # its rows are grown and read at the same time; a short switch
        # interval interleaves them term by term
        sets = [WrightParams(upper=((0.3 + j / 64, 0.7),), lower=((-0.5, 1.3),)) for j in range(24)]
        pol = TruncationPolicy(max_terms=120, rel_tol=0.0)
        specfun._ratio_tables.clear()
        expected = [_outcome(fox_wright_info, (w, -0.9), pol) for w in sets]
        specfun._ratio_tables.clear()
        barrier = threading.Barrier(4)

        def work(_):
            got = []
            for w in sets:
                barrier.wait()
                got.append(_outcome(fox_wright_info, (w, -0.9), pol))
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(work, range(4)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4
