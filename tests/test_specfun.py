import math

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

    def test_negative_x_integer_order_parity(self, tight):
        # H_p(-x) = (-1)^(p+1) H_p(x) for integer p
        assert struve_h(0.0, -1.0, tight) == pytest.approx(-STRUVE_0_1, rel=1e-14)
        assert struve_h(1.0, -2.0, tight) == pytest.approx(STRUVE_1_2, rel=1e-14)

    def test_order_domain(self):
        with pytest.raises(DomainError):
            struve_h(-1.5, 1.0)

    def test_overflow_guard(self):
        with pytest.raises(ConvergenceError):
            struve_h(0.0, 1.0, TruncationPolicy(overflow_guard=-10.0))

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
    values, used = array_out
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

    def test_zero_node_inside_array(self):
        values, used = specfun._k_struve_array(
            KStruveParams(k=2.0, nu=1.0), np.array([0.5, 0.0, 1.0]), TruncationPolicy()
        )
        assert values[1] == 0.0 and used[1] == 1
        assert values[0] == pytest.approx(k_struve(KStruveParams(k=2.0, nu=1.0), 0.5), rel=1e-14)

    def test_zero_argument_at_denominator_pole(self):
        # E_{0.5,-1}(0) = 1/Gamma(-1) = 0 after one term
        values, used = specfun._mittag_leffler_array(
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
