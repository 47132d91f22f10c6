"""Unit tests for the special-function layer.

Reference values were computed with mpmath at 60 to 120 digits, forming every
Gamma argument in arbitrary precision (never in float64: per-coefficient
argument rounding is amplified by the peak term of the cancelled series).
Closed forms cross-check the reference where one exists: E_{1/2}(-x) equals
exp(x^2) erfc(x), and the beta = 1/2 stable and inverse-stable densities are
Levy and half-normal respectively.  The densities are a positive quadrature
in the library; their in-test references are the alternating Wright series
summed in mpmath, which shares nothing with it.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fracppk.specfun
from fracppk import (
    DomainError,
    GridFunction,
    GridTooCoarse,
    NonConvergence,
    SeriesControl,
    caputo_derivative,
    inv_stable_density,
    mittag_leffler,
    ml_derivative,
    ml_derivatives,
    prabhakar_ml,
    stable_density,
    tempered_caputo_derivative,
)

# Frozen oracles: (a, b, z) -> E_a,b(z), mpmath 60 digits, exact arguments.
ML_ORACLE = [
    (0.5, 1.0, -1.7, 0.29166329707534347),  # = exp(1.7^2) erfc(1.7)
    (0.5, 1.0, -5.0, 0.11070463773306863),  # = exp(25) erfc(5)
    (0.7, 1.0, -2.0, 0.21378672701529727),
    (0.3, 1.0, -1.5, 0.35538165657360314),
    (0.9, 2.0, -3.0, 0.3095766951912586),
]

# (n, beta, z) -> d^n/dz^n E_beta(z), mpmath 120 to 300 digits, where the
# power series cancels hardest at orders 20, 40, 60; order 40 was
# additionally confirmed by a 512-point Cauchy circle average.
MLD_ORACLE = [
    (3, 0.5, -4.0, 0.010087092460476687),
    (5, 0.7, -6.0, 0.0012904514399480764),
    (10, 0.7, -6.0, 0.003262375902543469),
    (20, 0.7, -6.0, 2.0388545884621387),
    (40, 0.7, -6.0, 1429393172.6871628),
    (60, 0.7, -6.0, 1.1804487162755709e20),
]

# (n, beta, x) -> E_beta^(n)(-x) = E[M^n e^(-x M)], mpmath 60 digits: the
# power series for beta >= 0.6, where it converges at these x, and for
# beta <= 0.5 the Hankel contour collapsed onto the cut,
# n! / (pi beta) int_0^inf exp(-y^(1/beta)) Im[e^(i pi beta) (y e^(i pi beta) + x)^-(n+1)] dy.
# The float series refuses or is off by up to 3.5e-10 at several of them.
ML_RULE_ORACLE = [
    (60, 0.05, 0.5, 7.600719160458282e+70),
    (7, 0.05, 13.4, 2.692473440098162e-06),
    (0, 0.05, 50.0, 0.019022861277082137),
    (40, 0.05, 40.0, 6.140446839413897e-19),
    (60, 0.3, 0.5, 9.580433811540413e+60),
    (7, 0.3, 13.4, 2.5614922738579603e-06),
    (0, 0.3, 50.0, 0.015228201501814696),
    (40, 0.3, 40.0, 6.499575978144926e-19),
    (60, 0.5, 0.5, 1.4490885795025402e+47),
    (7, 0.5, 13.4, 2.4807500119142264e-06),
    (0, 0.5, 50.0, 0.011281536265323773),
    (40, 0.5, 40.0, 7.299218223926314e-19),
    (60, 0.7, 0.5, 6.657417270600573e+29),
    (7, 0.7, 13.4, 2.3648986164773523e-06),
    (0, 0.7, 50.0, 0.006793665670383094),
    (40, 0.7, 40.0, 9.192797660160552e-19),
    (60, 0.9, 0.5, 15749250563.722643),
    (7, 0.9, 13.4, 1.994736086664278e-06),
    (0, 0.9, 50.0, 0.002175353076856976),
    (40, 0.9, 40.0, 1.748158093668489e-18),
    (60, 0.95, 0.5, 107796.36741307974),
    (7, 0.95, 13.4, 1.7835043858259699e-06),
    (0, 0.95, 50.0, 0.001067234039220843),
    (40, 0.95, 40.0, 2.634694522307928e-18),
    (60, 0.99, 0.5, 6.90662821717315),
    (7, 0.99, 13.4, 1.5701619315961423e-06),
    (0, 0.99, 50.0, 0.0002095764990060077),
    (40, 0.99, 40.0, 3.917891212851498e-18),
]


def _levy(x):
    """The beta = 1/2 stable density at t = 1."""
    return 1.0 / (2.0 * math.sqrt(math.pi)) * x**-1.5 * math.exp(-1.0 / (4.0 * x))


def _wright_reference(beta, y):
    """``W(-beta, 0; -y) = sum_k (-1)^(k+1) Gamma(beta k + 1)/k! y^k sin(pi beta k)/pi``
    in mpmath: digits sized to the peak term with 100 to spare, summed past
    the envelope peak until the envelope is 1e-30 of the running sum."""

    def log_env(k):
        return math.lgamma(beta * k + 1.0) - math.lgamma(k + 1.0) + k * math.log(y)

    k_peak = 1
    while log_env(k_peak + 1) >= log_env(k_peak):  # the log envelope is concave in k
        k_peak += 1
    peak = log_env(k_peak)
    with mp.workdps(100 + max(0, int(peak / math.log(10.0)))):
        b, yy = mp.mpf(beta), mp.mpf(y)
        total = mp.mpf(0)
        for k in range(1, 1_000_000):
            env = mp.gamma(b * k + 1) / mp.factorial(k) * yy**k
            total += (1 if k % 2 else -1) * env * mp.sinpi(b * k)
            if k > k_peak and env < mp.mpf(10) ** -30 * abs(total):
                return float(total / mp.pi)
    raise RuntimeError("reference series did not converge")


class TestMittagLeffler:
    @pytest.mark.parametrize("a,b,z,expected", ML_ORACLE)
    def test_oracle_values(self, a, b, z, expected):
        got = mittag_leffler(a, b, z)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_exponential_at_beta_one(self):
        for z in np.linspace(-8.0, 4.0, 13):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_value_at_zero_is_recip_gamma(self):
        assert mittag_leffler(0.7, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert mittag_leffler(0.7, 2.5, 0.0) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-14)

    def test_monotone_decreasing_on_negative_axis(self):
        vals = [mittag_leffler(0.6, 1.0, -z) for z in np.linspace(0.0, 10.0, 21)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.7, 1.0, -80.0)  # beyond the admissible window

    def test_capacity_limit_raises(self):
        # At beta = 0.3 the peak term near z = -50 is exp(50^(1/0.3)), far
        # past anything escalation can absorb; the evaluator must refuse
        # rather than return noise.
        with pytest.raises(NonConvergence):
            mittag_leffler(0.3, 1.0, -50.0)


class TestPrabhakar:
    def test_oracle_value(self):
        got = prabhakar_ml(0.5, 1.0, 2.0, -1.2)
        assert got == pytest.approx(0.11467017717083503, rel=1e-12)

    def test_c_one_reduces_to_mittag_leffler(self):
        for z in (-4.0, -1.3, 0.0, 0.8):
            assert prabhakar_ml(0.7, 1.0, 1.0, z) == pytest.approx(
                mittag_leffler(0.7, 1.0, z), rel=1e-12
            )

    def test_c_zero_collapses_to_recip_gamma(self):
        assert prabhakar_ml(0.5, 1.5, 0.0, -3.0) == pytest.approx(
            1.0 / math.gamma(1.5), rel=1e-14
        )

    def test_rejects_negative_c(self):
        with pytest.raises(DomainError):
            prabhakar_ml(0.5, 1.0, -1.0, -1.0)


class TestMlDerivative:
    @pytest.mark.parametrize(
        "n,beta,z,expected", MLD_ORACLE + [(n, beta, -x, value) for n, beta, x, value in ML_RULE_ORACLE]
    )
    def test_oracle_values(self, n, beta, z, expected):
        got = ml_derivative(n, beta, z)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_order_zero_is_the_function(self):
        for z in (-6.0, -2.0, -0.5):
            assert ml_derivative(0, 0.7, z) == pytest.approx(
                mittag_leffler(0.7, 1.0, z), rel=1e-12
            )

    def test_at_zero_closed_form(self):
        for n in (0, 1, 4, 9):
            expected = math.gamma(n + 1.0) / math.gamma(0.7 * n + 1.0)
            assert ml_derivative(n, 0.7, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_matches_finite_difference(self):
        # First derivative against a central difference of the function.
        # h trades truncation error against float64 rounding in the
        # difference quotient, which is ~1e-15 / (2h) in absolute terms.
        h = 1e-5
        for z in (-3.0, -1.0, 0.5):
            fd = (mittag_leffler(0.7, 1.0, z + h) - mittag_leffler(0.7, 1.0, z - h)) / (2 * h)
            assert ml_derivative(1, 0.7, z) == pytest.approx(fd, rel=1e-6)

    def test_positive_on_negative_axis(self):
        # E_beta(-x) is completely monotone, so every derivative of E_beta
        # is positive at negative arguments; the power series summed in
        # float64 gives the high orders the wrong sign and magnitude.
        for beta in (0.4, 0.6, 0.8):
            for n in range(0, 41, 5):
                for z in (-8.0, -4.0, -1.0):
                    assert ml_derivative(n, beta, z) > 0.0

    def test_beta_one_derivatives_are_exp(self):
        for n in (0, 3, 7):
            assert ml_derivative(n, 1.0, -2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_many_orders_match_single_orders(self):
        # one shared pass serves every order; each result must still be the
        # single-order value
        orders = list(range(0, 41, 3))
        for beta, z in ((0.7, -6.0), (0.5, -2.0), (0.9, 1.5), (0.7, 0.0)):
            got = ml_derivatives(orders, beta, z)
            want = [ml_derivative(n, beta, z) for n in orders]
            np.testing.assert_allclose(got, want, rtol=1e-14)
        assert ml_derivatives([], 0.7, -1.0).size == 0

    def test_order_validation(self):
        with pytest.raises(DomainError):
            ml_derivatives([3, 61], 0.7, -1.0)
        with pytest.raises(DomainError):
            ml_derivative(-1, 0.7, -1.0)
        with pytest.raises(DomainError):
            ml_derivative(61, 0.7, -1.0)
        with pytest.raises(DomainError):
            ml_derivative(2, 1.3, -1.0)


class TestStableDensity:
    def test_levy_closed_form_at_half(self):
        # beta = 1/2 is the Levy distribution t/(2 sqrt(pi)) x^(-3/2) e^(-t^2/4x).
        for x in (0.3, 0.8, 2.0, 5.0):
            expected = 1.0 / (2.0 * math.sqrt(math.pi)) * x ** -1.5 * math.exp(-1.0 / (4.0 * x))
            assert stable_density(0.5, x, 1.0) == pytest.approx(expected, rel=1e-10)
        assert stable_density(0.5, 0.8, 1.0) == pytest.approx(0.2884317479708603, rel=1e-12)

    def test_normalization_at_half(self):
        val, err = quad(lambda x: stable_density(0.5, x, 1.0), 0.015, 400.0, limit=200)
        # Levy left tail below 0.015 carries erfc(1/(2 sqrt(0.015))) mass
        tail_lo = math.erfc(1.0 / (2.0 * math.sqrt(0.015)))
        tail_hi = 2.0 / math.sqrt(math.pi) * 400.0 ** -0.5  # ~ right tail
        assert val == pytest.approx(1.0, abs=tail_lo + tail_hi + 1e-7)

    def test_scaling_in_time(self):
        # S(t) =d t^(1/beta) S(1) so g(x, t) = s g(s x, 1) with s = t^(-1/beta).
        beta, t = 0.7, 2.3
        s = t ** (-1.0 / beta)
        for x in (1.5, 3.0, 8.0):
            assert stable_density(beta, x, t) == pytest.approx(
                s * stable_density(beta, x * s, 1.0), rel=1e-10
            )

    def test_escalated_left_tail(self):
        # Small x is where the Wright series cancels far below its peak term;
        # the positive integral must still match the Levy closed form through
        # that band.
        for x in (0.03, 0.02, 0.0145, 0.012, 0.008):
            assert stable_density(0.5, x, 1.0) == pytest.approx(_levy(x), rel=1e-12)
        # Frozen tail values verified against an independent high-precision
        # summation (generous digit and term margins).
        assert stable_density(0.7, 0.08, 1.0) == pytest.approx(2.6654684843811103e-19, rel=1e-10)
        assert stable_density(0.9, 0.45, 1.0) == pytest.approx(3.498795823434355e-21, rel=1e-10)

    def test_deep_left_tail_underflows_to_zero(self):
        # The Levy value at x = 1e-4 is about 1e-1086: below the float64
        # range, so exactly zero rather than a refusal or clamped noise.
        assert stable_density(0.5, 1e-4, 1.0) == 0.0
        # log g is about -2e10 at (0.9, 0.05): zero, and no NonConvergence
        # from the rounding noise of the far-underflowed integrand
        assert stable_density(0.9, 0.05, 1.0) == 0.0

    def test_tail_values_wrong_at_the_series(self):
        # The Wright-series route returned 1.24e-48 at (0.5, 1e-3) and 0.0 at
        # (0.7, 0.05), and was 1e-10 and 1.5e-11 off at the other two points.
        for x in (1e-3, 0.05):
            assert stable_density(0.5, x, 1.0) == pytest.approx(_levy(x), rel=1e-12)
        for beta, x, frozen in ((0.7, 0.05, 7.5255280567143e-60), (0.99, 1.0, 4.39217007481529)):
            reference = _wright_reference(beta, x**-beta) / x
            assert reference == pytest.approx(frozen, rel=1e-12)
            assert stable_density(beta, x, 1.0) == pytest.approx(reference, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            stable_density(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            stable_density(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            stable_density(0.5, 1.0, 0.0)


class TestInverseStableDensity:
    def test_half_normal_closed_form_at_half(self):
        # h_{1/2}(x, t) = exp(-x^2 / 4t) / sqrt(pi t).
        for x in (0.0, 0.6, 1.4, 2.5):
            expected = math.exp(-(x**2) / 4.0) / math.sqrt(math.pi)
            assert inv_stable_density(0.5, x, 1.0) == pytest.approx(expected, rel=1e-10)
        assert inv_stable_density(0.5, 0.6, 1.0) == pytest.approx(
            0.51563045480948153, rel=1e-12
        )

    def test_value_at_origin(self):
        for beta, t in ((0.3, 1.0), (0.7, 0.5), (0.9, 2.0)):
            expected = t ** (-beta) / math.gamma(1.0 - beta)
            assert inv_stable_density(beta, 0.0, t) == pytest.approx(expected, rel=1e-12)

    def test_self_similarity(self):
        # E(t) =d t^beta E(1) so h(x, t) = t^(-beta) h(x t^(-beta), 1).
        beta, t = 0.7, 3.0
        for x in (0.2, 0.9, 1.8):
            assert inv_stable_density(beta, x, t) == pytest.approx(
                t ** (-beta) * inv_stable_density(beta, x * t ** (-beta), 1.0), rel=1e-10
            )

    def test_escalated_right_tail(self):
        # Large x is where the Wright series cancels far below its peak term;
        # the positive integral must still match the half-normal closed form
        # at beta = 1/2.
        for x in (5.0, 8.0, 12.0):
            expected = math.exp(-(x**2) / 4.0) / math.sqrt(math.pi)
            assert inv_stable_density(0.5, x, 1.0) == pytest.approx(expected, rel=1e-12)
        # Frozen tail value verified against an independent high-precision
        # summation, and a deeper one against the series summed here.
        assert inv_stable_density(0.7, 6.0, 1.0) == pytest.approx(1.0699960978609027e-22, rel=1e-10)
        reference = _wright_reference(0.9, 2.2) / (0.9 * 2.2)
        assert reference == pytest.approx(3.976081390150e-44, rel=1e-11)
        assert inv_stable_density(0.9, 2.2, 1.0) == pytest.approx(reference, rel=1e-12)

    def test_mean_by_quadrature(self):
        # E[E_beta(1)] = 1 / Gamma(1 + beta).  The tail past 4.3 decays like
        # exp(-0.13 x^(10/3)) ~ 1e-8 with a steep local rate, contributing
        # ~1e-8 to the mean, far below tolerance.
        beta = 0.7
        val, err = quad(lambda x: x * inv_stable_density(beta, x, 1.0), 0.0, 4.3, limit=200)
        assert val == pytest.approx(1.0 / math.gamma(1.0 + beta), rel=1e-6)


class TestDensityQuadrature:
    def test_no_arbitrary_precision(self, monkeypatch):
        # Both points escalated to mpmath on the series route.
        class NoMpmath:
            def __getattr__(self, name):
                raise AssertionError(f"density touched mpmath.{name}")

        monkeypatch.setattr(fracppk.specfun, "mp", NoMpmath())
        assert stable_density(0.7, 0.08, 1.0) == pytest.approx(2.6654684843811103e-19, rel=1e-10)
        assert inv_stable_density(0.7, 6.0, 1.0) == pytest.approx(1.0699960978609027e-22, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(beta=st.floats(0.05, 0.99), s=st.floats(0.1, 10.0))
    def test_laplace_transforms(self, beta, s):
        # E e^(-s S) = exp(-s^beta) and E e^(-s E) = E_beta(-s), by scipy's
        # adaptive rule over v = log x (independent of the production nodes).
        # Kanter's S = (A / W)^k with W standard exponential and A >= A(0+)
        # bounds both laws: the stable mass below v_lo and the inverse mass
        # above v_hi are under e^-40, as is e^(-s x) past x = e^cut; the
        # inverse mass below e^-30 is at most h(0) e^-30 <= 1e-13.
        try:
            ml = mittag_leffler(beta, 1.0, -s)
        except NonConvergence:  # the series refuses small beta at larger s
            ml = None
        assume(ml is not None)
        k = (1.0 - beta) / beta
        log_a0 = math.log(beta) / k + math.log(1.0 - beta)
        cut = math.log(40.0 / s)

        def transform(density, v_lo, v_hi):
            val, _ = quad(
                lambda v: math.exp(v - s * math.exp(v)) * density(beta, math.exp(v), 1.0),
                v_lo,
                v_hi,
                limit=400,
                epsabs=0.0,
                epsrel=1e-11,
            )
            return val

        v_lo = k * (log_a0 - math.log(40.0)) - 1.0
        assert transform(stable_density, v_lo, cut) == pytest.approx(math.exp(-(s**beta)), rel=1e-8)
        v_hi = min(cut, (1.0 - beta) * (math.log(40.0) - log_a0) + 1.0)
        assert transform(inv_stable_density, -30.0, v_hi) == pytest.approx(ml, rel=1e-8)


class TestLogMRule:
    @pytest.mark.parametrize("n,beta,x,expected", ML_RULE_ORACLE)
    def test_oracle_values(self, n, beta, x, expected):
        got = math.exp(fracppk.specfun._ml_log_laplace(beta, [n], x)[0])
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.6, 0.9, 0.99])
    def test_moments(self, beta):
        # E M^n = n! / Gamma(1 + n beta); the rule is certified on n = 0, 1 only
        orders = np.arange(11)
        log_moments = fracppk.specfun._ml_log_laplace(beta, orders, 0.0)
        expected = [math.lgamma(n + 1.0) - math.lgamma(n * beta + 1.0) for n in orders]
        np.testing.assert_allclose(np.exp(log_moments - expected), 1.0, rtol=1e-13)

    def test_scale_is_folded_in(self):
        plain = fracppk.specfun._ml_log_laplace(0.6, [0, 5, 30], 4.0)
        scaled = fracppk.specfun._ml_log_laplace(0.6, [0, 5, 30], 4.0, math.log(7.0))
        np.testing.assert_allclose(scaled - plain, np.array([0, 5, 30]) * math.log(7.0), atol=1e-12)

    def test_uncertified_points_raise(self):
        with pytest.raises(NonConvergence):
            fracppk.specfun._ml_log_laplace(0.6, [60], 1e5)
        with pytest.raises(NonConvergence):
            fracppk.specfun._ml_log_laplace(0.9995, [0], 1.0)
        for x in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                fracppk.specfun._ml_log_laplace(0.6, [0], x)


class TestCaputo:
    def _grid(self, t_end, n, fn):
        times = np.linspace(0.0, t_end, n + 1)
        return GridFunction(times, fn(times))

    def test_linear_is_exact(self):
        # The L1 scheme reproduces piecewise-linear inputs exactly.
        g = self._grid(2.0, 200, lambda t: 3.0 * t + 1.0)
        for beta in (0.3, 0.6, 0.9):
            expected = 3.0 * 2.0 ** (1.0 - beta) / math.gamma(2.0 - beta)
            assert caputo_derivative(g, beta, 200) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_closed_form(self):
        # D^beta t^2 = 2 t^(2-beta) / Gamma(3-beta).
        beta = 0.6
        g = self._grid(2.0, 2000, lambda t: t**2)
        expected = 2.0 * 2.0 ** (2.0 - beta) / math.gamma(3.0 - beta)
        assert expected == pytest.approx(4.249043551463433, rel=1e-12)
        assert caputo_derivative(g, beta, 2000) == pytest.approx(expected, rel=1e-4)

    def test_refinement_order(self):
        # L1 error is O(h^(2-beta)); halving h should shrink it ~2^(2-beta).
        beta = 0.6
        expected = 2.0 * 2.0 ** (2.0 - beta) / math.gamma(3.0 - beta)
        errs = []
        for n in (500, 1000):
            g = self._grid(2.0, n, lambda t: t**2)
            errs.append(abs(caputo_derivative(g, beta, n) - expected))
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(2.0 ** (2.0 - beta), rel=0.25)

    def test_beta_one_is_backward_difference(self):
        g = self._grid(1.0, 50, lambda t: np.sin(t))
        h = 1.0 / 50
        expected = (math.sin(1.0) - math.sin(1.0 - h)) / h
        assert caputo_derivative(g, 1.0, 50) == pytest.approx(expected, rel=1e-12)

    def test_grid_validation(self):
        g = self._grid(1.0, 10, lambda t: t)
        with pytest.raises(GridTooCoarse):
            caputo_derivative(g, 0.5, 1)
        with pytest.raises(DomainError):
            caputo_derivative(g, 0.5, 11)
        with pytest.raises(GridTooCoarse):
            GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            GridFunction(np.array([0.0, 2.0, 1.0]), np.zeros(3))
        nonuniform = GridFunction(np.array([0.0, 0.5, 2.0, 2.1]), np.zeros(4))
        with pytest.raises(DomainError):
            caputo_derivative(nonuniform, 0.5, 3)


class TestTemperedCaputo:
    def _grid(self, t_end, n, fn):
        times = np.linspace(0.0, t_end, n + 1)
        return GridFunction(times, fn(times))

    def test_constant_maps_to_zero(self):
        g = self._grid(1.0, 100, lambda t: np.full_like(t, 4.2))
        assert tempered_caputo_derivative(g, 0.6, 0.5, 100) == pytest.approx(0.0, abs=1e-12)

    def test_nu_zero_reduces_to_caputo(self):
        g = self._grid(1.5, 300, lambda t: t**2)
        assert tempered_caputo_derivative(g, 0.6, 0.0, 300) == pytest.approx(
            caputo_derivative(g, 0.6, 300), rel=1e-14
        )

    def test_laplace_identity_for_linear_input(self):
        # LT of D^(beta,nu) g must be ((s+nu)^beta - nu^beta) ghat(s) for
        # g(t) = t with g(0) = 0, where ghat(s) = 1/s^2.
        beta, nu, s = 0.6, 0.5, 2.0
        n, t_end = 3000, 6.0
        g = self._grid(t_end, n, lambda t: t)
        times = g.times
        deriv = np.empty(n + 1)
        deriv[:2] = np.nan
        for i in range(2, n + 1):
            deriv[i] = tempered_caputo_derivative(g, beta, nu, i)
        # quadratic extrapolation to the two skipped points near t = 0
        deriv[0] = t_end ** (1.0 - beta) * 0.0  # D^beta t -> 0 at t = 0
        deriv[1] = deriv[2]
        lhs = np.trapezoid(np.exp(-s * times) * deriv, times)
        rhs = ((s + nu) ** beta - nu**beta) / s**2
        assert lhs == pytest.approx(rhs, rel=5e-3)

    def test_rejects_negative_tempering(self):
        g = self._grid(1.0, 10, lambda t: t)
        with pytest.raises(DomainError):
            tempered_caputo_derivative(g, 0.5, -0.1, 10)


class TestSeriesControl:
    def test_validation(self):
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=0.0)
        with pytest.raises(DomainError):
            SeriesControl(max_terms=2)
        with pytest.raises(DomainError):
            SeriesControl(z_cap=-1.0)

    def test_tight_cap_rejects_argument(self):
        ctl = SeriesControl(z_cap=1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.7, 1.0, -2.0, control=ctl)
