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

import hashlib
import json
import math
import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import rgamma

import fracppk.processes
import fracppk.specfun
from fracppk import (
    DomainError,
    FracppkError,
    NonConvergence,
    inv_stable_density,
    mittag_leffler,
    ml_derivative,
    ml_derivatives,
    prabhakar_ml,
    stable_density,
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
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_exponential_at_beta_one(self):
        for z in np.linspace(-8.0, 4.0, 13):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-12, abs=0.0)

    def test_value_at_zero_is_recip_gamma(self):
        assert mittag_leffler(0.7, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert mittag_leffler(0.7, 2.5, 0.0) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("a,z", [(0.7, -4.25), (0.0625, -1.0)])
    def test_float_pass_bounds_its_error(self, a, z):
        # Against the series summed at 60 digits.  The float pass was 1.3e-11
        # off at the first point (its log magnitudes' rounding, times terms
        # of up to 383) and 3.6e-13 at the second (the tail it left at
        # rel_tol), where the old trigger, 2.3e-16 times the peak term,
        # could not fire.
        with mp.workdps(60):
            ref, j = mp.mpf(0), 0
            while True:
                term = mp.mpf(z) ** j * mp.rgamma(mp.mpf(a) * j + 1)
                ref += term
                if j > 20 and abs(term) < mp.mpf(10) ** -40:
                    break
                j += 1
        assert abs(mittag_leffler(a, 1.0, z) - float(ref)) <= 1e-13 * abs(float(ref))


class TestPrabhakar:
    def test_oracle_value(self):
        got = prabhakar_ml(0.5, 1.0, 2.0, -1.2)
        assert got == pytest.approx(0.11467017717083503, rel=1e-12, abs=0.0)

    def test_c_one_reduces_to_mittag_leffler(self):
        for z in (-4.0, -1.3, 0.0, 0.8):
            assert prabhakar_ml(0.7, 1.0, 1.0, z) == pytest.approx(
                mittag_leffler(0.7, 1.0, z), rel=1e-12, abs=0.0
            )

    def test_c_zero_collapses_to_recip_gamma(self):
        assert prabhakar_ml(0.5, 1.5, 0.0, -3.0) == pytest.approx(
            1.0 / math.gamma(1.5), rel=1e-14, abs=0.0
        )

    def test_rejects_negative_c(self):
        with pytest.raises(DomainError):
            prabhakar_ml(0.5, 1.0, -1.0, -1.0)

    def test_escalation_is_thread_safe(self, monkeypatch):
        # Each point escalates at its own precision; a precision shared by all
        # threads would let one sum run at another's digits.
        points = [(0.7, 1.0, 1.0, -4.25), (0.9, 1.0, 1.0, -40.0), (0.8, 1.2, 2.5, -6.0), (0.6, 0.5, 1.5, -12.0)]
        escalated = []
        rescue = fracppk.specfun._prabhakar_mp
        monkeypatch.setattr(
            fracppk.specfun, "_prabhakar_mp", lambda *args: escalated.append(args) or rescue(*args)
        )
        serial = [prabhakar_ml(*p) for p in points]
        assert len(escalated) == len(points)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(lambda p: prabhakar_ml(*p), points * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 4
        assert len(escalated) == 5 * len(points)


class TestRecipGamma:
    def test_matches_scipy(self):
        for x in (-0.5, -1.5, -2.25, -3.999, -7.3, -20.5, -170.5, 1e-8, 0.3, 1.0, 2.5, 30.2):
            assert fracppk.specfun._recip_gamma(x) == pytest.approx(rgamma(x), rel=1e-13, abs=0)

    def test_zero_at_the_poles(self):
        for x in (0.0, -1.0, -2.0, -17.0):
            assert fracppk.specfun._recip_gamma(x) == 0.0


class TestMlDerivative:
    @pytest.mark.parametrize(
        "n,beta,z,expected", MLD_ORACLE + [(n, beta, -x, value) for n, beta, x, value in ML_RULE_ORACLE]
    )
    def test_oracle_values(self, n, beta, z, expected):
        got = ml_derivative(n, beta, z)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_order_zero_is_the_function(self):
        for z in (-6.0, -2.0, -0.5):
            assert ml_derivative(0, 0.7, z) == pytest.approx(
                mittag_leffler(0.7, 1.0, z), rel=1e-12, abs=0.0
            )

    def test_at_zero_closed_form(self):
        for n in (0, 1, 4, 9):
            expected = math.gamma(n + 1.0) / math.gamma(0.7 * n + 1.0)
            assert ml_derivative(n, 0.7, 0.0) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_matches_finite_difference(self):
        # First derivative against a central difference of the function.
        # h trades truncation error against float64 rounding in the
        # difference quotient, which is ~1e-15 / (2h) in absolute terms.
        h = 1e-5
        for z in (-3.0, -1.0, 0.5):
            fd = (mittag_leffler(0.7, 1.0, z + h) - mittag_leffler(0.7, 1.0, z - h)) / (2 * h)
            assert ml_derivative(1, 0.7, z) == pytest.approx(fd, rel=1e-6, abs=0.0)

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
            assert ml_derivative(n, 1.0, -2.0) == pytest.approx(math.exp(-2.0), rel=1e-12, abs=0.0)

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
            assert stable_density(0.5, x, 1.0) == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert stable_density(0.5, 0.8, 1.0) == pytest.approx(0.2884317479708603, rel=1e-12, abs=0.0)

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
                s * stable_density(beta, x * s, 1.0), rel=1e-10, abs=0.0
            )

    def test_escalated_left_tail(self):
        # Small x is where the Wright series cancels far below its peak term;
        # the positive integral must still match the Levy closed form through
        # that band.
        for x in (0.03, 0.02, 0.0145, 0.012, 0.008):
            assert stable_density(0.5, x, 1.0) == pytest.approx(_levy(x), rel=1e-12, abs=0.0)
        # Frozen tail values verified against an independent high-precision
        # summation (generous digit and term margins).
        assert stable_density(0.7, 0.08, 1.0) == pytest.approx(2.6654684843811103e-19, rel=1e-10, abs=0.0)
        assert stable_density(0.9, 0.45, 1.0) == pytest.approx(3.498795823434355e-21, rel=1e-10, abs=0.0)

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
            assert stable_density(0.5, x, 1.0) == pytest.approx(_levy(x), rel=1e-12, abs=0.0)
        for beta, x, frozen in ((0.7, 0.05, 7.5255280567143e-60), (0.99, 1.0, 4.39217007481529)):
            reference = _wright_reference(beta, x**-beta) / x
            assert reference == pytest.approx(frozen, rel=1e-12, abs=0.0)
            assert stable_density(beta, x, 1.0) == pytest.approx(reference, rel=1e-12, abs=0.0)

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
            assert inv_stable_density(0.5, x, 1.0) == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert inv_stable_density(0.5, 0.6, 1.0) == pytest.approx(
            0.51563045480948153, rel=1e-12, abs=0.0
        )

    def test_value_at_origin(self):
        for beta, t in ((0.3, 1.0), (0.7, 0.5), (0.9, 2.0)):
            expected = t ** (-beta) / math.gamma(1.0 - beta)
            assert inv_stable_density(beta, 0.0, t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_self_similarity(self):
        # E(t) =d t^beta E(1) so h(x, t) = t^(-beta) h(x t^(-beta), 1).
        beta, t = 0.7, 3.0
        for x in (0.2, 0.9, 1.8):
            assert inv_stable_density(beta, x, t) == pytest.approx(
                t ** (-beta) * inv_stable_density(beta, x * t ** (-beta), 1.0), rel=1e-10, abs=0.0
            )

    def test_escalated_right_tail(self):
        # Large x is where the Wright series cancels far below its peak term;
        # the positive integral must still match the half-normal closed form
        # at beta = 1/2.
        for x in (5.0, 8.0, 12.0):
            expected = math.exp(-(x**2) / 4.0) / math.sqrt(math.pi)
            assert inv_stable_density(0.5, x, 1.0) == pytest.approx(expected, rel=1e-12, abs=0.0)
        # Frozen tail value verified against an independent high-precision
        # summation, and a deeper one against the series summed here.
        assert inv_stable_density(0.7, 6.0, 1.0) == pytest.approx(1.0699960978609027e-22, rel=1e-10, abs=0.0)
        reference = _wright_reference(0.9, 2.2) / (0.9 * 2.2)
        assert reference == pytest.approx(3.976081390150e-44, rel=1e-11, abs=0.0)
        assert inv_stable_density(0.9, 2.2, 1.0) == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_mean_by_quadrature(self):
        # E[E_beta(1)] = 1 / Gamma(1 + beta).  The tail past 4.3 decays like
        # exp(-0.13 x^(10/3)) ~ 1e-8 with a steep local rate, contributing
        # ~1e-8 to the mean, far below tolerance.
        beta = 0.7
        val, err = quad(lambda x: x * inv_stable_density(beta, x, 1.0), 0.0, 4.3, limit=200)
        assert val == pytest.approx(1.0 / math.gamma(1.0 + beta), rel=1e-6, abs=0.0)


class TestDensityQuadrature:
    def test_no_arbitrary_precision(self, monkeypatch):
        # Both points escalated to mpmath on the series route; an import of
        # mpmath on the density path now raises ImportError.
        monkeypatch.setitem(sys.modules, "mpmath", None)
        assert stable_density(0.7, 0.08, 1.0) == pytest.approx(2.6654684843811103e-19, rel=1e-10, abs=0.0)
        assert inv_stable_density(0.7, 6.0, 1.0) == pytest.approx(1.0699960978609027e-22, rel=1e-10, abs=0.0)

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
        assert transform(stable_density, v_lo, cut) == pytest.approx(math.exp(-(s**beta)), rel=1e-8, abs=0.0)
        v_hi = min(cut, (1.0 - beta) * (math.log(40.0) - log_a0) + 1.0)
        assert transform(inv_stable_density, -30.0, v_hi) == pytest.approx(ml, rel=1e-8, abs=0.0)


def _padded_log_m_rule(beta):
    """``(log_w, drift)`` of the band nodes of the log M rule, the nodes
    right of its left tail, built with every row of a block padded to the
    widest band of all of them; the drift is that of the nodes of even index
    in the whole grid."""
    sf = fracppk.specfun
    one = 1.0 - beta
    r, log_dr = sf._rule_nodes(beta)
    band = np.exp(r) > sf._RULE_SERIES_CUT
    r, log_dr = r[band], log_dr[band]
    c = r / one
    log_a, log_du = sf._angle_grid(beta, 0)[:2]
    base = log_a + log_du
    j_mode = np.minimum(np.searchsorted(log_a, -c), log_a.size - 1)
    j_lo = np.searchsorted(np.maximum.accumulate(base), base[j_mode] - 50.0)
    j_hi = np.searchsorted(log_a, np.log(np.exp(np.maximum(log_a[0] + c, 0.0)) + 54.0) - c)
    width = int((j_hi - j_lo).max())
    rows = max(1, sf._RULE_BLOCK // width)
    log_j = np.empty(r.size)
    drift = np.empty(r.size)
    for b in range(0, r.size, rows):
        lo, hi = j_lo[b : b + rows, None], j_hi[b : b + rows, None]
        idx = lo + np.arange(width)
        outside = idx >= hi
        np.minimum(idx, log_a.size - 1, out=idx)
        q = log_a[idx] + c[b : b + rows, None]
        f = q - np.exp(np.minimum(q, 700.0)) + log_du[idx]
        f[outside] = -np.inf
        top = f.max(axis=1)
        terms = np.exp(f - top[:, None])
        fine = terms.sum(axis=1)
        coarse = np.where(lo[:, 0] % 2 == 0, terms[:, ::2].sum(axis=1), terms[:, 1::2].sum(axis=1))
        drift[b : b + rows] = np.abs(2.0 * coarse / fine - 1.0)
        log_j[b : b + rows] = top + np.log(fine)
    return log_j - math.log(one * math.pi) + log_dr, drift


def _log_m_density_50(beta, r):
    """The density of ``R = log M`` at ``r``, ``J / ((1 - beta) pi)``, from
    Zolotarev's ``J = int_0^pi exp(q - e^q) du``, ``q = log A(u) + r / (1 - beta)``,
    by mpmath quadrature at 50 digits.

    Up to ``u1 = pi (1 - 1/e)`` the integral runs over u; past it over
    ``off = log((pi - u) / pi)``, split where q is 6 and 0 and at widths of
    ``1 - beta`` past the peak (the terms left of ``q = 6`` are under e^-390
    of the peak).  Where the peak is at ``u = 0`` (right of the mode of M),
    u is split at ``u1 / 2^k``, k <= 12.  Each integrand is divided by its
    value at the peak, since mpmath stops a quadrature on an absolute error
    (the unscaled integral of a far tail ends after one level).
    """
    with mp.workdps(50):
        b = mp.mpf(beta)
        one = 1 - b
        c = mp.mpf(r) / one

        def q(u, off=None):  # off = log((pi - u) / pi), given where u is near pi
            if u == 0:
                return b / one * mp.log(b) + mp.log(one) + c
            sin_u = mp.sin(u) if off is None else mp.sin(mp.pi * mp.exp(off))
            return b / one * mp.log(mp.sin(b * u)) + mp.log(mp.sin(one * u)) - mp.log(sin_u) / one + c

        def q_off(off):
            return q(mp.pi * (1 - mp.exp(off)), off)

        def level(fun, goal, lo, hi):  # where fun, falling from lo to hi, passes goal
            if fun(hi) >= goal:
                return hi
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if fun(mid) >= goal else (lo, mid)
            return (lo + hi) / 2

        def log_f_u(u):
            qq = q(u)
            return qq - mp.exp(qq)

        def log_f_off(off):  # du = pi e^off d(off)
            qq = q_off(off)
            return qq - mp.exp(qq) + off + mp.log(mp.pi)

        u1 = mp.pi * (1 - mp.exp(-1))
        peak = level(q_off, 0, mp.mpf(-4000), mp.mpf(-1))
        if q(0) > 0:
            inner, top = [u1 * mp.mpf(2) ** -k for k in range(12, -1, -1)], log_f_u(0)
        elif peak < -1:
            inner, top = [u1], log_f_off(peak)
        else:
            u_peak = level(lambda u: -q(u), 0, mp.mpf(0), u1)
            inner, top = [u_peak, u1], log_f_u(u_peak)
        cuts = [level(q_off, 6, mp.mpf(-4000), mp.mpf(-1)), peak] + [peak + one * w for w in (1, 4, 16, 64, 256)]
        outer = mp.quad(lambda off: mp.exp(log_f_off(off) - top), sorted({x for x in cuts if x < -1}) + [mp.mpf(-1)])
        near = mp.quad(lambda u: mp.exp(log_f_u(u) - top), [mp.mpf(0)] + [x for x in inner if x > 0])
        return float((outer + near) * mp.exp(top) / (one * mp.pi))


def _log_a_60(beta, off):
    """``log A`` of Kanter's representation at ``u = pi (1 - e^off)``, in mpmath at 60 digits."""
    with mp.workdps(60):
        b = mp.mpf(beta)
        u = [-mp.pi * mp.expm1(mp.mpf(v)) for v in off]
        return [float(b / (1 - b) * mp.log(mp.sin(b * v)) + mp.log(mp.sin((1 - b) * v)) - mp.log(mp.sin(v)) / (1 - b))
                for v in u]


def _ml_50(beta, x):
    """``E_beta(-x) = sum_k (-x)^k / Gamma(beta k + 1)`` in mpmath at 50 digits
    (x <= 20, where the largest term is under 1e8)."""
    with mp.workdps(50):
        b, z = mp.mpf(beta), -mp.mpf(x)
        return float(mp.fsum(z**k * mp.rgamma(b * k + 1) for k in range(200)))


# The 480-point density sweep: both densities, six beta and 40 x from 0.02 to
# 16 (71 of the values are exact zeros, deep in a tail).  Its values from the
# densities' former route, tanh-sinh over the angle between cuts found by
# bisection, are frozen in density_sweep_frozen.json.
SWEEP_BETAS = (0.3, 0.5, 0.6, 0.7, 0.9, 0.99)
SWEEP_XS = np.geomspace(0.02, 16.0, 40)
SWEEP_FROZEN = pathlib.Path(__file__).with_name("density_sweep_frozen.json")


def _density_sweep():
    return np.array(
        [[[density(beta, float(x), 1.0) for x in SWEEP_XS] for beta in SWEEP_BETAS]
         for density in (stable_density, inv_stable_density)]
    )


# sha256 of the arrays (r, log_w, drift) of the log M rule, taken with
# the cancellation-free log A of its angle grid, and of the elementwise numpy
# functions the rule is built from on the platform where they were taken
# (numpy 2.4, x86-64)
RULE_HASHES = {
    0.5: "5aaf228f16580198f211d4bb825b1aa10dc8fbe4d4375e95bca5e38a0d0cc252",
    0.6: "4a4259a04c7acafc93f7c6b3052cacc53a3edf70a610aeda33cb54131f9e8ed0",
    0.7: "5e3f2b6503f91fff2f1b365292e6be94f1e9bcae348ee226a6a1e254774956cc",
    0.9: "aabc13c480ac19185bf3c489b43a76efcd7bb4cb3c02ac6cf8634678f5513c08",
    0.99: "7a91c5681e6253f94b636f0c694cc2dfa636b7021f55416728f01225937cd519",
    0.999: "c4a84c57e34310e6a1b257070368b3d712531c99119b62e4eb413558e66c5f45",
}
LIBM_HASH = "06d9d3323b161c72b74b2a0c074cde13b92be92a154a905331f29e2e0dc4fa03"


def _sha256(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def _libm_hash():
    v = np.linspace(-3.0, 3.0, 4001)
    w = np.geomspace(1e-300, 1e3, 4001)
    return _sha256([np.sin(v), np.cosh(v), np.sinh(v), np.tanh(v), np.arcsinh(v), np.exp(v), np.expm1(v),
                    np.log1p(np.abs(v)), np.log(w), np.logaddexp(0.0, v), np.sin(w), np.cos(v)])


def _m_wright_60(beta, r):
    """``rho(r) = m M_beta(m)``, ``m = e^r``, from the M-Wright series
    ``sum_k (-m)^k / (k! Gamma(1 - beta (k+1)))`` in mpmath at 60 digits."""
    with mp.workdps(60):
        b, m = mp.mpf(beta), mp.exp(mp.mpf(r))
        total = mp.mpf(0)
        for k in range(200):
            term = (-m) ** k * mp.rgamma(1 - b * (k + 1)) / mp.factorial(k)
            total += term
            if k > 5 and abs(term) < mp.mpf(10) ** -55 * abs(total):
                return float(m * total)
    raise RuntimeError("reference series did not converge")


def _rho_of(density, beta, x):
    """``(r, factor)`` with ``density(beta, x, 1) = factor rho(r) / x``."""
    if density is stable_density:
        return -beta * math.log(x), beta
    return math.log(x), 1.0


# Extreme finite arguments: every call returns a finite value >= 0 or raises
# a documented FracppkError
EXTREME_BETAS = (1e-9, 1e-6, 1e-3, 0.3, 0.7, 0.99, 0.9999, 0.999999)
EXTREME_XS = (0.0, 5e-324, 1e-300, 1e-100, 1e-5, 1.0, 1e100, 1e300, 1.7e308)
EXTREME_TS = (5e-324, 1e-150, 1.0, 1e150, 1e300)


class TestDensityRoutes:
    # Both densities are rho(r) / x (times beta for the stable one), rho the
    # density of log M, read as one node of the log M rule: the M-Wright
    # series for e^r <= 0.05, else the band sum on the rule's cached angle
    # grid, at up to four halvings of its step, or on a band segment past the
    # grid's node cap
    def test_sweep_matches_the_former_route(self):
        frozen = json.loads(SWEEP_FROZEN.read_text())
        assert frozen["betas"] == list(SWEEP_BETAS) and np.array_equal(frozen["xs"], SWEEP_XS)
        want = np.array([frozen["stable"], frozen["inverse"]])
        got = _density_sweep()
        assert np.count_nonzero(got == 0.0) == 71
        assert np.array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "density, beta, x, levels",
        [
            (inv_stable_density, 0.7, 0.02, []),  # M-Wright series, m = 0.02
            (stable_density, 0.7, 100.0, []),  # M-Wright series, m = 0.04
            (inv_stable_density, 0.7, 1.0, [0]),
            (stable_density, 0.9, 1.0, [0]),
            (inv_stable_density, 0.7, 10.0, [0, 1]),  # right of the mode of M
            (stable_density, 0.7, 0.03, [0, 1, 2]),
            (inv_stable_density, 0.99995, 1.0, [0]),  # past the node cap: a segment
            (inv_stable_density, 0.99999, 1.0, [0]),
            (stable_density, 0.99999, 1.0, [0]),
        ],
    )
    def test_each_route_against_the_oracle(self, density, beta, x, levels, monkeypatch):
        sf = fracppk.specfun
        read = []
        grid = sf._angle_grid
        monkeypatch.setattr(sf, "_angle_grid", lambda b, level: read.append(level) or grid(b, level))
        got = density(beta, x, 1.0)
        assert read == levels
        assert (grid(beta, 0) is None) == (beta > 0.9999)
        r, factor = _rho_of(density, beta, x)
        assert got == pytest.approx(factor * _log_m_density_50(beta, r) / x, rel=1e-12, abs=0.0)

    def test_refinement_limit(self, monkeypatch):
        # with no halving of the angle step, right of the mode of M is refused
        monkeypatch.setattr(fracppk.specfun, "_DENSITY_LEVELS", 0)
        for density, x in ((stable_density, 0.03), (inv_stable_density, 10.0)):
            with pytest.raises(NonConvergence, match="not certified"):
                density(0.7, x, 1.0)
        assert inv_stable_density(0.7, 1.0, 1.0) == pytest.approx(0.5534214430665606, rel=1e-14, abs=0.0)

    def test_underflow_bound(self, monkeypatch):
        # pi e^(q0 - e^q0) bounds J: under the float64 range no sum is formed
        # (the Levy value at 1e-4 is about 1e-1086, the half-normal one at 60
        # about 1e-391); next to the range the sum is formed and is right
        sf = fracppk.specfun
        sums = []
        band = sf._band_log_j
        monkeypatch.setattr(sf, "_band_log_j", lambda *args: sums.append(args) or band(*args))
        assert stable_density(0.5, 1e-4, 1.0) == 0.0
        assert inv_stable_density(0.5, 60.0, 1.0) == 0.0
        assert stable_density(0.9, 0.05, 1.0) == 0.0
        assert not sums
        assert stable_density(0.5, 3.7e-4, 1.0) == pytest.approx(_levy(3.7e-4), rel=1e-12, abs=0.0)
        assert sums

    def test_grid_is_shared_and_read_only(self):
        sf = fracppk.specfun
        sf._log_m_rule(0.7)
        grid = sf._angle_grid(0.7, 0)
        before = sf._angle_grid.cache_info()
        inv_stable_density(0.7, 1.0, 1.0)
        assert sf._angle_grid(0.7, 0) is grid
        assert sf._angle_grid.cache_info().misses == before.misses
        assert sf._angle_grid.cache_info().maxsize == 16
        for arr in grid[:3]:
            assert not arr.flags.writeable

    @pytest.mark.parametrize("beta", sorted(RULE_HASHES))
    def test_rule_bytes_unchanged(self, beta):
        if _libm_hash() != LIBM_HASH:
            pytest.skip("numpy's elementwise functions round differently here than where the hashes were taken")
        assert _sha256(fracppk.specfun._log_m_rule(beta)) == RULE_HASHES[beta]

    @pytest.mark.parametrize("beta", [1e-9, 1e-6, 1e-3, 0.3, 0.49])
    def test_wright_series_at_small_beta(self, beta):
        # sin(pi (k+1) (1 - beta)) lost digits like eps / beta: 7e-8 off at 1e-9
        r = np.array([-50.0, -10.0, -4.0, math.log(0.05)])
        want = [_m_wright_60(beta, v) for v in r]
        np.testing.assert_allclose(np.exp(fracppk.specfun._wright_log_density(beta, r)), want, rtol=5e-15, atol=0.0)

    def test_oracle_in_the_deep_right_tail(self):
        # before its integrands were scaled, mpmath stopped at an absolute
        # error and the oracle was 2.5e-3 and 9e-5 off at these two points.
        # Both density routes sit 9.7e-14 and 2.6e-13 from it there; they sat
        # 2.3e-12 and 2.5e-12 off while log A was the sum of three terms, each
        # about 100 log(u) near u = 0 at beta = 0.99, that cancel in float64
        # (the integrand multiplies that error by e^q, about 300)
        for density, beta, x in ((inv_stable_density, 0.99, 1.12), (stable_density, 0.99, 0.89)):
            r, factor = _rho_of(density, beta, x)
            want = factor * _log_m_density_50(beta, r) / x
            assert density(beta, x, 1.0) == pytest.approx(want, rel=5e-13, abs=0.0)

    @pytest.mark.parametrize(
        "density, x, want",
        [(inv_stable_density, 0.05623, 1.1227106401177356e-06), (stable_density, 17.78, 3.5515442201055694e-09)],
    )
    def test_band_just_right_of_the_series_cut_near_one(self, density, x, want):
        # beta = 0.999999 (the float, whose 1 - beta differs from the decimal
        # one's by 4e-11 of itself), against the M-Wright series in 80 digits:
        # 3.0e-11 and 1.1e-10 off.  These were refused (step-2h drift above
        # 1e-7 at every level) while log A cancelled terms of size 1 / (1 - beta)
        # near u = pi
        assert density(0.999999, x, 1.0) == pytest.approx(want, rel=1e-9, abs=0.0)
        # against the closed forms at beta = 1/2, up to the rounding of r (4e-14)
        assert _log_m_density_50(0.5, math.log(30.0)) / 30.0 == pytest.approx(
            math.exp(-225.0) / math.sqrt(math.pi), rel=1e-13, abs=0.0
        )
        levy = 0.5 * _log_m_density_50(0.5, -0.5 * math.log(0.01)) / 0.01
        assert levy == pytest.approx(_levy(0.01), rel=1e-13, abs=0.0)

    def test_band_search_is_bounded(self):
        # past beta of about 1 - 4e-8 the search for a band would read more
        # than 2^20 nodes of the level-0 grid; the series still answers
        beta = 1.0 - 1e-12
        with pytest.raises(NonConvergence, match="band search"):
            inv_stable_density(beta, 1.0, 1.0)
        want = _m_wright_60(beta, math.log(0.01)) / 0.01
        assert inv_stable_density(beta, 0.01, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_extreme_arguments(self):
        # values past the float64 range raise DomainError, not OverflowError
        with pytest.raises(DomainError, match="float64 range"):
            stable_density(1e-9, 5e-324, 1.0)
        with pytest.raises(DomainError, match="float64 range"):
            inv_stable_density(0.99, 0.0, 5e-324)
        answered = 0
        for density in (stable_density, inv_stable_density):
            for beta in EXTREME_BETAS:
                for x in EXTREME_XS:
                    for t in EXTREME_TS:
                        try:
                            value = density(beta, x, t)
                        except FracppkError:
                            continue
                        assert math.isfinite(value) and value >= 0.0, (density.__name__, beta, x, t)
                        answered += 1
        assert answered == 668


class TestLogMRule:
    @pytest.mark.parametrize("n,beta,x,expected", ML_RULE_ORACLE)
    def test_oracle_values(self, n, beta, x, expected):
        got = math.exp(fracppk.specfun._ml_log_laplace(beta, [n], x)[0])
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.6, 0.9, 0.99])
    def test_moments(self, beta):
        # E M^n = n! / Gamma(1 + n beta); the rule is certified on n = 0, 1 only
        orders = np.arange(11)
        log_moments = fracppk.specfun._ml_log_laplace(beta, orders, 0.0)
        expected = [math.lgamma(n + 1.0) - math.lgamma(n * beta + 1.0) for n in orders]
        np.testing.assert_allclose(np.exp(log_moments - expected), 1.0, rtol=1e-13)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])
    def test_band_only_build_matches_padded_build(self, beta):
        # each block is sized by its own widest band; only the padded length
        # of each row's sum changes, so the band nodes move by rounding alone
        rule = fracppk.specfun._log_m_rule(beta)
        r, log_dr = fracppk.specfun._rule_nodes(beta)
        tail = int(np.count_nonzero(np.exp(r) <= fracppk.specfun._RULE_SERIES_CUT))
        log_w, drift = _padded_log_m_rule(beta)
        np.testing.assert_allclose(np.exp(rule.log_w[tail:]), np.exp(log_w), rtol=1e-14, atol=0.0)
        # a drift is itself a relative difference of two sums
        np.testing.assert_allclose(rule.drift[tail:], drift, rtol=0.0, atol=1e-14)
        # the left tail, from the M-Wright series, against Zolotarev's integral
        # in 50 digits, at its two ends and two nodes between
        for i in sorted({0, tail // 3, 2 * tail // 3, tail - 1}):
            want = _log_m_density_50(beta, float(r[i]))
            assert math.exp(rule.log_w[i] - log_dr[i]) == pytest.approx(want, rel=1e-14, abs=0.0)
        w = np.exp(rule.log_w)
        assert abs(w.sum() - 1.0) <= 1e-13
        assert abs((w * np.exp(rule.r)).sum() * math.gamma(1.0 + beta) - 1.0) <= 1e-13

    # at 0.99991 the mass was off by 1.2e-13 while log A cancelled terms of size
    # 1 / (1 - beta); 0.999914 is about the last beta under the node cap
    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.9, 0.9999, 0.99991, 0.999914])
    def test_left_tail_certificate(self, beta, monkeypatch):
        sf = fracppk.specfun
        rule = sf._log_m_rule(beta)
        tail = np.exp(rule.r) <= sf._RULE_SERIES_CUT
        assert 0 < np.count_nonzero(tail) < rule.r.size
        assert np.all(rule.drift[tail] == 0.0) and np.any(rule.drift[~tail] > 0.0)
        w = np.exp(rule.log_w)
        assert abs(w.sum() - 1.0) <= 1e-13
        assert abs((w * np.exp(rule.r)).sum() * math.gamma(1.0 + beta) - 1.0) <= 1e-13
        # a cut far right of the mode, or too few terms, leaves a tail the
        # series cannot certify (the uncached build, so no rule is replaced)
        monkeypatch.setattr(sf, "_RULE_SERIES_CUT", 50.0)
        with pytest.raises(NonConvergence, match="left tail"):
            sf._log_m_rule.__wrapped__(beta)
        monkeypatch.undo()
        monkeypatch.setattr(sf, "_RULE_SERIES_TERMS", 4)
        with pytest.raises(NonConvergence, match="left tail"):
            sf._log_m_rule.__wrapped__(beta)

    def test_moment_refusal(self, monkeypatch):
        # the rule's own mass and mean, read as orders 0 and 1 at x = 0, are
        # off by more than a tolerance no float sum meets
        sf = fracppk.specfun
        monkeypatch.setattr(sf, "_RULE_MOMENT_TOL", 1e-20)
        with pytest.raises(NonConvergence, match="mass and mean"):
            sf._log_m_rule.__wrapped__(0.7)

    @pytest.mark.parametrize("seed", range(4))
    def test_log_sum_drift_is_either_half(self, seed):
        # rows of odd and even length, padded with -inf as the rule's blocks
        # are: the drift is |2 E / S - 1| = |2 O / S - 1|, E and O the sums
        # over even and odd places, so no parity needs tracking
        rng = np.random.default_rng(seed)
        f = rng.normal(0.0, 2.0, (6, 40))
        sizes = np.array([40, 39, 25, 24, 3, 2])
        f[np.arange(40) >= sizes[:, None]] = -np.inf
        want = np.exp(f)
        even, odd, whole = want[:, ::2].sum(axis=1), want[:, 1::2].sum(axis=1), want.sum(axis=1)
        # the block, and one row alone as a density band is summed
        for arr, rows in ((f[1].copy(), 1), (f, slice(None))):
            top, terms, total, drift = fracppk.specfun._log_sum(arr)
            assert terms is arr  # written in place
            np.testing.assert_allclose(np.exp(top) * total, whole[rows], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(drift, np.abs(2.0 * even[rows] / whole[rows] - 1.0), rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(drift, np.abs(2.0 * odd[rows] / whole[rows] - 1.0), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("beta", [0.9995, 0.9999])
    @pytest.mark.parametrize("x", [0.5, 2.0, 6.0, 20.0])
    def test_near_one_against_the_series(self, beta, x):
        # measured within 2e-15 up to x = 6 and 1.8e-13 at x = 20; 2.3e-13 and
        # 1.0e-11 while log A cancelled terms of size 1 / (1 - beta)
        assert ml_derivatives([0], beta, -x)[0] == pytest.approx(_ml_50(beta, x), rel=5e-13, abs=0.0)

    @pytest.mark.parametrize("beta, tol", [(1e-6, 3e-10), (0.5, 1e-14), (0.99, 1e-12), (0.9999, 1e-10), (0.999999, 1e-9)])
    def test_log_a_against_60_digits(self, beta, tol):
        # log A of the rule's angle grid forms no term of size 1 / (1 - beta);
        # the sum of three such terms was 1.3e-8 off at 0.9999 and 1e-4 at
        # 0.999999
        off = -np.geomspace(1e-12, 40.0, 24)
        np.testing.assert_allclose(fracppk.specfun._kanter_log_a_at(beta, off), _log_a_60(beta, off), rtol=0.0, atol=tol)

    @pytest.mark.parametrize("beta", [1e-6, 1e-4])
    def test_log_a_at_small_beta_near_pi(self, beta):
        # sin(e u) near u = pi is formed from pi - u + beta u, not from the
        # rounded u: 1.3e-10 (beta = 1e-6) and 1.1e-12 (1e-4) off while it was
        off = -np.geomspace(1e-12, 40.0, 120)
        np.testing.assert_allclose(fracppk.specfun._kanter_log_a_at(beta, off), _log_a_60(beta, off), rtol=0.0, atol=1e-14)

    def test_rule_refused_near_one(self):
        with pytest.raises(NonConvergence):
            fracppk.specfun._log_m_rule(0.99995)

    def test_scale_is_folded_in(self):
        plain = fracppk.specfun._ml_log_laplace(0.6, [0, 5, 30], 4.0)
        scaled = fracppk.specfun._ml_log_laplace(0.6, [0, 5, 30], 4.0, math.log(7.0))
        np.testing.assert_allclose(scaled - plain, np.array([0, 5, 30]) * math.log(7.0), atol=1e-12)

    def test_uncertified_points_raise(self):
        with pytest.raises(NonConvergence):
            fracppk.specfun._ml_log_laplace(0.6, [60], 1e5)
        with pytest.raises(NonConvergence):
            fracppk.specfun._ml_log_laplace(0.99995, [0], 1.0)
        for x in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                fracppk.specfun._ml_log_laplace(0.6, [0], x)
            # one bad argument among T pairs refuses the whole pass
            bad = np.array([1.0, x, 2.0])[:, None, None]
            with pytest.raises(DomainError):
                fracppk.specfun._ml_log_laplace(0.6, [0], bad, np.zeros((3, 1, 1)))
        uncertified = np.array([4.0, 1e5])[:, None, None]
        with pytest.raises(NonConvergence, match="z = -100000 "):
            fracppk.specfun._ml_log_laplace(0.6, [0, 60], uncertified, np.zeros((2, 1, 1)))

    def test_pairs_equal_single_passes(self):
        # T (x, log_scale) pairs in one pass give, row by row, the pass of each pair alone
        orders = np.arange(0, 31)
        xs, scales = [0.0, 0.3, 4.0, 55.0], [0.0, -2.0, math.log(7.0), 1.5]
        rows = fracppk.specfun._ml_log_laplace(
            0.6, orders, np.array(xs)[:, None, None], np.array(scales)[:, None, None]
        )
        assert rows.shape == (4, orders.size)
        for row, x, scale in zip(rows, xs, scales):
            assert np.array_equal(row, fracppk.specfun._ml_log_laplace(0.6, orders, x, scale))


def _half_derivatives(x: float, top: int) -> list:
    """``E_(1/2)^(n)(-x)``, n = 0..top, from ``f(z) = exp(z^2) erfc(-z)``.

    ``f' = 2 z f + 2 / sqrt(pi)`` and ``f^(n+1) = 2 z f^(n) + 2 n f^(n-1)``;
    each step cancels about ``log10(2 x^2)`` digits, so the recurrence runs
    with that many digits per order on top of 40.
    """
    with mp.workdps(40 + (top + 1) * (int(math.log10(2.0 * x * x + 2.0)) + 1)):
        z = -mp.mpf(x)
        f = [mp.exp(z * z) * mp.erfc(-z)]
        f.append(2 * z * f[0] + 2 / mp.sqrt(mp.pi))
        for n in range(1, top):
            f.append(2 * z * f[n] + 2 * n * f[n - 1])
        return [float(v) for v in f]


def _series_derivatives(beta: float, x: float, top: int) -> list:
    """``E_beta^(n)(-x)``, n = 0..top: ``sum_m (n+m)! / (m! Gamma(beta (n+m) + 1)) (-x)^m``
    in mpmath, with 60 digits past the peak term."""
    q = np.arange(top + 6000, dtype=float)
    log_c = np.array([math.lgamma(v + 1.0) - math.lgamma(beta * v + 1.0) for v in q])
    m = q[:6000]
    log_a = m * math.log(x) - np.array([math.lgamma(v + 1.0) for v in m])
    log_terms = log_c[np.arange(top + 1)[:, None] + m.astype(int)] + log_a
    size = int(np.max(np.flatnonzero(log_terms.max(axis=0) > -150.0 * math.log(10.0)))) + 1
    assert size < m.size
    with mp.workdps(60 + int(log_terms.max() / math.log(10.0)) + 1):
        b = mp.mpf(beta)
        c = [mp.factorial(j) * mp.rgamma(b * j + 1) for j in range(top + size)]
        a = [(-mp.mpf(x)) ** j / mp.factorial(j) for j in range(size)]
        return [float(mp.fdot(c[n : n + size], a)) for n in range(top + 1)]


class TestSeriesCap:
    # The series take |z| <= 50 only.  On the negative axis ml_derivatives
    # reads the log M rule, which certifies itself, so no cap applies there.
    def test_series_refuse_past_the_cap(self):
        for z in (-50.5, 51.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                mittag_leffler(0.7, 1.0, z)
            with pytest.raises(DomainError):
                prabhakar_ml(0.7, 1.0, 1.5, z)
        for beta in (0.7, 1.0):
            for z in (51.0, 1e3, math.inf, math.nan):
                with pytest.raises(DomainError):
                    ml_derivatives([0, 3], beta, z)
        assert ml_derivative(2, 0.7, 50.0) > 0.0

    @pytest.mark.parametrize("x", [60.0, 200.0, 1e3, 1e4])
    def test_negative_axis_past_the_cap_at_half(self, x):
        want = _half_derivatives(x, 60)
        np.testing.assert_allclose(ml_derivatives(range(61), 0.5, -x), want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("beta", [0.7, 0.9])
    def test_negative_axis_past_the_cap_against_the_series(self, beta):
        want = _series_derivatives(beta, 60.0, 60)
        np.testing.assert_allclose(ml_derivatives(range(61), beta, -60.0), want, rtol=1e-13, atol=0.0)
        assert ml_derivatives([0], 1.0, -1e4)[0] == math.exp(-1e4)


# The two-dimensional route the library took for the inverse tempered stable
# clock before the branch-cut integral, kept as an independent oracle.  The
# Esscher change of measure gives P(E(t) <= e) = E[exp(nu^beta e - nu S(e));
# S(e) >= t], S beta-stable; with e = t^beta M w, M Mittag-Leffler, the
# transform is hi, a positive integral over the log M rule times w in (1, inf),
# and 1 - lo, the same integral over w in (0, 1).  Each node of the log M rule
# gets tanh-sinh nodes in w either side of its exponent's peak, cut where the
# exponent has fallen by 40; a value is refused unless its step-2h drift over
# r, the angle and w is under 1e-7 and its end nodes in r under 1e-16.
_W_GAP, _W_LOG_W = fracppk.specfun._tanh_sinh(0.06, 53)


def _w_rule_integral(beta, nu, x, t, lo, hi):
    """``log E_M[x a int_lo^hi exp(c a w - nu t w^(1/beta)) dw]``, ``a = t^beta M``, ``c = nu^beta - x``."""
    rule = fracppk.specfun._log_m_rule(beta)
    p, b = 1.0 / beta, nu * t
    log_a = beta * math.log(t) + rule.r
    front = rule.log_w + math.log(x) + log_a

    def phi(w, ca):
        return ca * w - b * np.exp(p * np.log(w))

    def slope(w, ca):
        return ca - p * b * np.exp((p - 1.0) * np.log(w))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ca = (nu**beta - x) * np.exp(log_a)
        log_peak = beta / (1.0 - beta) * np.log(np.maximum(ca, 0.0) / (p * b))
        m = np.clip(np.exp(np.minimum(log_peak, 700.0)), lo, hi)
        top, s = phi(m, ca), slope(m, ca)
        quad_reach = np.sqrt(2.0 * 40.0 / (p * (p - 1.0) * b * np.exp((p - 2.0) * np.log(m))))
        quad_reach = np.where(quad_reach > 0.0, quad_reach, np.inf)
        steep = np.exp(beta * np.logaddexp(p * np.log(m), math.log(40.0 / b))) - m
        below, above = np.flatnonzero(m > lo), np.flatnonzero(m < hi)
        node = np.concatenate([below, above])
        side = np.repeat([-1.0, 1.0], [below.size, above.size])
        reach = np.minimum(quad_reach[node], np.where(side * s[node] < 0.0, 40.0 / np.abs(s[node]), np.inf))
        reach[below.size :] = np.minimum(reach[below.size :], steep[above])
        cut = np.maximum(m[node] + side * reach, lo)
        ca_n, top_n = ca[node], top[node]
        for _ in range(3):
            cut = np.maximum(cut - (phi(cut, ca_n) - top_n + 40.0) / slope(cut, ca_n), lo)
        span = np.minimum(cut, hi) - m[node]
        bound = front + top + np.log(np.bincount(node, np.abs(span), m.size))
        shift = bound.max()
        if not math.isfinite(shift):
            raise NonConvergence("the integrand leaves the float64 range")
        keep = (bound[node] >= shift - 50.0) & (span != 0.0)
        node, span = node[keep], span[keep]
        w = m[node, None] + np.multiply.outer(span, _W_GAP)
        logs = ca[node, None] * w - b * np.exp(p * np.log(w))
        logs += (front[node] + np.log(np.abs(span)) - shift)[:, None] + _W_LOG_W
    terms = np.exp(logs)
    pieces = terms.sum(axis=1)
    total = pieces.sum()
    per_node = np.bincount(node, pieces, rule.r.size)
    drift = max(
        abs(2.0 * terms[:, ::2].sum() / total - 1.0),
        abs(2.0 * per_node[::2].sum() / total - 1.0),
        per_node @ rule.drift / total,
    )
    log_total = shift + math.log(total)
    ends = math.exp(max(bound[0], bound[-1]) - log_total)
    if not (drift <= 1e-7 and ends <= 1e-16):
        raise NonConvergence(f"not certified: step-2h drift {drift:.1e}, end terms {ends:.1e}")
    return log_total


def w_rule_tempered_laplace(beta, nu, x, t):
    """``E exp(-x E(t))`` as ``1 - lo`` where lo is at most 1/2, otherwise hi.

    lo covers a bounded range of the clock and is accurate where x is small;
    hi keeps its relative accuracy where the transform is small.  The
    untempered ``E_beta(-x t^beta)`` bounds the transform from above, so lo
    is skipped where that bound is already under 1/2.
    """
    z = x * t**beta
    if z < 1e3 and fracppk.specfun._ml_log_laplace(beta, [0], z)[0] > -math.log(2.0):
        lo = math.exp(_w_rule_integral(beta, nu, x, t, 0.0, 1.0))
        if lo <= 0.5:
            return 1.0 - lo
    return math.exp(_w_rule_integral(beta, nu, x, t, 1.0, math.inf))


def tempered_talbot(beta, nu, t, x, dps=40):
    """``E exp(-x E(t))`` by Talbot inversion of ``phi(s) / (s (phi(s) + x))`` at ``dps`` digits."""
    with mp.workdps(dps):
        b, n, xx = mp.mpf(beta), mp.mpf(nu), mp.mpf(x)

        def transform(s):
            phi = (s + n) ** b - n**b
            return phi / (s * (phi + xx))

        return float(mp.invertlaplace(transform, t, method="talbot"))


def _oracle_sweep():
    """(beta, nu, t, x) over the sweep grid: x = nu^beta exactly and 1e-9 either side of it included."""
    for beta in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999):
        for nu in (0.05, 0.3, 1.0, 3.0, 20.0):
            for t in (1e-6, 0.1, 1.0, 30.0, 60.0):
                edge = nu**beta
                for x in (1e-3, 0.1, 1.0, 10.0, 100.0, edge, edge * (1.0 + 1e-9), edge * (1.0 - 1e-9)):
                    yield beta, nu, t, x


class TestInverseTemperedLaplace:
    # E exp(-x E(t)) for the inverse tempered stable clock, from the residue
    # and one positive integral over the branch cut of its transform
    def test_against_the_w_rule(self):
        # the new route answers wherever the oracle does and agrees with it to
        # 1e-12; where they differ by more, Talbot decides, at 40 digits more
        # than the value's order of magnitude (Talbot's own rounding floor is
        # near 1e-40 of the transform's scale): the new value must be within
        # 1e-12 of it and nearer to it than the oracle
        new = fracppk.specfun._inverse_tempered_laplace
        answered = arbitrated = 0
        for beta, nu, t, x in _oracle_sweep():
            try:
                want = w_rule_tempered_laplace(beta, nu, x, t)
            except NonConvergence:
                new(beta, nu, x, t)  # refuses nowhere
                continue
            answered += 1
            got = new(beta, nu, x, t)
            if got != pytest.approx(want, rel=1e-12, abs=0.0):
                arbitrated += 1
                ref = tempered_talbot(beta, nu, t, x, dps=40 + max(0, int(-math.log10(got))))
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (beta, nu, t, x)
                assert abs(got - ref) < abs(want - ref), (beta, nu, t, x)
        assert answered >= 1700 and arbitrated <= 40

    @pytest.mark.parametrize(
        "beta, nu, t, x, ref",
        [
            # refused by the w rule; 40-digit Talbot
            (0.5, 20.0, 1.0, 0.1, 0.408281516325962),
            (0.3, 3.0, 30.0, 0.1, 2.24815791048948e-09),
            (0.9, 20.0, 30.0, 0.5, 1.78328355114504e-10),
        ],
    )
    def test_talbot_references(self, beta, nu, t, x, ref):
        with pytest.raises(NonConvergence):
            w_rule_tempered_laplace(beta, nu, x, t)
        assert fracppk.specfun._inverse_tempered_laplace(beta, nu, x, t) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta, x", [(0.999, 10.0), (0.9995, 10.0), (0.9995, 1.02)])
    def test_sharp_lorentzian(self, beta, x):
        # near beta = 1 the factor 1 / D has relative width tan(pi (1 - beta)),
        # 1.6e-3 at 0.9995; the rule splits at v = |a| and a factor 2 either
        # side, without which (0.9995, 10) is refused
        want = tempered_talbot(beta, 1.0, 1.0, x)
        assert fracppk.specfun._inverse_tempered_laplace(beta, 1.0, x, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.floats(0.05, 0.99),
        log_nu=st.floats(-4.0, 3.0),
        log_x=st.floats(-7.0, 5.0),
        log_t=st.floats(-6.0, 4.0),
        log_c=st.floats(-5.0, 5.0),
    )
    def test_property_scaling(self, beta, log_nu, log_x, log_t, log_c):
        # the transform depends on nu t and x t^beta alone
        nu, x, t, c = (math.exp(v) for v in (log_nu, log_x, log_t, log_c))
        new = fracppk.specfun._inverse_tempered_laplace
        assert new(beta, nu / c, x / c**beta, c * t) == pytest.approx(new(beta, nu, x, t), rel=1e-12, abs=0.0)

    def test_reads_no_log_m_rule(self):
        # a nu > 0 pgf neither builds nor reads the rule for log M
        fracppk.specfun._log_m_rule(0.7)
        before = fracppk.specfun._log_m_rule.cache_info()
        for beta in (0.3, 0.7, 0.9):
            fracppk.ttsfppok_pgf(fracppk.OrderParams(3, 2.0), 0.4, 1.5, 0.8, beta, 0.5, 1.0)
        assert fracppk.specfun._log_m_rule.cache_info() == before

    def test_uncertified_value_refused(self, monkeypatch):
        # the same rules at step 0.4 are too coarse and fail the step-2h check
        for name in ("_CUT_GAP", "_CUT_ES_U"):
            monkeypatch.setattr(fracppk.specfun, name, getattr(fracppk.specfun, name)[::10])
        for name in ("_CUT_TS_LOG_W", "_CUT_ES_LOG_W"):
            monkeypatch.setattr(fracppk.specfun, name, getattr(fracppk.specfun, name)[::10] + math.log(10.0))
        with pytest.raises(NonConvergence, match="inverse tempered stable clock"):
            fracppk.specfun._inverse_tempered_laplace(0.7, 1.0, 0.5, 1.0)
