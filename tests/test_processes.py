"""Unit tests for the counting processes.

The strongest checks here go through subordination quadrature: every
fractional pmf must equal the base pmf integrated against the exact clock
density (inverse-stable for the time change, stable for the space change),
evaluated by adaptive quadrature against the densities (Zolotarev's
positive integral).  The
remaining checks are reduction chains (every variant must collapse to the
base process at its boundary index), transform duality, closed-form moments,
and Monte Carlo agreement of the samplers with their own distributions.
"""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx, gammaln, hyp2f1
from scipy.stats import binom

import fracppk as fp
import fracppk.combinatorics
import fracppk.processes
from fracppk import (
    CapExceeded,
    DomainError,
    MarkedEventPath,
    NonConvergence,
    OrderParams,
    PmfTable,
    RngStream,
    SpaceFractional,
    TemperedTimeSpace,
    TimeFractional,
    batch_pgf,
    inv_stable_density,
    mittag_leffler,
    pmf_table,
    ppok_moments,
    ppok_pgf,
    ppok_pmf,
    sample_fractional_counts,
    sample_ppok_counts,
    sample_ppok_path,
    sfppok_first_passage,
    sfppok_levy_weights,
    sfppok_pgf,
    sfppok_pmf,
    stable_density,
    tfppok_cov,
    tfppok_mean,
    tfppok_pgf,
    tfppok_pmf,
    ttsfppok_pgf,
)
from fracppk.processes import _counts_given_clock, _hyp_minus_one, _inverse_stable_clock_cov
from fracppk.fields import BoxRegion, fractional_field_pmf, sample_region_clocks
from fracppk.subordinators import (
    Gamma,
    InverseGaussian,
    Stable,
    TemperedStable,
    sample_inverse_at,
)
from fracppk.verify import compare_pmf, martingale_check

P3 = OrderParams(k=3, lam=2.0)
P2 = OrderParams(k=2, lam=0.8)


def compound_pmf_oracle(k, lam, t, n_max):
    """Base pmf by direct convolution: Poisson(k lam t) many uniform{1..k} batches."""
    rate = k * lam * t
    batch = np.zeros(n_max + 1)
    batch[1 : k + 1] = 1.0 / k
    conv = np.zeros(n_max + 1)
    conv[0] = 1.0  # zero batches
    out = np.zeros(n_max + 1)
    log_pois = -rate
    out += math.exp(log_pois) * conv
    for j in range(1, n_max + 1):
        conv = np.convolve(conv, batch)[: n_max + 1]
        log_pois += math.log(rate) - math.log(j)
        out += math.exp(log_pois) * conv
    return out


def ml_derivative_60(n, beta, x):
    """``E_beta^(n)(-x)`` by its power series at 60 digits past the peak term."""
    log_peak = max(
        math.lgamma(n + m + 1) - math.lgamma(m + 1) - math.lgamma(beta * (n + m) + 1) + m * math.log(x)
        for m in range(2000)
    )
    with mp.workdps(60 + max(0, int(log_peak / math.log(10.0)))):
        b, z = mp.mpf(beta), -mp.mpf(x)
        terms = (mp.factorial(n + m) / mp.factorial(m) * mp.rgamma(b * (n + m) + 1) * z**m for m in range(2000))
        return float(mp.fsum(terms))


def tf_table_50(params, t, beta, n_max):
    """The tf table by its power series in mpmath at 50 digits, over 200 terms
    (enough for ``beta >= 0.9`` and ``k lam t^beta <= 6``):
    ``p_n = sum_j c(n, j) k^-j sum_m C(j + m, j) (-1)^m w^(j+m) / Gamma(beta (j+m) + 1)``
    with ``w = k lam t^beta`` and ``c(n, j)`` the ways to write n as j batches of 1 to k."""
    k = params.k
    ways = [[1] + [0] * n_max]
    for _ in range(n_max):
        prev = ways[-1]
        ways.append([sum(prev[n - y] for y in range(1, k + 1) if n >= y) for n in range(n_max + 1)])
    with mp.workdps(50):
        b = mp.mpf(beta)
        w = k * mp.mpf(params.lam) * mp.mpf(t) ** b
        stage = [
            mp.fsum(mp.binomial(j + m, j) * (-1) ** m * w ** (j + m) * mp.rgamma(b * (j + m) + 1) for m in range(200))
            / mp.mpf(k) ** j
            for j in range(n_max + 1)
        ]
        return np.array([float(mp.fsum(ways[j][n] * stage[j] for j in range(n + 1))) for n in range(n_max + 1)])


def _hankel_ml_derivative(n, beta, x):
    """``E_beta^(n)(-x)`` from the Hankel contour collapsed onto the cut, in mpmath:
    ``n! / (pi beta) int_0^inf exp(-y^(1/beta)) Im[e^(i pi beta) (y e^(i pi beta) + x)^-(n+1)] dy``
    (with ``s = y^(1/beta)``), a route that shares nothing with the series or the rule."""
    with mp.workdps(40):
        b, xx = mp.mpf(beta), mp.mpf(x)
        turn = mp.expjpi(b)
        val = mp.quad(
            lambda y: mp.exp(-(y ** (1 / b))) * mp.im(turn * (y * turn + xx) ** (-(n + 1))),
            mp.linspace(0, mp.mpf(100) ** b, 40),
            maxdegree=8,
        )
        return float(val * mp.factorial(n) / (mp.pi * b))


def sf_taylor_log(k, lam, alpha, t, n):
    """log P(N(t) = j), j < n, of the space-fractional process, and the Taylor
    coefficients h_j of the exponent in its pgf ``exp(-t h(u))``, with
    ``h(u) = (k lam)^alpha (1 - G(u))^alpha`` and G the batch pgf.

    Independent of the zeta table: ``(1 - G)^alpha`` is a binomial series in G
    whose terms past the first are all negative, so ``q = exp(t (h_0 - h))``
    follows from ``j q_j = -t sum_(i<=j) i h_i q_(j-i)``, ``q_0 = 1``, with
    positive terms only, and ``log P = log q - t h_0`` holds where
    ``exp(-t h_0)`` underflows.
    """
    batch = np.zeros(n)
    batch[1 : k + 1] = 1.0 / k
    h = np.zeros(n)
    h[0] = 1.0
    batch_power = h.copy()
    coef = 1.0
    for m in range(1, n):
        batch_power = np.convolve(batch_power, batch)[:n]
        coef *= -(alpha - m + 1) / m
        h += coef * batch_power
    h *= (k * lam) ** alpha
    ih = -t * h * np.arange(n)
    q = np.zeros(n)
    q[0] = 1.0
    for j in range(1, n):
        q[j] = float(np.dot(ih[1 : j + 1], q[j - 1 :: -1])) / j
    return np.log(q) - t * h[0], h


def panjer_oracle(params, alpha, t, n_max):
    """P(N(t) = n), n = 0..n_max, of the space-fractional process by Panjer's
    recursion ``n p_n = t sum_(y<=n) y w_y p_(n-y)`` from ``p_0 = exp(-t W)``,
    on the package's float Levy weights w_y and total rate W, in 40-digit
    arithmetic: a row past the float range of ``p_0`` does not underflow."""
    w = sfppok_levy_weights(params, alpha, max(n_max, 1))
    with mp.workdps(40):
        tt = mp.mpf(t)
        p = [mp.exp(-tt * mp.mpf((params.k * params.lam) ** alpha))]
        for n in range(1, n_max + 1):
            p.append(tt * mp.fsum(y * mp.mpf(w[y - 1]) * p[n - y] for y in range(1, n + 1)) / n)
        return np.array([float(v) for v in p])


class TestBaseProcess:
    def test_pmf_matches_convolution_oracle(self):
        oracle = compound_pmf_oracle(3, 2.0, 1.0, 20)
        for n in range(21):
            assert ppok_pmf(P3, n, 1.0) == pytest.approx(oracle[n], rel=1e-11)

    def test_frozen_values(self):
        assert ppok_pmf(P3, 4, 1.0) == pytest.approx(0.026440023217774493, rel=1e-13)
        assert ppok_pgf(P3, 0.6, 1.0) == pytest.approx(0.02604316305324257, rel=1e-13)

    def test_poisson_at_k_one(self):
        p = OrderParams(k=1, lam=1.5)
        for n in (0, 1, 4, 9):
            expected = math.exp(-1.5) * 1.5**n / math.factorial(n)
            assert ppok_pmf(p, n, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_pgf_duality(self):
        for u in (0.2, 0.5, 0.8):
            partial = sum(ppok_pmf(P3, n, 1.0) * u**n for n in range(61))
            assert ppok_pgf(P3, u, 1.0) == pytest.approx(partial, abs=1e-12)

    def test_moments_against_table(self):
        mean, var = ppok_moments(P3, 0.6)
        ns = np.arange(61)
        probs = np.array([ppok_pmf(P3, n, 0.6) for n in ns])
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(ns @ probs) == pytest.approx(mean, rel=1e-10)
        assert float((ns**2) @ probs) - mean**2 == pytest.approx(var, rel=1e-9)

    def test_moment_formulas(self):
        mean, var = ppok_moments(P3, 1.0)
        assert mean == pytest.approx(2.0 * 3 * 4 / 2.0)
        assert var == pytest.approx(2.0 * 3 * 4 * 7 / 6.0)

    def test_batch_pgf(self):
        u = 0.7
        assert batch_pgf(P3, u) == pytest.approx((u + u**2 + u**3) / 3.0, rel=1e-14)

    def test_argument_checks(self):
        with pytest.raises(DomainError):
            ppok_pmf(P3, -1, 1.0)
        with pytest.raises(DomainError):
            ppok_pmf(P3, 61, 1.0)
        with pytest.raises(DomainError):
            ppok_pmf(P3, 2, 0.0)
        with pytest.raises(DomainError):
            ppok_pgf(P3, 1.2, 1.0)
        # batch_pgf is public, and the pgf entry points read u through it
        for bad in ("0.5", None, math.nan, 7.0):
            with pytest.raises(DomainError, match=r"u must lie in \[-1, 1\]"):
                batch_pgf(OrderParams(3, 1.5), bad)


class TestTimeFractional:
    def test_subordination_quadrature_oracle(self):
        # p(n, t) must equal the base pmf averaged over the inverse-stable
        # clock: integral of ppok_pmf(n, u) h_beta(u, t) du.  The density
        # window ends near u = 4.4 at beta = 0.7; the neglected tail is
        # ~1e-8 of clock mass times a bounded pmf factor.
        beta = 0.7
        for n in (0, 1, 2, 5, 10):
            val, _ = quad(
                lambda u: ppok_pmf(P3, n, u) * inv_stable_density(beta, u, 1.0),
                0.0,
                4.3,
                limit=200,
            )
            assert tfppok_pmf(P3, n, 1.0, beta) == pytest.approx(val, abs=2e-7)

    def test_beta_one_reduces_to_base(self):
        for n in (0, 2, 7):
            assert tfppok_pmf(P3, n, 1.0, 1.0) == pytest.approx(
                ppok_pmf(P3, n, 1.0), rel=1e-10
            )
        for u in (0.3, 0.9):
            assert tfppok_pgf(P3, u, 1.0, 1.0) == pytest.approx(
                ppok_pgf(P3, u, 1.0), rel=1e-10
            )

    @pytest.mark.parametrize("beta", [0.9995, 0.9999])
    def test_table_near_one_against_the_series(self, beta):
        # the log M rule is certified up to beta = 0.9999; measured within
        # 2.3e-13 of the 50-digit series at k lam t^beta = 6
        for t in (0.3, 1.0):
            table = pmf_table(P3, t, 20, TimeFractional(beta)).probs
            np.testing.assert_allclose(table, tf_table_50(P3, t, beta, 20), rtol=5e-13, atol=0.0)

    def test_classical_fractional_poisson_at_k_one(self):
        # k = 1: pmf is (lam t^b)^n / n! times the n-th derivative of the
        # Mittag-Leffler function at -lam t^b; spot check the series form.
        p = OrderParams(k=1, lam=1.2)
        beta, t = 0.6, 1.3
        w = 1.2 * t**beta
        for n in (0, 1, 3, 6):
            direct = 0.0
            # independent alternating series sum_{j} (n+j)!/(n! j!) (-w)^j ...
            for j in range(400):
                log_mag = (
                    math.lgamma(n + j + 1)
                    - math.lgamma(j + 1)
                    - math.lgamma(n + 1)
                    + j * math.log(w)
                    - math.lgamma(beta * (n + j) + 1.0)
                )
                term = (-1.0) ** j * math.exp(log_mag)
                direct += term
                if j > 5 and abs(term) < 1e-18 * abs(direct):
                    break
            direct *= w**n
            assert tfppok_pmf(p, n, t, beta) == pytest.approx(direct, rel=1e-9)

    def test_mean_formula(self):
        assert tfppok_mean(P3, 1.0, 0.7) == pytest.approx(
            12.0 / math.gamma(1.7), rel=1e-13
        )
        ns = np.arange(61)
        probs = np.array([tfppok_pmf(P2, n, 1.0, 0.7) for n in ns])
        assert probs.sum() == pytest.approx(1.0, abs=1e-8)
        assert float(ns @ probs) == pytest.approx(tfppok_mean(P2, 1.0, 0.7), abs=1e-6)

    def test_pgf_is_mittag_leffler(self):
        # the float series is 1.3e-11 off here, so the 60-digit sum is the reference
        u, t, beta = 0.5, 1.0, 0.7
        z = -P3.k * P3.lam * t**beta * (1.0 - batch_pgf(P3, u))
        assert tfppok_pgf(P3, u, t, beta) == pytest.approx(ml_derivative_60(0, beta, -z), rel=1e-13)
        assert tfppok_pgf(P3, u, t, beta) == pytest.approx(mittag_leffler(beta, 1.0, z), rel=1e-10)

    def test_sixty_digit_references(self):
        # the float series is 4.9e-11 off at E_0.3(-2) and 3.5e-10 off at
        # E_0.6^(7)(-2); at k = 1 row n of a table is (lam t^beta)^n / n! times
        # the n-th derivative at -lam t^beta
        p1 = OrderParams(k=1, lam=2.0)
        assert tfppok_pmf(p1, 0, 1.0, 0.3) == pytest.approx(ml_derivative_60(0, 0.3, 2.0), rel=1e-13)
        row = pmf_table(p1, 1.0, 10, TimeFractional(0.6)).probs[7]
        assert row == pytest.approx(2.0**7 / math.factorial(7) * ml_derivative_60(7, 0.6, 2.0), rel=1e-13)

    def test_small_beta_past_the_series(self):
        # z = -13.4 at beta = 0.3: the series refuses, the rule answers; the
        # reference is the Hankel contour collapsed onto the cut, in mpmath
        p1 = OrderParams(k=1, lam=13.4)
        with pytest.raises(NonConvergence):
            mittag_leffler(0.3, 1.0, -13.4)
        table = pmf_table(p1, 1.0, 40, TimeFractional(0.3))
        for n in (0, 3, 7):
            ref = 13.4**n / math.factorial(n) * _hankel_ml_derivative(n, 0.3, 13.4)
            assert table.probs[n] == pytest.approx(ref, rel=1e-13)
        assert tfppok_pgf(p1, 0.0, 1.0, 0.3) == pytest.approx(table.probs[0], rel=1e-14)
        for u in (0.3, 0.8):
            series = float(np.polyval(table.probs[::-1], u))
            gap = table.truncation_mass * u**41 + 1e-14
            assert abs(series - tfppok_pgf(p1, u, 1.0, 0.3)) <= gap

    def test_no_arbitrary_precision(self, monkeypatch):
        # an import of mpmath on the tf path raises ImportError
        monkeypatch.setitem(sys.modules, "mpmath", None)
        table = pmf_table(P3, 1.0, 40, TimeFractional(0.7))
        assert table.probs.sum() + table.truncation_mass == pytest.approx(1.0, abs=1e-12)
        assert tfppok_pgf(P3, 0.5, 1.0, 0.7) == pytest.approx(0.09315766264089399, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.05, 0.99),
        k=st.integers(1, 6),
        log_scale=st.floats(-5.0, 5.0),
        t=st.floats(0.1, 10.0),
        n_max=st.integers(0, 60),
        u=st.floats(-1.0, 1.0),
    )
    def test_table_and_pgf_properties(self, beta, k, log_scale, t, n_max, u):
        # lam t^beta = e^log_scale; a point the rule cannot certify must
        # raise NonConvergence, never return NaN or inf
        params = OrderParams(k=k, lam=math.exp(log_scale) / t**beta)
        try:
            table = pmf_table(params, t, n_max, TimeFractional(beta))
            pgf = tfppok_pgf(params, u, t, beta)
        except NonConvergence:
            return
        probs = table.probs
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert probs.sum() + table.truncation_mass == pytest.approx(1.0, abs=1e-12)
        series = math.fsum(p * u**n for n, p in enumerate(probs))
        assert abs(series - pgf) <= table.truncation_mass * abs(u) ** (n_max + 1) + 1e-12
        # the float series carries rounding noise of up to about 1e-12 of its
        # peak term (3.6e-13 at beta = 0.0625, z = -1, where the peak is 1.1)
        x = k * math.exp(log_scale) * (1.0 - batch_pgf(params, u))
        try:
            ml = mittag_leffler(beta, 1.0, -x)
        except (DomainError, NonConvergence):
            return
        log_peak = max(j * math.log(x) - math.lgamma(beta * j + 1.0) for j in range(400)) if x > 0 else 0.0
        assert abs(pgf - ml) <= 1e-13 * abs(ml) + math.exp(min(log_peak, 700.0) - 12.0 * math.log(10.0))

    def test_variance_from_cov_matches_table(self):
        beta, t = 0.7, 1.0
        ns = np.arange(61)
        probs = np.array([tfppok_pmf(P2, n, t, beta) for n in ns])
        mean = float(ns @ probs)
        var = float((ns**2) @ probs) - mean**2
        assert tfppok_cov(P2, t, t, beta) == pytest.approx(var, abs=1e-5)

    def test_cov_against_joint_monte_carlo(self):
        beta, s, t, n_paths = 0.7, 0.5, 1.0, 20_000
        clocks = sample_inverse_at(Stable(beta), [s, t], n_paths, RngStream(21))
        gen = RngStream(22).generator()
        counts_s = _counts_given_clock(P2, clocks[:, 0], gen)
        extra = np.maximum(clocks[:, 1] - clocks[:, 0], 0.0)
        live = extra > 0
        inc = np.zeros(n_paths, dtype=np.int64)
        inc[live] = _counts_given_clock(P2, extra[live], gen)
        counts_t = counts_s + inc
        prod = (counts_s - counts_s.mean()) * (counts_t - counts_t.mean())
        emp_cov = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(n_paths)
        assert abs(emp_cov - tfppok_cov(P2, s, t, beta)) < 4.0 * se + 5e-3

    @pytest.mark.parametrize("beta", [0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999])
    def test_clock_cov_hypergeometric(self, beta):
        # F = 2F1(-beta, beta; 1 + beta; x) by Euler's integral, against scipy and
        # against mpmath at 40 digits.  scipy's own value is 1.0e-14 off at
        # beta = 0.5, x = 0.99, so that x is held to mpmath only.
        for x in (0.0, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-10, 1 - 2**-52, 1.0):
            got = _hyp_minus_one(beta, x)
            with mp.workdps(40):
                ref = mp.hyp2f1(-beta, beta, 1 + beta, x) - 1
            assert got == pytest.approx(float(ref), rel=1e-13, abs=0)
            assert 1.0 + got == pytest.approx(float(ref + 1), rel=1e-15, abs=0)
            if x != 0.99:
                assert 1.0 + got == pytest.approx(hyp2f1(-beta, beta, 1 + beta, x), rel=1e-14, abs=0)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9, 0.999])
    def test_clock_cov_at_small_s(self, beta):
        # s^(2 beta) / Gamma(1 + 2 beta) + s^beta (F - 1) / Gamma(1 + beta)^2 at
        # t = 1, 40 digits; subtracting 1 from F in float64 lost up to 1% here
        for s in (1e-12, 1e-6, 0.01, 0.5, 1.0):
            with mp.workdps(40):
                b, ss = mp.mpf(beta), mp.mpf(s)
                ref = ss ** (2 * b) / mp.gamma(1 + 2 * b) + ss**b * (mp.hyp2f1(-b, b, 1 + b, ss) - 1) / mp.gamma(1 + b) ** 2
            assert _inverse_stable_clock_cov(beta, s, 1.0) == pytest.approx(float(ref), rel=1e-12, abs=0)

    def test_cov_symmetry(self):
        assert tfppok_cov(P3, 0.4, 1.1, 0.6) == pytest.approx(
            tfppok_cov(P3, 1.1, 0.4, 0.6), rel=1e-13
        )


class TestSpaceFractional:
    def test_zero_count_closed_form(self):
        assert sfppok_pmf(P3, 0, 1.0, 0.7) == pytest.approx(
            math.exp(-(6.0**0.7)), rel=1e-13
        )
        assert sfppok_pmf(P3, 0, 1.0, 0.7) == pytest.approx(
            0.030042444324438186, rel=1e-13
        )

    def test_subordination_quadrature_oracle(self):
        # p(n, t) = integral of ppok_pmf(n, u) g_alpha(u, t) du.  The left
        # tail below u = 0.13 at alpha = 0.7 carries ~2e-8 mass; past u = 40
        # the base pmf is exp(-6u) small even though the density tail is heavy.
        alpha = 0.7
        for n in (1, 2, 5, 10):
            val, _ = quad(
                lambda u: ppok_pmf(P3, n, u) * stable_density(alpha, u, 1.0),
                0.13,
                40.0,
                limit=300,
            )
            assert sfppok_pmf(P3, n, 1.0, alpha) == pytest.approx(val, abs=3e-7)

    def test_alpha_one_reduces_to_base(self):
        for n in (0, 1, 4, 9):
            assert sfppok_pmf(P3, n, 1.0, 1.0) == pytest.approx(
                ppok_pmf(P3, n, 1.0), rel=1e-9
            )
        for u in (0.3, 0.8):
            assert sfppok_pgf(P3, u, 1.0, 1.0) == pytest.approx(
                ppok_pgf(P3, u, 1.0), rel=1e-13
            )

    def test_pgf_duality_at_small_u(self):
        # At u = 0.2 the discarded tail sum_{n>60} p(n) u^n is below 1e-42,
        # so the truncated sum must match the closed-form pgf tightly even
        # though the pmf itself has a heavy tail.
        u = 0.2
        partial = sum(sfppok_pmf(P3, n, 1.0, 0.7) * u**n for n in range(61))
        assert sfppok_pgf(P3, u, 1.0, 0.7) == pytest.approx(partial, abs=1e-10)

    def test_mass_deficit_matches_heavy_tail(self):
        # The jump weights decay like y^(-1-alpha), so the pmf misses
        # ~C n_cap^(-alpha) of mass at any finite cap; the deficit must
        # shrink monotonically with the cap but stay well above zero.
        probs = np.array([sfppok_pmf(P3, n, 1.0, 0.7) for n in range(61)])
        deficits = 1.0 - np.cumsum(probs)
        assert np.all(np.diff(deficits) < 0)
        assert 1e-3 < deficits[-1] < 0.2

    @pytest.mark.parametrize("lam", [0.5, 2.1])
    def test_table_matches_taylor_recurrence(self, lam):
        # (k lam)^alpha t = 6.8 and 24.9, where a signed power series in t
        # cancels: 1.4e-10 off at the first, an entry of 21.5 at the second
        log_ref, _ = sf_taylor_log(5, lam, 0.9, 3.0, 41)
        table = pmf_table(OrderParams(5, lam), 3.0, 40, SpaceFractional(0.9))
        np.testing.assert_allclose(table.probs, np.exp(log_ref), rtol=1e-12)

    def test_table_past_zero_count_underflow(self):
        # (k lam)^alpha t = 760: P(N = 0) = exp(-760) underflows, row 60 does not
        t = 760.0 / (P3.k * P3.lam) ** 0.7
        probs = pmf_table(P3, t, 60, SpaceFractional(0.7)).probs
        assert np.all(np.isfinite(probs))
        assert probs[60] > 0.0
        log_ref, _ = sf_taylor_log(3, 2.0, 0.7, t, 61)
        assert probs[60] == pytest.approx(math.exp(log_ref[60]), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "k, lam, alpha, t, frozen",
        [
            (3, 2.0, 0.7, 1.0, [0.030042444324438186, 0.024570722415177132,
                                0.035847049479365095, 0.051108617366767715,
                                0.031414140235294694, 0.008976393911497049,
                                0.0035983199130292113]),
            (2, 0.8, 0.5, 2.0, [0.07967319064464068, 0.05038975017797653,
                                0.07262310707915186, 0.042277596074486744,
                                0.017358659448532078, 0.00645081895410844,
                                0.0032929170616170633]),
            (1, 1.5, 0.3, 3.0, [0.03377478346124242, 0.03432910337791101,
                                0.02946144664583309, 0.018591544053374855,
                                0.009471227195658821, 0.0047961594253208015,
                                0.002986643971979029]),
        ],
    )
    def test_frozen_tables(self, k, lam, alpha, t, frozen):
        # (k lam)^alpha t <= 3.5; values frozen from the signed power series in
        # t, which was accurate to 2e-13 there
        probs = pmf_table(OrderParams(k, lam), t, 40, SpaceFractional(alpha)).probs
        np.testing.assert_allclose(probs[[0, 1, 2, 5, 12, 25, 40]], frozen, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 6),
        lam=st.floats(0.1, 5.0),
        alpha=st.floats(0.05, 1.0),
        t=st.floats(1e-3, 50.0),
        n_max=st.integers(0, 60),
    )
    def test_table_properties(self, k, lam, alpha, t, n_max):
        # the closed-form pgf bounds the truncated table: the missing terms
        # sum_(n > n_max) p_n u^n are at most truncation_mass u^(n_max + 1)
        params = OrderParams(k, lam)
        table = pmf_table(params, t, n_max, SpaceFractional(alpha))
        probs = table.probs
        assert np.all(np.isfinite(probs)) and np.all((probs >= 0.0) & (probs <= 1.0))
        assert probs.sum() <= 1.0 + 1e-12
        for u in (0.2, 0.5):
            partial = float(probs @ u ** np.arange(n_max + 1))
            gap = abs(partial - sfppok_pgf(params, u, t, alpha))
            assert gap <= table.truncation_mass * u ** (n_max + 1) + 1e-12

    @pytest.mark.parametrize(
        "k, lam, alpha, t_w",
        [(3, 2.0, 0.7, 0.5), (1, 1.5, 0.3, 3.0), (5, 0.7, 0.95, 30.0), (2, 0.8, 0.5, 200.0), (3, 2.0, 0.7, 760.0)],
    )
    def test_table_matches_panjer_oracle(self, k, lam, alpha, t_w):
        # t_w = (k lam)^alpha t; at 760 P(N = 0) = exp(-760) underflows, the
        # upper rows do not.  Rows below the normal float range carry no
        # relative accuracy, so they are compared to an absolute 1e-300.
        params = OrderParams(k, lam)
        t = t_w / (k * lam) ** alpha
        probs = pmf_table(params, t, 60, SpaceFractional(alpha)).probs
        ref = panjer_oracle(params, alpha, t, 60)
        np.testing.assert_allclose(probs, ref, rtol=1e-13, atol=1e-300)
        if t_w > 745:
            assert probs[0] == 0.0 and probs[60] > 1e-280

    def test_rows_at_many_times_match_panjer_oracle(self):
        params = OrderParams(4, 1.3)
        times = np.array([0.05, 0.4, 1.0, 2.5, 40.0, 700.0 / 5.2**0.6])
        block = fracppk.processes._rows(params, SpaceFractional(0.6), times, 0, 45)
        for j, t in enumerate(times):
            ref = panjer_oracle(params, 0.6, t, 45)
            np.testing.assert_allclose(block[:, j], ref, rtol=1e-13, atol=1e-300)

    def test_first_passage_matches_panjer_oracle(self):
        # sum_(j<level) P(N(t) = j) wbar_(level-j) over the oracle's rows,
        # also at (k lam)^alpha t = 760, where P(N = 0) underflows
        times = np.array([0.3, 1.0, 4.0, 760.0 / 6.0**0.7])
        for level in (1, 7, 30, 61):
            tail = fracppk.processes._sf_tail_weights(P3, 0.7, level)[::-1]
            ref = [tail @ panjer_oracle(P3, 0.7, t, level - 1) for t in times]
            got = sfppok_first_passage(P3, 0.7, level, times)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-300)
            assert sfppok_first_passage(P3, 0.7, level, float(times[1])) == pytest.approx(ref[1], rel=1e-13)

    def test_levy_weights_positive_with_bounded_mass(self):
        w = sfppok_levy_weights(P3, 0.7, 60)
        assert np.all(w > 0)
        total = (P3.k * P3.lam) ** 0.7
        assert w.sum() < total
        assert w.sum() == pytest.approx(3.3964, abs=2e-3)  # tail ~ y^-alpha remains

    def test_levy_weights_against_binomial_expansion(self):
        # Independent oracle: w_y = -(k lam)^alpha [u^y] (1 - G(u))^alpha by
        # the generalized binomial theorem applied to polynomial powers.
        k, lam, alpha, y_max = 2, 1.5, 0.6, 12
        params = OrderParams(k=k, lam=lam)
        g = np.zeros(y_max + 1)
        g[1 : k + 1] = 1.0 / k
        coeffs = np.zeros(y_max + 1)
        coeffs[0] = 1.0  # m = 0 term of sum_m binom(alpha, m) (-G)^m
        g_pow = np.array([1.0])
        binom_coef = 1.0
        for m in range(1, 201):
            binom_coef *= (alpha - (m - 1)) / m
            g_pow = np.convolve(g_pow, g)[: y_max + 1]
            coeffs[: g_pow.size] += binom_coef * (-1.0) ** m * g_pow
        oracle = -((k * lam) ** alpha) * coeffs[1:]
        got = sfppok_levy_weights(params, alpha, y_max)
        np.testing.assert_allclose(got, oracle, rtol=1e-10)

    def test_alpha_one_weights_without_warning(self):
        # fall(1, zeta) = 0 for zeta >= 2: the weights are lam on 1..k, 0 beyond
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = sfppok_levy_weights(P3, 1.0, 6)
        np.testing.assert_allclose(w, [2.0, 2.0, 2.0, 0.0, 0.0, 0.0], rtol=1e-14, atol=0.0)

    def test_k_one_weights_closed_form(self):
        # k = 1: w_y = lam^alpha |binom(alpha, y)| ... = alpha lam^alpha
        # Gamma(y - alpha) / (Gamma(1 - alpha) y!).
        p = OrderParams(k=1, lam=2.0)
        alpha = 0.7
        w = sfppok_levy_weights(p, alpha, 8)
        for y in range(1, 9):
            expected = (
                2.0**alpha
                * alpha
                * math.gamma(y - alpha)
                / (math.gamma(1.0 - alpha) * math.factorial(y))
            )
            assert w[y - 1] == pytest.approx(expected, rel=1e-11)

    def test_k_one_weights_across_the_cap(self):
        # the y! in the weight passes float64 range at y = 171; the weights
        # must stay positive and exact in log space up to the cap
        lam, alpha = 2.1, 0.6
        w = sfppok_levy_weights(OrderParams(k=1, lam=lam), alpha, 200)
        assert np.all(w > 0)
        y = np.arange(1, 201)
        log_expected = (
            math.log(alpha)
            + alpha * math.log(lam)
            + gammaln(y - alpha)
            - math.lgamma(1.0 - alpha)
            - gammaln(y + 1.0)
        )
        np.testing.assert_allclose(w, np.exp(log_expected), rtol=1e-12)

    def test_first_passage_level_one_closed_form(self):
        alpha = 0.7
        for t in (0.3, 0.8, 2.0):
            expected = (
                (P3.k * P3.lam) ** alpha * math.exp(-t * (P3.k * P3.lam) ** alpha)
            )
            assert sfppok_first_passage(P3, alpha, 1, t) == pytest.approx(
                expected, rel=1e-12
            )
        assert sfppok_first_passage(P3, 0.7, 1, 0.8) == pytest.approx(
            0.21227267229651672, rel=1e-12
        )

    def test_first_passage_matches_cdf_derivative(self):
        # density_l(t) = -d/dt P(N(t) < l), checked by central difference.
        alpha, dt = 0.7, 1e-5
        for level in (2, 3, 5):
            for t in (0.5, 1.2):
                below = lambda tt: sum(
                    sfppok_pmf(P3, j, tt, alpha) for j in range(level)
                )
                fd = -(below(t + dt) - below(t - dt)) / (2 * dt)
                assert sfppok_first_passage(P3, alpha, level, t) == pytest.approx(
                    fd, rel=1e-5
                )

    def test_first_passage_total_mass_identity(self):
        # integral_0^T density + P(N(T) < l) = 1 for any horizon T.
        alpha, level, horizon = 0.7, 3, 4.0
        val, _ = quad(
            lambda t: sfppok_first_passage(P3, alpha, level, t), 0.0, horizon, limit=200
        )
        remaining = sum(sfppok_pmf(P3, j, horizon, alpha) for j in range(level))
        assert val + remaining == pytest.approx(1.0, abs=1e-8)

    def test_first_passage_past_zero_count_underflow(self):
        # (k lam)^alpha t = 700: the density is below 1e-245 at levels 30 and 61
        t = 700.0 / (P3.k * P3.lam) ** 0.7
        for level in (30, 61):
            log_p, h = sf_taylor_log(3, 2.0, 0.7, t, level)
            # -d/dt P(N(t) < level) = sum_(j < level) [u^j] h(u) exp(-t h(u))
            ref = math.fsum(np.convolve(h, np.exp(log_p))[:level])
            assert sfppok_first_passage(P3, 0.7, level, t) == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_first_passage_at_alpha_one_is_the_base_route(self, k):
        # at alpha = 1 the base process leaves a count j < level by a batch of
        # size >= level - j, at rate lam (k - level + j + 1); no jump past k
        # exists, so far levels must not pick up rounding noise
        p = OrderParams(k=k, lam=0.3)
        for level in (1, k - 1, k + 1, 20, 61):
            for t in (0.01, 0.1, 1.0):
                ref = math.fsum(
                    ppok_pmf(p, j, t) * p.lam * (k - level + j + 1)
                    for j in range(max(level - k, 0), level)
                )
                assert sfppok_first_passage(p, 1.0, level, t) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_first_passage_vectorized(self):
        t = np.array([0.4, 0.9, 1.7])
        out = sfppok_first_passage(P3, 0.7, 2, t)
        assert out.shape == t.shape
        for i, ti in enumerate(t):
            assert out[i] == pytest.approx(sfppok_first_passage(P3, 0.7, 2, float(ti)))

    def test_validation(self):
        with pytest.raises(DomainError):
            sfppok_levy_weights(P3, 0.7, 0)
        with pytest.raises(DomainError):
            sfppok_levy_weights(P3, 0.7, 201)
        with pytest.raises(DomainError):
            sfppok_first_passage(P3, 0.7, 0, 1.0)
        for t in (-1.0, math.inf, math.nan, np.array([0.5, math.inf])):
            with pytest.raises(DomainError):
                sfppok_first_passage(P3, 0.7, 2, t)


class TestTemperedTimeSpace:
    def test_reduction_chain_to_base(self):
        for u in (0.2, 0.5, 0.8):
            assert ttsfppok_pgf(P3, u, 1.0, 1.0, 1.0, 0.0, 0.0) == pytest.approx(
                ppok_pgf(P3, u, 1.0), rel=1e-9
            )

    def test_reduction_to_time_fractional(self):
        for u in (0.2, 0.5, 0.8):
            assert ttsfppok_pgf(P3, u, 1.0, 1.0, 0.7, 0.0, 0.0) == pytest.approx(
                tfppok_pgf(P3, u, 1.0, 0.7), rel=1e-8
            )

    def test_reduction_to_space_fractional(self):
        for u in (0.2, 0.5, 0.8):
            assert ttsfppok_pgf(P3, u, 1.0, 0.7, 1.0, 0.0, 0.0) == pytest.approx(
                sfppok_pgf(P3, u, 1.0, 0.7), rel=1e-12
            )

    def test_nu_zero_is_mittag_leffler_in_tempered_rate(self):
        u, t, alpha, beta, mu = 0.4, 1.0, 0.6, 0.8, 1.5
        a_val = (mu + P3.k * P3.lam * (1.0 - batch_pgf(P3, u))) ** alpha - mu**alpha
        assert ttsfppok_pgf(P3, u, t, alpha, beta, mu, 0.0) == pytest.approx(
            mittag_leffler(beta, 1.0, -a_val * t**beta), rel=1e-12
        )

    def test_boundary_and_monotonicity(self):
        assert ttsfppok_pgf(P3, 1.0, 1.0, 0.6, 0.8, 1.0, 0.5) == 1.0
        us = np.linspace(0.0, 1.0, 9)
        vals = [ttsfppok_pgf(P3, float(u), 1.0, 0.6, 0.8, 1.0, 0.5) for u in us]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_against_sampler(self):
        u, t = 0.5, 1.0
        variant = TemperedTimeSpace(alpha=0.7, beta=0.8, mu=1.0, nu=0.5)
        x = sample_fractional_counts(P3, variant, t, 20_000, RngStream(27))
        probe = u ** x.astype(float)
        se = probe.std(ddof=1) / math.sqrt(x.size)
        exact = ttsfppok_pgf(P3, u, t, 0.7, 0.8, 1.0, 0.5)
        assert abs(probe.mean() - exact) < 4.0 * se

    def test_zero_tempering_is_stable(self):
        assert TemperedTimeSpace(0.6, 0.8, 0.0, 0.0).inner == Stable(0.8)
        assert TemperedTimeSpace(0.6, 0.8, 0.0, 0.0).outer == Stable(0.6)
        assert TemperedTimeSpace(0.6, 0.8, 0.5, 0.3).inner == TemperedStable(0.8, 0.3)
        assert TemperedTimeSpace(0.6, 0.8, 0.5, 0.3).outer == TemperedStable(0.6, 0.5)

    def test_nu_zero_sampler_is_exact(self):
        # nu = 0 takes the exact inverse stable clock; no grid-bias allowance
        u, t = 0.5, 1.0
        variant = TemperedTimeSpace(alpha=0.7, beta=0.8, mu=1.0, nu=0.0)
        x = sample_fractional_counts(P3, variant, t, 40_000, RngStream(28))
        probe = u ** x.astype(float)
        se = probe.std(ddof=1) / math.sqrt(x.size)
        exact = ttsfppok_pgf(P3, u, t, 0.7, 0.8, 1.0, 0.0)
        assert abs(probe.mean() - exact) < 4.0 * se

    @pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
    def test_nu_zero_half_is_erfcx(self, t):
        # E_{1/2}(-z) = erfcx(z), here at z = A t^(1/2) = 5.5, 6.4 and 7.8
        u, alpha, mu = 0.2, 0.9, 0.3
        a_val = (mu + P3.k * P3.lam * (1.0 - batch_pgf(P3, u))) ** alpha - mu**alpha
        assert ttsfppok_pgf(P3, u, t, alpha, 0.5, mu, 0.0) == pytest.approx(
            erfcx(a_val * math.sqrt(t)), rel=1e-13
        )

    @pytest.mark.parametrize(
        "k, lam, u, alpha, beta, mu, nu, t",
        [
            (3, 2.0, 0.2, 0.9, 0.5, 0.3, 0.5, 1.5),
            (3, 2.0, 0.2, 0.9, 0.5, 0.3, 0.5, 2.0),
            (1, 1.0, 0.5, 1.0, 0.3, 0.0, 0.2, 0.5),
            (2, 0.5, 0.0, 0.6, 0.95, 1.0, 3.0, 5.0),
            (4, 3.0, 0.0, 1.0, 0.7, 0.0, 1.0, 1.0),
            (3, 1.5, 0.9, 0.7, 0.9, 0.5, 0.5, 1.0),
            (5, 2.0, -0.5, 0.8, 0.5, 2.0, 2.0, 3.0),
            (2, 0.1, 0.8, 1.0, 0.3, 0.0, 1.0, 2.0),
            (1, 0.02, 0.5, 1.0, 0.5, 0.0, 1.0, 1.0),
            (1, 20.0, 0.0, 1.0, 0.8, 0.0, 0.3, 4.0),
            (3, 0.05, 0.0, 0.5, 0.6, 0.0, 2.0, 30.0),
            (2, 1.0, 0.3, 0.4, 0.2, 1.5, 0.7, 0.3),
        ],
    )
    def test_talbot_references(self, k, lam, u, alpha, beta, mu, nu, t):
        # E exp(-x E(t)) has the Laplace transform phi(s) / (s (phi(s) + x)) in t,
        # phi(s) = (s + nu)^beta - nu^beta; Talbot's contour inverts it in mpmath
        params = OrderParams(k, lam)
        x = (mu + k * lam * (1.0 - batch_pgf(params, u))) ** alpha - mu**alpha
        with mp.workdps(40):
            b, n, xx = mp.mpf(beta), mp.mpf(nu), mp.mpf(x)

            def transform(s):
                phi = (s + n) ** b - n**b
                return phi / (s * (phi + xx))

            ref = float(mp.invertlaplace(transform, t, method="talbot"))
        assert ttsfppok_pgf(params, u, t, alpha, beta, mu, nu) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 5),
        log_lam=st.floats(-2.0, 2.0),
        alpha=st.floats(0.3, 1.0),
        beta=st.floats(0.1, 0.99),
        mu=st.floats(0.0, 2.0),
        log_nu=st.floats(-4.0, 2.0),
        log_t=st.floats(-3.0, 2.0),
    )
    def test_pgf_properties(self, k, log_lam, alpha, beta, mu, log_nu, log_t):
        # a pgf on [0, 1] lies in [0, 1], does not decrease and is 1 at u = 1;
        # no value in this domain is refused
        params = OrderParams(k, math.exp(log_lam))
        t, nu = math.exp(log_t), math.exp(log_nu)
        vals = [ttsfppok_pgf(params, float(u), t, alpha, beta, mu, nu) for u in np.linspace(0.0, 1.0, 6)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
    def test_readme_grid_against_talbot(self, beta):
        # the README's 560-point grid (80 points per beta): every value is
        # answered, and within 1e-13 of Talbot wherever it is above 1e-30,
        # where 30-digit Talbot keeps the value's own digits.  k = 1 and
        # u = 0 make x = lam.
        for nu in (0.05, 0.5, 3.0, 20.0):
            for t in (0.1, 1.0, 5.0, 30.0):
                for x in (1e-3, 0.1, 1.0, 10.0, 100.0):
                    got = ttsfppok_pgf(OrderParams(1, x), 0.0, t, 1.0, beta, 0.0, nu)
                    with mp.workdps(30):
                        b, n, xx = mp.mpf(beta), mp.mpf(nu), mp.mpf(x)

                        def transform(s):
                            phi = (s + n) ** b - n**b
                            return phi / (s * (phi + xx))

                        ref = float(mp.invertlaplace(transform, t, method="talbot"))
                    if ref > 1e-30:
                        assert got == pytest.approx(ref, rel=1e-13, abs=0.0), (nu, t, x)


class TestTables:
    def test_base_table_consistency(self):
        table = pmf_table(P3, 1.0, 30)
        assert table.n_max == 30
        for n in (0, 3, 17):
            assert table.probs[n] == pytest.approx(ppok_pmf(P3, n, 1.0), rel=1e-13)
        assert table.truncation_mass == pytest.approx(
            1.0 - table.probs.sum(), abs=1e-15
        )
        assert table.meta["variant"] == "ppok"

    @pytest.mark.parametrize(
        "variant", [None, TimeFractional(0.7), SpaceFractional(0.6)], ids=["ppok", "tf", "sf"]
    )
    def test_rows_match_scipy_log_factorials(self, monkeypatch, variant):
        # the rows as built from scipy's gammaln log factorials; those differ
        # from math.lgamma's in their last bits, at most 1e-15 of log n!, and
        # a row of positive terms moves by no more than that
        lgamma_triangle = fracppk.combinatorics._zeta_triangle

        def scipy_triangle(k, top):
            z = np.arange(top + 1) + 1.0
            return lgamma_triangle(k, top) + [math.lgamma(v) for v in z] - gammaln(z)

        for params, t, n_max in ((P3, 1.0, 40), (OrderParams(1, 3.0), 3.0, 40), (OrderParams(5, 1.0), 2.0, 60)):
            rows = pmf_table(params, t, n_max, variant).probs
            with monkeypatch.context() as patch:
                patch.setattr(fracppk.combinatorics, "_zeta_triangle", scipy_triangle)
                ref = pmf_table(params, t, n_max, variant).probs
            np.testing.assert_allclose(rows, ref, rtol=1e-15 * math.lgamma(n_max + 1.0), atol=0)

    def test_tf_beta_one_routes_to_base(self):
        a = pmf_table(P3, 1.0, 15, variant=TimeFractional(1.0))
        b = pmf_table(P3, 1.0, 15)
        np.testing.assert_allclose(a.probs, b.probs, rtol=1e-14)

    def test_variant_metadata(self):
        table = pmf_table(P3, 1.0, 10, variant=SpaceFractional(0.7))
        assert table.meta["variant"] == "sf"
        assert table.meta["alpha"] == 0.7

    def test_ttsf_table_unavailable(self):
        # no clock weights yet for an inverse tempered stable clock, and the
        # refusal says so
        for variant in (
            TemperedTimeSpace(0.7, 0.8, 1.0, 0.5),
            TemperedTimeSpace(1.0, 0.8, 0.0, 0.5),
        ):
            with pytest.raises(DomainError, match=r"no pmf table for an inverse tempered stable clock \(nu > 0\)"):
                pmf_table(P3, 1.0, 10, variant=variant)

    @pytest.mark.parametrize(
        "alpha, beta, mu, t", [(0.7, 0.6, 0.0, 1.0), (0.9, 0.5, 0.3, 2.0), (0.7, 1.0, 0.5, 1.0), (0.3, 0.9, 2.0, 3.0)]
    )
    def test_ttsf_table_matches_pgf(self, alpha, beta, mu, t):
        # the truncated tail adds at most truncation_mass u^61 < 1e-18 at u <= 0.5
        table = pmf_table(P3, t, 60, TemperedTimeSpace(alpha, beta, mu, 0.0))
        assert table.meta["variant"] == "ttsf" and table.meta["nu"] == 0.0
        for u in (0.1, 0.3, 0.5):
            partial = float(table.probs @ u ** np.arange(61))
            assert partial == pytest.approx(ttsfppok_pgf(P3, u, t, alpha, beta, mu, 0.0), rel=1e-13)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_ttsf_table_matches_exact_draws(self, seed):
        # nu = 0 clocks are drawn exactly; the truncated tail is one more bin
        for variant, t in ((TemperedTimeSpace(0.7, 0.6, 0.0, 0.0), 1.0), (TemperedTimeSpace(0.9, 0.5, 0.3, 0.0), 2.0)):
            counts = sample_fractional_counts(P3, variant, t, 20_000, RngStream(seed))
            rep = compare_pmf(pmf_table(P3, t, 60, variant), counts)
            assert rep.p_value > 0.001

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 6),
        lam=st.floats(0.1, 5.0),
        alpha=st.floats(0.05, 1.0, exclude_min=True),
        beta=st.floats(0.05, 1.0, exclude_min=True),
        mu=st.floats(0.0, 5.0),
        t=st.floats(1e-3, 50.0),
        n_max=st.integers(0, 60),
    )
    def test_ttsf_table_properties(self, k, lam, alpha, beta, mu, t, n_max):
        # a table holds nonnegative entries and all the mass, or is refused
        try:
            table = pmf_table(OrderParams(k, lam), t, n_max, TemperedTimeSpace(alpha, beta, mu, 0.0))
        except (DomainError, NonConvergence):
            return
        assert np.all(np.isfinite(table.probs)) and np.all(table.probs >= 0.0)
        assert abs(table.probs.sum() + table.truncation_mass - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
    def test_ttsf_tables_of_its_stages(self, t):
        # a ttsf variant whose stages are those of the tf, sf or base process
        # reads that table, bit for bit
        for ttsf, same in (
            (TemperedTimeSpace(1.0, 0.7, 0.0, 0.0), TimeFractional(0.7)),
            (TemperedTimeSpace(0.6, 1.0, 0.0, 0.0), SpaceFractional(0.6)),
            (TemperedTimeSpace(1.0, 1.0, 0.5, 0.5), None),
        ):
            table = pmf_table(P3, t, 40, ttsf)
            assert np.array_equal(table.probs, pmf_table(P3, t, 40, same).probs)
            assert table.meta["variant"] == "ttsf" and table.meta["mu"] == ttsf.mu

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "make, pmf, lam",
        [(TimeFractional, tfppok_pmf, 1.0), (SpaceFractional, sfppok_pmf, 0.5)],
        ids=["tf", "sf"],
    )
    def test_table_matches_per_n_evaluators(self, k, make, pmf, lam):
        # the per-n values cover both ends of every table and rows between
        params = OrderParams(k=k, lam=lam)
        ns = np.array([0, 1, 2, 3, 7, 12, 19, 20, 27, 33, 39, 40])
        for index in (0.5, 0.7, 0.9, 1.0, None):
            variant = None if index is None else make(index)
            for t in (0.5, 1.0, 3.0):
                if index is None or index == 1.0:
                    per_n = [ppok_pmf(params, n, t) for n in ns]
                else:
                    per_n = [pmf(params, n, t, index) for n in ns]
                for n_max in (0, 1, 20, 40):
                    table = pmf_table(params, t, n_max, variant)
                    rows = ns <= n_max
                    np.testing.assert_allclose(
                        table.probs[ns[rows]], np.array(per_n)[rows], rtol=1e-12
                    )

    def test_tf_table_evaluates_each_order_once(self):
        # every batch count of a table, a pgf and 300 governing-size tables
        # read one rule for log M per beta, built once and kept read-only in a
        # bounded cache
        from fracppk.specfun import _log_m_rule

        _log_m_rule.cache_clear()
        pmf_table(P3, 1.0, 40, TimeFractional(0.7))
        tfppok_pgf(P3, 0.5, 1.0, 0.7)
        for t in np.linspace(0.05, 2.0, 300):
            pmf_table(OrderParams(k=3, lam=1.5), float(t), 3, TimeFractional(0.7))
        info = _log_m_rule.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        rule = _log_m_rule(0.7)
        assert not any(arr.flags.writeable for arr in rule)
        with pytest.raises(ValueError):
            rule.log_w[0] = 0.0
        for beta in np.linspace(0.3, 0.9, info.maxsize + 4):
            _log_m_rule(float(beta))
        assert _log_m_rule.cache_info().currsize == info.maxsize

    @pytest.mark.parametrize(
        "variant",
        [
            None,
            TimeFractional(0.3),
            TimeFractional(0.7),
            TimeFractional(0.95),
            TimeFractional(1.0),
            SpaceFractional(0.6),
        ],
        ids=["ppok", "tf-0.3", "tf-0.7", "tf-0.95", "tf-1.0", "sf-0.6"],
    )
    def test_rows_at_many_times_equal_per_time_tables(self, variant):
        # one call over an array of times gives an (n, T) block whose columns
        # are the tables at each time alone; beta = 1 goes through the stage
        # dispatch to the base rows
        times = np.array([0.01, 0.2, 0.5, 1.0, 2.5, 4.0])
        for params, n_max in ((P3, 40), (OrderParams(1, 3.0), 25), (OrderParams(5, 0.7), 12)):
            block = fracppk.processes._rows(params, variant, times, 0, n_max)
            assert block.shape == (n_max + 1, times.size)
            window = fracppk.processes._rows(params, variant, times, 4, 9)
            for j, t in enumerate(times):
                table = pmf_table(params, float(t), n_max, variant).probs
                np.testing.assert_allclose(block[:, j], table, rtol=1e-14, atol=0)
                np.testing.assert_allclose(window[:, j], table[4:10], rtol=1e-14, atol=0)

    def test_rows_at_many_times_refuse_as_any_one_time(self):
        # beta = 0.7 certifies its tables at t = 1 but not at t = 1e6, and
        # beta = 0.99995 has no certified rule for log M at all
        assert pmf_table(P3, 1.0, 40, TimeFractional(0.7)).n_max == 40
        with pytest.raises(NonConvergence):
            pmf_table(P3, 1e6, 40, TimeFractional(0.7))
        with pytest.raises(NonConvergence):
            fracppk.processes._rows(P3, TimeFractional(0.7), np.array([0.5, 1.0, 1e6, 2.0]), 0, 40)
        with pytest.raises(NonConvergence):
            fracppk.processes._rows(P3, TimeFractional(0.99995), np.array([0.5, 1.0]), 0, 10)

    def test_tables_where_lam_t_leaves_the_floats(self):
        # a rate times a time that underflows leaves all the mass at 0, and one
        # that overflows leaves none in the table: no log of 0, no NaN rows
        for variant in (None, SpaceFractional(0.5), SpaceFractional(0.7)):
            tiny = pmf_table(OrderParams(3, 1e-300), 1e-300, 3, variant)
            assert tiny.probs.tolist() == [1.0, 0.0, 0.0, 0.0] and tiny.truncation_mass == 0.0
            huge = pmf_table(OrderParams(3, 1e200), 1e200, 3, variant)
            assert huge.probs.tolist() == [0.0] * 4 and huge.truncation_mass == 1.0

    def test_tempered_total_rate_without_cancellation(self):
        # W = (mu + k lam)^alpha - mu^alpha cancels where k lam << mu; formed
        # from k lam / mu it stays positive, and elsewhere it is the difference
        jump_weights = fracppk.processes._jump_weights
        for lam in (1e-150, 1e-12, 1e-4):
            w, total = jump_weights(OrderParams(3, lam), 0.7, 0.5, 3)
            slope = 0.7 * 0.5**-0.3 * 3 * lam  # d/dx (mu + x)^alpha at x = 0
            assert total == pytest.approx(slope, rel=1e-3) and w.sum() == pytest.approx(total, rel=1e-3)
        for lam, mu in ((2.0, 0.5), (0.5, 0.2), (1.0, 0.0)):
            total = jump_weights(OrderParams(3, lam), 0.7, mu, 3)[1]
            assert total == (mu + 3 * lam) ** 0.7 - mu**0.7
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for lam, mu in ((0.5, 1.0), (1e-9, 2.0), (2.0, 0.5)):
                want = (mpmath.mpf(mu) + 3 * mpmath.mpf(lam)) ** 0.7 - mpmath.mpf(mu) ** 0.7
                total = jump_weights(OrderParams(3, lam), 0.7, mu, 3)[1]
                assert total == pytest.approx(float(want), rel=4e-16)
        # W is the clock's Laplace exponent at k lam, bit for bit
        for lam, mu in ((1e-9, 2.0), (2.0, 0.5), (1e-10, 1e300)):
            total = jump_weights(OrderParams(3, lam), 0.7, mu, 3)[1]
            assert total == fracppk.laplace_exponent(fracppk.TemperedStable(0.7, mu), 3 * lam)

    def test_tempered_rate_far_below_mu(self):
        # k lam / mu underflows at mu = 1e300 for lam below about 1e-24: the
        # rows keep p_n = alpha mu^(alpha - 1) lam E[H(1)] for n = 1..k, from
        # the first term of W, until W itself underflows and only p_0 = 1 is left
        variant = TemperedTimeSpace(0.7, 0.6, 1e300, 0.0)
        for lam in (1e-10, 1e-100, 1e-200):
            table = pmf_table(OrderParams(3, lam), 1.0, 3, variant)
            rate = 0.7 * 1e300**-0.3 * lam / math.gamma(1.6)
            assert table.probs[0] == 1.0 and table.truncation_mass == 0.0
            np.testing.assert_allclose(table.probs[1:], rate, rtol=1e-12)
        tiny = pmf_table(OrderParams(3, 1e-300), 1.0, 3, variant)
        assert tiny.probs.tolist() == [1.0, 0.0, 0.0, 0.0] and tiny.truncation_mass == 0.0
        window = fracppk.processes._rows(OrderParams(3, 1e-300), variant, np.array([1.0, 2.0]), 1, 3)
        assert window.tolist() == [[0.0, 0.0]] * 3

    def test_table_above_unit_mass_is_refused(self, monkeypatch):
        # rows that lost accuracy must be refused rather than have their tail
        # mass clamped to 0, and rows with a NaN entry with them
        for rows in ([0.2, 1.5, 0.1], [0.2, math.nan, 0.1]):
            monkeypatch.setattr(fracppk.processes, "_rows", lambda *args: np.array(rows))
            with pytest.raises(NonConvergence):
                pmf_table(OrderParams(k=5, lam=2.1), 3.0, 30, SpaceFractional(0.7))

    def test_table_validation(self):
        with pytest.raises(DomainError):
            pmf_table(P3, 1.0, 61)
        with pytest.raises(DomainError):
            PmfTable(np.array([0.5, -0.2]), 0.0)
        with pytest.raises(DomainError):
            PmfTable(np.array([0.5, math.nan]), 0.0)
        for bad in (math.nan, -3.0, 2.0, "0.5", None):
            with pytest.raises(DomainError, match="truncation mass"):
                PmfTable([0.5, 0.5], bad)


class TestSamplers:
    def test_path_marks_and_counts(self):
        path = sample_ppok_path(P3, 2.0, RngStream(30))
        assert np.all(path.marks >= 1) and np.all(path.marks <= 3)
        assert np.all(np.diff(path.times) >= 0)
        counts = path.count_at([0.0, 1.0, 2.0])
        assert counts[0] == 0
        assert counts[2] == path.marks.sum()

    def test_path_reproducible(self):
        a = sample_ppok_path(P3, 2.0, RngStream(31))
        b = sample_ppok_path(P3, 2.0, RngStream(31))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.marks, b.marks)

    def test_counts_moments(self):
        x = sample_ppok_counts(P3, 1.0, 50_000, RngStream(32))
        mean, var = ppok_moments(P3, 1.0)
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - mean) < 4.0 * se_mean
        assert x.var() == pytest.approx(var, rel=0.05)

    def test_path_terminal_law_matches_counts(self):
        path_counts = np.array(
            [
                sample_ppok_path(P3, 1.0, RngStream(33, i)).count_at(1.0)
                for i in range(4000)
            ],
            dtype=float,
        )
        mean, _ = ppok_moments(P3, 1.0)
        se = path_counts.std(ddof=1) / math.sqrt(path_counts.size)
        assert abs(path_counts.mean() - mean) < 4.0 * se

    def test_tf_counts_mean(self):
        x = sample_fractional_counts(
            P3, TimeFractional(0.7), 1.0, 20_000, RngStream(34)
        )
        se = x.std(ddof=1) / math.sqrt(x.size)
        expected = tfppok_mean(P3, 1.0, 0.7)
        assert abs(x.mean() - expected) < 4.0 * se

    def test_sf_zero_probability(self):
        x = sample_fractional_counts(
            P3, SpaceFractional(0.7), 1.0, 40_000, RngStream(35)
        )
        p0 = math.exp(-(6.0**0.7))
        lo, hi = binom.interval(0.9999, x.size, p0)
        assert lo <= (x == 0).sum() <= hi

    def test_boundary_variants_equal_base_law(self):
        mean, _ = ppok_moments(P3, 1.0)
        for variant in (
            None,
            TimeFractional(1.0),
            SpaceFractional(1.0),
            TemperedTimeSpace(1.0, 1.0, 0.5, 0.5),
        ):
            x = sample_fractional_counts(P3, variant, 1.0, 20_000, RngStream(36))
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(x.mean() - mean) < 4.0 * se

    def test_counts_beyond_int64_refused(self):
        # a heavy sf clock would wrap the int64 count (seed 141) or overflow
        # numpy's Poisson sampler (seed 52); both are refused before drawing
        with pytest.raises(CapExceeded):
            _counts_given_clock(OrderParams(4, 2.0), np.array([6e17]), RngStream(0).generator())
        for seed in (141, 52):
            with pytest.raises(CapExceeded):
                sample_fractional_counts(
                    OrderParams(4, 2.0), SpaceFractional(0.3), 0.5, 20_000, RngStream(seed)
                )
        # the shared-clock route refuses before it draws: the generator is untouched
        gen = RngStream(0).generator()
        for variant in (None, TimeFractional(1.0)):
            with pytest.raises(CapExceeded):
                sample_fractional_counts(OrderParams(4, 2.0), variant, 6e17, 8, gen)
        np.testing.assert_array_equal(gen.random(4), RngStream(0).generator().random(4))

    @pytest.mark.parametrize("lam_t", [0.5, 9.99, 10.0, 30.0])
    def test_boundary_variants_draw_the_base_stream(self, lam_t):
        # an index of 1 drops the clock stage, so the draws are the base
        # process's own on either side of the labelling switch
        params = OrderParams(3, lam_t)
        base = sample_ppok_counts(params, 1.0, 5000, RngStream(38))
        for variant in (
            TimeFractional(1.0),
            SpaceFractional(1.0),
            TemperedTimeSpace(1.0, 1.0, 0.5, 0.5),
            TemperedTimeSpace(1.0, 1.0, 0.0, 2.0),
        ):
            x = sample_fractional_counts(params, variant, 1.0, 5000, RngStream(38))
            np.testing.assert_array_equal(x, base)

    @pytest.mark.parametrize("k,t", [(1, 5.0), (3, 5.0), (5, 15.0)])
    def test_counts_above_switch_are_per_row_draws(self, k, t):
        # from lam t = 10 on, a shared clock draws the per-row stream bit for bit
        params = OrderParams(k, 2.0)
        x = sample_ppok_counts(params, t, 4000, RngStream(39, k))
        want = _counts_given_clock(params, np.full(4000, t), RngStream(39, k).generator())
        np.testing.assert_array_equal(x, want)

    @pytest.mark.parametrize("lam_t", [0.5, 4.0, 9.99, 10.0, 30.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_labelled_counts_match_exact_law(self, k, lam_t):
        # below lam t = 10 each batch size is one Poisson total with uniform row
        # labels, from 10 on k Poisson draws per row.  The reference convolves
        # the k batch streams out to 12 sd past the mean, where pmf_table's
        # 60 rows stop short, and agrees with pmf_table on those rows.
        mean = lam_t * k * (k + 1) / 2.0
        n_max = max(60, int(mean + 12.0 * math.sqrt(lam_t * k * (k + 1) * (2 * k + 1) / 6.0)))
        pois = np.exp(np.arange(n_max + 1) * math.log(lam_t) - lam_t - gammaln(np.arange(1.0, n_max + 2)))
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0
        for j in range(1, k + 1):
            batch = np.zeros(n_max + 1)
            batch[::j] = pois[: (n_max + j) // j]
            probs = np.convolve(probs, batch)[: n_max + 1]
        params = OrderParams(k, lam_t)
        table = pmf_table(params, 1.0, 60)
        np.testing.assert_allclose(probs[:61], table.probs, rtol=1e-9, atol=1e-300)
        counts = sample_ppok_counts(params, 1.0, 20_000, RngStream(40, k))
        rep = compare_pmf(PmfTable(probs, max(0.0, 1.0 - probs.sum())), counts)
        assert rep.p_value > 0.001

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_counts_match_table_chi_square(self, k):
        # lam t = 1.1 is below the labelling switch: each batch size is one
        # Poisson total over the rows, its batches given uniform rows
        params = OrderParams(k, 1.1)
        counts = sample_ppok_counts(params, 1.0, 20_000, RngStream(37, k))
        rep = compare_pmf(pmf_table(params, 1.0, 60), counts)
        assert rep.p_value > 0.001

    def test_marked_path_validation(self):
        with pytest.raises(DomainError):
            MarkedEventPath(np.array([0.5, 0.2]), np.array([1, 1]), 1.0)
        with pytest.raises(DomainError):
            MarkedEventPath(np.array([0.2, 0.5]), np.array([0, 1]), 1.0)
        with pytest.raises(DomainError):
            sample_ppok_counts(P3, 1.0, 0, RngStream(0))
        for horizon in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                sample_ppok_path(P3, horizon, RngStream(0))
        for bad in (math.nan, -1.0, math.inf):
            with pytest.raises(DomainError, match="horizon"):
                MarkedEventPath([], [], bad)


_UNIT = BoxRegion((0.0,), (1.0,))

# every count slot of the public entry points (sample_increment's size, whose
# None is its default, is checked with its steps); 8 is a valid value of each
_COUNT_ENTRY_POINTS = {
    "sample_inverse_at": lambda n: sample_inverse_at(Stable(0.7), [1.0], n, RngStream(0)),
    "sample_inverse_at.gamma": lambda n: sample_inverse_at(Gamma(2.0, 1.0), [1.0], n, RngStream(0)),
    "sample_fractional_counts": lambda n: sample_fractional_counts(P3, TimeFractional(0.7), 1.0, n, RngStream(0)),
    "sample_ppok_counts": lambda n: sample_ppok_counts(P3, 1.0, n, RngStream(0)),
    "sample_region_clocks": lambda n: sample_region_clocks(TimeFractional(0.7), [1.0, 2.0], n, RngStream(0)),
    "fractional_field_pmf": lambda n: fractional_field_pmf(
        P3, TimeFractional(0.7), BoxRegion((0.0,), (1.0,)), 2, n, RngStream(0)
    ),
    "martingale_check": lambda n: martingale_check(P3, InverseGaussian(1.0, 1.0), [1.0], n, RngStream(0)),
    "OrderParams.k": lambda n: OrderParams(n, 2.0),
    "zeta_table.n_max": lambda n: fp.zeta_table(3, n),
    "zeta_profile.n": lambda n: fp.zeta_profile(3, n),
    "log_omega_kernel.k": lambda n: fp.log_omega_kernel(n, 5, 1.0),
    "log_omega_kernel.n": lambda n: fp.log_omega_kernel(3, n, 1.0),
    "ppok_pmf.n": lambda n: ppok_pmf(P3, n, 1.0),
    "tfppok_pmf.n": lambda n: tfppok_pmf(P3, n, 1.0, 0.7),
    "sfppok_pmf.n": lambda n: sfppok_pmf(P3, n, 1.0, 0.7),
    "pmf_table.n_max": lambda n: pmf_table(P3, 1.0, n),
    "sfppok_levy_weights.y_max": lambda n: sfppok_levy_weights(P3, 0.7, n),
    "sfppok_first_passage.level": lambda n: sfppok_first_passage(P3, 0.7, n, 1.0),
    "ml_derivative.n": lambda n: fp.ml_derivative(n, 0.7, -1.0),
    "ml_derivatives.orders": lambda n: fp.ml_derivatives([1, n], 0.7, 1.0),
    "field_pmf.n": lambda n: fp.field_pmf(P3, _UNIT, n),
    "fractional_field_pmf.counts": lambda n: fractional_field_pmf(
        P3, TimeFractional(0.7), _UNIT, n, 4, RngStream(0)
    ),
    "estimate_pmf.n_max": lambda n: fp.estimate_pmf([1, 2], n),
    "governing_residual_tf.n_max": lambda n: fp.governing_residual_tf(P3, 0.7, n_max=n, n_steps=8),
    "governing_residual_tf.n_steps": lambda n: fp.governing_residual_tf(P3, 0.7, n_max=1, n_steps=n),
}


@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRY_POINTS))
def test_counts_must_be_integers(entry):
    # a count is a Python or numpy integer, the rule sample_increment applies
    # to its size; anything else is a DomainError, not numpy's TypeError,
    # ValueError or OverflowError, a RuntimeWarning, NaN or a truncated value
    call = _COUNT_ENTRY_POINTS[entry]
    for bad in (2.5, 2.0, 8.0, math.nan, math.inf, -math.inf, "3", None):
        with pytest.raises(DomainError):
            call(bad)
    call(np.int32(8))
    call(8)


_MUST_BE_FINITE = (math.nan, math.inf, -math.inf)
_MAY_BE_INFINITE = (math.nan, -math.inf)
_MUST_BE_FINITE_REAL = _MUST_BE_FINITE + ("0.5", None)

# every real slot of the public entry points, with the values it must refuse:
# NaN everywhere, and the infinities wherever the value must be finite; also
# a string and None at every fractional or stable index and at the scalar
# reals read without a positivity check (_MUST_BE_FINITE_REAL)
# (sample_increment's steps and sample_inverse_at's times are checked with them)
_REAL_ENTRY_POINTS = {
    "OrderParams.lam": (lambda x: OrderParams(3, x), _MUST_BE_FINITE),
    "TimeFractional.beta": (lambda x: TimeFractional(x), _MUST_BE_FINITE_REAL),
    "SpaceFractional.alpha": (lambda x: SpaceFractional(x), _MUST_BE_FINITE_REAL),
    "TemperedTimeSpace.alpha": (lambda x: TemperedTimeSpace(x, 0.5, 0.5, 0.0), _MUST_BE_FINITE_REAL),
    "TemperedTimeSpace.beta": (lambda x: TemperedTimeSpace(0.5, x, 0.5, 0.0), _MUST_BE_FINITE_REAL),
    "TemperedTimeSpace.mu": (lambda x: TemperedTimeSpace(0.5, 0.5, x, 0.0), _MUST_BE_FINITE),
    "TemperedTimeSpace.nu": (lambda x: TemperedTimeSpace(0.5, 0.5, 0.0, x), _MUST_BE_FINITE),
    "log_omega_kernel.w": (lambda x: fp.log_omega_kernel(3, 5, [1.0, x]), _MAY_BE_INFINITE),
    "ppok_pmf.t": (lambda x: ppok_pmf(P3, 2, x), _MUST_BE_FINITE),
    "ppok_pgf.u": (lambda x: ppok_pgf(P3, x, 1.0), _MUST_BE_FINITE_REAL),
    "ppok_pgf.t": (lambda x: ppok_pgf(P3, 0.5, x), _MUST_BE_FINITE),
    "ppok_moments.t": (lambda x: ppok_moments(P3, x), _MUST_BE_FINITE),
    "tfppok_pmf.t": (lambda x: tfppok_pmf(P3, 2, x, 0.7), _MUST_BE_FINITE),
    "tfppok_pgf.u": (lambda x: tfppok_pgf(P3, x, 1.0, 0.7), _MUST_BE_FINITE_REAL),
    "tfppok_pgf.t": (lambda x: tfppok_pgf(P3, 0.5, x, 0.7), _MUST_BE_FINITE),
    "tfppok_mean.t": (lambda x: tfppok_mean(P3, x, 0.7), _MUST_BE_FINITE),
    "tfppok_cov.s": (lambda x: tfppok_cov(P3, x, 1.0, 0.7), _MUST_BE_FINITE),
    "tfppok_cov.t": (lambda x: tfppok_cov(P3, 1.0, x, 0.7), _MUST_BE_FINITE),
    "sfppok_pmf.t": (lambda x: sfppok_pmf(P3, 2, x, 0.7), _MUST_BE_FINITE),
    "sfppok_pgf.t": (lambda x: sfppok_pgf(P3, 0.5, x, 0.7), _MUST_BE_FINITE),
    "sfppok_first_passage.t": (lambda x: sfppok_first_passage(P3, 0.7, 3, [1.0, x]), _MUST_BE_FINITE),
    "ttsfppok_pgf.t": (lambda x: ttsfppok_pgf(P3, 0.5, x, 0.7, 0.8, 0.5, 1.0), _MUST_BE_FINITE),
    "pmf_table.t": (lambda x: pmf_table(P3, x, 10), _MUST_BE_FINITE),
    "sample_ppok_path.horizon": (lambda x: sample_ppok_path(P3, x, RngStream(0)), _MUST_BE_FINITE),
    "sample_fractional_counts.t": (
        lambda x: sample_fractional_counts(P3, None, x, 4, RngStream(0)),
        _MUST_BE_FINITE,
    ),
    "mittag_leffler.a": (lambda x: mittag_leffler(x, 1.0, -1.0), _MUST_BE_FINITE),
    "mittag_leffler.b": (lambda x: mittag_leffler(0.7, x, -1.0), (math.nan, "0.5", None)),
    "mittag_leffler.z": (lambda x: mittag_leffler(0.7, 1.0, x), _MUST_BE_FINITE_REAL),
    "prabhakar_ml.b": (lambda x: fp.prabhakar_ml(0.7, x, 0.5, -1.0), (math.nan, "0.5", None)),
    "prabhakar_ml.c": (lambda x: fp.prabhakar_ml(0.7, 1.0, x, -1.0), _MUST_BE_FINITE),
    "prabhakar_ml.z": (lambda x: fp.prabhakar_ml(0.7, 1.0, 0.5, x), _MUST_BE_FINITE_REAL),
    "ml_derivative.beta": (lambda x: fp.ml_derivative(2, x, -1.0), _MUST_BE_FINITE_REAL),
    "ml_derivative.z": (lambda x: fp.ml_derivative(2, 0.7, x), _MUST_BE_FINITE_REAL),
    "stable_density.beta": (lambda x: stable_density(x, 1.0, 1.0), _MUST_BE_FINITE_REAL),
    "stable_density.x": (lambda x: stable_density(0.7, x, 1.0), _MUST_BE_FINITE),
    "stable_density.t": (lambda x: stable_density(0.7, 1.0, x), _MUST_BE_FINITE),
    "inv_stable_density.beta": (lambda x: inv_stable_density(x, 1.0, 1.0), _MUST_BE_FINITE_REAL),
    "inv_stable_density.x": (lambda x: inv_stable_density(0.7, x, 1.0), _MUST_BE_FINITE),
    "inv_stable_density.t": (lambda x: inv_stable_density(0.7, 1.0, x), _MUST_BE_FINITE),
    "Stable.alpha": (lambda x: Stable(x), _MUST_BE_FINITE_REAL),
    "TemperedStable.alpha": (lambda x: TemperedStable(x, 1.0), _MUST_BE_FINITE_REAL),
    "TemperedStable.mu": (lambda x: TemperedStable(0.7, x), _MUST_BE_FINITE),
    "MixedStable.weights": (lambda x: fp.MixedStable((1.0, x), (0.5, 0.7)), _MUST_BE_FINITE),
    "MixedStable.alphas": (lambda x: fp.MixedStable((1.0, 1.0), (0.5, x)), _MUST_BE_FINITE_REAL),
    "MixtureTemperedStable.alphas": (lambda x: fp.MixtureTemperedStable((1.0,), (x,), (0.5,)), _MUST_BE_FINITE_REAL),
    "MixtureTemperedStable.mus": (lambda x: fp.MixtureTemperedStable((1.0,), (0.5,), (x,)), _MUST_BE_FINITE),
    "Gamma.p": (lambda x: Gamma(x, 1.0), _MUST_BE_FINITE),
    "InverseGaussian.gamma": (lambda x: InverseGaussian(1.0, x), _MUST_BE_FINITE),
    "laplace_exponent.s": (lambda x: fp.laplace_exponent(Stable(0.7), [1.0, x]), _MAY_BE_INFINITE),
    "sample_inverse_at.times": (lambda x: sample_inverse_at(Stable(0.7), [x], 1, RngStream(0)), _MUST_BE_FINITE),
    "sample_region_clocks.volumes": (
        lambda x: sample_region_clocks(TimeFractional(0.7), [1.0, x], 4, RngStream(0)),
        _MUST_BE_FINITE,
    ),
    "fractional_field_moments.beta": (lambda x: fp.fractional_field_moments(P3, x, [_UNIT]), _MUST_BE_FINITE),
    "estimate_pmf.samples": (lambda x: fp.estimate_pmf([1.0, x], 5), _MAY_BE_INFINITE),
    "compare_pmf.samples": (lambda x: compare_pmf(pmf_table(P3, 1.0, 10), [1.0] * 50 + [x]), _MAY_BE_INFINITE),
    "fractional_difference.alpha": (lambda x: fp.fractional_difference([1.0, 2.0], x), _MUST_BE_FINITE_REAL),
    "governing_residual_tf.t_end": (
        lambda x: fp.governing_residual_tf(P3, 0.7, n_max=1, t_end=x, n_steps=8),
        _MUST_BE_FINITE,
    ),
    "governing_residual_sf.t": (lambda x: fp.governing_residual_sf(P3, 0.7, t=x), _MUST_BE_FINITE),
    "governing_residual_sf.dt": (lambda x: fp.governing_residual_sf(P3, 0.7, dt=x), _MUST_BE_FINITE),
    "martingale_check.times": (
        lambda x: martingale_check(P3, Stable(0.7), [0.5, x], 4, RngStream(0)),
        _MUST_BE_FINITE,
    ),
}


@pytest.mark.parametrize("entry", sorted(_REAL_ENTRY_POINTS))
def test_reals_refuse_nan_and_infinities(entry):
    # NaN, or an infinity where the value must be finite, is a DomainError:
    # not numpy's ValueError or OverflowError, a RuntimeWarning, NonConvergence
    # or a NaN result
    call, refused = _REAL_ENTRY_POINTS[entry]
    for bad in refused:
        with pytest.raises(DomainError):
            call(bad)
