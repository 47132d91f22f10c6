"""Unit tests for the counting processes.

The strongest checks here go through subordination quadrature: every
fractional pmf must equal the base pmf integrated against the exact clock
density (inverse-stable for the time change, stable for the space change),
evaluated by adaptive quadrature against the Wright-series densities.  The
remaining checks are reduction chains (every variant must collapse to the
base process at its boundary index), transform duality, closed-form moments,
and Monte Carlo agreement of the samplers with their own distributions.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import binom

from fracppk import (
    CapExceeded,
    DomainError,
    MarkedEventPath,
    OrderParams,
    PmfTable,
    RngStream,
    SeriesControl,
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
from fracppk.processes import _counts_given_clock
from fracppk.subordinators import Stable, sample_inverse_at

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
        u, t, beta = 0.5, 1.0, 0.7
        z = -P3.k * P3.lam * t**beta * (1.0 - batch_pgf(P3, u))
        assert tfppok_pgf(P3, u, t, beta) == pytest.approx(
            mittag_leffler(beta, 1.0, z), rel=1e-13
        )

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
        # p(n, t) = integral of ppok_pmf(n, u) g_alpha(u, t) du.  The stable
        # density series loses float64 validity below u ~ 0.13 at alpha=0.7,
        # but the left tail carries ~2e-8 mass; past u = 40 the base pmf is
        # exp(-6u) small even though the density tail is heavy.
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
        with pytest.raises(DomainError):
            sfppok_first_passage(P3, 0.7, 2, -1.0)


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
        x = sample_fractional_counts(P3, variant, t, 20_000, RngStream(27), step=2e-3)
        probe = u ** x.astype(float)
        se = probe.std(ddof=1) / math.sqrt(x.size)
        exact = ttsfppok_pgf(P3, u, t, 0.7, 0.8, 1.0, 0.5)
        assert abs(probe.mean() - exact) < 4.0 * se + 5e-3

    def test_argument_cap(self):
        with pytest.raises(DomainError):
            ttsfppok_pgf(
                P3, 0.0, 50.0, 0.9, 0.5, 0.0, 0.0, control=SeriesControl(z_cap=10.0)
            )


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

    def test_tf_beta_one_routes_to_base(self):
        a = pmf_table(P3, 1.0, 15, variant=TimeFractional(1.0))
        b = pmf_table(P3, 1.0, 15)
        np.testing.assert_allclose(a.probs, b.probs, rtol=1e-14)

    def test_variant_metadata(self):
        table = pmf_table(P3, 1.0, 10, variant=SpaceFractional(0.7))
        assert table.meta["variant"] == "sf"
        assert table.meta["alpha"] == 0.7

    def test_ttsf_table_unavailable(self):
        with pytest.raises(DomainError):
            pmf_table(P3, 1.0, 10, variant=TemperedTimeSpace(0.7, 0.8, 1.0, 0.5))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "make, pmf, lam",
        [(TimeFractional, tfppok_pmf, 1.0), (SpaceFractional, sfppok_pmf, 0.5)],
        ids=["tf", "sf"],
    )
    def test_table_matches_per_n_evaluators(self, k, make, pmf, lam):
        # sf at lam = 0.5 keeps (k lam)^alpha t below 8, where its series holds;
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

    def test_tf_table_evaluates_each_order_once(self, monkeypatch):
        # one derivative per batch count zeta = 0..n_max, and the orders that
        # cancel in float64 share a single escalated pass
        import fracppk.processes as processes
        import fracppk.specfun as specfun

        orders, passes = [], []
        shared, escalated = specfun.ml_derivatives, specfun._ml_derivatives_mp

        def counted(order_list, *args, **kwargs):
            orders.extend(order_list)
            return shared(order_list, *args, **kwargs)

        def counted_mp(order_list, *args):
            passes.append(len(order_list))
            return escalated(order_list, *args)

        monkeypatch.setattr(specfun, "ml_derivatives", counted)
        monkeypatch.setattr(processes, "ml_derivatives", counted)
        monkeypatch.setattr(specfun, "_ml_derivatives_mp", counted_mp)
        pmf_table(OrderParams(k=3, lam=2.0), 1.0, 40, TimeFractional(0.7))
        assert len(orders) <= 41
        assert len(passes) == 1

    def test_table_validation(self):
        with pytest.raises(DomainError):
            pmf_table(P3, 1.0, 61)
        with pytest.raises(DomainError):
            PmfTable(np.array([0.5, -0.2]), 0.0)


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
        assert abs(x.mean() - expected) < 4.0 * se + 0.05

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

    def test_marked_path_validation(self):
        with pytest.raises(DomainError):
            MarkedEventPath(np.array([0.5, 0.2]), np.array([1, 1]), 1.0)
        with pytest.raises(DomainError):
            MarkedEventPath(np.array([0.2, 0.5]), np.array([0, 1]), 1.0)
        with pytest.raises(DomainError):
            sample_ppok_counts(P3, 1.0, 0, RngStream(0))
