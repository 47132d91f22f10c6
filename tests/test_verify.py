"""Unit tests for the verification harness.

The harness itself is test infrastructure, so these tests focus on two
things: the exact algebra (empirical pmf bookkeeping, fractional difference
semigroup, bin pooling, the L1 Caputo derivative against closed forms) and
the power of the checks, meaning each check must pass on matched data and
visibly fail on mismatched data.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import chdtrc, ndtri
from scipy.stats import norm

import fracppk.processes
from fracppk import (
    DegenerateBins,
    DomainError,
    NonConvergence,
    OrderParams,
    RngStream,
    compare_pmf,
    estimate_pmf,
    fractional_difference,
    governing_residual_sf,
    governing_residual_tf,
    martingale_check,
    pmf_table,
    sample_ppok_counts,
)
from fracppk.processes import PmfTable, TimeFractional
from fracppk.subordinators import Gamma, Stable
from fracppk.verify import _chi2_sf, _normal_quantile

P3 = OrderParams(k=3, lam=2.0)


def caputo_derivative(values, h: float, beta: float, n: int) -> float:
    """Caputo derivative of order beta at grid index n >= 2 by the L1 scheme.

    Piecewise-linear reconstruction on a uniform grid of step h gives

        D^beta g(t_n) ~ h^-beta / Gamma(2 - beta)
                        * sum_i (g_{i+1} - g_i) [(n-i)^(1-beta) - (n-i-1)^(1-beta)]

    with O(h^(2-beta)) error for smooth g; beta = 1 is the backward
    difference.  One index at a time, it is the oracle of the tf residual's
    convolution over every index.
    """
    diffs = np.diff(values[: n + 1])
    back = np.arange(n, 0, -1, dtype=float)  # n-i for i = 0..n-1
    # (back - 1)^(1-beta) must be 0 at back = 1 even when beta = 1 (0^0 is 1
    # in numpy, which would zero out the backward-difference limit)
    prev = np.where(back > 1.0, (back - 1.0) ** (1.0 - beta), 0.0)
    weights = back ** (1.0 - beta) - prev
    return float(np.dot(diffs, weights) / (math.gamma(2.0 - beta) * h**beta))


class TestEstimatePmf:
    def test_hand_counts(self):
        freqs, overflow = estimate_pmf([0, 0, 1, 3, 7], 3)
        np.testing.assert_allclose(freqs, [0.4, 0.2, 0.0, 0.2])
        assert overflow == pytest.approx(0.2)

    def test_no_overflow(self):
        freqs, overflow = estimate_pmf([0, 1, 2], 5)
        assert freqs.sum() == pytest.approx(1.0)
        assert overflow == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            estimate_pmf([], 3)
        with pytest.raises(DomainError):
            estimate_pmf([1, -2], 3)
        with pytest.raises(DomainError):
            estimate_pmf([1, 2.5], 3)  # was counted as 2
        with pytest.raises(DomainError):
            estimate_pmf(np.zeros((2, 2)), 3)


class TestComparePmf:
    def test_tv_by_hand(self):
        table = PmfTable(np.array([0.5, 0.3]), 0.2)
        # expected counts (5, 3, 2) pool to two bins of 5
        report = compare_pmf(table, [0] * 5 + [1] * 3 + [9] * 2)
        # empirical (0.5, 0.3, 0.2) matches exactly
        assert report.tv == pytest.approx(0.0)
        report = compare_pmf(table, [0] * 10)
        assert report.tv == pytest.approx(0.5)

    def test_chi2_survival_matches_scipy(self):
        # the finite sum Q(df/2, x/2) against scipy's chdtrc, wherever that is
        # above 1e-300, across the bulk and both tails of every df
        for df in range(1, 201):
            for x in np.concatenate([np.geomspace(1e-8, 3000.0, 40), [df - 1.0, df, df + 0.5]]):
                ref = chdtrc(df, x)
                if ref > 1e-300:
                    assert _chi2_sf(df, float(x)) == pytest.approx(ref, rel=1e-12, abs=0)
        assert _chi2_sf(3, 0.0) == 1.0

    def test_matched_samples_pass(self):
        table = pmf_table(P3, 1.0, 40)
        samples = sample_ppok_counts(P3, 1.0, 20_000, RngStream(70))
        report = compare_pmf(table, samples)
        assert report.p_value > 1e-3
        assert report.tv < 0.03
        assert report.n_samples == 20_000
        assert report.df == report.bins - 1

    def test_mismatched_samples_fail(self):
        table = pmf_table(P3, 1.0, 40)
        wrong = sample_ppok_counts(OrderParams(k=3, lam=2.4), 1.0, 20_000, RngStream(71))
        report = compare_pmf(table, wrong)
        assert report.p_value < 1e-6
        assert report.tv > 0.04

    def test_degenerate_bins(self):
        table = pmf_table(P3, 1.0, 40)
        with pytest.raises(DegenerateBins):
            compare_pmf(table, [4, 5, 6])

    def test_pooling_conserves_mass(self):
        from fracppk.verify import _pool_bins

        rng = np.random.default_rng(11)
        expected = rng.uniform(0.01, 8.0, size=40)
        observed = rng.poisson(expected).astype(float)
        obs_p, exp_p = _pool_bins(observed, expected)
        assert exp_p.sum() == pytest.approx(expected.sum(), rel=1e-12)
        assert obs_p.sum() == pytest.approx(observed.sum(), rel=1e-12)
        assert np.all(exp_p >= 5.0) or exp_p.size == 1

    def test_json_payload(self):
        table = pmf_table(P3, 1.0, 30)
        samples = sample_ppok_counts(P3, 1.0, 5000, RngStream(72))
        report = compare_pmf(table, samples)
        payload = report.json_payload()
        assert set(payload) == {"n_samples", "tv", "chi2", "df", "p_value", "bins"}
        # every field once, in declaration order
        assert list(payload.items()) == [
            ("n_samples", report.n_samples), ("tv", report.tv), ("chi2", report.chi2),
            ("df", report.df), ("p_value", report.p_value), ("bins", report.bins),
        ]


class TestFractionalDifference:
    def test_integer_orders(self):
        x = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
        np.testing.assert_allclose(fractional_difference(x, 0.0), x)
        np.testing.assert_allclose(
            fractional_difference(x, 1.0), [1.0, 3.0, 5.0, 7.0, 9.0]
        )
        np.testing.assert_allclose(
            fractional_difference(x, 2.0), [1.0, 2.0, 2.0, 2.0, 2.0]
        )

    def test_semigroup_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=30)
        left = fractional_difference(fractional_difference(x, 0.3), 0.7)
        right = fractional_difference(x, 1.0)
        np.testing.assert_allclose(left, right, atol=1e-12)
        left = fractional_difference(fractional_difference(x, 0.45), -0.45)
        np.testing.assert_allclose(left, x, atol=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            fractional_difference([], 0.5)
        with pytest.raises(DomainError):
            fractional_difference([1.0], math.nan)


class TestCaputo:
    @staticmethod
    def _grid(t_end, n, fn):
        times = np.linspace(0.0, t_end, n + 1)
        return fn(times), float(times[1] - times[0])

    def test_linear_is_exact(self):
        # The L1 scheme reproduces piecewise-linear inputs exactly.
        values, h = self._grid(2.0, 200, lambda t: 3.0 * t + 1.0)
        for beta in (0.3, 0.6, 0.9):
            expected = 3.0 * 2.0 ** (1.0 - beta) / math.gamma(2.0 - beta)
            assert caputo_derivative(values, h, beta, 200) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_closed_form(self):
        # D^beta t^2 = 2 t^(2-beta) / Gamma(3-beta).
        beta = 0.6
        values, h = self._grid(2.0, 2000, lambda t: t**2)
        expected = 2.0 * 2.0 ** (2.0 - beta) / math.gamma(3.0 - beta)
        assert expected == pytest.approx(4.249043551463433, rel=1e-12)
        assert caputo_derivative(values, h, beta, 2000) == pytest.approx(expected, rel=1e-4)

    def test_refinement_order(self):
        # L1 error is O(h^(2-beta)); halving h should shrink it ~2^(2-beta).
        beta = 0.6
        expected = 2.0 * 2.0 ** (2.0 - beta) / math.gamma(3.0 - beta)
        errs = []
        for n in (500, 1000):
            values, h = self._grid(2.0, n, lambda t: t**2)
            errs.append(abs(caputo_derivative(values, h, beta, n) - expected))
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(2.0 ** (2.0 - beta), rel=0.25)

    def test_beta_one_is_backward_difference(self):
        values, h = self._grid(1.0, 50, np.sin)
        expected = (math.sin(1.0) - math.sin(1.0 - h)) / h
        assert caputo_derivative(values, h, 1.0, 50) == pytest.approx(expected, rel=1e-12)


class TestGoverningResiduals:
    def test_tf_residual_small_and_shrinking(self):
        coarse = governing_residual_tf(P3, 0.7, n_max=3, n_steps=120)
        fine = governing_residual_tf(P3, 0.7, n_max=3, n_steps=240)
        assert coarse < 5e-2
        assert fine < coarse

    def test_sf_residual_small_and_second_order(self):
        fine = governing_residual_sf(P3, 0.7, dt=1e-4)
        coarse = governing_residual_sf(P3, 0.7, dt=1e-2)
        assert fine < 1e-6
        assert coarse > 10.0 * fine  # the second-order difference errs like dt^2

    @pytest.mark.parametrize("k, lam", [(1, 0.01), (2, 1.0), (3, 1.5), (3, 10.0), (3, 100.0), (10, 50.0)])
    def test_sf_residual_small_over_parameters(self, k, lam):
        # the default step 1e-5 / (k lam)^alpha holds the gate from t = 1e-300,
        # where the difference reads no time before t, to t = 100
        for alpha in (0.05, 0.3, 0.7, 0.95, 1.0):
            for t in (1e-300, 1e-12, 1e-10, 1e-9, 1e-4, 0.5, 1.0, 5.0, 100.0):
                assert governing_residual_sf(OrderParams(k, lam), alpha, t=t) < 1e-6, (alpha, t)

    def test_sf_residual_refuses_nan_tables(self, monkeypatch):
        # rows with a NaN entry are refused as pmf_table refuses them
        real = fracppk.processes._rows

        def nan_row(*args):
            rows = real(*args)
            rows[3] = math.nan
            return rows

        monkeypatch.setattr(fracppk.processes, "_rows", nan_row)
        with pytest.raises(NonConvergence):
            governing_residual_sf(P3, 0.7)

    @pytest.mark.parametrize(
        "params, n_max, t_end, n_steps, frozen",
        [
            (OrderParams(3, 2.0), 3, 1.0, 120, 0.0031355886790631615),
            (OrderParams(3, 1.5), 3, 1.0, 300, 0.0009044741452306493),
            (OrderParams(2, 1.0), 3, 0.5, 300, 0.0007564694390866933),
        ],
    )
    def test_tf_residual_frozen(self, params, n_max, t_end, n_steps, frozen):
        # values of the per-(n, t) pmf route; the table route must reproduce
        # them to 1e-12 absolute.  The gaps reach 2.3e-13 absolute (k = 3,
        # lam = 2) and 1.8e-10 relative (1.7e-13 absolute at k = 3, lam = 1.5),
        # from the tables' last digits, so a relative bound of 1e-12 would fail
        got = governing_residual_tf(params, 0.7, n_max=n_max, t_end=t_end, n_steps=n_steps)
        assert got == pytest.approx(frozen, rel=0, abs=1e-12)

    @staticmethod
    def residual_by_index(params, beta, n_max, t_end, n_steps):
        """The residual from one ``caputo_derivative`` call per count and grid index."""
        k, lam = params.k, params.lam
        times = np.linspace(0.0, t_end, n_steps + 1)
        pmf = np.zeros((n_max + 1, times.size))
        pmf[0, 0] = 1.0
        for j, t in enumerate(times[1:], start=1):
            pmf[:, j] = pmf_table(params, t, n_max, TimeFractional(beta)).probs
        h = float(times[1] - times[0])
        worst = 0.0
        for n in range(n_max + 1):
            for j in range(max(2, int(0.25 * n_steps)), times.size):
                lhs = caputo_derivative(pmf[n], h, beta, j)
                rhs = -k * lam * pmf[n, j] + lam * float(np.sum(pmf[max(0, n - k) : n, j]))
                worst = max(worst, abs(lhs - rhs))
        return worst

    @pytest.mark.parametrize(
        "params, beta, n_max, t_end, n_steps",
        [
            (OrderParams(3, 1.5), 0.7, 3, 1.0, 300),
            (OrderParams(2, 1.0), 0.7, 3, 0.5, 300),
            (OrderParams(3, 2.0), 0.3, 5, 1.0, 64),
            (OrderParams(1, 0.8), 1.0, 4, 2.0, 40),
            (OrderParams(4, 0.5), 0.95, 6, 0.3, 9),
        ],
    )
    def test_tf_residual_equals_caputo_loop(self, params, beta, n_max, t_end, n_steps):
        # one convolution per count gives every grid index's L1 derivative
        got = governing_residual_tf(params, beta, n_max=n_max, t_end=t_end, n_steps=n_steps)
        want = self.residual_by_index(params, beta, n_max, t_end, n_steps)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_tf_residual_memory_is_bounded(self):
        # the grid's tables come from rule passes over blocks of grid times,
        # so the (times, counts, nodes) array stays small: one pass over all
        # 300 times peaked at 6.2 MB, blocks of 32 at 0.73 MB
        params = OrderParams(3, 1.5)
        governing_residual_tf(params, 0.7, n_max=3, n_steps=300)  # builds the cached rule
        tracemalloc.start()
        try:
            governing_residual_tf(params, 0.7, n_max=3, n_steps=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_tf_residual_refuses_tables_above_unit_mass(self, monkeypatch):
        # a grid time whose rows lost accuracy is refused as pmf_table refuses it
        real = fracppk.processes._rows

        def one_bad_time(params, variant, t, n_lo, n_hi):
            rows = real(params, variant, t, n_lo, n_hi)
            if np.size(t) > 5:
                rows[1, 5] = 1.5
            return rows

        monkeypatch.setattr(fracppk.processes, "_rows", one_bad_time)
        with pytest.raises(NonConvergence, match="largest entry 1.5"):
            governing_residual_tf(P3, 0.7, n_max=3, n_steps=60)

    def test_validation(self):
        with pytest.raises(DomainError):
            governing_residual_tf(P3, 0.7, n_steps=4)
        with pytest.raises(DomainError):
            governing_residual_sf(P3, 0.7, t=1.0, dt=0.0)


class TestMartingale:
    def test_fractional_clock_passes(self):
        report = martingale_check(P3, Stable(0.7), [0.4, 1.0], 4000, RngStream(73))
        assert report.passed
        assert np.all(np.abs(report.z_scores) <= report.threshold)
        assert report.threshold == pytest.approx(norm.ppf(1.0 - 0.00135 / 2))
        assert report.threshold == pytest.approx(ndtri(1.0 - 0.00135 / 2), rel=1e-15, abs=0)
        assert report.label == "Stable"

    def test_gamma_clock_passes(self):
        report = martingale_check(
            P3, Gamma(1.3, 2.0), [0.4, 1.0], 4000, RngStream(74), label="gamma-clock",
        )
        assert report.passed
        assert report.label == "gamma-clock"

    def test_negative_control_fails(self):
        # Compensating with deterministic time instead of the clock is wrong
        # for a fractional clock; the check must detect it decisively.
        report = martingale_check(
            P3,
            Stable(0.7),
            [0.4, 1.0],
            4000,
            RngStream(75),
            compensate_with_clock=False,
        )
        assert not report.passed
        assert np.max(np.abs(report.z_scores)) > 3.0 * report.threshold

    def test_threshold_quantile_matches_statistics(self):
        # the threshold at 1..20 read times against the standard library's
        # normal quantile (Wichura's AS241)
        import statistics

        for size in range(1, 21):
            q = 1.0 - 0.00135 / size
            want = statistics.NormalDist().inv_cdf(q)
            assert _normal_quantile(q) == pytest.approx(want, rel=1e-12, abs=0)
        assert f"{_normal_quantile(1.0 - 0.00135 / 4):.2f}" == "3.40"

    def test_json_payload(self):
        report = martingale_check(P3, Stable(0.6), [0.5], 100, RngStream(76))
        assert report.threshold == pytest.approx(ndtri(1.0 - 0.00135), rel=1e-15, abs=0)
        payload = report.json_payload()
        assert set(payload) == {
            "label", "n_paths", "times", "z_scores", "threshold", "passed",
        }
        assert list(payload.items()) == [
            ("label", report.label), ("n_paths", report.n_paths), ("times", [0.5]),
            ("z_scores", report.z_scores.tolist()), ("threshold", report.threshold),
            ("passed", report.passed),
        ]
        assert type(payload["z_scores"][0]) is float

    def test_validation(self):
        with pytest.raises(DomainError):
            martingale_check(P3, Stable(0.6), [0.5], 1, RngStream(0))
