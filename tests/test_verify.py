"""Unit tests for the verification harness.

The harness itself is test infrastructure, so these tests focus on two
things: the exact algebra (empirical pmf bookkeeping, fractional difference
semigroup, bin pooling) and the power of the statistical checks, meaning
each check must pass on matched data and visibly fail on mismatched data.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from fracppk import (
    DegenerateBins,
    DomainError,
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
from fracppk.processes import PmfTable
from fracppk.subordinators import Gamma, Stable

P3 = OrderParams(k=3, lam=2.0)


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
            estimate_pmf(np.zeros((2, 2)), 3)


class TestComparePmf:
    def test_tv_by_hand(self):
        table = PmfTable(np.array([0.5, 0.3]), 0.2)
        report = compare_pmf(table, [0] * 5 + [1] * 3 + [9] * 2, min_expected=1.0)
        # empirical (0.5, 0.3, 0.2) matches exactly
        assert report.tv == pytest.approx(0.0)
        report = compare_pmf(table, [0] * 10, min_expected=1.0)
        assert report.tv == pytest.approx(0.5)

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
        obs_p, exp_p = _pool_bins(observed, expected, 5.0)
        assert exp_p.sum() == pytest.approx(expected.sum(), rel=1e-12)
        assert obs_p.sum() == pytest.approx(observed.sum(), rel=1e-12)
        assert np.all(exp_p >= 5.0) or exp_p.size == 1

    def test_json_payload(self):
        table = pmf_table(P3, 1.0, 30)
        samples = sample_ppok_counts(P3, 1.0, 5000, RngStream(72))
        payload = compare_pmf(table, samples).json_payload()
        assert set(payload) == {"n_samples", "tv", "chi2", "df", "p_value", "bins"}


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
        assert coarse > 10.0 * fine  # central difference error grows like dt^2

    @pytest.mark.parametrize(
        "params, n_max, t_end, n_steps, frozen",
        [
            (OrderParams(3, 2.0), 3, 1.0, 120, 0.0031355886790631615),
            (OrderParams(3, 1.5), 3, 1.0, 300, 0.0009044741452306493),
            (OrderParams(2, 1.0), 3, 0.5, 300, 0.0007564694390866933),
        ],
    )
    def test_tf_residual_frozen(self, params, n_max, t_end, n_steps, frozen):
        # values of the per-(n, t) pmf route; the table route must reproduce them
        got = governing_residual_tf(params, 0.7, n_max=n_max, t_end=t_end, n_steps=n_steps)
        assert got == pytest.approx(frozen, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            governing_residual_tf(P3, 0.7, n_steps=4)
        with pytest.raises(DomainError):
            governing_residual_sf(P3, 0.7, t=1.0, dt=2.0)


class TestMartingale:
    def test_fractional_clock_passes(self):
        report = martingale_check(
            P3, Stable(0.7), [0.4, 1.0], 4000, RngStream(73), step=2e-3
        )
        assert report.passed
        assert np.all(np.abs(report.z_scores) <= report.threshold)
        assert report.threshold == pytest.approx(norm.ppf(1.0 - 0.00135 / 2))
        assert report.label == "Stable"

    def test_gamma_clock_passes(self):
        report = martingale_check(
            P3, Gamma(1.3, 2.0), [0.4, 1.0], 4000, RngStream(74), step=2e-3,
            label="gamma-clock",
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
            step=2e-3,
            compensate_with_clock=False,
        )
        assert not report.passed
        assert np.max(np.abs(report.z_scores)) > 3.0 * report.threshold

    def test_json_payload(self):
        report = martingale_check(P3, Stable(0.6), [0.5], 100, RngStream(76), step=5e-3)
        payload = report.json_payload()
        assert set(payload) == {
            "label", "n_paths", "times", "z_scores", "threshold", "passed",
        }

    def test_validation(self):
        with pytest.raises(DomainError):
            martingale_check(P3, Stable(0.6), [0.5], 1, RngStream(0))
