"""Unit tests for the spatial field layer.

Planar counts inherit the compound law with the box volume in the role of
time, so most exact checks reduce to pmf identities: binomial thinning for
k = 1 conditionals and convolution oracles for k = 2, each against the
conditional law formed from the independent counts of a part and the rest,
and additivity over disjoint boxes realization by realization.  The fractional field estimators
are checked against the marginal pmfs and the exact moment formulas by
Monte Carlo.
"""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from fracppk import (
    BoxRegion,
    ClockVector,
    DomainError,
    MarkedPointField,
    OrderParams,
    RngStream,
    SpaceFractional,
    Stable,
    TemperedStable,
    TemperedTimeSpace,
    TimeFractional,
    count_in_region,
    field_moments,
    field_pmf,
    fractional_field_moments,
    fractional_field_pmf,
    laplace_exponent,
    ppok_pmf,
    sample_field,
    sample_region_clocks,
    tfppok_cov,
    tfppok_pmf,
)
from fracppk.processes import _counts_given_clock

P2 = OrderParams(k=2, lam=1.0)
P3 = OrderParams(k=3, lam=0.8)

UNIT = BoxRegion((0.0, 0.0), (1.0, 1.0))
LEFT = BoxRegion((0.0, 0.0), (0.4, 1.0))


def conditional_pmf(params, sub, whole, j, n):
    """P(field of sub = j | field of whole = n) for sub inside whole: the
    counts of sub and of the rest are independent and add up to the whole's."""
    v_sub, v_whole = sub.volume, whole.volume
    return ppok_pmf(params, j, v_sub) * ppok_pmf(params, n - j, v_whole - v_sub) / ppok_pmf(params, n, v_whole)
RIGHT = BoxRegion((0.4, 0.0), (1.0, 1.0))


class TestBoxRegion:
    def test_volume_and_dim(self):
        box = BoxRegion((0.0, -1.0, 2.0), (2.0, 1.0, 2.5))
        assert box.dim == 3
        assert box.volume == pytest.approx(2.0 * 2.0 * 0.5)

    def test_contains_half_open(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.5], [0.5, -0.1]])
        np.testing.assert_array_equal(
            UNIT.contains(pts), [True, True, False, False]
        )

    def test_covers(self):
        assert UNIT.covers(LEFT)
        assert not LEFT.covers(UNIT)
        assert UNIT.covers(UNIT)
        assert not UNIT.covers(BoxRegion((0.0,), (1.0,)))

    def test_validation(self):
        with pytest.raises(DomainError):
            BoxRegion((0.0, 0.0), (1.0,))
        with pytest.raises(DomainError):
            BoxRegion((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(DomainError):
            BoxRegion((), ())
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                BoxRegion((0.0, bad), (1.0, 1.0))
            with pytest.raises(DomainError):
                BoxRegion((0.0, 0.0), (bad, 1.0))


class TestExactFieldLaws:
    def test_pmf_is_base_pmf_at_volume(self):
        box = BoxRegion((0.0, 0.0), (1.5, 0.8))
        for n in (0, 2, 6):
            assert field_pmf(P3, box, n) == pytest.approx(
                ppok_pmf(P3, n, 1.2), rel=1e-14
            )

    def test_moments_scale_with_volume(self):
        mean, var = field_moments(P3, BoxRegion((0.0,), (2.5,)))
        assert mean == pytest.approx(0.8 * 3 * 4 / 2.0 * 2.5)
        assert var == pytest.approx(0.8 * 3 * 4 * 7 / 6.0 * 2.5)

    def test_conditional_is_binomial_for_k_one(self):
        p1 = OrderParams(k=1, lam=2.0)
        frac = LEFT.volume / UNIT.volume
        for n in (1, 4, 9):
            for j in range(n + 1):
                expected = math.comb(n, j) * frac**j * (1.0 - frac) ** (n - j)
                assert conditional_pmf(p1, LEFT, UNIT, j, n) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_conditional_matches_convolution_oracle(self):
        # k = 2 oracle by direct convolution: P(j | n) proportional to
        # p_sub(j) p_rest(n - j) with both factors built from scratch.
        k, lam, n = 2, 1.0, 6
        v_sub, v_rest = LEFT.volume, UNIT.volume - LEFT.volume

        def compound(v, m):
            rate = k * lam * v
            batch = np.zeros(m + 1)
            batch[1 : k + 1] = 1.0 / k
            conv = np.zeros(m + 1)
            conv[0] = 1.0
            out = math.exp(-rate) * conv.copy()
            weight = math.exp(-rate)
            for i in range(1, m + 1):
                conv = np.convolve(conv, batch)[: m + 1]
                weight *= rate / i
                out += weight * conv
            return out

        sub_pmf = compound(v_sub, n)
        rest_pmf = compound(v_rest, n)
        joint = np.array([sub_pmf[j] * rest_pmf[n - j] for j in range(n + 1)])
        oracle = joint / joint.sum()
        for j in range(n + 1):
            assert conditional_pmf(P2, LEFT, UNIT, j, n) == pytest.approx(
                oracle[j], rel=1e-12
            )

    def test_conditional_sums_to_one(self):
        for n in (3, 8):
            total = sum(
                conditional_pmf(P3, LEFT, UNIT, j, n) for j in range(n + 1)
            )
            assert total == pytest.approx(1.0, rel=1e-11)


class TestFieldSampling:
    def test_realization_geometry(self):
        field = sample_field(P3, UNIT, RngStream(50))
        assert np.all(UNIT.contains(field.points))
        assert np.all((field.marks >= 1) & (field.marks <= 3))

    def test_count_additivity_per_realization(self):
        for i in range(40):
            field = sample_field(P3, UNIT, RngStream(51, i))
            whole = count_in_region(field, UNIT)
            assert whole == count_in_region(field, LEFT) + count_in_region(
                field, RIGHT
            )

    def test_counts_match_pmf_chi_square(self):
        box = BoxRegion((0.0, 0.0), (1.0, 0.5))
        n_rep, cap = 4000, 8
        counts = np.array(
            [
                count_in_region(sample_field(P2, box, RngStream(52, i)), box)
                for i in range(n_rep)
            ]
        )
        observed = np.bincount(np.minimum(counts, cap), minlength=cap + 1)
        probs = np.array([field_pmf(P2, box, n) for n in range(cap)])
        probs = np.append(probs, 1.0 - probs.sum())
        result = chisquare(observed, n_rep * probs)
        assert result.pvalue > 1e-3

    def test_disjoint_regions_uncorrelated(self):
        n_rep = 3000
        pairs = np.array(
            [
                [
                    count_in_region(f, LEFT),
                    count_in_region(f, RIGHT),
                ]
                for f in (
                    sample_field(P3, UNIT, RngStream(53, i)) for i in range(n_rep)
                )
            ],
            dtype=float,
        )
        a = pairs[:, 0] - pairs[:, 0].mean()
        b = pairs[:, 1] - pairs[:, 1].mean()
        emp_cov = (a * b).mean()
        se = (a * b).std(ddof=1) / math.sqrt(n_rep)
        assert abs(emp_cov) < 4.0 * se

    def test_field_validation(self):
        with pytest.raises(DomainError):
            MarkedPointField(np.array([[0.5, 0.5]]), np.array([0]), UNIT)
        with pytest.raises(DomainError):
            MarkedPointField(np.array([[0.5, 0.5]]), np.array([1, 2]), UNIT)


class TestRegionClocks:
    def test_base_clock_is_volume(self):
        cv = sample_region_clocks(None, [0.5, 1.5], 4, RngStream(54))
        np.testing.assert_array_equal(cv.clocks, [[0.5, 1.5]] * 4)
        cv = sample_region_clocks(TimeFractional(1.0), [0.7], 3, RngStream(54))
        np.testing.assert_array_equal(cv.clocks, [[0.7]] * 3)
        cv = sample_region_clocks(SpaceFractional(1.0), [0.7], 3, RngStream(54))
        np.testing.assert_array_equal(cv.clocks, [[0.7]] * 3)
        cv = sample_region_clocks(TemperedTimeSpace(1.0, 1.0, 0.5, 0.5), [0.7], 3, RngStream(54))
        np.testing.assert_array_equal(cv.clocks, [[0.7]] * 3)

    def test_clocks_monotone_in_volume(self):
        for variant in (
            TimeFractional(0.7),
            SpaceFractional(0.7),
            TemperedTimeSpace(0.7, 0.8, 1.0, 0.5),
        ):
            cv = sample_region_clocks(variant, [0.4, 0.9, 1.6], 200, RngStream(55))
            assert np.all(np.diff(cv.clocks, axis=1) >= 0)

    @pytest.mark.parametrize(
        "variant, outer",
        [(SpaceFractional(0.7), Stable(0.7)), (TemperedTimeSpace(0.7, 1.0, 5.0, 0.0), TemperedStable(0.7, 5.0))],
        ids=["sf", "ttsf"],
    )
    def test_gaps_have_the_outer_laplace_transform(self, variant, outer):
        # with no inner stage each region's clock is the outer subordinator at
        # its volume, so the gaps between sorted volumes are independent
        # increments with transform exp(-gap f(s)), drawn in one call (the ttsf
        # gaps split into 3 to 7 rejection chunks): each gap at two s, and
        # their joint transform, within 6 SE
        vols, n = np.array([2.0, 0.5, 3.5, 1.0]), 40_000
        clocks = sample_region_clocks(variant, vols, n, RngStream(57)).clocks[:, np.argsort(vols)]
        widths = np.diff(np.sort(vols), prepend=0.0)
        gaps = np.diff(clocks, axis=1, prepend=0.0)
        probes = [(s, np.exp(-s * gaps), np.exp(-widths * laplace_exponent(outer, s))) for s in (0.5, 2.0)]
        s = np.array([0.5, 1.0, 1.5, 2.0])
        joint = np.exp(-(gaps * s).sum(axis=1))[:, None]
        probes.append((s, joint, np.exp(-(widths * laplace_exponent(outer, s)).sum())))
        for s, probe, exact in probes:
            z = (probe.mean(axis=0) - exact) / (probe.std(axis=0, ddof=1) / math.sqrt(n))
            assert np.all(np.abs(z) < 6.0), (s, z)

    def test_equal_volumes_share_clock(self):
        cv = sample_region_clocks(TimeFractional(0.7), [0.8, 0.8], 50, RngStream(56))
        np.testing.assert_array_equal(cv.clocks[:, 0], cv.clocks[:, 1])

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_region_clocks(None, [], 5, RngStream(0))
        with pytest.raises(DomainError):
            sample_region_clocks(None, [1.0, -1.0], 5, RngStream(0))
        with pytest.raises(DomainError):
            sample_region_clocks(None, [1.0], 0, RngStream(0))
        with pytest.raises(DomainError):
            ClockVector(np.array([1.0, 2.0]), np.zeros((3, 3)))


class TestFractionalField:
    def test_base_variant_is_exact_with_zero_error(self):
        est, se = fractional_field_pmf(P3, None, UNIT, 2, 64, RngStream(57))
        assert est == pytest.approx(field_pmf(P3, UNIT, 2), rel=1e-12)
        assert se == 0.0

    def test_base_variant_joint_factorizes(self):
        est, se = fractional_field_pmf(
            P3, None, [LEFT, RIGHT], [1, 2], 16, RngStream(57)
        )
        assert est == pytest.approx(
            field_pmf(P3, LEFT, 1) * field_pmf(P3, RIGHT, 2), rel=1e-12
        )
        assert se == 0.0

    def test_single_region_matches_marginal_pmf(self):
        beta = 0.7
        for n in (0, 2, 5):
            est, se = fractional_field_pmf(
                P3, TimeFractional(beta), UNIT, n, 4000, RngStream(58, n)
            )
            exact = tfppok_pmf(P3, n, 1.0, beta)
            assert abs(est - exact) < 3.0 * se + 2e-3

    def test_joint_zero_count_positively_dependent(self):
        # Shared-path clocks make disjoint-region counts positively
        # associated: the joint void probability exceeds the product of
        # the marginals.
        beta, size = 0.6, 6000
        joint, se_j = fractional_field_pmf(
            P3, TimeFractional(beta), [LEFT, RIGHT], [0, 0], size, RngStream(59)
        )
        m_left, _ = fractional_field_pmf(
            P3, TimeFractional(beta), LEFT, 0, size, RngStream(60)
        )
        m_right, _ = fractional_field_pmf(
            P3, TimeFractional(beta), RIGHT, 0, size, RngStream(61)
        )
        assert joint > m_left * m_right - 4.0 * se_j

    def test_errors(self):
        with pytest.raises(DomainError):
            fractional_field_pmf(P3, None, [LEFT, RIGHT], [1], 8, RngStream(0))
        with pytest.raises(DomainError):
            fractional_field_pmf(P3, None, UNIT, -1, 8, RngStream(0))


class TestFractionalFieldMoments:
    def test_diagonal_matches_process_variance(self):
        beta = 0.7
        regions = [BoxRegion((0.0,), (0.6,)), BoxRegion((0.0,), (1.2,))]
        means, cov = fractional_field_moments(P3, beta, regions)
        for i, v in enumerate((0.6, 1.2)):
            assert cov[i, i] == pytest.approx(tfppok_cov(P3, v, v, beta), rel=1e-10)
            assert means[i] == pytest.approx(
                P3.k * (P3.k + 1) / 2.0 * P3.lam * v**beta / math.gamma(1.0 + beta),
                rel=1e-12,
            )

    def test_against_monte_carlo(self):
        beta, size = 0.7, 20_000
        vols = np.array([0.6, 1.2])
        means, cov = fractional_field_moments(P3, beta, [
            BoxRegion((0.0,), (0.6,)),
            BoxRegion((0.0,), (1.2,)),
        ])
        cv = sample_region_clocks(TimeFractional(beta), vols, size, RngStream(62))
        gen = RngStream(63).generator()
        counts = np.column_stack(
            [_counts_given_clock(P3, cv.clocks[:, j], gen) for j in range(2)]
        ).astype(float)
        for j in range(2):
            se = counts[:, j].std(ddof=1) / math.sqrt(size)
            assert abs(counts[:, j].mean() - means[j]) < 4.0 * se + 2e-3
        prod = (counts[:, 0] - counts[:, 0].mean()) * (
            counts[:, 1] - counts[:, 1].mean()
        )
        se_cov = prod.std(ddof=1) / math.sqrt(size)
        assert abs(prod.mean() - cov[0, 1]) < 4.0 * se_cov + 5e-3

    def test_symmetric_positive_semidefinite(self):
        _, cov = fractional_field_moments(
            P2, 0.6, [BoxRegion((0.0,), (v,)) for v in (0.3, 0.8, 2.0)]
        )
        np.testing.assert_allclose(cov, cov.T, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) > 0)
