"""Unit tests for the zeta table.

The ground truth here is a direct itertools enumeration of
Omega(k, n) = {x in Z_+^k : sum_i i x_i = n}, small enough to brute force for
k <= 4, n <= 12 and for (k, n) = (3, 61), plus the generating identity
sum_n kernel(k, n, w) u^n = exp(w (u + .. + u^k)) that ties the grouped sums
to the transforms used elsewhere.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from fracppk import (
    CapExceeded,
    DomainError,
    OrderParams,
    log_omega_kernel,
    zeta_profile,
    zeta_table,
)
from fracppk.combinatorics import LEVY_Y_CAP, N_CAP, _batch_counts


def brute_force_omega(k, n):
    """All vectors (x_1, .., x_k) with sum_i i x_i = n, by exhaustion."""
    ranges = [range(n // part + 1) for part in range(1, k + 1)]
    return [
        x
        for x in itertools.product(*ranges)
        if sum((i + 1) * v for i, v in enumerate(x)) == n
    ]


class TestEnumerateOmega:
    """The zeta table past the pmf cap, against the enumeration of Omega."""

    def test_caps(self):
        # the cap is what the zeta triangle holds, not the process layer's
        # count cap of 60: the (3, 61) row against its 40,362 brute-force vectors
        zetas, logc = zeta_profile(3, 61)
        weights = {}
        for x in brute_force_omega(3, 61):
            weights[sum(x)] = weights.get(sum(x), 0.0) + 1.0 / math.prod(math.factorial(v) for v in x)
        assert sorted(weights) == zetas.tolist()
        np.testing.assert_allclose([weights[z] for z in zetas], np.exp(logc), rtol=1e-12)
        with pytest.raises(CapExceeded):
            zeta_profile(3, 201)


class TestZetaProfile:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 12])
    def test_matches_brute_force_grouping(self, k, n):
        zetas, logc = zeta_profile(k, n)
        grouped = {}
        for x in brute_force_omega(k, n):
            zeta = sum(x)
            weight = 1.0 / math.prod(math.factorial(v) for v in x)
            grouped[zeta] = grouped.get(zeta, 0.0) + weight
        assert list(zetas) == sorted(grouped)
        for z, lc in zip(zetas, logc):
            assert math.exp(lc) == pytest.approx(grouped[z], rel=1e-12)

    def test_zeta_range(self):
        # zeta runs from ceil(n/k) (all batches maximal) to n (all singletons).
        zetas, _ = zeta_profile(3, 11)
        assert zetas[0] == math.ceil(11 / 3)
        assert zetas[-1] == 11

    def test_all_singletons_weight(self):
        # The zeta = n group is the single all-ones vector, weight 1/n!... times
        # the multiplicity structure: x_1 = n gives 1/n!.
        for n in (4, 7, 10):
            zetas, logc = zeta_profile(3, n)
            assert math.exp(logc[-1]) == pytest.approx(1.0 / math.factorial(n), rel=1e-12)

    def test_n_zero(self):
        zetas, logc = zeta_profile(5, 0)
        assert list(zetas) == [0]
        assert list(logc) == [0.0]

    def test_large_k_reduces_to_partition_structure(self):
        # For k >= n the parts are unconstrained: every partition of n counts.
        z_small, c_small = zeta_profile(12, 12)
        z_big, c_big = zeta_profile(40, 12)
        assert np.array_equal(z_small, z_big)
        np.testing.assert_allclose(c_small, c_big, rtol=1e-12)


class TestZetaTable:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 40])
    def test_rows_are_the_profiles(self, k):
        table = zeta_table(k, 30)
        assert table.shape == (31, 31)
        for n in range(31):
            zetas, logc = zeta_profile(k, n)
            assert np.all(np.isfinite(table[n, zetas]))
            np.testing.assert_array_equal(table[n, zetas], logc)
            outside = np.setdiff1d(np.arange(31), zetas)
            assert np.all(table[n, outside] == -np.inf)

    def test_no_underflow_at_the_levy_cap(self):
        # 1/200! and 40^-200 are below float64 range; the log weights are not
        for k in (1, 40):
            zetas, logc = zeta_profile(k, 200)
            assert zetas[0] == math.ceil(200 / k) and zetas[-1] == 200
            assert np.all(np.isfinite(logc))
        assert zeta_profile(1, 200)[1][0] == pytest.approx(-math.lgamma(201.0), rel=1e-14)
        with pytest.raises(CapExceeded):
            zeta_profile(3, 201)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 40])
    def test_log_factorials_match_scipy(self, k):
        # the table as built from scipy's gammaln; a log factorial from
        # math.lgamma may differ in its last bits, so each entry agrees to
        # 1e-15 of the log zeta! it subtracts
        top = LEVY_Y_CAP
        counts = np.zeros((top + 1, top + 1))
        counts[0, 0] = 1.0
        for zeta in range(1, top + 1):
            counts[1:, zeta] = np.convolve(counts[:, zeta - 1], np.ones(min(k, top)))[:top]
        log_fact = np.broadcast_to(gammaln(np.arange(top + 1) + 1.0), counts.shape)
        with np.errstate(divide="ignore"):
            ref = np.log(counts) - log_fact
        table = zeta_table(k, top)
        live = np.isfinite(ref)
        np.testing.assert_array_equal(np.isfinite(table), live)
        assert np.all(np.abs(table[live] - ref[live]) <= 1e-15 * log_fact[live])

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 40])
    @pytest.mark.parametrize("top", [N_CAP, LEVY_Y_CAP])
    def test_views_equal_the_whole_log_table(self, k, top):
        # blocks and rows are log views of the cached counts, bit for bit the
        # log of the whole table at once, as one cached triangle once held
        with np.errstate(divide="ignore"):
            whole = np.log(_batch_counts(k, top)) - [math.lgamma(z + 1.0) for z in range(top + 1)]
        for n in (0, 1, 7, top // 2, top):
            assert zeta_table(k, n).tobytes() == whole[: n + 1, : n + 1].tobytes()
            zetas, logc = zeta_profile(k, n)
            assert logc.tobytes() == whole[n, zetas].tobytes()
        assert zeta_table(k, top).tobytes() == whole.tobytes()

    def test_caches_bounded_and_read_only(self):
        assert _batch_counts.cache_info().maxsize is not None
        _, logc = zeta_profile(3, 7)
        with pytest.raises(ValueError):
            logc[0] = 0.0
        with pytest.raises(ValueError):
            zeta_table(3, 7)[1, 1] = 0.0


class TestOmegaKernel:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_generating_identity(self, k):
        # sum_n kernel(k, n, w) u^n = exp(w sum_{j<=k} u^j), truncation tail
        # below 1e-12 for these (w, u).
        w, u = 0.4, 0.5
        lhs = sum(np.exp(log_omega_kernel(k, n, w)) * u**n for n in range(0, 55))
        rhs = math.exp(w * sum(u**j for j in range(1, k + 1)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_scalar_and_array_agree(self):
        w = np.array([0.0, 0.3, 1.7, 4.0])
        arr = np.exp(log_omega_kernel(3, 5, w))
        assert arr.shape == w.shape
        for wi, vi in zip(w, arr):
            assert vi == pytest.approx(np.exp(log_omega_kernel(3, 5, float(wi))), rel=1e-13)

    def test_log_kernel_at_zero_weight(self):
        assert log_omega_kernel(3, 4, 0.0) == -math.inf
        assert np.exp(log_omega_kernel(3, 4, 0.0)) == 0.0
        assert np.exp(log_omega_kernel(3, 0, 0.0)) == 1.0

    def test_poisson_reduction_at_k_one(self):
        # k = 1 collapses to kernel(1, n, w) = w^n / n!.
        for n in (0, 1, 3, 8):
            assert np.exp(log_omega_kernel(1, n, 2.5)) == pytest.approx(
                2.5**n / math.factorial(n), rel=1e-12
            )

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            log_omega_kernel(3, 4, -0.1)
        with pytest.raises(DomainError):
            log_omega_kernel(3, 4, np.array([0.5, -2.0]))

    def test_no_overflow_at_large_weight(self):
        # Log-space evaluation keeps large w finite.
        val = log_omega_kernel(3, 60, 200.0)
        assert math.isfinite(val)


class TestOrderParams:
    def test_accepts_valid(self):
        p = OrderParams(k=3, lam=2.0)
        assert p.k == 3 and p.lam == 2.0

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            OrderParams(k=0, lam=1.0)
        with pytest.raises(DomainError):
            OrderParams(k=2.5, lam=1.0)
        with pytest.raises(DomainError):
            OrderParams(k=2, lam=0.0)
        with pytest.raises(DomainError):
            OrderParams(k=2, lam=math.inf)
