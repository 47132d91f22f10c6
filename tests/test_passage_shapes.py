"""Law tests for the passage shapes of the stable first passage.

Every stable first passage draws three shapes that no distance enters: the
undershoot fraction ``u ~ Beta(alpha, 1 - alpha)``, a size-biased
Mittag-Leffler variable Y and the uniform V of the overshoot.  Here each
sampler is checked against closed forms that share no step with it (digamma
means of ``log u`` and ``log(1 - u)``, gamma-function moments of Y, the
exact acceptance rate of each rejection), against the samplers it replaced
(kept below as oracles) by two-sample KS tests, and for the number of
generator calls one large refill takes.
"""

import math

import numpy as np
import pytest
from scipy.special import digamma, gamma
from scipy.stats import kstest, ks_2samp

from fracppk import NonConvergence, RngStream
from fracppk import subordinators
from fracppk.subordinators import _log_beta_pair, _passage_shapes, _size_biased_mittag_leffler

ALPHAS = [0.05, 0.5, 0.95]
N = 200_000


def log_beta_pair_reference(alpha, rng, size):
    """``log u`` and ``log(1 - u)`` from two gamma variables in log space,
    ``log Gamma(1 + a) + log(V) / a``: the sampler Jöhnk's method replaced."""
    one = 1.0 - alpha
    g1 = np.log(rng.standard_gamma(1.0 + alpha, size)) + np.log1p(-rng.random(size)) / alpha
    g2 = np.log(rng.standard_gamma(1.0 + one, size)) + np.log1p(-rng.random(size)) / one
    total = np.logaddexp(g1, g2)
    return g1 - total, g2 - total


def size_biased_mittag_leffler_reference(alpha, rng, size):
    """Size-biased Mittag-Leffler draws by rejection rerun on the rejected
    set, one angle and one test uniform per proposal: the sampler the
    one-pass rejection replaced."""
    one = 1.0 - alpha
    b_max = alpha**-alpha * one**-one
    b = np.empty(size)
    todo = np.arange(size)
    while todo.size:
        u = math.pi * (1.0 - rng.random(todo.size))
        b_u = np.sin(u) / (np.sin(alpha * u) ** alpha * np.sin(one * u) ** one)
        keep = rng.random(todo.size) * b_max < b_u
        b[todo[keep]] = b_u[keep]
        todo = todo[~keep]
    return rng.standard_gamma(2.0 - alpha, size) ** one * b


def assert_mean(sample, want, tol=4.0):
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    assert abs(sample.mean() - want) < tol * se, (sample.mean(), want, se)


def test_beta_pair_digamma_means():
    # E log u = psi(alpha) - psi(1) and E log(1 - u) = psi(1 - alpha) - psi(1)
    for i, alpha in enumerate(ALPHAS):
        log_u, log_w, _ = _log_beta_pair(alpha, RngStream(600, i).generator(), N)
        assert np.all(log_u <= 0.0) and np.all(log_w <= 0.0)
        assert_mean(log_u, digamma(alpha) - digamma(1.0))
        assert_mean(log_w, digamma(1.0 - alpha) - digamma(1.0))
        # the two are the logs of u and 1 - u of one draw, and the one of the
        # side near 1 keeps its digits: log(1 - u) = -u for u below 1e-13
        assert np.allclose(np.exp(log_u) + np.exp(log_w), 1.0, rtol=0.0, atol=1e-14)
        for small, near_one in ((log_u, log_w), (log_w, log_u)):
            tiny = small < -30.0
            assert np.allclose(near_one[tiny], -np.exp(small[tiny]), rtol=1e-12, atol=0.0)


def test_johnk_sum_is_a_free_uniform():
    # with shapes that sum to one, the accepted X + Y = e^s is uniform on
    # (0, 1) and independent of u: uniform by KS, uncorrelated with log u
    for i, alpha in enumerate(ALPHAS):
        log_u, _, log_v = _log_beta_pair(alpha, RngStream(601, i).generator(), N)
        v = np.exp(log_v)
        assert np.all((v > 0.0) & (v <= 1.0))
        assert kstest(v, "uniform").pvalue > 1e-3
        assert abs(np.corrcoef(v, log_u)[0, 1]) < 4.0 / math.sqrt(N)
        assert abs(np.corrcoef(v, np.exp(log_u))[0, 1]) < 4.0 / math.sqrt(N)


def test_size_biased_mittag_leffler_moments():
    # Y is the Mittag-Leffler M = S(1)^-alpha size-biased, E M^n = n! / Gamma(1 + n alpha):
    # E Y = Gamma(alpha) / Gamma(2 alpha) and E Y^2 = 2 Gamma(alpha) / Gamma(3 alpha)
    for i, alpha in enumerate(ALPHAS):
        y = _size_biased_mittag_leffler(alpha, RngStream(602, i).generator(), N)
        assert np.all(y > 0.0)
        assert_mean(y, gamma(alpha) / gamma(2.0 * alpha))
        assert_mean(y * y, 2.0 * gamma(alpha) / gamma(3.0 * alpha))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_acceptance_rates_are_the_closed_forms(alpha, monkeypatch):
    # each proposal pass accepts pi alpha (1 - alpha) / sin(pi alpha) (Jöhnk)
    # and alpha^alpha (1 - alpha)^(1 - alpha) sin(pi alpha) / (pi alpha (1 - alpha))
    # (size-biased Mittag-Leffler) of its proposals, within 4 SE
    seen = []
    first_accepted = subordinators._first_accepted

    def counted(propose, rate, size, what):
        def watched(m):
            vals, keep = propose(m)
            seen.append((what, m, int(np.count_nonzero(keep))))
            return vals, keep

        return first_accepted(watched, rate, size, what)

    monkeypatch.setattr(subordinators, "_first_accepted", counted)
    _passage_shapes(alpha, RngStream(603).generator(), N)
    one = 1.0 - alpha
    want = {
        "Beta": math.pi * alpha * one / math.sin(math.pi * alpha),
        "size-biased Mittag-Leffler": alpha**alpha * one**one * math.sin(math.pi * alpha) / (math.pi * alpha * one),
    }
    assert {what for what, _, _ in seen} == set(want)
    for what, p in want.items():
        proposed = sum(m for w, m, _ in seen if w == what)
        accepted = sum(k for w, _, k in seen if w == what)
        assert abs(accepted / proposed - p) < 4.0 * math.sqrt(p * (1.0 - p) / proposed)
    assert min(want.values()) >= 2.0 / math.pi


@pytest.mark.parametrize("alpha", ALPHAS)
def test_samplers_match_the_replaced_ones(alpha):
    # two-sample KS of each new sampler against the one it replaced, on u
    # and 1 - u: the replaced one rounds log u to 0 where u is within 1e-16
    # or so of 1, which the new one resolves
    log_u, log_w, _ = _log_beta_pair(alpha, RngStream(604).generator(), N)
    ref_u, ref_w = log_beta_pair_reference(alpha, RngStream(605).generator(), N)
    assert ks_2samp(np.exp(log_u), np.exp(ref_u)).pvalue > 1e-3
    assert ks_2samp(np.exp(log_w), np.exp(ref_w)).pvalue > 1e-3
    y = _size_biased_mittag_leffler(alpha, RngStream(606).generator(), N)
    ref_y = size_biased_mittag_leffler_reference(alpha, RngStream(607).generator(), N)
    assert ks_2samp(y, ref_y).pvalue > 1e-3


class CountingGenerator:
    """A numpy Generator that counts its calls by method name."""

    def __init__(self, seed):
        self.gen = RngStream(seed).generator()
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("alpha", ALPHAS + [0.7])
def test_one_refill_takes_one_pass_per_rejection(alpha):
    # a refill of 16,384 shapes (the largest block) draws each rejection's
    # proposals in one pass of one uniform call on every seed tried, where
    # rerunning the rejection on the rejected set took about nine
    for seed in range(20):
        rng = CountingGenerator(seed)
        shapes = _passage_shapes(alpha, rng, 2**14)
        assert shapes.shape == (4, 2**14) and np.isfinite(shapes).all()
        assert rng.calls == {"random": 2, "standard_gamma": 1}, (seed, rng.calls)


def test_size_zero_draws_nothing():
    rng = RngStream(608).generator()
    assert _passage_shapes(0.7, rng, 0).shape == (4, 0)
    assert rng.random() == RngStream(608).generator().random()


def test_short_pass_is_completed_in_order(monkeypatch):
    # a pass that accepts too few is followed by one for the rest, and the
    # draws are the accepted proposals in the order proposed
    stream = iter(range(1000))

    def propose(m):
        vals = np.array([next(stream) for _ in range(m)], dtype=float)
        return vals, vals % 3 == 0

    got = subordinators._first_accepted(propose, 0.9, 10, "test")
    assert got.tolist() == [3.0 * i for i in range(10)]


def test_rejection_that_never_accepts_is_refused():
    def propose(m):
        return np.zeros(m), np.zeros(m, dtype=bool)

    with pytest.raises(NonConvergence):
        subordinators._first_accepted(propose, 0.5, 3, "test")
