"""Unit tests for the subordinator samplers and inverse-clock machinery.

Every sampler is checked against its own Laplace transform by Monte Carlo:
for an increment X over dt the empirical mean of exp(-s X) must match
exp(-dt f(s)) within a few standard errors, where f is the closed-form
Laplace exponent.  This catches wrong parameterizations, wrong time scaling,
and broken rejection steps all at once.
"""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, gammainc
from scipy.optimize import brentq
from scipy.stats import chi2_contingency, chisquare, invgauss

from fracppk import (
    DomainError,
    Gamma,
    HorizonOverflow,
    InverseGaussian,
    MixedStable,
    MixtureTemperedStable,
    NonConvergence,
    RngStream,
    Stable,
    TemperedStable,
    as_generator,
    laplace_exponent,
    sample_increment,
    sample_inverse_at,
)
from fracppk import subordinators
from fracppk.cli import _MARTINGALE_SPECS
from fracppk.processes import _inverse_stable_clock_cov
from fracppk.specfun import _kanter_log_a
from fracppk.subordinators import _stable_passage, _standard_stable

ALL_SPECS = [
    Stable(alpha=0.6),
    MixedStable(weights=(0.5, 0.5), alphas=(0.4, 0.8)),
    TemperedStable(alpha=0.7, mu=1.0),
    MixtureTemperedStable(weights=(0.6, 0.4), alphas=(0.5, 0.8), mus=(0.5, 1.5)),
    Gamma(p=1.3, a=2.0),
    InverseGaussian(delta=1.1, gamma=0.9),
]


# specs whose increments at the steps of test_chunked_increment_law split into chunks
CHUNKED_SPECS = [TemperedStable(0.7, 5.0), MixtureTemperedStable((0.6, 0.4), (0.5, 0.8), (4.0, 10.0))]


def lt_gap_in_se(spec, dt, s, seed, n=60_000):
    """(empirical LT - exact LT) / SE for one increment draw."""
    rng = RngStream(seed, 0)
    x = sample_increment(spec, dt, rng, size=n)
    probe = np.exp(-s * x)
    se = probe.std(ddof=1) / math.sqrt(n)
    exact = math.exp(-dt * laplace_exponent(spec, s))
    return (probe.mean() - exact) / max(se, 1e-15)


def homogeneity(sample, ref):
    """Chi-square homogeneity p-value of two samples of clock rows
    ``(h_0, .., h_m)``, binned on the increments ``(h_0, h_1 - h_0, ..)`` at
    quintiles of ``ref``."""
    quintiles = [0.2, 0.4, 0.6, 0.8]
    steps = [np.diff(m, axis=1, prepend=0.0) for m in (sample, ref)]
    edges = [np.unique(np.quantile(col, quintiles)) for col in steps[1].T]
    cells = []
    for step in steps:
        cell = np.zeros(step.shape[0], dtype=np.int64)
        for col, e in zip(step.T, edges):
            cell = cell * (e.size + 1) + np.searchsorted(e, col)
        cells.append(np.bincount(cell, minlength=math.prod(e.size + 1 for e in edges)))
    table = np.array(cells)
    return chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


def assert_joint_law_against_increments(spec, seed, times=(0.5, 2.0)):
    """P(H(t_j) > s_j for all j) = P(L(s_j) <= t_j for all j) for increasing
    s_j, the right side from independent direct increments L(s_1),
    L(s_2) - L(s_1), .., at three tuples taken from quantiles of a pilot draw."""
    n = 40_000
    pilot = sample_inverse_at(spec, times, 2_000, RngStream(seed))
    mat = sample_inverse_at(spec, times, n, RngStream(seed + 1))
    for i, q in enumerate((0.3, 0.5, 0.7)):
        levels = np.quantile(pilot, q, axis=0)
        steps = np.diff(levels, prepend=0.0)
        path = np.cumsum([sample_increment(spec, float(d), RngStream(seed + 2 + j, i), size=n)
                          for j, d in enumerate(steps)], axis=0)
        lhs = np.mean((mat > levels).all(axis=1))
        rhs = np.mean((path.T <= np.asarray(times)).all(axis=1))
        se = math.sqrt(lhs * (1 - lhs) / n + rhs * (1 - rhs) / n)
        assert abs(lhs - rhs) < 4.0 * se, (levels, lhs, rhs)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator().random(8)
        b = RngStream(42, 3).generator().random(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().random(8)
        b = RngStream(42, 1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_seed_and_stream_are_counts(self):
        # a negative seed was numpy's ValueError from SeedSequence at the first draw
        for seed, stream in ((-1, 0), (0, -1), (1.5, 0), ("3", 0), (None, 0)):
            with pytest.raises(DomainError):
                RngStream(seed, stream)
        np.testing.assert_array_equal(RngStream(np.int64(4), np.int64(2)).generator().random(4),
                                      RngStream(4, 2).generator().random(4))

    def test_as_generator(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen
        assert isinstance(as_generator(RngStream(1)), np.random.Generator)
        with pytest.raises(DomainError):
            as_generator("not an rng")


class TestLaplaceExponent:
    def test_closed_forms(self):
        s = 2.0
        assert laplace_exponent(Stable(0.6), s) == pytest.approx(s**0.6)
        assert laplace_exponent(TemperedStable(0.7, 1.5), s) == pytest.approx(
            (s + 1.5) ** 0.7 - 1.5**0.7
        )
        assert laplace_exponent(MixedStable((0.5, 0.5), (0.4, 0.8)), s) == pytest.approx(
            0.5 * s**0.4 + 0.5 * s**0.8
        )
        assert laplace_exponent(Gamma(1.3, 2.0), s) == pytest.approx(1.3 * math.log1p(s / 2.0))
        assert laplace_exponent(InverseGaussian(1.1, 0.9), s) == pytest.approx(
            1.1 * (math.sqrt(2 * s + 0.81) - 0.9)
        )

    def test_vectorized_and_zero(self):
        s = np.array([0.0, 1.0, 3.0])
        out = laplace_exponent(Stable(0.5), s)
        np.testing.assert_allclose(out, s**0.5)
        assert laplace_exponent(Gamma(1.0, 1.0), 0.0) == 0.0

    def test_rejects_negative_s(self):
        with pytest.raises(DomainError):
            laplace_exponent(Stable(0.5), -1.0)

    def test_tempered_difference_to_50_digits(self):
        # (s + mu)^alpha - mu^alpha cancels where s << mu, and s / mu is
        # subnormal or 0 at mu = 1e300; 50-digit values come from
        # mu^alpha expm1(alpha log1p(s / mu)), the same number
        mpmath = pytest.importorskip("mpmath")
        cases = [(0.7, 1e6, 1e-3), (0.9, 1e8, 1.0), (0.3, 1e300, 1e-10), (0.7, 1e300, 1e-200),
                 (0.05, 1e3, 1e-9), (0.5, 2.0, 3.0), (0.95, 1e-3, 50.0)]
        with mpmath.workdps(50):
            for alpha, mu, s in cases:
                want = mpmath.mpf(mu) ** alpha * mpmath.expm1(alpha * mpmath.log1p(mpmath.mpf(s) / mu))
                assert laplace_exponent(TemperedStable(alpha, mu), s) == pytest.approx(float(want), rel=1e-13)
                both = laplace_exponent(MixtureTemperedStable((0.5, 2.0), (alpha, 0.6), (mu, 0.0)), [s, s])
                np.testing.assert_allclose(both, float(0.5 * want + 2.0 * mpmath.mpf(s) ** 0.6), rtol=1e-13)
        assert laplace_exponent(TemperedStable(0.7, 4.0), 0.0) == 0.0


class TestIncrementLaw:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("dt,s", [(1.0, 0.7), (0.25, 2.0)])
    def test_laplace_transform_matches(self, spec, dt, s):
        z = lt_gap_in_se(spec, dt, s, seed=101)
        assert abs(z) < 4.0, f"LT mismatch at {z:.1f} standard errors"

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_kanter_across_indices(self, alpha):
        z = lt_gap_in_se(Stable(alpha), 1.0, 1.0, seed=202)
        assert abs(z) < 4.0

    def test_tempered_chunk_split_regime(self):
        # dt mu^alpha = 3 * 2^0.7 ~ 4.9 forces the infinite-divisibility
        # split into several rejection rounds; the law must not change.
        z = lt_gap_in_se(TemperedStable(0.7, 2.0), 3.0, 0.8, seed=303)
        assert abs(z) < 4.0

    def test_gamma_moments(self):
        spec = Gamma(p=1.3, a=2.0)
        x = sample_increment(spec, 2.0, RngStream(7), size=80_000)
        assert x.mean() == pytest.approx(1.3 * 2.0 / 2.0, rel=0.02)
        assert x.var() == pytest.approx(1.3 * 2.0 / 4.0, rel=0.05)

    def test_inverse_gaussian_moments(self):
        spec = InverseGaussian(delta=1.1, gamma=0.9)
        x = sample_increment(spec, 1.5, RngStream(8), size=80_000)
        dt = 1.5
        assert x.mean() == pytest.approx(1.1 * dt / 0.9, rel=0.02)
        assert x.var() == pytest.approx(1.1 * dt / 0.9**3, rel=0.05)

    def test_vector_dt(self):
        dt = np.array([0.5, 1.0, 2.0, 4.0])
        out = sample_increment(Stable(0.6), dt, RngStream(9))
        assert out.shape == dt.shape
        assert np.all(out > 0)

    def test_scalar_returns_float(self):
        val = sample_increment(Gamma(1.0, 1.0), 1.0, RngStream(10))
        assert isinstance(val, float)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            sample_increment(Stable(0.5), 0.0, RngStream(0))
        with pytest.raises(DomainError):
            sample_increment(Stable(0.5), np.array([1.0, 2.0]), RngStream(0), size=5)
        with pytest.raises(DomainError):
            sample_increment("bogus", 1.0, RngStream(0))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_non_finite_steps_and_bad_sizes_refused(self, spec):
        # NaN passes a plain dt <= 0 test, and inf steps drew inf increments
        for dt in (math.nan, math.inf, np.array([1.0, math.nan]), np.array([math.inf])):
            with pytest.raises(DomainError):
                sample_increment(spec, dt, RngStream(0))
        for dt in (math.nan, math.inf):
            with pytest.raises(DomainError):
                sample_increment(spec, dt, RngStream(0), size=3)
        # a negative size was numpy's ValueError and 2.7 drew 2 values
        for size in (-1, 2.7, "3"):
            with pytest.raises(DomainError):
                sample_increment(spec, 1.0, RngStream(0), size=size)
        assert sample_increment(spec, 1.0, RngStream(0), size=0).shape == (0,)
        assert sample_increment(spec, 1.0, RngStream(0), size=np.int64(2)).shape == (2,)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("dt", [0.01, 0.37, 3.0, 12.5])
    def test_scalar_step_draws_equal_array_steps(self, spec, dt):
        # a scalar step with size draws the same values, in the same order, as
        # the array of that step, though it forms each part's power of the step
        # once (dt = 3 and 12.5 split the tempered draws into chunks)
        scalar = sample_increment(spec, dt, RngStream(20), size=500)
        array = sample_increment(spec, np.full(500, dt), RngStream(20))
        assert scalar.tobytes() == array.tobytes()
        assert sample_increment(spec, dt, RngStream(21)) == sample_increment(spec, np.array([dt]), RngStream(21))[0]

    def test_chunks_past_the_round_cap_refused(self):
        # more than 10^7 rejection chunks would run for hours, and a count past
        # int64 once wrapped the chunk count and drew a silent 0: both raise
        # HorizonOverflow before the part draws
        gen = RngStream(0).generator()
        for spec, dt in ((TemperedStable(0.7, 1.0), 1e8), (TemperedStable(0.9, 1e30), 1e10)):
            with pytest.raises(HorizonOverflow):
                sample_increment(spec, dt, gen)
        np.testing.assert_array_equal(gen.random(4), RngStream(0).generator().random(4))
        with pytest.raises(HorizonOverflow):
            sample_increment(MixtureTemperedStable((0.5, 0.5), (0.6, 0.8), (0.0, 1e3)), np.array([1.0, 1e7]), gen)

    @pytest.mark.parametrize("spec", CHUNKED_SPECS, ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("steps", ["scalar", "array"])
    def test_chunked_increment_law(self, spec, steps):
        # every row splits into 2 or more chunks (3 to 14 for the tempered
        # spec, 2 to 11 for the mixture's second part), drawn in one rejection
        # loop: mean, variance and Laplace transform each within 6 SE
        n = 50_000
        if steps == "scalar":
            dt = np.full(n, 1.5)
            x = sample_increment(spec, 1.5, RngStream(51), size=n)
        else:
            dt = RngStream(52).generator().uniform(0.5, 3.0, n)
            x = sample_increment(spec, dt, RngStream(53))
        weights, alphas, mus = subordinators._parts(spec)
        assert max(np.ceil(dt.min() * c * m**a / 0.7) for c, a, m in zip(weights, alphas, mus)) >= 2
        mean = dt * sum(c * a * m ** (a - 1.0) for c, a, m in zip(weights, alphas, mus))
        var = dt * sum(c * a * (1.0 - a) * m ** (a - 2.0) for c, a, m in zip(weights, alphas, mus))
        gaps = {
            "mean": x - mean,
            "variance": (x - mean) ** 2 - var,
            "laplace": np.exp(-0.8 * x) - np.exp(-dt * laplace_exponent(spec, 0.8)),
        }
        for name, gap in gaps.items():
            z = gap.mean() / (gap.std(ddof=1) / math.sqrt(n))
            assert abs(z) < 6.0, (name, z)

    def test_single_chunk_draws_frozen(self):
        # rows of one chunk each draw the bytes of rejection rounds over all
        # rows from the start: values frozen from the sampler that ran one
        # loop per round of chunks, and the reference of that order
        spec = TemperedStable(0.7, 1.0)
        assert sample_increment(spec, 0.5, RngStream(41), size=5).tolist() == [
            0.09604680665306099,
            0.31940827157611873,
            0.3772698263788243,
            0.2027144641599736,
            0.2357072913521782,
        ]
        mixture = MixtureTemperedStable((0.6, 0.4), (0.5, 0.8), (0.5, 1.5))
        assert sample_increment(mixture, np.array([0.2, 0.7, 1.0]), RngStream(42)).tolist() == [
            0.06774809152135965,
            0.28637903358840333,
            0.2988797910381349,
        ]
        steps = RngStream(43).generator().uniform(1e-3, 0.7, 4000)
        got = sample_increment(spec, steps, RngStream(44))
        assert got.tobytes() == tempered_once_reference(0.7, 1.0, steps, RngStream(44).generator()).tobytes()

    def test_forced_rejection_raises_at_the_round_cap(self, monkeypatch):
        # a proposal that is never accepted ends after 3 C + 10,000 rounds,
        # C the most chunks of a row, with NonConvergence rather than a hang
        calls = []

        def never_accepted(alpha, rng, size):
            calls.append(size)
            return np.full(size, 1e300)

        monkeypatch.setattr(subordinators, "_standard_stable", never_accepted)
        with pytest.raises(NonConvergence):
            sample_increment(TemperedStable(0.7, 1.0), np.array([0.5, 2.0]), RngStream(0))
        assert len(calls) == 3 * 3 + 10_000 and set(calls) == {2}

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_empty_steps_draw_nothing(self, spec):
        # tempered parts took the chunk count's maximum over no steps
        gen = np.random.default_rng(0)
        assert sample_increment(spec, np.array([]), gen).shape == (0,)
        assert sample_increment(spec, np.empty((2, 0)), gen).shape == (2, 0)
        # no draws from a scalar step either, however many chunks it would take
        assert sample_increment(spec, 1e12, gen, size=0).shape == (0,)
        assert gen.random() == np.random.default_rng(0).random()


def kanter_reference(alpha, gen, size):
    """Kanter's stable draws by the formula on fresh temporaries, clip and all."""
    u = math.pi * np.clip(gen.random(size), 1e-12, 1.0 - 1e-13)
    e = np.maximum(gen.standard_exponential(size), 1e-300)
    one = 1.0 - alpha
    log_a = (alpha / one) * np.log(np.sin(alpha * u)) + np.log(np.sin(one * u)) - (1.0 / one) * np.log(np.sin(u))
    return np.exp(((1.0 - alpha) / alpha) * (log_a - np.log(e)))


def tempered_once_reference(alpha, mu, dt, gen):
    """Rejection rounds over all of ``todo`` from the start, one step per draw:
    the draw order of steps of one chunk each."""
    scale = np.power(dt, 1.0 / alpha)
    vals, todo = np.empty(dt.size), np.arange(dt.size)
    while todo.size:
        prop = scale[todo] * kanter_reference(alpha, gen, todo.size)
        keep = gen.random(todo.size) < np.exp(-mu * prop)
        vals[todo[keep]] = prop[keep]
        todo = todo[~keep]
    return vals


def tempered_chunks_reference(alpha, mu, dt, gen):
    """One rejection loop over the rows with chunks left: each round every
    such row proposes one draw over its chunk, and an accepted draw is added
    to its row and takes one chunk off its count."""
    chunks = np.maximum(1, np.ceil(dt * mu**alpha / 0.7)).astype(np.int64)
    scale = np.power(dt / chunks, 1.0 / alpha)
    out, live = np.zeros(dt.size), np.arange(dt.size)
    while live.size:
        prop = scale[live] * kanter_reference(alpha, gen, live.size)
        keep = gen.random(live.size) < np.exp(-mu * prop)
        out[live[keep]] += prop[keep]
        chunks[live[keep]] -= 1
        live = live[chunks[live] > 0]
    return out


def mixture_increment_reference(spec, dt, gen):
    """Mixed and mixture increments over an array of steps, summed from zeros."""
    out = np.zeros(dt.shape)
    if isinstance(spec, MixedStable):
        for c, a in zip(spec.weights, spec.alphas):
            out += np.power(c * dt, 1.0 / a) * kanter_reference(a, gen, dt.shape)
        return out
    for c, a, m in zip(spec.weights, spec.alphas, spec.mus):
        out += tempered_chunks_reference(a, m, c * dt, gen)
    return out


class TestDrawsInPlace:
    """Draws formed in place, bit for bit those of the formulas on fresh temporaries."""

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.9, 0.995])
    def test_standard_stable_equals_formula(self, alpha):
        got = _standard_stable(alpha, RngStream(31).generator(), 20_000)
        assert np.array_equal(got, kanter_reference(alpha, RngStream(31).generator(), 20_000))
        # log A alone leaves its argument as it was
        u = np.linspace(1e-9, math.pi - 1e-9, 1001)
        one = 1.0 - alpha
        head = (alpha / one) * np.log(np.sin(alpha * u)) + np.log(np.sin(one * u))
        log_sin = np.log(np.sin(u))
        assert np.array_equal(_kanter_log_a(alpha, u), head - (1.0 / one) * log_sin)
        assert np.array_equal(u, np.linspace(1e-9, math.pi - 1e-9, 1001))

    @pytest.mark.parametrize(
        "spec",
        [MixedStable((0.5, 0.5), (0.6, 0.9)), MixtureTemperedStable((0.6, 0.4), (0.5, 0.8), (0.5, 1.5))],
        ids=lambda s: type(s).__name__,
    )
    @pytest.mark.parametrize("dt", [1e-3, 3.0], ids=["grid-step", "chunked"])
    def test_mixture_sums_equal_sums_from_zeros(self, spec, dt):
        # dt = 3 splits the tempered parts into two rejection chunks
        got = sample_increment(spec, dt, RngStream(32), size=5000)
        want = mixture_increment_reference(spec, np.full(5000, dt), RngStream(32).generator())
        assert np.array_equal(got, want)
        steps = RngStream(33).generator().uniform(1e-3, 4.0, 3000)
        got = sample_increment(spec, steps, RngStream(34))
        assert np.array_equal(got, mixture_increment_reference(spec, steps, RngStream(34).generator()))


class TestSpecValidation:
    def test_bad_parameters_raise(self):
        with pytest.raises(DomainError):
            Stable(alpha=1.0)
        with pytest.raises(DomainError):
            Stable(alpha=0.0)
        with pytest.raises(DomainError):
            MixedStable(weights=(), alphas=())
        with pytest.raises(DomainError):
            MixedStable(weights=(1.0,), alphas=(0.5, 0.6))
        with pytest.raises(DomainError):
            MixedStable(weights=(-1.0,), alphas=(0.5,))
        with pytest.raises(DomainError):
            TemperedStable(alpha=0.5, mu=-0.1)
        with pytest.raises(DomainError):
            MixtureTemperedStable(weights=(1.0,), alphas=(0.5,), mus=(-1.0,))
        with pytest.raises(DomainError):
            Gamma(p=0.0, a=1.0)
        with pytest.raises(DomainError):
            InverseGaussian(delta=1.0, gamma=0.0)

    @pytest.mark.parametrize("cls", [MixedStable, MixtureTemperedStable])
    def test_mixed_specs_share_one_parts_check(self, cls):
        def make(weights, alphas):
            # a mixture gets untempered parts, one per index
            return cls(weights, alphas) if cls is MixedStable else cls(weights, alphas, (0,) * len(alphas))

        spec = make([1, 2], np.array([0.5, 0.6]))
        assert spec.weights == (1.0, 2.0) and spec.alphas == (0.5, 0.6)
        assert all(type(x) is float for x in spec.weights + spec.alphas + getattr(spec, "mus", ()))
        for weights, alphas in [((), ()), ((1.0,), (0.5, 0.6)), ((1.0, 1.0), (0.5,)), ((0.0,), (0.5,)),
                                ((math.nan,), (0.5,)), ((1.0,), (1.0,)), ((1.0,), (0.0,))]:
            with pytest.raises(DomainError):
                make(weights, alphas)
        if cls is MixtureTemperedStable:
            for mus in [(), (0.0, 0.0), (-1.0,), (math.inf,)]:
                with pytest.raises(DomainError):
                    cls((1.0,), (0.5,), mus)


class TestInverseClock:
    def test_mean_matches_closed_form(self):
        # E[H(t)] = t^beta / Gamma(1 + beta) for the stable clock.
        beta, t, n = 0.6, 1.0, 4000
        draws = sample_inverse_at(Stable(beta), [t], n, RngStream(12))[:, 0]
        se = draws.std(ddof=1) / math.sqrt(n)
        expected = t**beta / math.gamma(1.0 + beta)
        assert abs(draws.mean() - expected) < 4.0 * se

    def test_single_draw_positive(self):
        val = sample_inverse_at(Stable(0.7), [2.0], 1, RngStream(13))[0, 0]
        assert val > 0

    def test_matrix_shape_and_monotonicity(self, monkeypatch):
        times = [0.25, 0.5, 1.0]

        # the clock is exact at several read times and draws no increment
        def refuse(*args, **kwargs):
            raise AssertionError("the clock drew an increment")

        monkeypatch.setattr("fracppk.subordinators.sample_increment", refuse)
        mat = sample_inverse_at(Stable(0.7), times, 200, RngStream(14))
        assert mat.shape == (200, 3)
        assert np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)  # each path's clock is nondecreasing
        off_grid = np.abs(mat / 1e-3 - np.round(mat / 1e-3)) > 1e-6
        assert off_grid.mean() > 0.99

    def test_inversion_duality(self):
        # P(H(t) > u) = P(L(u) <= t): compare both sides by Monte Carlo.
        beta, t, u, n = 0.6, 1.0, 0.5, 20_000
        h = sample_inverse_at(Stable(beta), [t], n, RngStream(15))[:, 0]
        lhs = (h > u).mean()
        direct = sample_increment(Stable(beta), u, RngStream(16), size=n)
        rhs = (direct <= t).mean()
        se = math.sqrt(lhs * (1 - lhs) / n + rhs * (1 - rhs) / n)
        assert abs(lhs - rhs) < 4.0 * se

    def test_gamma_clock_supported(self):
        draws = sample_inverse_at(Gamma(2.0, 1.0), [1.0], 500, RngStream(17))[:, 0]
        assert np.all(draws > 0)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            sample_inverse_at(Stable(0.5), [-1.0], 1, RngStream(0))
        with pytest.raises(DomainError):
            sample_inverse_at(Stable(0.5), [1.0, 0.5], 10, RngStream(0))
        with pytest.raises(DomainError):
            sample_inverse_at(Stable(0.5), [0.5, 1.0], 0, RngStream(0))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_non_finite_times_and_steps_refused(self, spec):
        # [inf] gave an inf stable clock; NaN and inf read times are refused as times
        for times in ([math.nan], [math.inf], [0.5, math.nan], [0.5, math.inf]):
            with pytest.raises(DomainError, match="times"):
                sample_inverse_at(spec, times, 3, RngStream(0))


class TestExactInverseStable:
    """A Stable clock read at one time is exact in law:
    E(t) = (t / S(1))^beta, one Kanter draw per clock."""

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_moments(self, beta):
        # E[E(t)^m] = m! t^(m beta) / Gamma(1 + m beta)
        t, n = 1.5, 40_000
        draws = sample_inverse_at(Stable(beta), [t], n, RngStream(40))[:, 0]
        for m in (1, 2):
            x = draws**m
            se = x.std(ddof=1) / math.sqrt(n)
            exact = math.factorial(m) * t ** (m * beta) / math.gamma(1.0 + m * beta)
            assert abs(x.mean() - exact) < 4.0 * se

    @pytest.mark.parametrize("beta, u", [(0.3, 0.4), (0.9, 1.3)])
    def test_duality_against_increments(self, beta, u):
        # P(E(t) > u) = P(S(u) <= t) at the ends of the index range (0.6 is
        # test_inversion_duality); the right side from exact increments
        t, n = 1.0, 40_000
        h = sample_inverse_at(Stable(beta), [t], n, RngStream(41))[:, 0]
        s = sample_increment(Stable(beta), u, RngStream(42), size=n)
        lhs, rhs = (h > u).mean(), (s <= t).mean()
        se = math.sqrt(lhs * (1 - lhs) / n + rhs * (1 - rhs) / n)
        assert abs(lhs - rhs) < 4.0 * se

    @pytest.mark.parametrize("beta", [0.05, 0.01])
    def test_small_beta_is_finite_and_positive(self, beta):
        # S(1) itself overflows float64 at beta = 0.01; the clock is formed in log space
        draws = sample_inverse_at(Stable(beta), [2.0], 100_000, RngStream(43))[:, 0]
        assert np.all(np.isfinite(draws)) and np.all(draws > 0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 2.0**beta / math.gamma(1.0 + beta)) < 4.0 * se

    def test_draws_no_increments(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the clock drew an increment")

        monkeypatch.setattr("fracppk.subordinators.sample_increment", refuse)
        monkeypatch.setattr("fracppk.subordinators._MAX_STEPS", 1)
        mat = sample_inverse_at(Stable(0.7), [1e6], 10, RngStream(44))
        assert mat.shape == (10, 1) and np.all(mat > 0)
        assert sample_inverse_at(Stable(0.7), [2.0], 1, RngStream(44))[0, 0] > 0


class TestExactJointInverseStable:
    """A Stable clock read at several times is exact jointly: the
    first-passage triple (time, undershoot, overshoot) at each read time is
    drawn from its joint law and the path renews after it."""

    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.8])
    def test_covariance_of_two_columns(self, beta):
        s, t, n = 0.6, 1.5, 100_000
        mat = sample_inverse_at(Stable(beta), [s, t], n, RngStream(50))
        prod = (mat[:, 0] - mat[:, 0].mean()) * (mat[:, 1] - mat[:, 1].mean())
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - _inverse_stable_clock_cov(beta, s, t)) < 4.0 * se

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.7, 0.9])
    def test_no_renewal_probability(self, beta):
        # E(s) = E(t) exactly when the path jumps over (s, t]: the generalized
        # arcsine law gives P = I_{s/t}(beta, 1 - beta)
        s, t, n = 0.5, 2.0, 100_000
        mat = sample_inverse_at(Stable(beta), [s, t], n, RngStream(51))
        got = float(np.mean(mat[:, 0] == mat[:, 1]))
        want = float(betainc(beta, 1.0 - beta, s / t))
        assert abs(got - want) < 4.0 * math.sqrt(want * (1.0 - want) / n)

    @pytest.mark.parametrize("beta", [0.3, 0.7])
    def test_duality_per_column(self, beta):
        # P(E(t_j) > u) = P(S(u) <= t_j) for every column of the joint draw
        times, u, n = [0.3, 1.0, 2.5], 0.6, 40_000
        mat = sample_inverse_at(Stable(beta), times, n, RngStream(52))
        s = sample_increment(Stable(beta), u, RngStream(53), size=n)
        for j, t in enumerate(times):
            lhs, rhs = (mat[:, j] > u).mean(), (s <= t).mean()
            se = math.sqrt(lhs * (1 - lhs) / n + rhs * (1 - rhs) / n)
            assert abs(lhs - rhs) < 4.0 * se

    def test_draws_no_increments_and_never_overflows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the clock drew an increment")

        monkeypatch.setattr("fracppk.subordinators.sample_increment", refuse)
        monkeypatch.setattr("fracppk.subordinators._MAX_STEPS", 1)
        times = [1e-3, 1.0, 1e3, 1e6]
        mat = sample_inverse_at(Stable(0.7), times, 50, RngStream(54))
        assert mat.shape == (50, 4) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)

    def test_one_time_outputs_unchanged(self):
        # values frozen from the one-time route before the joint route existed
        got = sample_inverse_at(Stable(0.7), [1.5], 4, RngStream(7))
        assert got.ravel().tolist() == [
            0.8509267443387282,
            1.0245791905450559,
            1.2165640476442952,
            2.958078791578617,
        ]
        got = sample_inverse_at(Stable(0.05), [2.0], 3, RngStream(8))[:, 0]
        assert got.tolist() == [1.4212949827032872, 1.4246105340549837, 0.29777780771856194]

    @settings(max_examples=50, deadline=None)
    @given(
        beta=st.floats(0.02, 0.98),
        log_times=st.lists(st.floats(math.log(1e-6), math.log(1e6)), min_size=1, max_size=6),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_finite_positive_nondecreasing(self, beta, log_times, n, seed):
        times = np.unique(np.exp(log_times))
        mat = sample_inverse_at(Stable(beta), times, n, RngStream(seed))
        assert mat.shape == (n, times.size)
        assert np.all(np.isfinite(mat)) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)


TEMPERED_CASES = [
    (0.8, 0.5, 1.0),
    (0.9, 0.2, 1.0),
    (0.7, 1.0, 1.0),
    (0.5, 3.0, 5.0),
    (0.3, 0.01, 1.0),
    (0.95, 5.0, 10.0),
]


def probed_tempered_clock(alpha, mu, grid, n, rng):
    """The inverse TemperedStable(alpha, mu) clock by Esscher rounds that
    probe first, an independent route to the same law: a round of length
    ``h = 0.7 / mu^alpha`` draws ``s = h^(1/alpha) S(1)`` by Kanter; where
    ``s <= d = min(t_j - x, h^(1/alpha))`` the round ends at h with level s,
    and otherwise the stable triple over d is redrawn until its passage
    comes by h.  Rounds are accepted as the library accepts them."""
    rate = mu**alpha
    h = 0.7 / rate
    log_reach = np.log(h) / alpha
    reach = np.exp(log_reach)
    clock = np.zeros(n)
    level = np.zeros(n)
    nxt = np.zeros(n, dtype=np.int64)
    out = np.empty((n, grid.size))
    live = np.arange(n)
    while live.size:
        target = grid[nxt[live]]
        dist = np.minimum(target - level[live], reach)
        log_stable = (1.0 - alpha) / alpha * subordinators._kanter_log_ratio(alpha, rng, live.size)
        with np.errstate(over="ignore"):
            s = np.exp(log_reach + log_stable)
        gain = np.full(live.size, h)
        accept = np.exp(-mu * s)
        todo = np.flatnonzero(s > dist)
        while todo.size:
            passage, over = _stable_passage(alpha, dist[todo], rng, todo.size)
            ok = passage <= h
            gain[todo[ok]] = passage[ok]
            s[todo[ok]] = over[ok]
            accept[todo[ok]] = np.exp(-mu * over[ok] - (0.7 - rate * passage[ok]))
            todo = todo[~ok]
        keep = rng.random(live.size) < accept
        clock[live[keep]] += gain[keep]
        level[live[keep]] += s[keep]
        live = subordinators._record_passed(live, target, clock, level, nxt, grid, out)
    return out


class TestExactInverseTempered:
    """A TemperedStable(beta, nu) clock with nu > 0 is exact in law jointly:
    Esscher-tilted rounds over the stable first passage, no increment."""

    @pytest.mark.parametrize("beta, nu, t", TEMPERED_CASES)
    def test_duality_against_increments(self, beta, nu, t):
        # P(E(t) > u) = P(S(u) <= t) at three quantiles of a pilot draw of
        # the clock; the right side from exact tempered increments
        spec, n = TemperedStable(beta, nu), 20_000
        pilot = sample_inverse_at(spec, [t], 2_000, RngStream(60))[:, 0]
        h = sample_inverse_at(spec, [t], n, RngStream(61))[:, 0]
        for i, q in enumerate((0.25, 0.5, 0.75)):
            u = float(np.quantile(pilot, q))
            s = sample_increment(spec, u, RngStream(62, i), size=n)
            lhs, rhs = (h > u).mean(), (s <= t).mean()
            se = math.sqrt(lhs * (1 - lhs) / n + rhs * (1 - rhs) / n)
            assert abs(lhs - rhs) < 4.0 * se, (u, lhs, rhs)

    @pytest.mark.parametrize("beta, nu, s", [(0.7, 1.0, 1.0), (0.5, 3.0, 2.0), (0.9, 0.2, 0.5)])
    def test_clock_mean_laplace_transform(self, beta, nu, s):
        # int e^{-st} E[E(t)] dt = 1 / (s f(s)), so E[E(T)] = 1 / f(s) for T
        # exponential of rate s.  Each batch reads its paths at one time in
        # each of ten equal-probability strata of T, shifted by one shared
        # uniform, so a batch mean is unbiased and the batches are i.i.d.
        spec, strata = TemperedStable(beta, nu), 10
        gen = np.random.default_rng(70)
        batches = []
        for b in range(40):
            times = -np.log1p(-(np.arange(strata) + gen.random()) / strata) / s
            batches.append(sample_inverse_at(spec, times, 200, RngStream(71, b)).mean())
        batches = np.array(batches)
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(batches.mean() - 1.0 / laplace_exponent(spec, s)) < 4.0 * se

    @pytest.mark.parametrize("beta, nu", [(0.6, 1.0), (0.85, 2.0)])
    def test_columns_against_one_time_draws(self, beta, nu):
        # each column of a joint draw has the law of a draw at its time alone
        spec, times, n = TemperedStable(beta, nu), [0.4, 1.5], 40_000
        mat = sample_inverse_at(spec, times, n, RngStream(72))
        for j, t in enumerate(times):
            one = sample_inverse_at(spec, [t], n, RngStream(73, j))[:, 0]
            col = mat[:, j]
            se = math.sqrt((col.var(ddof=1) + one.var(ddof=1)) / n)
            assert abs(col.mean() - one.mean()) < 4.0 * se
            u = float(np.median(one))
            p, q = (col > u).mean(), (one > u).mean()
            assert abs(p - q) < 4.0 * math.sqrt(p * (1 - p) / n + q * (1 - q) / n)

    def test_draws_no_increments(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the clock drew an increment")

        monkeypatch.setattr("fracppk.subordinators.sample_increment", refuse)
        mat = sample_inverse_at(TemperedStable(0.7, 1.0), [1e-3, 1.0, 5.0], 50, RngStream(74))
        assert mat.shape == (50, 3) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)
        off_grid = np.abs(mat / 5e-3 - np.round(mat / 5e-3)) > 1e-6
        assert off_grid.mean() > 0.99
        assert sample_inverse_at(TemperedStable(0.7, 1.0), [2.0], 1, RngStream(74))[0, 0] > 0

    def test_zero_tempering_is_the_stable_clock(self):
        for times in ([1.5], [0.3, 1.0, 2.5]):
            got = sample_inverse_at(TemperedStable(0.7, 0.0), times, 20, RngStream(75))
            want = sample_inverse_at(Stable(0.7), times, 20, RngStream(75))
            assert got.tobytes() == want.tobytes()

    def test_single_time_frozen(self):
        # values frozen from the one-part race, its rounds cut at min(h, 2 d^alpha),
        # its passage shapes drawn ahead in blocks (Jöhnk's undershoot pair and
        # overshoot uniform, then the size-biased Mittag-Leffler factor, each
        # rejection in one proposal pass) and a part cut before its passage
        # read from its passage time
        spec = TemperedStable(0.7, 1.0)
        assert sample_inverse_at(spec, [1.5], 5, RngStream(7)).ravel().tolist() == [
            3.843726733591273,
            1.8003070915887904,
            3.414756029978201,
            1.3246171298510228,
            2.883073852837027,
        ]
        assert sample_inverse_at(spec, [0.3], 4, RngStream(8))[:, 0].tolist() == [
            0.9106031287090333,
            0.5922772109080183,
            0.6130020417419494,
            0.20924491619590818,
        ]
        assert sample_inverse_at(spec, [12.0], 3, RngStream(9))[:, 0].tolist() == [
            20.93508467364989,
            17.50883388705729,
            15.785663847826912,
        ]

    @pytest.mark.parametrize(
        "spec, means, squares",
        [
            (
                TemperedStable(0.7, 1.0),
                (0.50265, 0.89146, 1.26359, 1.62896),
                (0.31125, 0.94804, 1.86295, 3.04438),
            ),
            (
                MixedStable((0.5, 0.5), (0.6, 0.9)),
                (0.37615, 0.64578, 0.88147, 1.09668),
                (0.17201, 0.51399, 0.96562, 1.50364),
            ),
        ],
        ids=["tempered", "mixed"],
    )
    def test_moments_against_talbot(self, spec, means, squares):
        # E[H(t)] and E[H(t)^2] have the Laplace transforms 1 / (s f(s)) and
        # 2 / (s f(s)^2) in t; Talbot's contour inverts them in mpmath (to the
        # five digits listed), and the clock's sample moments at four read
        # times lie within 5 SE of them
        times, n = [0.25, 0.5, 0.75, 1.0], 100_000
        mat = sample_inverse_at(spec, times, n, RngStream(82))
        with mp.workdps(30):
            weights, alphas, mus = (tuple(map(mp.mpf, x)) for x in subordinators._parts(spec))

            def f(s):
                return sum(c * ((s + m) ** a - m**a) for c, a, m in zip(weights, alphas, mus))

            refs = [
                [float(mp.invertlaplace(lambda s: k / (s * f(s) ** k), t, method="talbot")) for t in times]
                for k in (1, 2)
            ]
        np.testing.assert_allclose(refs, [means, squares], atol=1e-5)
        for power, ref in zip((1, 2), refs):
            sample = mat**power
            z = (sample.mean(axis=0) - ref) / (sample.std(axis=0, ddof=1) / math.sqrt(n))
            assert np.all(np.abs(z) <= 5.0), (power, z)

    @pytest.mark.parametrize("beta, nu", [(0.7, 1.0), (0.3, 3.0), (0.7, 50.0)])
    def test_is_the_one_part_race(self, beta, nu):
        # the same bytes as the race of one part of weight 1 on the same stream
        times = [0.25, 0.5, 1.0]
        one = MixtureTemperedStable((1.0,), (beta,), (nu,))
        got = sample_inverse_at(TemperedStable(beta, nu), times, 20, RngStream(81))
        assert got.tobytes() == sample_inverse_at(one, times, 20, RngStream(81)).tobytes()

    def test_round_cap(self, monkeypatch):
        # about nu t / beta rounds per clock: 6e4 here, far above the cap
        monkeypatch.setattr("fracppk.subordinators._MAX_STEPS", 50)
        with pytest.raises(HorizonOverflow):
            sample_inverse_at(TemperedStable(0.5, 3.0), [1e4], 10, RngStream(76))

    @pytest.mark.parametrize(
        "spec", [TemperedStable(0.7, 1.0), MixtureTemperedStable((0.5, 0.5), (0.6, 0.9), (2.0, 0.5))]
    )
    def test_read_time_out_of_reach_refused_before_drawing(self, spec):
        # mu_min t - 0.7 * 10^7 > 745: a passage within the round cap has
        # probability below exp(-745), so the race refuses at once (it would
        # take 10^7 rounds, minutes) and draws nothing
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        start = time.perf_counter()
        for t in ([1e200], [1.0, 2e7]):
            with pytest.raises(HorizonOverflow):
                sample_inverse_at(spec, t, 1, gen)
        with pytest.raises(HorizonOverflow):
            sample_inverse_at(spec, [1e200], 1, RngStream(0))
        assert time.perf_counter() - start < 1.0
        assert gen.bit_generator.state == state

    def test_passage_past_the_round_draws_below(self, monkeypatch):
        # TemperedStable(0.5, 1) is the one-part race: each round scales a
        # passage shape over the whole distance d and is cut at
        # min(h, 2 d^0.5), h = 0.7.  The first three passages come at twice
        # the cut, so each of those rounds reads the part below d at
        # d (cut / T)^(1/0.5) = d / 4, and exponentials of +inf accept it;
        # the fourth passes at half the cut, over the read time.  At t = 1
        # every cut is h, at t = 0.1 every cut is 2 d^0.5
        h, passages = 0.7, []

        def cut(d):
            return min(h, 2.0 * math.sqrt(d))

        def scripted(alpha, ell, *shapes):
            d = float(ell[0, 0])
            passages.append(d)
            late = len(passages) < 4
            return np.full(ell.shape, cut(d) * (2.0 if late else 0.5)), np.full(ell.shape, 5.0)

        class Accept(np.random.Generator):
            def standard_exponential(self, size=None):
                return np.full(size, np.inf)

        monkeypatch.setattr(subordinators, "_scale_passage", scripted)
        for t in (1.0, 0.1):
            passages.clear()
            mat = sample_inverse_at(TemperedStable(0.5, 1.0), [t], 1, Accept(np.random.PCG64(0)))
            dists = [t * 0.75**i for i in range(4)]
            cuts = [cut(d) for d in dists]
            assert all(c == h for c in cuts) if t == 1.0 else all(c < h for c in cuts)
            assert passages == [pytest.approx(d, rel=1e-12) for d in dists]
            assert mat.tolist() == [[pytest.approx(sum(cuts[:3]) + cuts[3] / 2.0, rel=1e-12)]]

    def test_stalled_race_hits_the_round_cap(self, monkeypatch):
        # every passage shape puts the passage far after the cut (Y = 1e6),
        # so each round reads the part about 5e-13 above its last level and
        # the level never nears the read time: the round cap ends it
        def late(alpha, rng, size):
            return np.array((np.zeros(size), np.zeros(size), np.full(size, 1e6), np.zeros(size)))

        monkeypatch.setattr(subordinators, "_passage_shapes", late)
        monkeypatch.setattr(subordinators, "_MAX_STEPS", 1000)
        with pytest.raises(HorizonOverflow):
            sample_inverse_at(TemperedStable(0.5, 1.0), [1.0], 3, RngStream(0))

    @pytest.mark.parametrize("beta, nu", [(0.3, 3.0), (0.7, 1.0), (0.95, 0.5)])
    def test_passage_first_against_probe(self, beta, nu):
        # the joint law at three read times against the rounds that probe
        # S(h) first: chi-square homogeneity of (E(t_0), E(t_1) - E(t_0), ..)
        # binned at quintiles
        times = np.array([0.25, 0.5, 1.0])
        first = sample_inverse_at(TemperedStable(beta, nu), times, 20_000, RngStream(79))
        probed = probed_tempered_clock(beta, nu, times, 20_000, RngStream(80).generator())
        assert homogeneity(first, probed) > 1e-3

    @pytest.mark.parametrize("beta", [0.005, 0.01])
    def test_small_beta_infinite_overshoots_are_rejected(self, beta, monkeypatch):
        # overshoots overflow to +inf at small beta; they must be rejected,
        # never carried into a clock as inf or NaN
        scaled = subordinators._scale_passage
        infinite = []

        def counted(alpha, ell, *shapes):
            passage, over = scaled(alpha, ell, *shapes)
            infinite.append(int(np.sum(np.isinf(over))))
            return passage, over

        monkeypatch.setattr(subordinators, "_scale_passage", counted)
        mat = sample_inverse_at(TemperedStable(beta, 0.5), [0.5, 1.0, 2.0], 200, RngStream(78))
        assert sum(infinite) > 0
        assert np.all(np.isfinite(mat)) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(0.05, 0.95),
        nu=st.floats(1e-3, 5.0),
        log_times=st.lists(st.floats(math.log(1e-3), math.log(5.0)), min_size=1, max_size=4),
        n=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_finite_positive_nondecreasing(self, beta, nu, log_times, n, seed):
        times = np.unique(np.exp(log_times))
        mat = sample_inverse_at(TemperedStable(beta, nu), times, n, RngStream(seed))
        assert mat.shape == (n, times.size)
        assert np.all(np.isfinite(mat)) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)

    @settings(max_examples=30, deadline=None)
    @given(
        beta=st.floats(0.05, 0.99),
        log_nu=st.floats(math.log(1e-12), math.log(50.0)),
        log_times=st.lists(st.floats(math.log(1e-3), math.log(5.0)), min_size=1, max_size=4),
        n=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_wide_tempering(self, beta, log_nu, log_times, n, seed):
        # from rounds far longer than any read time to about 1e3 rounds a row
        times = np.unique(np.exp(log_times))
        mat = sample_inverse_at(TemperedStable(beta, math.exp(log_nu)), times, n, RngStream(seed))
        assert mat.shape == (n, times.size)
        assert np.all(np.isfinite(mat)) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)


class TestExactInverseGaussian:
    """An InverseGaussian(delta, gamma) clock is the running maximum of
    ``W(s) + gamma s`` over delta, drawn exactly at every read time from the
    Brownian-bridge maximum: no increment."""

    SPEC = InverseGaussian(delta=1.1, gamma=0.9)

    def test_marginals_match_duality(self):
        # P(H(t) <= s) = 1 - P(L(s) <= t), with L(s) inverse Gaussian of mean
        # delta s / gamma and shape (delta s)^2; each column binned at the
        # deciles of that law and compared by chi-square
        d, g = self.SPEC.delta, self.SPEC.gamma
        times, n = [0.3, 1.0, 3.0], 20_000
        mat = sample_inverse_at(self.SPEC, times, n, RngStream(80))

        def cdf(s, t):
            shape = (d * s) ** 2
            return 1.0 - invgauss.cdf(t, (d * s / g) / shape, scale=shape)

        for j, t in enumerate(times):
            hi = 10.0 * (g * t + math.sqrt(t) + 1.0) / d
            edges = [brentq(lambda s: cdf(s, t) - q, 1e-12, hi) for q in np.arange(1, 10) / 10]
            observed = np.bincount(np.searchsorted(edges, mat[:, j]), minlength=10)
            assert chisquare(observed, np.full(10, n / 10)).pvalue > 1e-3

    def test_joint_law_against_increments(self):
        assert_joint_law_against_increments(self.SPEC, seed=84)

    def test_array_pass_equals_the_walk_over_gaps(self):
        # from the same (n, T) normals and uniforms, a walk over the read-time
        # gaps with a running level and maximum forms the same bytes
        d, g = self.SPEC.delta, self.SPEC.gamma
        grid, n = np.array([0.1, 0.35, 1.0, 2.5, 2.6]), 1000
        gen = RngStream(86).generator()
        normals, uniforms = gen.standard_normal((n, grid.size)), gen.random((n, grid.size))
        level, top, want = np.zeros(n), np.zeros(n), np.empty((n, grid.size))
        for j, gap in enumerate(np.diff(grid, prepend=0.0)):
            b = normals[:, j] * math.sqrt(gap) + g * gap
            top = np.maximum(top, level + 0.5 * (b + np.sqrt(b * b - 2.0 * gap * np.log1p(-uniforms[:, j]))))
            level = level + b
            want[:, j] = top / d
        assert sample_inverse_at(self.SPEC, grid, n, RngStream(86)).tobytes() == want.tobytes()

    def test_joint_law_at_four_times(self):
        # every column is drawn in one array pass: the four read times keep
        # the joint law of the running maximum
        assert_joint_law_against_increments(self.SPEC, seed=85, times=(0.3, 1.0, 2.0, 3.5))

    def test_draws_no_increments_and_never_overflows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the clock drew an increment")

        monkeypatch.setattr("fracppk.subordinators.sample_increment", refuse)
        monkeypatch.setattr("fracppk.subordinators._MAX_STEPS", 1)
        times = [1e-3, 1.0, 1e3, 1e6]
        mat = sample_inverse_at(self.SPEC, times, 50, RngStream(83))
        assert mat.shape == (50, 4) and np.all(np.isfinite(mat)) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)
        off_grid = np.abs(mat / 1e-3 - np.round(mat / 1e-3)) > 1e-6
        assert off_grid[:, :2].mean() > 0.99
        assert sample_inverse_at(self.SPEC, [2.0], 1, RngStream(83))[0, 0] > 0


GAMMA_CASES = [(0.3, 2.0, 1.0), (5.0, 1.0, 2.0), (2.0, 3.0, 0.7), (0.01, 1.0, 1.0)]


def bisected_gamma_clock(p, a, grid, n, rng):
    """The inverse Gamma(p, a) clock by bisection, an independent route to
    the same law: each row brackets its passage by doubling steps, as the
    library does, then halves the bracket ``[v0, v1]`` with the gamma bridge
    ``(G(m) - G(v0)) / (G(v1) - G(v0)) ~ Beta((v1 - v0) / 2, (v1 - v0) / 2)``
    at its midpoint until ``v1 - v0 <= 2^-50 v1``, and reads the clock as v1
    (about 51 Beta draws per row at one read time)."""
    clock = np.zeros(n)
    level = np.zeros(n)
    out = np.empty((n, grid.size))
    for tj, col in zip(a * grid, out.T):
        live = np.flatnonzero(level <= tj)
        lo, lo_level = clock[live], level[live]
        width = np.maximum(tj - lo_level, subordinators._MIN_SHAPE)
        hi_level = np.empty(live.size)
        todo = np.arange(live.size)
        while todo.size:
            reach = lo_level[todo] + rng.standard_gamma(width[todo])
            crossed = reach > tj
            hi_level[todo[crossed]] = reach[crossed]
            todo = todo[~crossed]
            lo[todo] += width[todo]
            lo_level[todo] = reach[~crossed]
            width[todo] *= 2.0
        rows = np.arange(live.size)
        while rows.size:
            wide = width > 2.0**-50 * (lo + width)
            done = live[rows[~wide]]
            clock[done] = lo[~wide] + width[~wide]
            level[done] = hi_level[~wide]
            rows, lo, width, lo_level, hi_level = (x[wide] for x in (rows, lo, width, lo_level, hi_level))
            width *= 0.5
            mid_level = lo_level + rng.beta(width, width) * (hi_level - lo_level)
            below = mid_level <= tj
            np.copyto(lo_level, mid_level, where=below)
            np.copyto(hi_level, mid_level, where=~below)
            np.add(lo, width, out=lo, where=below)
        col[:] = clock / p
    return out


class FixedDraws:
    """A generator that returns given uniforms and Beta draws in turn and
    records every draw it makes."""

    def __init__(self, uniforms, betas):
        self.uniforms, self.betas, self.drawn = list(uniforms), list(betas), []

    def random(self, size):
        self.drawn.append(("random", size))
        return np.array([self.uniforms.pop(0) for _ in range(size)])

    def beta(self, a, b):
        self.drawn.append(("beta", a.tolist(), b.tolist()))
        return np.array([self.betas.pop(0) for _ in range(a.size)])


def gamma_passage(y, bracket, levels, draws):
    """:func:`_gamma_passage` of one row over ``y`` in ``bracket = (lo, width)``."""
    (lo, width), (lo_level, hi_level) = bracket, levels
    clock, level = subordinators._gamma_passage(
        y, *(np.array([v]) for v in (lo, width, lo_level, hi_level)), draws
    )
    return float(clock[0]), float(level[0])


def stick_share(u, width):
    """``R = U^(1/w)`` as the library forms it, in log space."""
    return float(np.exp(np.log1p(-np.array([u])) / np.array([width]))[0])


class TestExactInverseGamma:
    """A Gamma(p, a) clock is exact in law jointly: each row brackets its
    passage by doubling steps and finds it in the bracket by first-stick
    splits of the gamma bridge, no increment and no HorizonOverflow."""

    @pytest.mark.parametrize("case", range(len(GAMMA_CASES)))
    def test_marginals_match_duality(self, case):
        # P(H(t) > s) = P(L(s) <= t) = gammainc(p s, a t), so gammainc(p H, a t)
        # is uniform; binned at deciles and compared by chi-square.  At
        # p = 0.01 a grid of 1e-3 t would take about 1e5 steps per row
        p, a, t = GAMMA_CASES[case]
        n = 20_000
        h = sample_inverse_at(Gamma(p, a), [t], n, RngStream(100, case))[:, 0]
        assert np.all(np.isfinite(h)) and np.all(h > 0)
        survival = gammainc(p * h, a * t)
        observed = np.bincount(np.minimum((10 * survival).astype(np.int64), 9), minlength=10)
        assert chisquare(observed, np.full(10, n / 10)).pvalue > 1e-3

    @pytest.mark.parametrize("p, a", [(2.0, 1.5), (0.3, 1.0)])
    def test_joint_law_against_increments(self, p, a):
        assert_joint_law_against_increments(Gamma(p, a), seed=110)

    def test_draws_no_increments_and_never_overflows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the clock drew an increment")

        monkeypatch.setattr("fracppk.subordinators.sample_increment", refuse)
        monkeypatch.setattr("fracppk.subordinators._MAX_STEPS", 1)
        times = [1e-3, 1.0, 1e3, 1e6]
        mat = sample_inverse_at(Gamma(1.3, 2.0), times, 50, RngStream(114))
        assert mat.shape == (50, 4) and np.all(np.isfinite(mat)) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)
        off_grid = np.abs(mat / 1e-3 - np.round(mat / 1e-3)) > 1e-6
        assert off_grid.mean() > 0.99
        assert sample_inverse_at(Gamma(1.3, 2.0), [2.0], 1, RngStream(114))[0, 0] > 0

    def test_passage_at_the_stick(self):
        # [0, 1] rising from 0 to 3: the stick at 1/2 leaves R = 1/2 of the
        # rise, half of it before the stick, so it jumps from 0.75 over y = 1
        draws = FixedDraws([0.5, 0.5], [0.5])
        r = stick_share(0.5, 1.0)
        before = 3.0 * r * 0.5
        assert gamma_passage(1.0, (0.0, 1.0), (0.0, 3.0), draws) == (0.5, before + 3.0 * (1.0 - r))
        assert draws.drawn == [("random", 1), ("random", 1), ("beta", [0.5], [0.5])]

    @pytest.mark.parametrize("y, clock, base", [(1.0, 0.25, 0.0), (3.0, 0.75, 2.0)], ids=["left", "right"])
    def test_recursion(self, y, clock, base):
        # U = 0 leaves R = 1, no stick, and the level at 1/2 is 2: y = 1 lies
        # below it, so the row splits [0, 1/2] between levels 0 and 2, and
        # y = 3 above it, so the row splits [1/2, 1] between levels 2 and 4;
        # there the stick at the middle jumps over y
        draws = FixedDraws([0.5, 0.0, 0.5, 0.5], [0.5, 0.5])
        r = stick_share(0.5, 0.5)
        before = base + 2.0 * r * 0.5
        assert gamma_passage(y, (0.0, 1.0), (0.0, 4.0), draws) == (clock, before + 2.0 * (1.0 - r))
        assert [d for d in draws.drawn if d[0] == "beta"] == [
            ("beta", [0.5], [0.5]),
            ("beta", [0.25], [0.25]),
        ]

    @pytest.mark.parametrize("frac", [0.0, 0.25, 0.75])
    def test_float_resolution_stop(self, frac):
        # a bracket one ulp wide at 1: a stick at or within half an ulp of an
        # end rounds onto it, so the row reads the upper end and its level
        # before any other draw, and no Beta shape is 0
        ulp = 2.0**-52
        draws = FixedDraws([frac], [])
        assert gamma_passage(1.0, (1.0, ulp), (0.5, 4.0), draws) == (1.0 + ulp, 4.0)
        assert draws.drawn == [("random", 1)]

    def test_split_cap(self):
        # f = 1e-3, U = 0 (no stick) and B = 0 keep the row right of every
        # split, in a bracket that shrinks by 1e-3 a pass and never ends
        class Stalled:
            calls = 0

            def random(self, size):
                self.calls += 1
                return np.full(size, 1e-3 if self.calls % 2 else 0.0)

            def beta(self, a, b):
                return np.zeros(a.size)

        with pytest.raises(NonConvergence):
            gamma_passage(1.0, (0.0, 1.0), (0.0, 4.0), Stalled())

    def test_shapes_out_of_range_refused(self, monkeypatch):
        # numpy's beta overflows in log(U) / shape at shapes near 5e-324; the
        # splits refuse such shapes rather than returning biased draws.  With
        # the floor at 1/2, the doubling steps (1, 2, 4, ..) over a unit level
        # pass it, and a split of the bracket leaves a part below 1/2
        monkeypatch.setattr("fracppk.subordinators._MIN_SHAPE", 0.5)
        with pytest.raises(NonConvergence):
            sample_inverse_at(Gamma(1.0, 1.0), [1.0], 10, RngStream(115))

    def test_splits_against_bisection(self):
        # the joint law at three read times against the bisection of the same
        # brackets: chi-square homogeneity of (H(t_0), H(t_1) - H(t_0), ..)
        # binned at quintiles
        times = np.array([0.5, 1.0, 2.0])
        for p, a in [(1.0, 1.0), (0.3, 2.0)]:
            split = sample_inverse_at(Gamma(p, a), times, 20_000, RngStream(116))
            bisected = bisected_gamma_clock(p, a, times, 20_000, RngStream(117).generator())
            assert homogeneity(split, bisected) > 1e-3

    def test_about_one_beta_draw_per_row_and_read_time(self):
        # the bisection above draws about 32 Beta variables per row and read
        # time on this clock; a first-stick split usually finds the passage
        class CountingDraws:
            def __init__(self, gen):
                self.gen, self.betas = gen, 0

            def beta(self, a, b):
                self.betas += a.size
                return self.gen.beta(a, b)

            def __getattr__(self, name):
                return getattr(self.gen, name)

        times = np.array([0.25, 0.5, 0.75, 1.0])
        draws = CountingDraws(RngStream(118).generator())
        mat = subordinators._inverse_gamma_bridge(1.0, 1.0, times, 500, draws)
        assert np.all(np.diff(mat, axis=1) >= 0)
        assert draws.betas < 2 * 500 * times.size

    @settings(max_examples=60, deadline=None)
    @given(
        log_p=st.floats(math.log(1e-3), math.log(1e3)),
        log_a=st.floats(math.log(1e-3), math.log(1e3)),
        log_times=st.lists(st.floats(math.log(1e-6), math.log(1e6)), min_size=1, max_size=4),
        n=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_finite_positive_nondecreasing(self, log_p, log_a, log_times, n, seed):
        # a bracket whose beta shapes would underflow is refused with
        # NonConvergence, never numpy's ValueError or a NaN clock
        times = np.unique(np.exp(log_times))
        try:
            spec = Gamma(math.exp(log_p), math.exp(log_a))
            mat = sample_inverse_at(spec, times, n, RngStream(seed))
        except (NonConvergence, DomainError):
            return
        assert mat.shape == (n, times.size)
        assert np.all(np.isfinite(mat)) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)


RACE_CASES = {
    "mixed": MixedStable((0.5, 0.5), (0.6, 0.9)),
    "mixture": MixtureTemperedStable((0.6, 0.4), (0.5, 0.8), (0.5, 1.5)),
    "far-indices": MixedStable((1.0, 0.3), (0.1, 0.95)),
    "three-parts": MixtureTemperedStable((0.5, 1.0, 2.0), (0.3, 0.6, 0.9), (2.0, 0.5, 1.0)),
    "one-untempered": MixtureTemperedStable((0.7, 0.5), (0.4, 0.85), (0.0, 2.0)),
}


class TestExactInverseRace:
    """A MixedStable or MixtureTemperedStable clock is exact in law jointly:
    each round races the parts' stable first passages over a split of the
    distance left, draws the other parts' values at the winning passage given
    that they stayed below their shares, and renews every part there;
    tempered parts run in Esscher rounds.  No increment."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", list(RACE_CASES))
    def test_marginals_match_duality(self, case, seed):
        # P(H(t) > u) = P(L(u) <= t): at nine deciles u_1 < .. < u_9 of a
        # pilot draw, a clock falls in bin #{q : H(t) > u_q}, and a path of
        # exact increments through the u_q in bin #{q : L(u_q) <= t}, which
        # has the same law; the two bin counts compared by a chi-square
        # homogeneity test at t = 0.25 and t = 1
        spec, times, n = RACE_CASES[case], [0.25, 1.0], 20_000
        mat = sample_inverse_at(spec, times, n, RngStream(120 + seed, 0))
        pilot = sample_inverse_at(spec, times, 2_000, RngStream(120 + seed, 1))
        for j, t in enumerate(times):
            u = np.unique(np.quantile(pilot[:, j], np.arange(1, 10) / 10))
            gen = RngStream(120 + seed, 2 + j).generator()
            gaps = np.diff(u, prepend=0.0)
            path = np.cumsum([sample_increment(spec, du, gen, size=n) for du in gaps], axis=0)
            by_clock = (mat[:, j] > u[:, None]).sum(axis=0)
            by_path = (path <= t).sum(axis=0)
            table = [np.bincount(b, minlength=u.size + 1) for b in (by_clock, by_path)]
            assert chi2_contingency(table).pvalue > 1e-3, (case, t)

    def test_split_is_one_newton_step_from_above(self):
        # the parts are positive and sum to each distance; tau lies at or above
        # the root of sum_i (c_i tau)^(1/alpha_i) = d, within a few percent of it
        log_c = np.log([[0.5], [0.3], [0.2]])
        inv_alpha = 1.0 / np.array([[0.4], [0.7], [0.9]])
        dist = np.geomspace(1e-8, 1e8, 41)
        ell, log_tau = subordinators._race_split(log_c, inv_alpha, dist)
        assert ell.shape == (3, dist.size) and np.all(ell > 0.0)
        np.testing.assert_allclose(ell.sum(axis=0), dist, rtol=1e-14)
        for d, s in zip(dist, log_tau):
            root = brentq(lambda v: np.logaddexp.reduce((log_c[:, 0] + v) * inv_alpha[:, 0]) - math.log(d), -80.0, 80.0)
            assert root - 1e-12 <= s <= root + 0.05

    @pytest.mark.parametrize("case", ["mixed", "mixture"])
    def test_columns_against_one_time_draws(self, case):
        # each column of a joint draw has the law of a draw at its time alone
        spec, times, n = RACE_CASES[case], [0.4, 1.5], 20_000
        mat = sample_inverse_at(spec, times, n, RngStream(130))
        for j, t in enumerate(times):
            one = sample_inverse_at(spec, [t], n, RngStream(131, j))[:, 0]
            col = mat[:, j]
            se = math.sqrt((col.var(ddof=1) + one.var(ddof=1)) / n)
            assert abs(col.mean() - one.mean()) < 4.0 * se
            u = float(np.median(one))
            p, q = (col > u).mean(), (one > u).mean()
            assert abs(p - q) < 4.0 * math.sqrt(p * (1 - p) / n + q * (1 - q) / n)

    @pytest.mark.parametrize("c, alpha", [(0.5, 0.6), (4.0, 0.3)])
    def test_one_part_is_the_stable_clock_scaled(self, c, alpha):
        # S(c u) > t first at u = H(t) / c, for H the Stable(alpha) clock; the
        # joint law of two read times compared by a chi-square homogeneity
        # test on (H(t_0), H(t_1) - H(t_0)) binned at quintiles
        times = [0.5, 2.0]
        race = sample_inverse_at(MixedStable((c,), (alpha,)), times, 20_000, RngStream(132))
        stable = sample_inverse_at(Stable(alpha), times, 20_000, RngStream(133)) / c
        assert homogeneity(race, stable) > 1e-3

    def test_draws_no_increments(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the clock drew an increment")

        monkeypatch.setattr("fracppk.subordinators.sample_increment", refuse)
        for spec in (RACE_CASES["mixed"], RACE_CASES["mixture"]):
            mat = sample_inverse_at(spec, [1e-3, 0.5, 1.0, 5.0], 50, RngStream(134))
            assert mat.shape == (50, 4) and np.all(np.isfinite(mat)) and np.all(mat > 0)
            assert np.all(np.diff(mat, axis=1) >= 0)
            off_grid = np.abs(mat / 5e-3 - np.round(mat / 5e-3)) > 1e-6
            assert off_grid.mean() > 0.99
            assert sample_inverse_at(spec, [2.0], 1, RngStream(134))[0, 0] > 0

    def test_round_cap(self, monkeypatch):
        monkeypatch.setattr("fracppk.subordinators._MAX_STEPS", 5)
        for spec in (RACE_CASES["mixed"], RACE_CASES["mixture"]):
            with pytest.raises(HorizonOverflow):
                sample_inverse_at(spec, [0.5, 1.0, 50.0], 20, RngStream(135))

    def test_rate_below_the_float_range(self, monkeypatch):
        # 0.7 / R overflows at R ~ 1e-320: each round then ends by twice the
        # time scale of its split, and is accepted with probability near 1
        monkeypatch.setattr("fracppk.subordinators._MAX_STEPS", 1000)
        spec = MixtureTemperedStable((1.0, 0.5), (0.99, 0.3), (5e-324, 0.0))
        mat = sample_inverse_at(spec, [1.0, 2.0], 20, RngStream(137))
        assert np.all(np.isfinite(mat)) and np.all(mat > 0)
        assert np.all(np.diff(mat, axis=1) >= 0)

    @pytest.mark.parametrize("case", ["mixture", "three-parts"])
    def test_round_bound_against_unbounded(self, case, monkeypatch):
        # the joint law at three read times with each round cut at
        # min(h, 2 tau*) against rounds cut at h alone: chi-square
        # homogeneity of (H(t_0), H(t_1) - H(t_0), ..) binned at quintiles
        spec, times = RACE_CASES[case], [0.25, 0.5, 1.0]
        bounded = sample_inverse_at(spec, times, 20_000, RngStream(138))
        monkeypatch.setattr(subordinators, "_RACE_ROUND", math.inf)
        unbounded = sample_inverse_at(spec, times, 20_000, RngStream(139))
        assert homogeneity(bounded, unbounded) > 1e-3

    @pytest.mark.parametrize("spec, floor", [("mixture", 0.6), ("tempered", 0.53)])
    def test_cli_mixture_accepts_most_rounds(self, spec, floor, monkeypatch):
        # rounds cut at h alone are accepted with probability exp(-0.7) = 0.50;
        # a round cut at twice the time scale of its split is accepted more
        # often, also for the one-part race of the CLI's tempered spec.  A
        # row's clock moves exactly when its round is accepted
        recorded = subordinators._record_passed
        seen = {"rounds": 0, "accepted": 0, "clock": None}

        def counted(live, target, clock, *args):
            before = np.zeros(clock.size) if seen["clock"] is None else seen["clock"]
            seen["rounds"] += live.size
            seen["accepted"] += int(np.count_nonzero(clock[live] != before[live]))
            seen["clock"] = clock.copy()
            return recorded(live, target, clock, *args)

        monkeypatch.setattr(subordinators, "_record_passed", counted)
        sample_inverse_at(_MARTINGALE_SPECS[spec], [0.25, 0.5, 0.75, 1.0], 2_000, RngStream(140))
        assert seen["accepted"] >= floor * seen["rounds"]

    @settings(max_examples=40, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(st.floats(0.1, 10.0), st.floats(0.05, 0.99), st.floats(0.0, 5.0)),
            min_size=1,
            max_size=3,
        ),
        log_times=st.lists(st.floats(math.log(1e-3), math.log(5.0)), min_size=1, max_size=4),
        n=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_finite_positive_nondecreasing(self, parts, log_times, n, seed):
        # a rejection or round cap may raise, but no call returns NaN or hangs
        weights, alphas, mus = zip(*parts)
        times = np.unique(np.exp(log_times))
        for spec in (MixedStable(weights, alphas), MixtureTemperedStable(weights, alphas, mus)):
            try:
                mat = sample_inverse_at(spec, times, n, RngStream(seed))
            except (NonConvergence, HorizonOverflow):
                continue
            assert mat.shape == (n, times.size)
            assert np.all(np.isfinite(mat)) and np.all(mat > 0)
            assert np.all(np.diff(mat, axis=1) >= 0)


class TestRaceBlocks:
    """Every draw of a race round that no row's state enters (the passage
    shapes) comes from a block drawn ahead for each part, and each entry is
    handed out at most once; a part that lost reads its value below its share
    from its own passage time."""

    @staticmethod
    def numbered(counts):
        """A draw that numbers each part's entries in the order drawn."""

        def draw(alpha, rng, size):
            start = counts[alpha]
            counts[alpha] += size
            return np.arange(start, start + size, dtype=float)[None]

        return draw

    def test_take_hands_out_in_order(self):
        # across refills every part hands out its entries in the order drawn,
        # none twice and none skipped, as one (fields, parts, need) array of
        # one cursor, and a block holds at most _BLOCK entries a part unless
        # a need so far was larger
        counts = {0.3: 0, 0.6: 0}
        blocks = subordinators._Blocks(self.numbered(counts), (0.3, 0.6), None)
        got, most = [[], []], 0
        for need in (3, 0, 7, 40, 1, 9, 100, 20_000, 30):
            out = blocks.take(need)
            assert out.shape == (1, 2, need)
            for i in range(2):
                got[i] += out[0, i].tolist()
            most = max(most, need)
            assert blocks.block.shape[2] <= max(subordinators._BLOCK, most)
        assert got == [list(range(20_190))] * 2
        assert counts == {0.3: blocks.block.shape[2] + 20_190 - blocks.pos, 0.6: counts[0.3]}

    @pytest.mark.parametrize("case", ["tempered", "mixture", "three-parts"])
    def test_one_passage_shape_per_live_pair_and_round(self, case, monkeypatch):
        # each round takes one passage shape for every live (part, row)
        # pair, and none is taken again
        spec = TemperedStable(0.7, 1.0) if case == "tempered" else RACE_CASES[case]
        parts = 1 if case == "tempered" else len(spec.alphas)
        take, recorded = subordinators._Blocks.take, subordinators._record_passed
        taken, rounds = [], []

        def counted_take(self, need):
            got = take(self, need)
            if self.draw is subordinators._passage_shapes:
                taken.append((got.shape, need))
            return got

        def counted_rounds(live, *args):
            rounds.append(live.size)
            return recorded(live, *args)

        monkeypatch.setattr(subordinators._Blocks, "take", counted_take)
        monkeypatch.setattr(subordinators, "_record_passed", counted_rounds)
        mat = sample_inverse_at(spec, [0.5, 1.0, 2.0], 500, RngStream(77))
        assert np.all(np.diff(mat, axis=1) >= 0)
        assert len(rounds) > 10 and taken == [((4, parts, m), m) for m in rounds]

    @pytest.mark.parametrize("case", ["tempered", "mixture", "three-parts"])
    def test_every_entry_handed_out_at_most_once(self, case, monkeypatch):
        # the draws are continuous, so an entry handed out twice would show
        # as a repeated value of its last field (the overshoot's uniform)
        # within its block and part; the passage shapes are the one block
        spec = TemperedStable(0.7, 1.0) if case == "tempered" else RACE_CASES[case]
        take = subordinators._Blocks.take
        handed = {}

        def recorded_take(self, need):
            got = take(self, need)
            for i, values in enumerate(got[-1]):
                handed.setdefault((self.draw.__name__, i), []).append(values.copy())
            return got

        monkeypatch.setattr(subordinators._Blocks, "take", recorded_take)
        sample_inverse_at(spec, [0.25, 0.5, 1.0], 300, RngStream(141))
        assert {name for name, _ in handed} == {"_passage_shapes"}
        for key, values in handed.items():
            values = np.concatenate(values)
            assert np.unique(values).size == values.size, key
        # more shapes than the first block holds, so refills were crossed
        assert np.concatenate(handed["_passage_shapes", 0]).size > 2 * 300

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 0.99])
    def test_scaled_shapes_are_the_stable_passage(self, alpha):
        # a part's first block is the draw of _stable_passage, and a second
        # part's follows it on the stream; scaling a shape by its distance,
        # one part at a time or as the race does with one column per part,
        # gives the passage and level of _stable_passage bit for bit
        n, parts = 300, (alpha, 0.7)
        ell = np.geomspace(1e-3, 10.0, n)
        blocks = subordinators._Blocks(subordinators._passage_shapes, parts, RngStream(140).generator())
        drawn = blocks.take(n)
        direct = RngStream(140).generator()
        with np.errstate(over="ignore"):
            columns = subordinators._scale_passage(np.array(parts)[:, None], np.vstack([ell] * 2), *drawn)
            for i, a in enumerate(parts):
                want = _stable_passage(a, ell, direct, n)
                got = subordinators._scale_passage(a, ell, *drawn[:, i])
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
                assert [x[i].tobytes() for x in columns] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.8, 0.99])
    def test_draw_below_against_rejection(self, alpha):
        # a part of weight c whose passage time T over l comes after tau sits
        # at l (tau / T)^(1/alpha) in law: against plain rejection of exact
        # stable draws S(c tau) <= l, chi-square homogeneity at quintiles
        n, c, tau, ell = 20_000, 2.0, 0.25, 0.8
        passage = _stable_passage(alpha, ell, RngStream(142).generator(), 4 * n)[0] / c
        late = passage[passage > tau][:n]
        got = ell * np.exp((math.log(tau) - np.log(late)) / alpha)
        plain = (c * tau) ** (1.0 / alpha) * _standard_stable(alpha, RngStream(143).generator(), 4 * n)
        plain = plain[plain <= ell][:n]
        assert late.size == plain.size == n
        assert np.all(got < ell) and np.all(got > 0)
        assert homogeneity(got[:, None], plain[:, None]) > 1e-3

    def test_reentrant_across_threads(self):
        # the blocks live in the call: race clocks drawn in four threads, more
        # than the cores, each on its own stream, write the bytes of a serial run
        specs = [RACE_CASES["mixture"], TemperedStable(0.7, 1.0)] * 4
        times = [0.25, 0.5, 1.0]

        def draw(i):
            return sample_inverse_at(specs[i], times, 300, RngStream(150, i)).tobytes()

        serial = [draw(i) for i in range(len(specs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(draw, range(len(specs))))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestStableFamiliesAreParts:
    """The four stable families are one sum of tempered stable parts: a spec
    written as another family with zero tempering or one part of weight 1
    gives the same bytes on the same stream."""

    S = np.array([0.0, 1e-3, 0.5, 2.0, 1e6])
    DT = np.array([1e-3, 0.4, 2.5])

    def _bytes(self, spec, clock):
        out = [
            laplace_exponent(spec, self.S).tobytes(),
            sample_increment(spec, 0.4, RngStream(3), size=50).tobytes(),
            sample_increment(spec, self.DT, RngStream(4)).tobytes(),
        ]
        if clock:
            out += [sample_inverse_at(spec, times, 30, RngStream(5)).tobytes() for times in ([1.0], [0.25, 0.5, 1.0])]
        return out

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.95])
    def test_stable_is_one_untempered_part(self, alpha):
        # the inverse clocks differ: Stable renews, a mixture races its parts
        want = self._bytes(Stable(alpha), clock=False)
        assert self._bytes(TemperedStable(alpha, 0.0), clock=False) == want
        assert self._bytes(MixtureTemperedStable((1.0,), (alpha,), (0.0,)), clock=False) == want

    @pytest.mark.parametrize("weights, alphas", [((0.5, 0.5), (0.6, 0.9)), ((0.2, 1.0, 0.3), (0.05, 0.5, 0.95))])
    def test_mixed_is_an_untempered_mixture(self, weights, alphas):
        mixture = MixtureTemperedStable(weights, alphas, (0.0,) * len(alphas))
        assert self._bytes(MixedStable(weights, alphas), clock=True) == self._bytes(mixture, clock=True)
