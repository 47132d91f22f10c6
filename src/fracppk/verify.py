"""Verification harness: distributional goodness of fit, fractional
difference operators, governing-equation residuals, and martingale checks
for subordinated counting processes.

Every check here compares two *independent* routes to the same quantity
(sampler vs table, a table's time derivative vs its governing operator,
empirical mean vs compensator), so a bug in either route surfaces as a
reported discrepancy rather than a silent agreement.  Both governing
residuals read the pmf tables: the time-fractional one through an L1
Caputo derivative on a grid, the space-fractional one through the
fractional difference ``(I - G(B))^alpha`` in n.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .combinatorics import N_CAP, OrderParams, _batch_powers
from .errors import DegenerateBins, DomainError, _Record, _count, _positive, _real
from .processes import (
    PmfTable,
    SpaceFractional,
    TimeFractional,
    _checked_rows,
    _counts_given_clock,
)
from .subordinators import SubordinatorSpec, as_generator, sample_inverse_at

__all__ = [
    "GofReport",
    "MartingaleReport",
    "estimate_pmf",
    "compare_pmf",
    "fractional_difference",
    "governing_residual_tf",
    "governing_residual_sf",
    "martingale_check",
]

# base deviation level: 3 standard errors two-sided (~0.27% each tail);
# split across statistics so a whole report has that familywise level
_BASE_TAIL = 0.00135

# chi-square bins are pooled until each expects at least this many samples
_MIN_EXPECTED = 5.0

# the tf residual is read past this fraction of the horizon, clear of the
# t^beta singularity at zero
_EVAL_START = 0.25

# grid times per rule pass of the tf residual: a pass holds a (times, counts,
# rule nodes) array, so a block of 32 keeps it near half a megabyte
_GRID_BLOCK = 32

# default time step of the sf residual, in units of 1 / (k lam)^alpha
_SF_STEP = 1e-5


class GofReport(_Record):
    """Total-variation distance and pooled Pearson chi-square against a table."""

    n_samples: int
    tv: float
    chi2: float
    df: int
    p_value: float
    bins: int

    def json_payload(self) -> dict:
        return self._asdict()


class MartingaleReport(_Record):
    """Per-time z-scores of the compensated count against zero mean."""

    label: str
    n_paths: int
    times: np.ndarray
    z_scores: np.ndarray
    threshold: float
    passed: bool

    def json_payload(self) -> dict:
        return self._asdict() | {"times": np.asarray(self.times).tolist(), "z_scores": np.asarray(self.z_scores).tolist()}


def estimate_pmf(samples, n_max: int) -> tuple[np.ndarray, float]:
    """Empirical pmf over 0..n_max plus the fraction beyond n_max."""
    n_max = _count("n_max", n_max)
    arr = np.asarray(samples)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("samples must be a nonempty vector")
    if not np.all((arr >= 0) & (arr == np.floor(arr))):
        raise DomainError("samples must be nonnegative counts")
    clipped = np.minimum(arr, n_max + 1)
    freqs = np.bincount(clipped.astype(np.int64), minlength=n_max + 2) / arr.size
    return freqs[: n_max + 1], float(freqs[n_max + 1])


def _pool_bins(observed: np.ndarray, expected: np.ndarray):
    obs = [float(o) for o in observed]
    exp = [float(e) for e in expected]
    # fold the sparse tails inward first, then clean up any interior
    # stragglers; pop before adding so augmented assignment cannot read the
    # pre-pop index and write the post-pop one
    while len(exp) > 1 and exp[-1] < _MIN_EXPECTED:
        e, o = exp.pop(), obs.pop()
        exp[-1] += e
        obs[-1] += o
    while len(exp) > 1 and exp[0] < _MIN_EXPECTED:
        e, o = exp.pop(0), obs.pop(0)
        exp[0] += e
        obs[0] += o
    while len(exp) > 1 and min(exp) < _MIN_EXPECTED:
        i = int(np.argmin(exp))
        e, o = exp.pop(i), obs.pop(i)
        j = i - 1 if i > 0 else 0
        exp[j] += e
        obs[j] += o
    return np.asarray(obs), np.asarray(exp)


def _chi2_sf(df: int, x: float) -> float:
    """``P(chi2_df > x)`` for an integer df: the upper regularized gamma ``Q(df/2, x/2)``.

    With ``h = x / 2`` it is the finite positive sum ``e^-h sum_(j < df/2) h^j / j!``
    for even df, and ``erfc(sqrt(h))`` plus
    ``e^-h sum_(j < (df - 1)/2) h^(j + 1/2) / Gamma(j + 3/2)`` for odd df.
    Each term is formed in log space, so none overflows on its way.
    """
    h = 0.5 * x
    if h <= 0.0:
        return 1.0
    half = 0.5 * (df % 2)
    log_h = math.log(h)
    terms = math.fsum(math.exp((j + half) * log_h - h - math.lgamma(j + half + 1.0)) for j in range(df // 2))
    return terms + (math.erfc(math.sqrt(h)) if half else 0.0)


def _normal_quantile(q: float) -> float:
    """The z with ``P(Z <= z) = q`` for a standard normal Z, ``1/2 <= q < 1``.

    Newton's method on the upper tail ``erfc(z / sqrt 2) / 2 = p``, with
    ``p = 1 - q`` exact for such q, from the rational start of Abramowitz
    and Stegun (26.2.23, error under 4.5e-4).  The tail is convex in z, so
    after the first step the steps approach the root from below, each one
    squaring the error: four leave rounding error only.
    """
    p = 1.0 - q
    r = math.sqrt(-2.0 * math.log(p))
    z = r - (2.515517 + r * (0.802853 + 0.010328 * r)) / (
        1.0 + r * (1.432788 + r * (0.189269 + 0.001308 * r))
    )
    for _ in range(4):
        z += (0.5 * math.erfc(z / math.sqrt(2.0)) - p) * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
    return z


def compare_pmf(table: PmfTable, samples) -> GofReport:
    """Goodness of fit of samples against an exact pmf table.

    The table's truncated tail is treated as one extra bin on both sides, so
    heavy tails are compared honestly rather than discarded.  TV distance uses
    all bins; the chi-square statistic pools bins with expected count below
    5 and raises DegenerateBins if fewer than two remain.
    """
    arr = np.asarray(samples)
    freqs, overflow = estimate_pmf(arr, table.n_max)
    probs_ext = np.concatenate([table.probs, [table.truncation_mass]])
    freq_ext = np.concatenate([freqs, [overflow]])
    tv = 0.5 * float(np.sum(np.abs(freq_ext - probs_ext)))

    n = arr.size
    observed = freq_ext * n
    expected = probs_ext * n
    obs_p, exp_p = _pool_bins(observed, expected)
    if exp_p.size < 2:
        raise DegenerateBins(
            "fewer than two bins have enough expected mass; enlarge the sample"
        )
    stat = float(np.sum((obs_p - exp_p) ** 2 / exp_p))
    df = exp_p.size - 1
    p_value = _chi2_sf(df, stat)
    return GofReport(n, tv, stat, df, p_value, exp_p.size)


def fractional_difference(seq, alpha: float) -> np.ndarray:
    """Apply the fractional difference (1 - B)^alpha to a sequence.

    B is the backshift operator and the sequence is implicitly zero before
    its start.  Coefficients follow d_0 = 1, d_j = d_{j-1} (j - 1 - alpha)/j;
    the operator family satisfies the exact semigroup identity
    (1-B)^a (1-B)^b = (1-B)^(a+b) on truncated sequences.
    """
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("seq must be a nonempty vector")
    alpha = _real(alpha)
    if not math.isfinite(alpha):
        raise DomainError("alpha must be finite")
    j = np.arange(1, arr.size, dtype=float)
    coeffs = np.concatenate([[1.0], np.cumprod((j - 1.0 - alpha) / j)])
    return np.convolve(arr, coeffs)[: arr.size]


def governing_residual_tf(
    params: OrderParams,
    beta: float,
    n_max: int = 5,
    t_end: float = 1.0,
    n_steps: int = 500,
) -> float:
    """Max residual of the time-fractional master equation on a uniform grid.

    The pmf must satisfy
        D^beta p(n, t) = -k lam p(n, t) + lam sum_{j=1..min(n,k)} p(n-j, t)
    with the Caputo derivative in t.  The left side is discretized by the L1
    scheme (piecewise-linear reconstruction, error ``O(h^(2-beta))``) on
    ``n_steps`` intervals of ``[0, t_end]``, at every grid index at once:
    one convolution of the increments of ``p(n, .)`` with the weights
    ``w_m = m^(1-beta) - (m-1)^(1-beta)`` per count n, scaled by
    ``1 / (Gamma(2 - beta) h^beta)``.  The tables ``p(., t)``
    come from one rule pass per block of grid times
    (:func:`~fracppk.processes._rows`), each column equal to
    :func:`~fracppk.processes.pmf_table` at its time and refused as it would
    be (NonConvergence) where its mass exceeds 1.  The residual is taken
    over grid points past ``t_end / 4`` to stay clear of the t^beta
    singularity at zero, and shrinks as the grid is refined.
    """
    variant = TimeFractional(beta)
    beta = variant.beta
    n_max, n_steps = _count("n_max", n_max), _count("n_steps", n_steps, 8)
    k, lam = params.k, params.lam
    times = np.linspace(0.0, _positive("t_end", t_end), n_steps + 1)
    pmf = np.zeros((n_max + 1, times.size))
    pmf[0, 0] = 1.0
    for lo in range(1, times.size, _GRID_BLOCK):
        pmf[:, lo : lo + _GRID_BLOCK] = _checked_rows(params, variant, times[lo : lo + _GRID_BLOCK], n_max)[0]
    start = max(2, int(_EVAL_START * n_steps))
    m = np.arange(1.0, n_steps + 1.0)
    # 0^0 is 1 in numpy, so the m = 1 term is set apart for beta = 1
    weights = m ** (1.0 - beta) - np.where(m > 1.0, (m - 1.0) ** (1.0 - beta), 0.0)
    scale = math.gamma(2.0 - beta) * float(times[1] - times[0]) ** beta
    worst = 0.0
    for n in range(n_max + 1):
        lhs = np.convolve(np.diff(pmf[n]), weights)[start - 1 : n_steps] / scale
        rhs = -k * lam * pmf[n, start:] + lam * pmf[max(0, n - k) : n, start:][::-1].sum(axis=0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def governing_residual_sf(
    params: OrderParams,
    alpha: float,
    t: float = 1.0,
    dt: Optional[float] = None,
) -> float:
    """Max residual of the space-fractional difference equation on the pmf tables.

    The rows must satisfy (Orsingher and Polito's equation of order k)
        d/dt p_n(t) = -W [(I - G(B))^alpha p(t)]_n,   W = (k lam)^alpha,
    with B the backshift in n and ``G(B) = (B + .. + B^k) / k``, at every
    n = 0..N_CAP.  The rows at t, t + dt and t + 2 dt come from one
    :func:`~fracppk.processes._rows` call, refused as
    :func:`~fracppk.processes.pmf_table` refuses a table (NonConvergence),
    and d/dt is their one-sided second-order difference.  The rows are
    analytic in t with rate W, so the step defaults to ``1e-5 / W``: the
    error is about ``(W dt)^2 W / 3`` plus rounding of order ``eps / dt``,
    and the difference never reads a time before t.  The operator is
    ``sum_j d_j G(B)^j``, with the coefficients d_j of
    :func:`fractional_difference` and the convolution powers of the uniform
    batch law (:func:`fracppk.combinatorics._batch_powers`): it does not read
    the jump weights the rows are built from.
    """
    variant = SpaceFractional(alpha)
    t = _positive("t", t)
    rate = (params.k * params.lam) ** variant.alpha
    dt = _SF_STEP / rate if dt is None else _positive("dt", dt)
    rows = _checked_rows(params, variant, t + dt * np.arange(3.0), N_CAP)[0]
    slope = rows @ np.array([-1.5, 2.0, -0.5]) / dt
    powers = _batch_powers(params.k, N_CAP)  # row j is the law of j batches, G(B)^j
    # (I - G(B))^alpha = sum_n coeffs[n] B^n
    coeffs = fractional_difference(powers[0], variant.alpha) @ powers
    drift = -rate * np.convolve(coeffs, rows[:, 0])[: N_CAP + 1]
    return float(np.max(np.abs(slope - drift)))


def martingale_check(
    params: OrderParams,
    spec: SubordinatorSpec,
    times,
    n_paths: int,
    rng,
    compensate_with_clock: bool = True,
    label: str = "",
) -> MartingaleReport:
    """Check that N(H(t)) minus its clock compensator has mean zero.

    H is the inverse subordinator of ``spec``, one path per replicate read
    at every grid time and exact in law for every family; N adds
    batch totals with clock rate k lam, so
    ``M(t) = N(H(t)) - lam k (k+1)/2 H(t)`` is a martingale and every grid
    time must show mean zero up to Monte Carlo error; one call draws the
    counts over every path's clock gaps, summed along the path.  The
    acceptance threshold is a 3-standard-error band Bonferroni-split across grid times.

    ``compensate_with_clock=False`` replaces the compensator by its
    deterministic-time counterpart ``lam k (k+1)/2 t``; for genuinely
    fractional clocks this is wrong on purpose and the check must fail,
    which guards the test's power.
    """
    t_arr = np.asarray(times, dtype=float)
    n_paths = _count("n_paths", n_paths, 2)
    gen = as_generator(rng)
    clock = sample_inverse_at(spec, t_arr, n_paths, gen)
    m1 = params.mean_rate

    gaps = np.maximum(np.diff(clock, axis=1, prepend=0.0), 0.0)
    counts = np.cumsum(_counts_given_clock(params, gaps, gen), axis=1)

    compensator = m1 * clock if compensate_with_clock else m1 * t_arr[None, :]
    mart = counts - compensator
    means = mart.mean(axis=0)
    sds = mart.std(axis=0, ddof=1)
    sds = np.where(sds > 0, sds, np.inf)
    z = means / (sds / math.sqrt(n_paths))
    threshold = _normal_quantile(1.0 - _BASE_TAIL / t_arr.size)
    passed = bool(np.all(np.abs(z) <= threshold))
    return MartingaleReport(label or spec.__class__.__name__, n_paths, t_arr, z, threshold, passed)
