"""Verification harness: distributional goodness of fit, fractional
difference operators, governing-equation residuals, and martingale checks
for subordinated counting processes.

Every check here compares two *independent* routes to the same quantity
(sampler vs series, discretized operator vs closed form, empirical mean vs
compensator), so a bug in either route surfaces as a reported discrepancy
rather than a silent agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import chdtrc, ndtri

from .combinatorics import OrderParams
from .errors import DegenerateBins, DomainError
from .processes import (
    PmfTable,
    SpaceFractional,
    TimeFractional,
    _counts_given_clock,
    batch_pgf,
    pmf_table,
    sfppok_pgf,
)
from .specfun import GridFunction, caputo_derivative
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


@dataclass(frozen=True)
class GofReport:
    """Total-variation distance and pooled Pearson chi-square against a table."""

    n_samples: int
    tv: float
    chi2: float
    df: int
    p_value: float
    bins: int

    def json_payload(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "tv": self.tv,
            "chi2": self.chi2,
            "df": self.df,
            "p_value": self.p_value,
            "bins": self.bins,
        }


@dataclass(frozen=True)
class MartingaleReport:
    """Per-time z-scores of the compensated count against zero mean."""

    label: str
    n_paths: int
    times: np.ndarray
    z_scores: np.ndarray
    threshold: float
    passed: bool

    def json_payload(self) -> dict:
        return {
            "label": self.label,
            "n_paths": self.n_paths,
            "times": np.asarray(self.times).tolist(),
            "z_scores": np.asarray(self.z_scores).tolist(),
            "threshold": self.threshold,
            "passed": self.passed,
        }


def estimate_pmf(samples, n_max: int) -> tuple[np.ndarray, float]:
    """Empirical pmf over 0..n_max plus the fraction beyond n_max."""
    arr = np.asarray(samples)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("samples must be a nonempty vector")
    if np.any(arr < 0):
        raise DomainError("samples must be nonnegative counts")
    clipped = np.minimum(arr, n_max + 1)
    freqs = np.bincount(clipped.astype(np.int64), minlength=n_max + 2) / arr.size
    return freqs[: n_max + 1], float(freqs[n_max + 1])


def _pool_bins(observed: np.ndarray, expected: np.ndarray, min_expected: float):
    obs = [float(o) for o in observed]
    exp = [float(e) for e in expected]
    # fold the sparse tails inward first, then clean up any interior
    # stragglers; pop before adding so augmented assignment cannot read the
    # pre-pop index and write the post-pop one
    while len(exp) > 1 and exp[-1] < min_expected:
        e, o = exp.pop(), obs.pop()
        exp[-1] += e
        obs[-1] += o
    while len(exp) > 1 and exp[0] < min_expected:
        e, o = exp.pop(0), obs.pop(0)
        exp[0] += e
        obs[0] += o
    while len(exp) > 1 and min(exp) < min_expected:
        i = int(np.argmin(exp))
        e, o = exp.pop(i), obs.pop(i)
        j = i - 1 if i > 0 else 0
        exp[j] += e
        obs[j] += o
    return np.asarray(obs), np.asarray(exp)


def compare_pmf(table: PmfTable, samples, min_expected: float = 5.0) -> GofReport:
    """Goodness of fit of samples against an exact pmf table.

    The table's truncated tail is treated as one extra bin on both sides, so
    heavy tails are compared honestly rather than discarded.  TV distance uses
    all bins; the chi-square statistic pools bins with expected count below
    ``min_expected`` and raises DegenerateBins if fewer than two remain.
    """
    arr = np.asarray(samples)
    freqs, overflow = estimate_pmf(arr, table.n_max)
    probs_ext = np.concatenate([table.probs, [table.truncation_mass]])
    freq_ext = np.concatenate([freqs, [overflow]])
    tv = 0.5 * float(np.sum(np.abs(freq_ext - probs_ext)))

    n = arr.size
    observed = freq_ext * n
    expected = probs_ext * n
    obs_p, exp_p = _pool_bins(observed, expected, min_expected)
    if exp_p.size < 2:
        raise DegenerateBins(
            "fewer than two bins have enough expected mass; enlarge the sample"
        )
    stat = float(np.sum((obs_p - exp_p) ** 2 / exp_p))
    df = exp_p.size - 1
    p_value = float(chdtrc(df, stat))
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
    eval_start: float = 0.25,
) -> float:
    """Max residual of the time-fractional master equation on a uniform grid.

    The pmf must satisfy
        D^beta p(n, t) = -k lam p(n, t) + lam sum_{j=1..min(n,k)} p(n-j, t)
    with the Caputo derivative in t.  The left side is discretized by the L1
    scheme on ``n_steps`` intervals of ``[0, t_end]``; the residual is taken
    over grid points past ``eval_start * t_end`` to stay clear of the t^beta
    singularity at zero, and shrinks as the grid is refined.
    """
    variant = TimeFractional(beta)
    beta = variant.beta
    if n_max < 0 or n_steps < 8 or not (0 < eval_start < 1):
        raise DomainError("need n_max >= 0, n_steps >= 8, eval_start in (0, 1)")
    k, lam = params.k, params.lam
    times = np.linspace(0.0, t_end, n_steps + 1)
    pmf = np.zeros((n_max + 1, times.size))
    pmf[0, 0] = 1.0
    for j, t in enumerate(times[1:], start=1):
        pmf[:, j] = pmf_table(params, t, n_max, variant).probs
    start = max(2, int(eval_start * n_steps))
    worst = 0.0
    for n in range(n_max + 1):
        g = GridFunction(times, pmf[n])
        for j in range(start, times.size):
            lhs = caputo_derivative(g, beta, j)
            rhs = -k * lam * pmf[n, j] + lam * float(
                np.sum(pmf[max(0, n - k) : n, j][::-1][: min(n, k)])
            )
            worst = max(worst, abs(lhs - rhs))
    return worst


def governing_residual_sf(
    params: OrderParams,
    alpha: float,
    t: float = 1.0,
    u_values: Sequence[float] = (0.2, 0.5, 0.8),
    dt: float = 1e-4,
) -> float:
    """Max residual of the space-fractional pgf evolution equation.

    The pgf satisfies d/dt pgf(u, t) = -(k lam (1 - G(u)))^alpha pgf(u, t);
    the time derivative is approximated by central differences with spacing
    ``dt``, so the residual shrinks like dt^2 until roundoff.
    """
    alpha = SpaceFractional(alpha).alpha
    if not (0 < dt < t):
        raise DomainError("dt must lie in (0, t)")
    worst = 0.0
    for u in u_values:
        rate = params.k * params.lam * (1.0 - batch_pgf(params, u))
        f_plus = sfppok_pgf(params, u, t + dt, alpha)
        f_minus = sfppok_pgf(params, u, t - dt, alpha)
        f_mid = sfppok_pgf(params, u, t, alpha)
        residual = (f_plus - f_minus) / (2.0 * dt) + rate**alpha * f_mid
        worst = max(worst, abs(residual))
    return worst


def martingale_check(
    params: OrderParams,
    spec: SubordinatorSpec,
    times,
    n_paths: int,
    rng,
    step: Optional[float] = None,
    compensate_with_clock: bool = True,
    label: str = "",
) -> MartingaleReport:
    """Check that N(H(t)) minus its clock compensator has mean zero.

    H is the inverse subordinator of ``spec`` read off one simulated path per
    replicate; N adds batch totals with clock rate k lam, so
    ``M(t) = N(H(t)) - lam k (k+1)/2 H(t)`` is a martingale and every grid
    time must show mean zero up to Monte Carlo error.  The acceptance
    threshold is a 3-standard-error band Bonferroni-split across grid times.

    ``compensate_with_clock=False`` replaces the compensator by its
    deterministic-time counterpart ``lam k (k+1)/2 t``; for genuinely
    fractional clocks this is wrong on purpose and the check must fail,
    which guards the test's power.
    """
    t_arr = np.asarray(times, dtype=float)
    if n_paths < 2:
        raise DomainError("need n_paths >= 2")
    gen = as_generator(rng)
    clock = sample_inverse_at(spec, t_arr, n_paths, gen, step=step)
    m1 = params.mean_rate

    counts = np.zeros((n_paths, t_arr.size))
    prev = np.zeros(n_paths)
    running = np.zeros(n_paths)
    for j in range(t_arr.size):
        gap = np.maximum(clock[:, j] - prev, 0.0)
        running = running + _counts_given_clock(params, gap, gen)
        counts[:, j] = running
        prev = clock[:, j]

    compensator = m1 * clock if compensate_with_clock else m1 * t_arr[None, :]
    mart = counts - compensator
    means = mart.mean(axis=0)
    sds = mart.std(axis=0, ddof=1)
    sds = np.where(sds > 0, sds, np.inf)
    z = means / (sds / math.sqrt(n_paths))
    threshold = float(ndtri(1.0 - _BASE_TAIL / t_arr.size))
    passed = bool(np.all(np.abs(z) <= threshold))
    return MartingaleReport(label or spec.__class__.__name__, n_paths, t_arr, z, threshold, passed)
