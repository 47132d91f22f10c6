"""Counting processes of order k and their fractional variants.

The base process is compound Poisson: a driver Poisson process with rate
``k * lam`` whose events each deposit a batch of size uniform on {1, .., k}.
Its probability generating function is ``exp(-k lam t (1 - G(u)))`` with
``G(u) = (u + u^2 + .. + u^k) / k``.

Three fractional variants are obtained by running that base process on a
random clock:

* time-fractional: the clock is an inverse beta-stable subordinator, turning
  exponential relaxation into Mittag-Leffler relaxation;
* space-fractional: the clock is an alpha-stable subordinator, fractionalizing
  the generator itself and producing a power-law count tail;
* tempered time-space: the clock is a tempered alpha-stable subordinator run
  on an inverse tempered beta-stable one, interpolating between the above and
  restoring light tails.

Each variant class names its clock as two stages: ``inner``, the spec of an
inverse subordinator read at the requested times, and ``outer``, the spec of
a subordinator read at the inner clock values.  An index of 1 drops its
stage (the spec is ``None``), and a variant with neither stage reduces to the
base process.  One kernel turns a variant into a clock matrix for both the
count sampler here and the region clocks of :mod:`fracppk.fields`.

Everything analytic here (pmf, pgf, moments, Levy measure, first-passage
densities) reads its batch-count weights from one zeta table per k
(:func:`fracppk.combinatorics.zeta_table`).  A time-fractional pmf is the
base pmf averaged over the inverse stable clock ``t^beta M``, M Mittag-Leffler
distributed, so a table needs ``E[M^zeta exp(-x M)]`` for every batch count
zeta: one array pass over a cached positive quadrature rule in ``log M``
gives them all, and every row is a sum of positive terms.  The
space-fractional process is compound Poisson, so its pmf and first-passage
densities follow from its Levy weights by Panjer's recursion, which adds
positive terms only.  Every pgf is one kernel over the variant's clock
stages (:func:`_pgf`): the outer stage turns the base exponent into its
Laplace exponent, and the inner stage reads the rule for ``log M``, alone or,
for an inverse tempered stable clock, under a second positive integral.
Everything random is exact in
law, including the inverse stable and inverse tempered stable clocks at any
number of read times, except a clock drawn with an explicit ``step``: that
carries the O(step) first-crossing bias documented in
:mod:`fracppk.subordinators`.
Given its clock, a count is the sum over batch sizes j = 1..k of j times an
independent Poisson(lam * clock) number of batches.  Counts are int64: a clock
with ``k^2 lam clock`` above 2^62 is refused with ``CapExceeded`` before
anything is drawn.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.special import hyp2f1

from .combinatorics import LEVY_Y_CAP, N_CAP, OrderParams, log_omega_kernel, zeta_table
from .errors import CapExceeded, DomainError, NonConvergence
from .specfun import _inverse_tempered_laplace, _ml_log_laplace
from .subordinators import (
    Stable,
    TemperedStable,
    as_generator,
    laplace_exponent,
    sample_increment,
    sample_inverse_at,
)

__all__ = [
    "TimeFractional",
    "SpaceFractional",
    "TemperedTimeSpace",
    "Variant",
    "PmfTable",
    "MarkedEventPath",
    "batch_pgf",
    "ppok_pmf",
    "ppok_pgf",
    "ppok_moments",
    "tfppok_pmf",
    "tfppok_pgf",
    "tfppok_mean",
    "tfppok_cov",
    "sfppok_pmf",
    "sfppok_pgf",
    "sfppok_levy_weights",
    "sfppok_first_passage",
    "ttsfppok_pgf",
    "pmf_table",
    "sample_ppok_path",
    "sample_ppok_counts",
    "sample_fractional_counts",
]

@dataclass(frozen=True)
class TimeFractional:
    """Clock: inverse beta-stable subordinator. beta = 1 is the base process."""

    beta: float

    label = "tf"
    outer = None

    def __post_init__(self) -> None:
        if not (0 < self.beta <= 1):
            raise DomainError("beta must lie in (0, 1]")

    @property
    def inner(self) -> Optional[Stable]:
        return None if self.beta == 1.0 else Stable(self.beta)

    def _pmf_rows(self, params: OrderParams, t: float, n_max: int) -> np.ndarray:
        """``P(N(t) = n)`` for n = 0..n_max; :func:`pmf_table` checks the arguments."""
        if self.inner is None:
            return _ppok_rows(params, t, n_max)
        return _tf_rows(params, t, self.beta, 0, n_max)


@dataclass(frozen=True)
class SpaceFractional:
    """Clock: alpha-stable subordinator. alpha = 1 is the base process."""

    alpha: float

    label = "sf"
    inner = None

    def __post_init__(self) -> None:
        if not (0 < self.alpha <= 1):
            raise DomainError("alpha must lie in (0, 1]")

    @property
    def outer(self) -> Optional[Stable]:
        return None if self.alpha == 1.0 else Stable(self.alpha)

    def _pmf_rows(self, params: OrderParams, t: float, n_max: int) -> np.ndarray:
        """``P(N(t) = n)`` for n = 0..n_max; :func:`pmf_table` checks the arguments."""
        return _panjer_rows(params, self.alpha, t, n_max)[:, 0]


@dataclass(frozen=True)
class TemperedTimeSpace:
    """Clock: tempered alpha-stable run on an inverse tempered beta-stable."""

    alpha: float
    beta: float
    mu: float
    nu: float

    label = "ttsf"

    def __post_init__(self) -> None:
        if not (0 < self.alpha <= 1) or not (0 < self.beta <= 1):
            raise DomainError("alpha and beta must lie in (0, 1]")
        if self.mu < 0 or self.nu < 0:
            raise DomainError("tempering rates mu and nu must be nonnegative")

    @property
    def inner(self) -> Optional[Union[Stable, TemperedStable]]:
        """Zero tempering is the stable stage itself, whose single-time inverse is exact."""
        if self.beta == 1.0:
            return None
        return Stable(self.beta) if self.nu == 0.0 else TemperedStable(self.beta, self.nu)

    @property
    def outer(self) -> Optional[Union[Stable, TemperedStable]]:
        if self.alpha == 1.0:
            return None
        return Stable(self.alpha) if self.mu == 0.0 else TemperedStable(self.alpha, self.mu)

    def _pmf_rows(self, params: OrderParams, t: float, n_max: int) -> np.ndarray:
        raise DomainError("pmf tables for the tempered time-space variant are not available")


Variant = Union[None, TimeFractional, SpaceFractional, TemperedTimeSpace]


@dataclass(frozen=True)
class PmfTable:
    """Probabilities for n = 0..n_max plus the mass beyond the table."""

    probs: np.ndarray
    truncation_mass: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probs must be a nonempty vector")
        if np.any(probs < -1e-12):
            raise DomainError("probabilities must be nonnegative")

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    @property
    def columns(self) -> tuple[str, ...]:
        return ("n", "probability")

    def rows(self):
        for n, p in enumerate(self.probs):
            yield (str(n), repr(float(p)))

    def json_payload(self) -> dict:
        return {
            "n_max": self.n_max,
            "probabilities": self.probs.tolist(),
            "truncation_mass": self.truncation_mass,
            **self.meta,
        }


@dataclass(frozen=True)
class MarkedEventPath:
    """Driver event times with their batch sizes, on the window [0, horizon]."""

    times: np.ndarray
    marks: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        marks = np.asarray(self.marks, dtype=np.int64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)
        if times.shape != marks.shape or times.ndim != 1:
            raise DomainError("times and marks must be matching 1-d arrays")
        if times.size and (np.any(np.diff(times) < 0) or times[0] < 0 or times[-1] > self.horizon):
            raise DomainError("event times must be sorted within [0, horizon]")
        if np.any(marks < 1):
            raise DomainError("marks must be positive integers")

    def count_at(self, t) -> np.ndarray:
        """Total accumulated batch size at each query time."""
        cum = np.concatenate([[0], np.cumsum(self.marks)])
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        return cum[idx]

    @property
    def columns(self) -> tuple[str, ...]:
        return ("time", "mark")

    def rows(self):
        for t, m in zip(self.times, self.marks):
            yield (repr(float(t)), str(int(m)))

    def json_payload(self) -> dict:
        return {
            "horizon": self.horizon,
            "times": self.times.tolist(),
            "marks": self.marks.tolist(),
        }


def batch_pgf(params: OrderParams, u: float) -> float:
    """Generating function of one batch: mean of u^j over j = 1..k."""
    powers = np.power(float(u), np.arange(1, params.k + 1))
    return float(np.sum(powers) / params.k)


def _check_t(t: float) -> float:
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise DomainError("t must be positive and finite")
    return t


def _check_u(u: float) -> float:
    u = float(u)
    if not (-1.0 <= u <= 1.0):
        raise DomainError("pgf argument u must lie in [-1, 1]")
    return u


def _check_n(n: int) -> int:
    if n != int(n) or n < 0:
        raise DomainError("n must be a nonnegative integer")
    n = int(n)
    if n > N_CAP:
        raise DomainError(f"n exceeds the supported cap {N_CAP}")
    return n


# ---------------------------------------------------------------------------
# base process
# ---------------------------------------------------------------------------


def ppok_pmf(params: OrderParams, n: int, t: float) -> float:
    """P(N(t) = n) for the base order-k process."""
    n = _check_n(n)
    t = _check_t(t)
    k, lam = params.k, params.lam
    log_p = -k * lam * t + log_omega_kernel(k, n, lam * t)
    return float(np.exp(log_p))


def _ppok_rows(params: OrderParams, t: float, n_max: int) -> np.ndarray:
    """P(N(t) = n) for n = 0..n_max: ``sum_zeta C[n, zeta] (lam t)^zeta e^(-k lam t)``.

    Each term is at most a Poisson probability, so none leaves the float64 range.
    """
    k, lam = params.k, params.lam
    zetas = np.arange(n_max + 1)
    return np.exp(zeta_table(k, n_max) + zetas * math.log(lam * t) - k * lam * t).sum(axis=1)


def ppok_pgf(params: OrderParams, u: float, t: float) -> float:
    """``E u^N(t) = exp(-k lam t (1 - G(u)))``."""
    return _pgf(params, None, u, t)


def _pgf(params: OrderParams, variant: Variant, u: float, t: float) -> float:
    """``E u^N(t)`` for the variant: the base pgf read through its clock stages.

    With ``x = k lam (1 - G(u))``, an outer stage replaces x by its Laplace
    exponent, and the inner stage H gives ``E exp(-x H(t))``: ``exp(-t x)``
    without one, ``E_beta(-x t^beta)`` from the rule for ``log M``
    (:func:`fracppk.specfun._ml_log_laplace`) for ``Stable(beta)``, and the
    positive integral of :func:`fracppk.specfun._inverse_tempered_laplace`
    for ``TemperedStable(beta, nu)``.  Where a rule cannot certify its value,
    NonConvergence is raised.
    """
    u = _check_u(u)
    t = _check_t(t)
    x = params.k * params.lam * (1.0 - batch_pgf(params, u))
    inner, outer = (None, None) if variant is None else (variant.inner, variant.outer)
    if outer is not None:
        x = laplace_exponent(outer, x)
    if x == 0.0:
        return 1.0
    if inner is None:
        return math.exp(-t * x)
    if isinstance(inner, Stable):
        return math.exp(_ml_log_laplace(inner.alpha, [0], x * t**inner.alpha)[0])
    return _inverse_tempered_laplace(inner.alpha, inner.mu, x, t)


def ppok_moments(params: OrderParams, t: float) -> tuple[float, float]:
    """(mean, variance) of the base process at time t."""
    t = _check_t(t)
    return params.mean_rate * t, params.var_rate * t


# ---------------------------------------------------------------------------
# time-fractional variant
# ---------------------------------------------------------------------------


def tfppok_pmf(params: OrderParams, n: int, t: float, beta: float) -> float:
    """P(N(E_beta(t)) = n): Mittag-Leffler relaxation of the base pmf."""
    n = _check_n(n)
    t = _check_t(t)
    beta = TimeFractional(beta).beta
    if beta == 1.0:
        return ppok_pmf(params, n, t)
    return float(_tf_rows(params, t, beta, n, n)[0])


def _tf_rows(params: OrderParams, t: float, beta: float, n_lo: int, n_hi: int) -> np.ndarray:
    """P(N(E_beta(t)) = n) for n = n_lo..n_hi, beta < 1.

    ``sum_zeta C[n, zeta] E[(lam t^beta M)^zeta exp(-k lam t^beta M)]``, with
    ``E_beta(t) = t^beta M`` in law and M Mittag-Leffler distributed: every
    term is positive, and one pass of the cached rule for ``log M``
    (:func:`fracppk.specfun._ml_log_laplace`) gives every batch count zeta.
    """
    k, lam = params.k, params.lam
    log_w = math.log(lam) + beta * math.log(t)
    lo = -(-n_lo // k)
    zetas = np.arange(lo, n_hi + 1)
    log_d = _ml_log_laplace(beta, zetas, k * math.exp(log_w), log_w)
    return np.exp(zeta_table(k, n_hi)[n_lo:, lo:] + log_d).sum(axis=1)


def tfppok_pgf(params: OrderParams, u: float, t: float, beta: float) -> float:
    """``E u^N(E_beta(t)) = E_beta(-k lam t^beta (1 - G(u)))`` (see :func:`_pgf`)."""
    return _pgf(params, TimeFractional(beta), u, t)


def tfppok_mean(params: OrderParams, t: float, beta: float) -> float:
    t = _check_t(t)
    beta = TimeFractional(beta).beta
    return params.mean_rate * t**beta / math.gamma(1.0 + beta)


def _inverse_stable_clock_cov(beta: float, s: float, t: float) -> float:
    """Cov(E_beta(s), E_beta(t)) for an inverse beta-stable subordinator."""
    if s > t:
        s, t = t, s
    g1 = math.gamma(1.0 + beta)
    g2 = math.gamma(1.0 + 2.0 * beta)
    mixed = s ** (2 * beta) / g2 + (s * t) ** beta * float(
        hyp2f1(-beta, beta, 1.0 + beta, s / t)
    ) / g1**2
    return mixed - (s * t) ** beta / g1**2


def tfppok_cov(params: OrderParams, s: float, t: float, beta: float) -> float:
    """Cov(N(E(s)), N(E(t))) for the time-fractional process."""
    s = _check_t(s)
    t = _check_t(t)
    beta = TimeFractional(beta).beta
    lo = min(s, t)
    clock_cov = _inverse_stable_clock_cov(beta, s, t)
    return params.var_rate * lo**beta / math.gamma(1.0 + beta) + params.mean_rate**2 * clock_cov


# ---------------------------------------------------------------------------
# space-fractional variant
# ---------------------------------------------------------------------------


def sfppok_pmf(params: OrderParams, n: int, t: float, alpha: float) -> float:
    """P(N(S_alpha(t)) = n), row n of Panjer's recursion (see :func:`pmf_table`)."""
    n = _check_n(n)
    t = _check_t(t)
    alpha = SpaceFractional(alpha).alpha
    return float(_panjer_rows(params, alpha, t, n)[n, 0])


def _panjer_rows(params: OrderParams, alpha: float, t, n_max: int) -> np.ndarray:
    """P(N(S_alpha(t)) = n) for n = 0..n_max (rows) at each t (columns).

    The process is compound Poisson: jumps of size y arrive at rate w_y
    (:func:`sfppok_levy_weights`), in total at rate W = (k lam)^alpha, so
    Panjer's recursion ``n p_n = t sum_(y<=n) y w_y p_(n-y)`` from
    ``p_0 = exp(-t W)`` adds positive terms only.  It runs on
    ``r_n = p_n exp(t W) / s^n`` with ``s = max(t W, 1)``, which keeps every
    r_n at most e, and the rows are ``exp(log r_n + n log s - t W)``: a row
    survives where exp(-t W) underflows.
    """
    w = sfppok_levy_weights(params, alpha, max(n_max, 1))[:n_max]
    log_t = np.log(np.atleast_1d(t))
    log_rate = alpha * math.log(params.k * params.lam)
    log_s = np.maximum(log_t + log_rate, 0.0)
    y = np.arange(1, n_max + 1)[:, None]
    a = y * w[:, None] * np.exp(log_t - y * log_s)  # y t w_y / s^y
    r = np.ones((n_max + 1, log_t.size))
    for n in range(1, n_max + 1):
        r[n] = (a[:n] * r[n - 1 :: -1]).sum(axis=0) / n
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    return np.exp(log_r + np.arange(n_max + 1)[:, None] * log_s - np.exp(log_t + log_rate))


def sfppok_pgf(params: OrderParams, u: float, t: float, alpha: float) -> float:
    """``E u^N(S_alpha(t)) = exp(-t (k lam (1 - G(u)))^alpha)`` (see :func:`_pgf`)."""
    return _pgf(params, SpaceFractional(alpha), u, t)


def sfppok_levy_weights(params: OrderParams, alpha: float, y_max: int) -> np.ndarray:
    """Levy measure weights w_y, y = 1..y_max, of the space-fractional process.

    The process is compound Poisson with total jump intensity (k lam)^alpha
    split over integer jump sizes; all weights are positive and sum (over
    all y) to exactly (k lam)^alpha.  They feed the pmf rows and the
    first-passage densities, through Panjer's recursion.

    y_max may exceed the pmf support cap: reconstructing the characteristic
    exponent to a useful tolerance needs the slowly decaying y^(-1-alpha) tail,
    so the cap here is LEVY_Y_CAP.  Every weight is a sum of positive terms
    formed in log space from one zeta table, so the whole range down to the
    cap is accurate; the cost is one y_max^2 array pass.
    """
    alpha = SpaceFractional(alpha).alpha
    if y_max < 1 or y_max > LEVY_Y_CAP:
        raise DomainError(f"y_max must lie in 1..{LEVY_Y_CAP}")
    k, lam = params.k, params.lam
    log_scale = alpha * math.log(k * lam)
    zetas = np.arange(1, y_max + 1)
    # log|fall(alpha, zeta)| for zeta = 1..y_max; sign is (-1)^(zeta-1), so the
    # (-1)^(zeta+1) prefactor makes every contribution positive
    with np.errstate(divide="ignore"):  # fall(1, zeta) = 0 for zeta >= 2
        log_fall = np.cumsum(np.log(np.abs(alpha - (zetas - 1.0))))
    log_c = zeta_table(k, y_max, n_cap=LEVY_Y_CAP)[1:, 1:]  # rows y, columns zeta
    return np.exp(log_scale + log_c - zetas * math.log(k) + log_fall).sum(axis=1)


def sfppok_first_passage(params: OrderParams, alpha: float, level: int, t):
    """Density of the first time the space-fractional process reaches >= level.

    Vectorized over t.  The process leaves a count j below level by a jump
    of at least ``level - j``, so the density is
    ``sum_(j<level) P(N(t) = j) wbar_(level-j)``, a sum of positive terms,
    with the tail weights ``wbar_m`` of :func:`_sf_tail_weights` and the rows
    P(N(t) = j) from Panjer's recursion.
    """
    alpha = SpaceFractional(alpha).alpha
    if level != int(level) or level < 1 or level - 1 > N_CAP:
        raise DomainError(f"level must be an integer in 1..{N_CAP + 1}")
    level = int(level)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise DomainError("t must be positive")
    tail = _sf_tail_weights(params, alpha, level)
    density = tail[::-1] @ _panjer_rows(params, alpha, t_arr.ravel(), level - 1)
    return float(density[0]) if np.ndim(t) == 0 else density.reshape(t_arr.shape)


def _sf_tail_weights(params: OrderParams, alpha: float, m_max: int) -> np.ndarray:
    """Rate ``wbar_m`` of jumps of size at least m, m = 1..m_max, from positive terms.

    A jump is the sum ``S_zeta`` of zeta batches, with zeta Sibuya
    distributed: ``P(Z >= m) = prod_(j<m) (1 - alpha / j)`` and
    ``P(Z = zeta) = (alpha / zeta) P(Z >= zeta)``.  So
    ``wbar_m = (k lam)^alpha (sum_(zeta<m) P(Z = zeta) P(S_zeta >= m) + P(Z >= m))``,
    with ``P(S_zeta >= m)`` the mean of ``P(S_(zeta-1) >= m - j)`` over the
    batch sizes j.  Where no jump reaches m (m > k at alpha = 1) the weight
    is exactly 0.
    """
    k = params.k
    surv = np.cumprod(np.concatenate([[1.0], 1.0 - alpha / np.arange(1.0, m_max)]))
    m = np.arange(1, m_max + 1)
    reach = np.zeros(m_max)  # P(S_zeta >= m), from zeta = 0
    total = surv.copy()
    for zeta in range(1, m_max):
        reach = np.convolve(np.concatenate([np.ones(k), reach]), np.ones(k), "valid")[:m_max] / k
        total += np.where(m > zeta, (alpha / zeta) * surv[zeta - 1] * reach, 0.0)
    return (params.k * params.lam) ** alpha * total


# ---------------------------------------------------------------------------
# tempered time-space variant
# ---------------------------------------------------------------------------


def ttsfppok_pgf(
    params: OrderParams,
    u: float,
    t: float,
    alpha: float,
    beta: float,
    mu: float,
    nu: float,
) -> float:
    """pgf of the base process on a tempered alpha-stable clock run on an
    inverse tempered beta-stable clock (see :func:`_pgf`)."""
    return _pgf(params, TemperedTimeSpace(alpha, beta, mu, nu), u, t)


# ---------------------------------------------------------------------------
# tables and samplers
# ---------------------------------------------------------------------------


# float noise on a valid table stays below 1e-11; more excess is a wrong table
_MASS_TOL = 1e-9


def pmf_table(
    params: OrderParams,
    t: float,
    n_max: int,
    variant: Variant = None,
) -> PmfTable:
    """Tabulate P(N = n) for n = 0..n_max plus the truncated tail mass.

    A table whose entries or total mass exceed 1 by more than ``1e-9`` is
    refused with NonConvergence: its series lost accuracy, and its tail mass
    would be meaningless.  Space-fractional rows come from Panjer's recursion
    (:func:`sfppok_pmf`), whose terms are all positive, so they hold for any
    ``(k lam)^alpha t``, also where ``P(N = 0)`` underflows.
    """
    t = _check_t(t)
    if n_max < 0 or n_max > N_CAP:
        raise DomainError(f"n_max must lie in 0..{N_CAP}")
    if variant is None:
        probs = _ppok_rows(params, t, n_max)
    else:
        probs = variant._pmf_rows(params, t, n_max)
    mass = float(np.sum(probs))
    largest = float(np.max(probs))
    if max(mass, largest) > 1.0 + _MASS_TOL:
        raise NonConvergence(f"pmf table sums to {mass:.6g} with largest entry {largest:.6g}")
    meta = {
        "variant": "ppok" if variant is None else variant.label,
        "k": params.k,
        "lam": params.lam,
        "t": t,
    }
    if variant is not None:
        meta.update(asdict(variant))
    return PmfTable(probs, max(0.0, 1.0 - mass), meta)


def sample_ppok_path(params: OrderParams, horizon: float, rng) -> MarkedEventPath:
    """Exact event-level simulation of the base process on [0, horizon]."""
    if not (horizon > 0):
        raise DomainError("horizon must be positive")
    gen = as_generator(rng)
    n_events = gen.poisson(params.k * params.lam * horizon)
    times = np.sort(gen.uniform(0.0, horizon, n_events))
    marks = gen.integers(1, params.k + 1, n_events)
    return MarkedEventPath(times, marks, float(horizon))


# counts are int64; k^2 lam clock up to 2^62 bounds the mean total
# lam clock k (k + 1) / 2 with room for the Poisson fluctuation above it
_COUNT_CAP = 2.0**62


def _counts_given_clock(params: OrderParams, clock: np.ndarray, gen) -> np.ndarray:
    """Batch totals of the base process run for the given clock amounts.

    Batches of each size j = 1..k arrive as independent Poisson streams of
    rate lam, so a total is ``sum_j j * Poisson(lam * clock)``, exact in law.
    Raises CapExceeded, before drawing, when a batch total could leave int64.
    """
    k = params.k
    clock = np.asarray(clock, dtype=float)
    longest = np.max(clock, initial=0.0)
    if not (k * k * params.lam * longest <= _COUNT_CAP):
        raise CapExceeded(f"clock value {longest:g} gives counts beyond int64 at k = {k}")
    mean = params.lam * clock
    total = gen.poisson(mean)
    for j in range(2, k + 1):
        total += j * gen.poisson(mean)
    return total


def sample_ppok_counts(params: OrderParams, t: float, size: int, rng) -> np.ndarray:
    """size i.i.d. copies of N(t) for the base process (exact)."""
    t = _check_t(t)
    if size < 1:
        raise DomainError("size must be >= 1")
    gen = as_generator(rng)
    return _counts_given_clock(params, np.full(size, t), gen)


def _clock_matrix(
    variant: Variant, times: np.ndarray, size: int, gen, step: Optional[float]
) -> np.ndarray:
    """The variant's clock at increasing ``times``: a (size, len(times)) matrix.

    Each row is one shared clock path: the inner inverse subordinator read at
    ``times`` (or the times themselves), then the outer subordinator read at
    those inner values (or the inner values themselves).  With neither stage
    the matrix is a read-only broadcast of ``times``.
    """
    inner, outer = (None, None) if variant is None else (variant.inner, variant.outer)
    if inner is None:
        clock = np.broadcast_to(times, (size, times.size))
    else:
        clock = sample_inverse_at(inner, times, size, gen, step=step)
    return clock if outer is None else _composed_path(outer, clock, gen)


def _composed_path(spec, inner: np.ndarray, gen) -> np.ndarray:
    """Exact subordinator values at per-row nondecreasing inner times.

    Each positive gap between consecutive inner times is replaced by an
    increment drawn over it, and the increments are summed along the row.
    """
    out = np.diff(inner, axis=1, prepend=0.0)
    for j in range(out.shape[1]):
        gap = out[:, j]
        positive = gap > 0
        if np.any(positive):
            gap[positive] = sample_increment(spec, gap[positive], gen)
        if j:
            gap += out[:, j - 1]
    return out


def sample_fractional_counts(
    params: OrderParams,
    variant: Variant,
    t: float,
    size: int,
    rng,
    step: Optional[float] = None,
) -> np.ndarray:
    """size i.i.d. copies of the variant count at time t.

    Draws are exact in law when ``step`` is None: an inverse stable clock
    read at one time is one stable draw per count, and an inverse tempered
    stable clock (``nu > 0``) takes about ``nu t / beta`` Esscher-tilted
    rounds of the stable path.  An explicit ``step`` puts every inverse clock
    (time-fractional and tempered time-space) on a first-crossing grid of that
    step, with O(step) bias.
    """
    t = _check_t(t)
    if size < 1:
        raise DomainError("size must be >= 1")
    gen = as_generator(rng)
    clock = _clock_matrix(variant, np.array([t]), size, gen, step=step)
    return _counts_given_clock(params, clock[:, 0], gen)
