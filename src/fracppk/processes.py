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
count sampler here and the region clocks of :mod:`fracppk.fields`, and one
reads its pmf rows from the stages (:func:`_rows`).

Everything analytic here (pmf, pgf, moments, Levy measure, first-passage
densities) reads its batch-count weights from one zeta table per k
(:func:`fracppk.combinatorics.zeta_table`).  Every pmf row is one sum of
positive terms over the stages (:func:`_rows`): clock weights from the inner
stage, one array pass over a cached positive quadrature rule in ``log M``
for an inverse stable clock, times convolution powers of the jump law of
the outer stage, the uniform batches or, on a stable or tempered stable
clock, the Levy weights.  Every pgf is one kernel over the variant's clock
stages (:func:`_pgf`): the outer stage turns the base exponent into its
Laplace exponent, and the inner stage reads the rule for ``log M``, alone or,
for an inverse tempered stable clock, under a second positive integral.
Everything random is exact in
law, including every inverse clock at any number of read times
(:mod:`fracppk.subordinators`).
Given its clock, a count is the sum over batch sizes j = 1..k of j times an
independent Poisson(lam * clock) number of batches.  Where every row shares
the clock t and lam t is below 10, each batch size instead draws one Poisson
total over all rows and gives its batches uniform rows.  Counts are int64: a
clock, event-path horizon or field volume with ``k^2 lam clock`` above 2^62
is refused with ``CapExceeded`` before anything is drawn.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .combinatorics import LEVY_Y_CAP, N_CAP, OrderParams, zeta_table
from .errors import CapExceeded, DomainError, NonConvergence, _Record, _count, _index, _nonnegative, _positive, _real
from .specfun import _inverse_tempered_laplace, _ml_log_laplace, _tanh_sinh
from .subordinators import (
    Stable,
    TemperedStable,
    _tempered_gap,
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

class TimeFractional(_Record):
    """Clock: inverse beta-stable subordinator. beta = 1 is the base process."""

    beta: float

    label = "tf"
    outer = None

    def __post_init__(self) -> None:
        _index("beta", self.beta, one=True)

    @property
    def inner(self) -> Optional[Stable]:
        return None if self.beta == 1.0 else Stable(self.beta)


class SpaceFractional(_Record):
    """Clock: alpha-stable subordinator. alpha = 1 is the base process."""

    alpha: float

    label = "sf"
    inner = None

    def __post_init__(self) -> None:
        _index("alpha", self.alpha, one=True)

    @property
    def outer(self) -> Optional[Stable]:
        return None if self.alpha == 1.0 else Stable(self.alpha)


class TemperedTimeSpace(_Record):
    """Clock: tempered alpha-stable run on an inverse tempered beta-stable."""

    alpha: float
    beta: float
    mu: float
    nu: float

    label = "ttsf"

    def __post_init__(self) -> None:
        _index("alpha", self.alpha, one=True)
        _index("beta", self.beta, one=True)
        _nonnegative("tempering rate mu", self.mu)
        _nonnegative("tempering rate nu", self.nu)

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


Variant = Union[None, TimeFractional, SpaceFractional, TemperedTimeSpace]


def _stages(variant: Variant):
    """``(inner, outer)``, the variant's clock stages; the base process has neither."""
    return (None, None) if variant is None else (variant.inner, variant.outer)


class PmfTable(_Record):
    """Probabilities for n = 0..n_max plus the mass beyond the table; ``meta``
    is a fresh dict where none is given."""

    probs: np.ndarray
    truncation_mass: float
    meta: Optional[dict] = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probs must be a nonempty vector")
        if not np.all(probs >= -1e-12):  # NaN is refused too
            raise DomainError("probabilities must be nonnegative")
        mass = _real(self.truncation_mass)
        if not 0.0 <= mass <= 1.0:  # NaN is refused too
            raise DomainError(f"truncation mass must lie in [0, 1], not {self.truncation_mass!r}")
        object.__setattr__(self, "truncation_mass", mass)
        if self.meta is None:
            object.__setattr__(self, "meta", {})

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    @property
    def columns(self) -> tuple[str, ...]:
        return ("n", "probability")

    def rows(self):
        for n, p in enumerate(self.probs.tolist()):
            yield (str(n), repr(p))

    def json_payload(self) -> dict:
        return {
            "n_max": self.n_max,
            "probabilities": self.probs.tolist(),
            "truncation_mass": self.truncation_mass,
            **self.meta,
        }


class MarkedEventPath(_Record):
    """Driver event times with their batch sizes, on the window [0, horizon]."""

    times: np.ndarray
    marks: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        marks = np.asarray(self.marks, dtype=np.int64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "horizon", _positive("horizon", self.horizon))
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
        for t, m in zip(self.times.tolist(), self.marks.tolist()):
            yield (repr(t), str(m))

    def json_payload(self) -> dict:
        return {
            "horizon": self.horizon,
            "times": self.times.tolist(),
            "marks": self.marks.tolist(),
        }


def batch_pgf(params: OrderParams, u: float) -> float:
    """Generating function of one batch: mean of u^j over j = 1..k, for u in [-1, 1]."""
    u = _real(u)
    if not -1.0 <= u <= 1.0:  # NaN is refused too
        raise DomainError("pgf argument u must lie in [-1, 1]")
    powers = np.power(u, np.arange(1, params.k + 1))
    return float(np.sum(powers) / params.k)


# ---------------------------------------------------------------------------
# base process
# ---------------------------------------------------------------------------


def ppok_pmf(params: OrderParams, n: int, t: float) -> float:
    """P(N(t) = n) for the base order-k process (see :func:`_rows`)."""
    n = _count("n", n, 0, N_CAP)
    return float(_rows(params, None, np.array([_positive("t", t)]), n, n)[0, 0])


def ppok_pgf(params: OrderParams, u: float, t: float) -> float:
    """``E u^N(t) = exp(-k lam t (1 - G(u)))``."""
    return _pgf(params, None, u, t)


def _pgf(params: OrderParams, variant: Variant, u: float, t: float) -> float:
    """``E u^N(t)`` for the variant: the base pgf read through its clock stages.

    With ``x = k lam (1 - G(u))``, an outer stage replaces x by its Laplace
    exponent, and the inner stage H gives ``E exp(-x H(t))``: ``exp(-t x)``
    without one, ``E_beta(-x t^beta)`` from the rule for ``log M``
    (:func:`fracppk.specfun._ml_log_laplace`) for ``Stable(beta)``, and a
    residue plus one positive branch-cut integral
    (:func:`fracppk.specfun._inverse_tempered_laplace`) for
    ``TemperedStable(beta, nu)``.  Where a rule cannot certify its value,
    NonConvergence is raised.
    """
    x = params.k * params.lam * (1.0 - batch_pgf(params, u))
    t = _positive("t", t)
    inner, outer = _stages(variant)
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
    t = _positive("t", t)
    return params.mean_rate * t, params.var_rate * t


# ---------------------------------------------------------------------------
# time-fractional variant
# ---------------------------------------------------------------------------


def tfppok_pmf(params: OrderParams, n: int, t: float, beta: float) -> float:
    """P(N(E_beta(t)) = n): Mittag-Leffler relaxation of the base pmf."""
    n = _count("n", n, 0, N_CAP)
    return float(_rows(params, TimeFractional(beta), np.array([_positive("t", t)]), n, n)[0, 0])


def tfppok_pgf(params: OrderParams, u: float, t: float, beta: float) -> float:
    """``E u^N(E_beta(t)) = E_beta(-k lam t^beta (1 - G(u)))`` (see :func:`_pgf`)."""
    return _pgf(params, TimeFractional(beta), u, t)


def tfppok_mean(params: OrderParams, t: float, beta: float) -> float:
    t = _positive("t", t)
    beta = TimeFractional(beta).beta
    return params.mean_rate * t**beta / math.gamma(1.0 + beta)


# Euler's integral for the clock covariance: tanh-sinh nodes w on (0, 1) at
# step 0.02 over |k h| <= 3.2, kept as log w.  The rule is symmetric, so its
# distances from 1, reversed, are the distances from 0, and log w keeps every
# digit at both ends.
_EULER_GAP, _EULER_LOG_W = _tanh_sinh(0.02, 160)
_EULER_LOG_NODE = np.where(_EULER_GAP < 0.5, np.log1p(-np.minimum(_EULER_GAP, 0.5)), np.log(_EULER_GAP[::-1]))
_EULER_W = np.exp(_EULER_LOG_W)


def _hyp_minus_one(beta: float, x: float) -> float:
    """``2F1(-beta, beta; 1 + beta; x) - 1`` for ``0 <= x <= 1``.

    Euler's integral gives ``int_0^1 ((1 - x w^(1/beta))^beta - 1) dw``, every
    term negative, with a ``(1 - w)^beta`` end point at ``x = 1``.  Each term
    is formed from ``log(1 - x w^(1/beta))``: by log1p while
    ``x w^(1/beta) < 1/2``, and from the positive parts
    ``(1 - x) + x (1 - w^(1/beta))`` past it, so neither end loses digits.
    Against 40-digit values, the result is within 1.2e-14 for beta >= 0.02
    and any x, ``x = 1`` included.
    """
    q = _EULER_LOG_NODE / beta  # log w^(1/beta), increasing
    cut = int(np.searchsorted(q, math.log(0.5 / x))) if x > 0.5 else q.size
    log_rest = np.empty(q.size)
    np.log1p(-x * np.exp(q[:cut]), out=log_rest[:cut])
    np.log((1.0 - x) - x * np.expm1(q[cut:]), out=log_rest[cut:])
    log_rest *= beta
    return float(_EULER_W @ np.expm1(log_rest, out=log_rest))


def _inverse_stable_clock_cov(beta: float, s: float, t: float) -> float:
    """Cov(E_beta(s), E_beta(t)) for an inverse beta-stable subordinator.

    ``s^(2 beta) / Gamma(1 + 2 beta) + (s t)^beta (F - 1) / Gamma(1 + beta)^2``
    with ``F = 2F1(-beta, beta; 1 + beta; s / t)``, ``s <= t``.  ``F - 1`` is
    formed directly (:func:`_hyp_minus_one`), so the two products ``(s t)^beta F``
    and ``(s t)^beta`` never cancel where ``s << t``.  At ``s = t`` it is the
    variance ``s^(2 beta) (2 / Gamma(1 + 2 beta) - 1 / Gamma(1 + beta)^2)``.
    """
    if s > t:
        s, t = t, s
    g1 = math.gamma(1.0 + beta)
    g2 = math.gamma(1.0 + 2.0 * beta)
    if s == t:
        return s ** (2 * beta) * (2.0 / g2 - 1.0 / g1**2)
    return s ** (2 * beta) / g2 + (s * t) ** beta * _hyp_minus_one(beta, s / t) / g1**2


def tfppok_cov(params: OrderParams, s: float, t: float, beta: float) -> float:
    """Cov(N(E(s)), N(E(t))) for the time-fractional process."""
    s = _positive("s", s)
    t = _positive("t", t)
    beta = TimeFractional(beta).beta
    lo = min(s, t)
    clock_cov = _inverse_stable_clock_cov(beta, s, t)
    return params.var_rate * lo**beta / math.gamma(1.0 + beta) + params.mean_rate**2 * clock_cov


# ---------------------------------------------------------------------------
# space-fractional variant
# ---------------------------------------------------------------------------


def sfppok_pmf(params: OrderParams, n: int, t: float, alpha: float) -> float:
    """P(N(S_alpha(t)) = n), row n of :func:`pmf_table`."""
    n = _count("n", n, 0, N_CAP)
    return float(_rows(params, SpaceFractional(alpha), np.array([_positive("t", t)]), n, n)[0, 0])


def sfppok_pgf(params: OrderParams, u: float, t: float, alpha: float) -> float:
    """``E u^N(S_alpha(t)) = exp(-t (k lam (1 - G(u)))^alpha)`` (see :func:`_pgf`)."""
    return _pgf(params, SpaceFractional(alpha), u, t)


def sfppok_levy_weights(params: OrderParams, alpha: float, y_max: int) -> np.ndarray:
    """Levy measure weights w_y, y = 1..y_max, of the space-fractional process.

    The process is compound Poisson with total jump intensity (k lam)^alpha
    split over integer jump sizes; all weights are positive and sum (over
    all y) to exactly (k lam)^alpha: the untempered jump law of the pmf rows
    (:func:`_jump_weights`).  y_max may exceed the pmf support cap:
    reconstructing the characteristic exponent to a useful tolerance needs
    the slowly decaying y^(-1-alpha) tail, so the cap here is LEVY_Y_CAP.
    """
    alpha = SpaceFractional(alpha).alpha
    y_max = _count("y_max", y_max, 1, LEVY_Y_CAP)
    return _jump_weights(params, alpha, 0.0, y_max)[0]


def _jump_weights(params: OrderParams, alpha: float, mu: float, y_max: int):
    """``(w, W)``: the rates w_y, y = 1..y_max, of jumps of size y of the base
    process on a ``TemperedStable(alpha, mu)`` clock (``Stable(alpha)`` at
    ``mu = 0``), and their total W over all y.

    With ``c = mu + k lam`` the count's Laplace exponent
    ``(mu + k lam (1 - G(u)))^alpha - mu^alpha`` is ``W - sum_y w_y u^y``, with
    ``W = c^alpha - mu^alpha`` (formed without cancellation by
    :func:`fracppk.subordinators._tempered_gap`) and
    ``w_y = c^alpha sum_zeta |binom(alpha, zeta)| (k lam / c)^zeta P(S_zeta = y)``,
    S_zeta the sum of zeta batch sizes.  Every weight is a sum of positive
    terms formed in log space from one zeta table, so the whole range down
    to the cap is accurate; the cost is one y_max^2 array pass.
    """
    k, lam = params.k, params.lam
    c = mu + k * lam
    zetas = np.arange(1, y_max + 1)
    # log|fall(alpha, zeta)| = log(zeta! |binom(alpha, zeta)|) for zeta = 1..y_max
    with np.errstate(divide="ignore"):  # fall(1, zeta) = 0 for zeta >= 2
        log_fall = np.cumsum(np.log(np.abs(alpha - (zetas - 1.0))))
    log_count = zeta_table(k, y_max)[1:, 1:]  # log(k^zeta P(S_zeta = y) / zeta!), rows y
    # log((k lam / c)^zeta / k^zeta), exactly -zeta log k at mu = 0; where
    # k lam / c underflows to 0, from the logs of k lam and c
    ratio = k * lam / c
    log_kl_c = math.log(ratio) if ratio > 0.0 else math.log(k * lam) - math.log(c)
    log_ratio = zetas * (log_kl_c - math.log(k))
    # one table-sized temporary, exponentiated in place
    terms = log_count + (alpha * math.log(c) + log_ratio + log_fall)
    return np.exp(terms, out=terms).sum(axis=1), _tempered_gap(alpha, mu, k * lam)


def sfppok_first_passage(params: OrderParams, alpha: float, level: int, t):
    """Density of the first time the space-fractional process reaches >= level.

    Vectorized over t.  The process leaves a count j below level by a jump
    of at least ``level - j``, so the density is
    ``sum_(j<level) P(N(t) = j) wbar_(level-j)``, a sum of positive terms,
    with the tail weights ``wbar_m`` of :func:`_sf_tail_weights` and the rows
    P(N(t) = j) of :func:`_rows` at every t in one call.
    """
    variant = SpaceFractional(alpha)
    level = _count("level", level, 1, N_CAP + 1)
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0) & np.isfinite(t_arr)):
        raise DomainError("t must be positive and finite")
    tail = _sf_tail_weights(params, variant.alpha, level)
    density = tail[::-1] @ _rows(params, variant, t_arr.ravel(), 0, level - 1)
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

# the log of the largest float: a clock-weight argument past it overflows
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _rows(params: OrderParams, variant: Variant, t: np.ndarray, n_lo: int, n_hi: int) -> np.ndarray:
    """P(N(t) = n) for n = n_lo..n_hi at the T times of the 1-d array ``t``, one
    column per time, read from the variant's clock stages.

    Given the inner clock H at t, the count is compound Poisson, with jumps
    of law q at total rate W, so a row is ``p_n = sum_z c_z Q[z, n]``, a sum
    of positive terms that survives where ``P(N = 0)`` underflows, with clock
    weights ``c_z = E[(rho H)^z exp(-W H)]`` and
    ``Q[z, n] = (W / rho)^z q^(*z)_n / z!``.  Without an inner stage H = t;
    for ``Stable(beta)``, ``H = t^beta M`` in law, M Mittag-Leffler
    distributed, and one pass of the cached rule for ``log M``
    (:func:`fracppk.specfun._ml_log_laplace`) gives every z at every time,
    each certified as at that time alone (a ``W t^beta`` past the float
    range raises NonConvergence); an inverse tempered stable clock raises
    DomainError.  Without an outer stage q is uniform on 1..k,
    ``rho = lam``, ``W = k lam`` and Q is the zeta table.  A stable or
    tempered stable outer stage gives q and W (:func:`_jump_weights`) and
    ``rho = W``; the powers ``q^(*z)`` are built once for all times.  A W
    that underflows to 0 leaves no jump, and the rows are ``p_0 = 1``.
    """
    inner, outer = _stages(variant)
    if inner is not None and not isinstance(inner, Stable):
        raise DomainError("no pmf table for an inverse tempered stable clock (nu > 0)")
    k, lam = params.k, params.lam
    if outer is None:
        lo = -(-n_lo // k)
        zetas = np.arange(lo, n_hi + 1)
        log_q = zeta_table(k, n_hi)[n_lo:, lo:]
        rho, rate, ratio = lam, k * lam, k  # ratio = W / rho
    else:
        w, rate = _jump_weights(params, outer.alpha, getattr(outer, "mu", 0.0), n_hi)
        if rate == 0.0:  # W underflows to 0: no jump comes, and N(t) = 0
            rows = np.zeros((n_hi + 1 - n_lo, t.size))
            if n_lo == 0:
                rows[0] = 1.0
            return rows
        zetas = np.arange(n_hi + 1)
        log_q = np.diagonal(zeta_table(k, n_hi))  # log C[z, z] = -log z!
        rho, ratio = rate, 1
        powers = _convolution_powers(np.concatenate(([0.0], w / rate)))
    # values per time are Python floats from libm's log and exp, as for one time alone, in
    # (T, 1, 1) columns; T times give (T, n, z) terms, or (T, 1, z), each summed over its last axis
    times = t.tolist()
    if inner is None:
        log_rho_t = np.array([_log_product(rho, s) for s in times])[:, None, None]
        terms = log_q + zetas * log_rho_t - np.array([rate * s for s in times])[:, None, None]
    else:
        log_w = [math.log(rho) + inner.alpha * math.log(s) for s in times]
        log_x = max(log_w) + math.log(ratio)
        if log_x > _LOG_FLOAT_MAX:
            raise NonConvergence(f"no certified clock weights: W t^beta = exp({log_x:.1f}) overflows")
        x = np.array([ratio * math.exp(v) for v in log_w])[:, None, None]
        terms = log_q + _ml_log_laplace(inner.alpha, zetas, x, np.array(log_w)[:, None, None])[:, None, :]
    terms = np.exp(terms, out=terms)
    rows = terms.sum(axis=-1) if outer is None else terms[:, 0] @ powers[:, n_lo:]
    return rows.T


def _convolution_powers(q: np.ndarray) -> np.ndarray:
    """Rows z = 0..m of the convolution powers ``q^(*z)`` of a law ``q`` on
    0..m, ``m = q.size - 1``, each truncated to 0..m; ``q^(*0)`` is the unit mass at 0."""
    lag = np.arange(q.size)
    step = np.tril(q[np.subtract.outer(lag, lag)])  # step[n, m] = q_(n - m)
    powers = np.eye(q.size)
    for z in range(1, q.size):
        np.matmul(step, powers[z - 1], out=powers[z])
    return powers


def _log_product(a: float, b: float) -> float:
    """``log(a b)`` for positive a and b, as ``log a + log b`` where the product
    underflows to 0 or overflows, so such a ``lam t`` still gives the true rows."""
    product = a * b
    return math.log(product) if 0.0 < product < math.inf else math.log(a) + math.log(b)


def _checked_rows(params: OrderParams, variant: Variant, t: np.ndarray, n_max: int):
    """``(probs, mass)``: rows n = 0..n_max of :func:`_rows` at the times ``t``
    and their total per time, refused as :func:`pmf_table` refuses a table."""
    probs = _rows(params, variant, t, 0, n_max)
    mass = probs.sum(axis=0)
    most, largest = float(mass.max()), float(probs.max())
    if not (most <= 1.0 + _MASS_TOL and largest <= 1.0 + _MASS_TOL):  # NaN is refused too
        raise NonConvergence(f"pmf table sums to {most:.6g} with largest entry {largest:.6g}")
    return probs, mass


def pmf_table(
    params: OrderParams,
    t: float,
    n_max: int,
    variant: Variant = None,
) -> PmfTable:
    """Tabulate P(N = n) for n = 0..n_max plus the truncated tail mass.

    A table whose entries or total mass exceed 1 by more than ``1e-9`` is
    refused with NonConvergence: its series lost accuracy, and its tail mass
    would be meaningless.  The rows are read from the variant's clock stages
    (:func:`_rows`), which sum positive terms only, so they hold also where
    ``P(N = 0)`` underflows.  A tempered time-space variant gets its table
    for ``nu = 0``, and the table of the base, time- or space-fractional
    process where its stages are those.
    """
    t = _positive("t", t)
    n_max = _count("n_max", n_max, 0, N_CAP)
    probs, mass = _checked_rows(params, variant, np.array([t]), n_max)
    meta = {"variant": "ppok", "k": params.k, "lam": params.lam, "t": t}
    if variant is not None:
        meta.update(variant=variant.label, **variant._asdict())
    return PmfTable(probs[:, 0], max(0.0, 1.0 - float(mass[0])), meta)


def sample_ppok_path(params: OrderParams, horizon: float, rng) -> MarkedEventPath:
    """Exact event-level simulation of the base process on [0, horizon]."""
    horizon = _positive("horizon", horizon)
    gen = as_generator(rng)
    n_events = _event_count(params, horizon, gen)
    times = np.sort(gen.uniform(0.0, horizon, n_events))
    marks = gen.integers(1, params.k + 1, n_events)
    return MarkedEventPath(times, marks, horizon)


# counts are int64; k^2 lam clock up to 2^62 bounds the mean total
# lam clock k (k + 1) / 2 with room for the Poisson fluctuation above it,
# and the k lam clock Poisson events of a path or a field
_COUNT_CAP = 2.0**62


def _check_clock(params: OrderParams, longest: float) -> None:
    """CapExceeded, before drawing, where the longest clock, time or volume gives counts past int64."""
    if not (params.k * params.k * params.lam * longest <= _COUNT_CAP):
        raise CapExceeded(f"a clock, time or volume of {longest:g} gives counts past int64 at k = {params.k}")


def _event_count(params: OrderParams, amount: float, gen) -> int:
    """The number of Poisson events, Poisson(k lam amount), over a time or a volume ``amount``."""
    _check_clock(params, amount)
    return gen.poisson(params.k * params.lam * amount)


def _batch_totals(k: int, mean, size, gen) -> np.ndarray:
    """``sum_{j=1..k} j * Poisson(mean)``, one Poisson draw per row and batch size."""
    total = gen.poisson(mean, size)
    for j in range(2, k + 1):
        total += j * gen.poisson(mean, size)
    return total


def _counts_given_clock(params: OrderParams, clock: np.ndarray, gen) -> np.ndarray:
    """Batch totals of the base process run for the given per-row clock amounts.

    Batches of each size j = 1..k arrive as independent Poisson streams of
    rate lam, so a total is ``sum_j j * Poisson(lam * clock)``, exact in law,
    with k Poisson draws per row.  Raises CapExceeded, before drawing, when a
    batch total could leave int64.
    """
    clock = np.asarray(clock, dtype=float)
    _check_clock(params, np.max(clock, initial=0.0))
    return _batch_totals(params.k, params.lam * clock, None, gen)


# Below this lam t the counts at one shared time are drawn by labelling, whose
# cost grows with lam t.  Per batch size over 20k rows on a 2-core Xeon host,
# labelling against per-row draws took 0.94 against 1.83 ms at lam t = 8, 1.49
# against 1.55 at 12 and 2.30 against 1.44 at 16; numpy's Poisson sampler
# changes algorithm at 10.
_LABELLED_BELOW = 10.0


def _counts_at_time(params: OrderParams, t: float, size: int, gen) -> np.ndarray:
    """size batch totals of the base process at one time t, exact in law.

    Below ``lam t = _LABELLED_BELOW`` each batch size j draws one
    Poisson(size lam t) number of batches and gives each batch a uniform row:
    by the colouring theorem (Kingman, *Poisson Processes*, 1993, 5.1) the rows
    then hold i.i.d. Poisson(lam t) batches of size j.  From there on the rows
    draw as :func:`_counts_given_clock` does, from one scalar mean, bit for bit.
    Raises CapExceeded, before drawing, when a batch total could leave int64.
    """
    _check_clock(params, t)
    mean = params.lam * t
    if mean >= _LABELLED_BELOW:
        return _batch_totals(params.k, mean, size, gen)
    total = np.zeros(size, dtype=np.int64)
    for j in range(1, params.k + 1):
        rows = gen.integers(0, size, gen.poisson(size * mean))
        total += j * np.bincount(rows, minlength=size)
    return total


def sample_ppok_counts(params: OrderParams, t: float, size: int, rng) -> np.ndarray:
    """size i.i.d. copies of N(t) for the base process (exact).

    One labelled Poisson stream per batch size below ``lam t = 10``, k Poisson
    draws per row from there on (:func:`_counts_at_time`).
    """
    return sample_fractional_counts(params, None, t, size, rng)


def _clock_matrix(variant: Variant, times: np.ndarray, size: int, gen) -> np.ndarray:
    """The variant's clock at increasing ``times``: a (size, len(times)) matrix.

    Each row is one shared clock path: the inner inverse subordinator read at
    ``times`` (or the times themselves), then the outer subordinator read at
    those inner values (or the inner values themselves).  With neither stage
    the matrix is a read-only broadcast of ``times``.
    """
    inner, outer = _stages(variant)
    if inner is None:
        clock = np.broadcast_to(times, (size, times.size))
    else:
        clock = sample_inverse_at(inner, times, size, gen)
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
) -> np.ndarray:
    """size i.i.d. copies of the variant count at time t, exact in law.

    A variant with no clock stage (``None``, or an index of 1) shares the
    clock t across rows, so its counts come from :func:`_counts_at_time`: one
    Poisson total per batch size with uniform row labels below ``lam t = 10``,
    k Poisson draws per row from there on.  Otherwise each row's clock is
    drawn and its count follows from :func:`_counts_given_clock`.

    An inverse stable clock read at one time is one stable draw per count,
    and an inverse tempered stable clock (``nu > 0``) takes about
    ``nu t / beta`` Esscher-tilted rounds of the stable path, each one first
    passage per count and, past the round's end, one draw below the distance,
    both from blocks drawn ahead: at 1,000 counts, t = 1 and (beta, nu) from
    (0.9, 0.2) to (0.7, 1), a clock takes 8 to 20 rounds, 0 to 32 pooled
    passes below and 2 to 9 block refills.
    """
    t = _positive("t", t)
    size = _count("size", size, 1)
    gen = as_generator(rng)
    if _stages(variant) == (None, None):
        return _counts_at_time(params, t, size, gen)
    clock = _clock_matrix(variant, np.array([t]), size, gen)
    return _counts_given_clock(params, clock[:, 0], gen)
