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
base process.  One kernel turns a variant into a clock matrix for the region
clocks of :mod:`fracppk.fields` (:func:`_clock_matrix`), and one reads its pmf
rows from the stages (:func:`_rows`).  A count needs its clock at one time
only, so the count sampler draws the inner stage and then takes one step for
the outer one (:func:`sample_fractional_counts`).

Every pmf row is one sum of positive terms over the stages (:func:`_rows`):
clock weights from the inner stage, one array pass over a cached positive
quadrature rule in ``log M`` for an inverse stable clock, times the
convolution powers of the jump law of the outer stage.  Without one, that
is the uniform batches, whose powers are the cached batch counts of each k
(:func:`fracppk.combinatorics._batch_powers`).  On a stable or tempered
stable clock, it is the Levy weights, which, like the tail rates of the
first-passage densities, come from one recurrence of positive terms in
O(n k) (:func:`_batch_power`).  Every pgf is one kernel
over the variant's clock stages (:func:`_pgf`): the outer stage turns the
base exponent into its Laplace exponent, and the inner stage reads the rule
for ``log M``, alone or, for an inverse tempered stable clock, under a
second positive integral.  Everything random is exact in law, including
every inverse clock at any number of read times (:mod:`fracppk.subordinators`).
Given its clock, a count is the sum over batch sizes j = 1..k of j times an
independent Poisson(lam * clock) number of batches.  Where every row shares
the clock t and lam t is below 10, each batch size instead draws one Poisson
total over all rows and gives its batches uniform rows.  On a tempered
stable outer stage the count is compound Poisson.  Where the stage's rate W
of jumps that carry an arrival is at most a fixed multiple of ``mu^alpha``,
which sets its rate of rejection chunks, the count is drawn from those jumps
alone (:func:`_jump_counts`), in time that does not grow with the
tempering.  Counts are int64: a clock, event-path horizon or field
volume with ``k^2 lam clock`` above 2^62, or jumps or arrivals whose Poisson
mean times k passes 2^62, is refused with ``CapExceeded`` before they are
drawn.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .combinatorics import LEVY_Y_CAP, N_CAP, OrderParams, _batch_powers, _log_factorials
from .errors import CapExceeded, DomainError, NonConvergence, _Record, _count, _index, _nonnegative, _positive, _real, _reals
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
        idx = np.searchsorted(self.times, _reals("t", t), side="right")
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
    (:func:`_jump_weights`, O(y_max k)).  y_max may exceed the pmf support cap:
    reconstructing the characteristic exponent to a useful tolerance needs
    the slowly decaying y^(-1-alpha) tail, so the cap here is LEVY_Y_CAP.
    """
    alpha = SpaceFractional(alpha).alpha
    y_max = _count("y_max", y_max, 1, LEVY_Y_CAP)
    return _jump_weights(params, alpha, 0.0, y_max)[0]


def _batch_power(k: int, alpha: float, x: float, n_max: int) -> np.ndarray:
    """``e_0..e_n_max``, the coefficients of ``(1 - x G(u))^(alpha - 1)``, ``0 <= x <= 1``,
    by Miller's recurrence for a power of a power series (Knuth, *TAOCP* vol. 2, 4.7):
    ``e_0 = 1``, ``e_n = x / (k n) sum_(j<=min(n,k)) ((n - j) + (1 - alpha) j) e_(n-j)``.
    Every term is positive and ``1 - alpha`` is formed once, so nothing cancels
    near alpha = 1; at alpha = 1 every e_n past e_0 is exactly 0."""
    gap, e = 1.0 - alpha, [1.0]
    for n in range(1, n_max + 1):
        total = 0.0
        for j in range(1, min(n, k) + 1):
            total += (n - j + gap * j) * e[n - j]
        e.append(x / (k * n) * total)
    return np.array(e)


def _jump_weights(params: OrderParams, alpha: float, mu: float, y_max: int):
    """``(w, W)``: the rates w_y, y = 1..y_max, of jumps of size y of the base
    process on a ``TemperedStable(alpha, mu)`` clock (``Stable(alpha)`` at
    ``mu = 0``), and their total W over all y.

    With ``c = mu + k lam`` and ``x = k lam / c`` the count's Laplace exponent
    ``c^alpha (1 - x G(u))^alpha - mu^alpha`` is ``W - sum_y w_y u^y``, with
    ``W = c^alpha - mu^alpha`` (:func:`fracppk.subordinators._tempered_gap`).
    Its derivative in u gives ``w_y = alpha lam c^(alpha - 1) (1/y) sum_(j<=min(y,k)) j e_(y-j)``
    with e of :func:`_batch_power`: positive terms, accurate to the cap, in O(y_max k).
    """
    k, lam = params.k, params.lam
    c = mu + k * lam
    e = _batch_power(k, alpha, k * lam / c, y_max - 1)
    # alpha lam c^(alpha - 1), whose last factor overflows where c is subnormal
    scale = alpha * (lam * c ** (alpha - 1.0) if c >= 1.0 else lam / c * c**alpha)
    sums = np.convolve(e, np.arange(1.0, k + 1.0))[:y_max]  # sum_j j e_(y-j)
    return scale * sums / np.arange(1, y_max + 1), _tempered_gap(alpha, mu, k * lam)


def sfppok_first_passage(params: OrderParams, alpha: float, level: int, t):
    """Density of the first time the space-fractional process reaches >= level.

    Vectorized over t.  The process leaves a count j below level by a jump
    of at least ``level - j``, so the density is
    ``sum_(j<level) P(N(t) = j) wbar_(level-j)``, a sum of positive terms,
    with the tail weights ``wbar_m`` of :func:`_sf_tail_weights` and the rows
    P(N(t) = j) of :func:`_rows` at every t in one call, with no batch counts.
    """
    variant = SpaceFractional(alpha)
    level = _count("level", level, 1, N_CAP + 1)
    t_arr = _reals("t", t)
    if not np.all((t_arr > 0) & np.isfinite(t_arr)):
        raise DomainError("t must be positive and finite")
    tail = _sf_tail_weights(params, variant.alpha, level)
    density = tail[::-1] @ _rows(params, variant, t_arr.ravel(), 0, level - 1)
    return float(density[0]) if t_arr.ndim == 0 else density.reshape(t_arr.shape)


def _sf_tail_weights(params: OrderParams, alpha: float, m_max: int) -> np.ndarray:
    """Rate ``wbar_m`` of jumps of size at least m, m = 1..m_max, from positive terms:
    ``sum_m wbar_m u^(m-1) = (k lam)^alpha (1 - G(u))^alpha / (1 - u)`` and
    ``(1 - G(u)) / (1 - u) = sum_(i<k) ((k - i) / k) u^i`` give, with e of
    :func:`_batch_power` at x = 1,
    ``wbar_m = (k lam)^alpha sum_(i<min(k,m)) ((k - i) / k) e_(m-1-i)``, exactly
    0 where no jump reaches m (m > k at alpha = 1)."""
    k = params.k
    e = _batch_power(k, alpha, 1.0, m_max - 1)
    return (k * params.lam) ** alpha * np.convolve(e, np.arange(k, 0.0, -1.0) / k)[:m_max]


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
    of law q at total rate W, so a row is ``p_n = sum_z c_z q^(*z)_n``, a sum
    of positive terms that survives where ``P(N = 0)`` underflows, with the
    weights ``c_z = E[(W H)^z exp(-W H)] / z!`` of z jumps.  Without an inner
    stage H = t; for ``Stable(beta)``, ``H = t^beta M`` in law, M
    Mittag-Leffler distributed, and one pass of the cached rule for ``log M``
    (:func:`fracppk.specfun._ml_log_laplace`) gives every z at every time,
    each certified as at that time alone (a ``W t^beta`` past the float
    range raises NonConvergence); an inverse tempered stable clock raises
    DomainError.  Without an outer stage q is uniform on 1..k and
    ``W = k lam``, and its powers are the cached batch counts over ``k^z``
    (:func:`fracppk.combinatorics._batch_powers`).  A stable or tempered
    stable outer stage gives q and W (:func:`_jump_weights`), and the powers
    ``q^(*z)`` are built once for all times.  A W that underflows to 0
    leaves no jump, and the rows are ``p_0 = 1``.
    """
    inner, outer = _stages(variant)
    if inner is not None and not isinstance(inner, Stable):
        raise DomainError("no pmf table for an inverse tempered stable clock (nu > 0)")
    if outer is None:
        rate = params.k * params.lam
        log_rate = math.log(params.k) + math.log(params.lam)  # not log(k lam), which rounds otherwise
        powers = _batch_powers(params.k, n_hi)
    else:
        w, rate = _jump_weights(params, outer.alpha, getattr(outer, "mu", 0.0), n_hi)
        if rate == 0.0:  # W underflows to 0: no jump comes, and N(t) = 0
            rows = np.zeros((n_hi + 1 - n_lo, t.size))
            if n_lo == 0:
                rows[0] = 1.0
            return rows
        log_rate = math.log(rate)
        powers = _convolution_powers(np.concatenate(([0.0], w / rate)))
    zetas = np.arange(n_hi + 1)
    neg_log_fact = -np.array(_log_factorials(n_hi))
    # values per time are Python floats from libm's log and exp, as for one time alone, in
    # (T, 1) columns; T times give (T, z) terms.  log(W t) is log W + log t where the
    # product underflows to 0 or overflows, so such a W t still gives the true rows
    times = t.tolist()
    if inner is None:
        log_wt = [math.log(rate * s) if 0.0 < rate * s < math.inf else log_rate + math.log(s) for s in times]
        terms = neg_log_fact + zetas * np.array(log_wt)[:, None] - np.array([rate * s for s in times])[:, None]
    else:
        log_w = [log_rate + inner.alpha * math.log(s) for s in times]
        if max(log_w) > _LOG_FLOAT_MAX:
            raise NonConvergence(f"no certified clock weights: W t^beta = exp({max(log_w):.1f}) overflows")
        x = np.array([math.exp(v) for v in log_w])[:, None, None]
        terms = neg_log_fact + _ml_log_laplace(inner.alpha, zetas, x, np.array(log_w)[:, None, None])
    return (np.exp(terms, out=terms) @ powers[:, n_lo:]).T


def _convolution_powers(q: np.ndarray) -> np.ndarray:
    """Rows z = 0..m of the convolution powers ``q^(*z)`` of a law ``q`` on
    0..m, ``m = q.size - 1``, each truncated to 0..m; ``q^(*0)`` is the unit mass at 0."""
    lag = np.arange(q.size)
    step = np.tril(q[np.subtract.outer(lag, lag)])  # step[n, m] = q_(n - m)
    powers = np.eye(q.size)
    for z in range(1, q.size):
        np.matmul(step, powers[z - 1], out=powers[z])
    return powers


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


def _check_mean(k: int, mean: float, what: str) -> None:
    """CapExceeded, before drawing, where k times a Poisson mean passes 2^62."""
    if not (k * mean <= _COUNT_CAP):
        raise CapExceeded(f"{what}, of mean {mean:g}, give counts past int64 at k = {k}")


def _event_count(params: OrderParams, amount: float, gen) -> int:
    """The number of Poisson events, Poisson(k lam amount), over a time or a volume ``amount``."""
    mean = params.k * params.lam * amount
    _check_mean(params.k, mean, "the events of a time or volume")
    return gen.poisson(mean)


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
    _check_mean(params.k, params.k * params.lam * np.max(clock, initial=0.0), "the events of a clock")
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
    _check_mean(params.k, params.k * params.lam * t, "the events of a time")
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

    Every positive gap between consecutive inner times is replaced by an
    increment drawn over it, all in one call, and they are summed along rows.
    """
    out = np.diff(inner, axis=1, prepend=0.0)
    positive = out > 0
    out[positive] = sample_increment(spec, out[positive], gen)
    return np.cumsum(out, axis=1, out=out)


# A tempered outer stage takes its jump route where W <= _JUMP_RATIO mu^alpha:
# over a clock c a row draws about W c jumps there, and its increment splits
# into ceil(mu^alpha c / 0.7) rejection chunks, so c drops out.  Fitted on a
# 2-core host over 1,728 points (k = 1, 3, 5, lam = 0.5..10, alpha = 0.3..0.9,
# beta = 1 or 0.8, mu = 0.05..50, t = 0.1..30, 300 or 2,000 counts), a fit
# that predates the one-loop tempered increments and is now stale: those made
# the chunks about a third cheaper, and at 145 points of the sweep any ratio
# up to 4.28 takes 616 ms in all against 857 ms at 8.  A re-fit needs the full
# sweep again (ROADMAP item 11), so the value stays
_JUMP_RATIO = 8.0


# the jumps of a count request are drawn in blocks of at most this many, and
# its batch sizes in multinomial blocks of at most this many values (rows
# times k, one row at least), so memory stays bounded however many jumps the clocks expect and
# however large k is
_JUMP_BLOCK = 2**20


def _jump_counts(params: OrderParams, alpha: float, mu: float, clock: np.ndarray, size: int, gen) -> np.ndarray:
    """size counts of the base process on a ``TemperedStable(alpha, mu > 0)``
    outer stage read at the clock, from its jumps that carry an arrival.

    Given the clock c the count is compound Poisson (Orsingher and Toaldo,
    *J. Appl. Probab.* 52, 2015): with ``kappa = k lam``, the jumps of the
    outer stage that carry at least one arrival come at rate
    ``W = (mu + kappa)^alpha - mu^alpha`` (:func:`fracppk.subordinators._tempered_gap`),
    and a jump's size has the law ``(1 - e^(-kappa s)) s^(-1-alpha) e^(-mu s)``
    up to a constant.  Writing ``1 - e^(-kappa s) = s int_0^kappa e^(-r s) dr``
    makes that an exact mixture: r on [0, kappa] with density
    ``(mu + r)^(alpha - 1)``, so ``mu + r = (mu^alpha + U W)^(1/alpha)`` for U
    uniform, then ``s ~ Gamma(1 - alpha) / (mu + r)``.  Given s the jump
    carries ``1 + Poisson(kappa s - E)`` arrivals, E its first arrival, an
    exponential truncated to [0, kappa s], so that ``kappa s - E`` is
    ``log1p(V expm1(kappa s))`` for V uniform on (0, 1].  A row's arrivals
    are its jumps plus one Poisson of their summed rests, and a multinomial
    gives their uniform batch sizes.  Each jump takes one gamma and three
    uniform draws, with no rejection.  The jumps, and the multinomial's
    (rows, k) batch sizes, are drawn in blocks of at most ``_JUMP_BLOCK``
    values, so memory is O(rows) and never O(arrivals) or O(rows k); numpy
    draws a multinomial row by row, so its blocks give the bytes of one call.
    CapExceeded is raised, before the draws they feed, where k times the mean
    jumps ``W c`` of all rows together, or a row's mean arrivals, could pass
    2^62.
    """
    k, kappa = params.k, params.k * params.lam
    rate = _tempered_gap(alpha, mu, kappa)
    _check_mean(k, rate * float(np.broadcast_to(clock, size).sum()), "the jumps of all rows")
    jumps = gen.poisson(rate * clock, size)
    ends = np.cumsum(jumps)
    rests = np.zeros(size)
    for lo in range(0, int(ends[-1]), _JUMP_BLOCK):
        hi = min(lo + _JUMP_BLOCK, int(ends[-1]))
        # kappa s of each jump, its Gamma(1 - alpha) drawn as Gamma(2 - alpha) U^(1 / (1 - alpha)),
        # cheaper below shape 1, and divided by mu + r
        y = gen.standard_gamma(2.0 - alpha, hi - lo)
        y *= gen.random(hi - lo) ** (1.0 / (1.0 - alpha))
        y /= (mu**alpha + rate * gen.random(hi - lo)) ** (1.0 / alpha)
        y *= kappa
        # kappa s - E, and past kappa s = 700, where expm1 overflows, its shift from there
        rest = np.log1p((1.0 - gen.random(hi - lo)) * np.expm1(np.minimum(y, 700.0)))
        rest += np.maximum(y - 700.0, 0.0)
        # the rows of the block's first and last jumps, and each row's jumps in the block
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        rows = slice(first, last + 1)
        inside = np.minimum(ends[rows], hi) - np.maximum(ends[rows] - jumps[rows], lo)
        rests[rows] += np.bincount(np.repeat(np.arange(inside.size), inside), rest, inside.size)
    _check_mean(k, float((rests + jumps).max()), "a row's arrivals")
    arrivals = jumps + gen.poisson(rests)
    pvals, sizes, step = np.full(k, 1.0 / k), np.arange(1, k + 1), max(1, _JUMP_BLOCK // k)
    return np.concatenate([gen.multinomial(arrivals[lo:lo + step], pvals) @ sizes for lo in range(0, size, step)])


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
    k Poisson draws per row from there on.  Otherwise each row draws its
    inner clock, or shares t, and the outer stage takes one step from there.
    A tempered stage (``mu > 0``) draws only its jumps that carry an arrival
    (:func:`_jump_counts`) where their rate ``W = (mu + k lam)^alpha - mu^alpha``
    is at most ``_JUMP_RATIO mu^alpha``; ``mu^alpha / 0.7`` is its number of
    rejection chunks per unit of clock, so the clock drops out of the test.
    2,000 counts at k = 3, lam = 2, beta = 1, alpha = 0.7 and t = 1 take
    0.4 ms at mu = 5000, where the chunks take 210 ms.  Otherwise, and on a stable
    stage (``mu = 0``, where the test fails), each row draws one increment, a
    shared time as one scalar step, and its count given that value
    (:func:`_counts_given_clock`).

    An inverse stable clock read at one time is one stable draw per count,
    and an inverse tempered stable clock (``nu > 0``) takes about
    ``nu t / beta`` Esscher-tilted rounds of the stable path, each one first
    passage per count from blocks drawn ahead; a count whose passage comes
    past the round's end reads its value there from that passage time, with
    no draw of its own: at 1,000 counts, t = 1 and (beta, nu) from (0.9, 0.2)
    to (0.7, 1), a clock takes 8 to 20 rounds and 2 to 4 block refills,
    each refill one pass of each of its two rejection samplers.
    """
    t = _positive("t", t)
    size = _count("size", size, 1)
    gen = as_generator(rng)
    inner, outer = _stages(variant)
    if inner is None and outer is None:
        return _counts_at_time(params, t, size, gen)
    clock = np.array([t]) if inner is None else sample_inverse_at(inner, [t], size, gen)[:, 0]
    if outer is None:
        return _counts_given_clock(params, clock, gen)
    alpha, mu = outer.alpha, getattr(outer, "mu", 0.0)
    if _tempered_gap(alpha, mu, params.k * params.lam) <= _JUMP_RATIO * mu**alpha:
        return _jump_counts(params, alpha, mu, clock, size, gen)
    if clock.size < size:
        values = sample_increment(outer, clock[0], gen, size)
    else:
        values = _composed_path(outer, clock[:, None], gen)[:, 0]
    return _counts_given_clock(params, values, gen)
