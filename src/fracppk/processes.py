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
densities) is evaluated by convergent series whose batch-count weights are
read from one zeta table per k (:func:`fracppk.combinatorics.zeta_table`); a
pmf table evaluates its rows together, so a time-fractional table needs one
Mittag-Leffler derivative per batch count.  Everything random is exact in
law except inverse-subordinator clocks, which carry the O(step) first-crossing
bias documented in :mod:`fracppk.subordinators`.  Counts are int64: a clock
whose Poisson mean, times k, passes 2^62 is refused with ``CapExceeded``
before anything is drawn.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional, Union

import numpy as np
from scipy.special import gammaln, hyp2f1

from .combinatorics import LEVY_Y_CAP, N_CAP, OrderParams, log_omega_kernel, zeta_table
from .errors import CapExceeded, DomainError, NonConvergence
from .specfun import SeriesControl, mittag_leffler, ml_derivatives
from .subordinators import (
    Stable,
    TemperedStable,
    as_generator,
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

_SF_RMAX = 400
_SF_TAIL_TOL = 1e-14
_SF_TAIL_RUN = 5


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
        if self.outer is None:
            return _ppok_rows(params, t, n_max)
        return _sf_rows(params, t, self.alpha, 0, n_max)


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
    def inner(self) -> Optional[TemperedStable]:
        return None if self.beta == 1.0 else TemperedStable(self.beta, self.nu)

    @property
    def outer(self) -> Optional[TemperedStable]:
        return None if self.alpha == 1.0 else TemperedStable(self.alpha, self.mu)

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
    return np.array([ppok_pmf(params, n, t) for n in range(n_max + 1)])


def ppok_pgf(params: OrderParams, u: float, t: float) -> float:
    u = _check_u(u)
    t = _check_t(t)
    return math.exp(-params.k * params.lam * t * (1.0 - batch_pgf(params, u)))


def ppok_moments(params: OrderParams, t: float) -> tuple[float, float]:
    """(mean, variance) of the base process at time t."""
    t = _check_t(t)
    return params.mean_rate * t, params.var_rate * t


# ---------------------------------------------------------------------------
# time-fractional variant
# ---------------------------------------------------------------------------


def tfppok_pmf(
    params: OrderParams,
    n: int,
    t: float,
    beta: float,
    control: Optional[SeriesControl] = None,
) -> float:
    """P(N(E_beta(t)) = n): Mittag-Leffler relaxation of the base pmf."""
    n = _check_n(n)
    t = _check_t(t)
    beta = TimeFractional(beta).beta
    return float(_tf_rows(params, t, beta, n, n, control)[0])


def _tf_rows(
    params: OrderParams,
    t: float,
    beta: float,
    n_lo: int,
    n_hi: int,
    control: Optional[SeriesControl] = None,
) -> np.ndarray:
    """P(N(E_beta(t)) = n) for n = n_lo..n_hi.

    ``sum_zeta C[n, zeta] (lam t^beta)^zeta E_beta^(zeta)(-k lam t^beta)``: one
    Mittag-Leffler derivative per batch count zeta serves every row.
    """
    k, lam = params.k, params.lam
    z = -k * lam * t**beta
    log_w = math.log(lam) + beta * math.log(t)
    lo = -(-n_lo // k)
    zetas = np.arange(lo, n_hi + 1)
    derivs = ml_derivatives(zetas.tolist(), beta, z, control)
    weights = np.exp(zeta_table(k, n_hi)[n_lo:, lo:] + zetas * log_w)
    return np.maximum((weights * derivs).sum(axis=1), 0.0)


def tfppok_pgf(
    params: OrderParams,
    u: float,
    t: float,
    beta: float,
    control: Optional[SeriesControl] = None,
) -> float:
    u = _check_u(u)
    t = _check_t(t)
    beta = TimeFractional(beta).beta
    z = -params.k * params.lam * t**beta * (1.0 - batch_pgf(params, u))
    return mittag_leffler(beta, 1.0, z, control)


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


@lru_cache(maxsize=32)
def _falling_table(alpha: float, r_max: int, zeta_max: int):
    """log|fall(alpha r, zeta)| and its sign for r = 0..r_max, zeta = 1..zeta_max.

    fall(x, zeta) = x (x-1) .. (x-zeta+1).  Returned arrays have shape
    (r_max+1, zeta_max); column j holds zeta = j+1.
    """
    x = alpha * np.arange(r_max + 1, dtype=float)[:, None] - np.arange(zeta_max)[None, :]
    sign = np.cumprod(np.sign(x), axis=1)
    with np.errstate(divide="ignore"):
        log_abs = np.cumsum(np.log(np.abs(x)), axis=1)
    return log_abs, sign


def _sum_with_tail_check(terms: np.ndarray, what: str) -> float:
    partial = np.cumsum(terms)
    scale = np.maximum.accumulate(np.maximum(np.abs(partial), 1e-30))
    small = np.abs(terms) <= _SF_TAIL_TOL * scale
    run = 0
    for i, ok in enumerate(small):
        run = run + 1 if ok else 0
        if run >= _SF_TAIL_RUN:
            return float(partial[i])
    raise NonConvergence(f"{what} series did not settle within {terms.size} terms")


def sfppok_pmf(params: OrderParams, n: int, t: float, alpha: float) -> float:
    """P(N(S_alpha(t)) = n): power series in t with falling-factorial weights."""
    n = _check_n(n)
    t = _check_t(t)
    alpha = SpaceFractional(alpha).alpha
    return float(_sf_rows(params, t, alpha, n, n)[0])


def _sf_rows(params: OrderParams, t: float, alpha: float, n_lo: int, n_hi: int) -> np.ndarray:
    """P(N(S_alpha(t)) = n) for n = n_lo..n_hi.

    Row n sums the signed series over r = 0..r_max of
    ``(-(k lam)^alpha t)^r / r!`` times an inner sum over the row's batch
    counts zeta of ``(-1)^zeta C[n, zeta] k^-zeta fall(alpha r, zeta)``.
    """
    k, lam = params.k, params.lam
    r = np.arange(_SF_RMAX + 1, dtype=float)
    log_coef = alpha * r * math.log(k * lam) + r * math.log(t) - gammaln(r + 1)
    coef = np.where(np.arange(r.size) % 2 == 0, 1.0, -1.0) * np.exp(log_coef)
    log_abs, sign = _falling_table(alpha, _SF_RMAX, N_CAP)
    log_c = zeta_table(k, n_hi)
    log_k = math.log(k)
    out = np.empty(n_hi - n_lo + 1)
    for i, n in enumerate(range(n_lo, n_hi + 1)):
        if n == 0:
            out[i] = math.exp(-((k * lam) ** alpha) * t)
            continue
        zetas = np.arange(-(-n // k), n + 1)
        cols = zetas - 1
        # one row per zeta, summed in zeta order
        parts = (
            ((-1.0) ** zetas)[:, None]
            * sign[:, cols].T
            * np.exp((log_c[n, zetas] - zetas * log_k)[:, None] + log_abs[:, cols].T)
        )
        terms = coef * parts.sum(axis=0)
        out[i] = max(_sum_with_tail_check(terms, "space-fractional pmf"), 0.0)
    return out


def sfppok_pgf(params: OrderParams, u: float, t: float, alpha: float) -> float:
    u = _check_u(u)
    t = _check_t(t)
    alpha = SpaceFractional(alpha).alpha
    rate = params.k * params.lam * (1.0 - batch_pgf(params, u))
    return math.exp(-t * rate**alpha)


def sfppok_levy_weights(params: OrderParams, alpha: float, y_max: int) -> np.ndarray:
    """Levy measure weights w_y, y = 1..y_max, of the space-fractional process.

    The process is compound Poisson-like with total jump intensity
    (k lam)^alpha split over integer jump sizes; all weights are positive and
    sum (over all y) to exactly (k lam)^alpha.

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
    log_fall = np.cumsum(np.log(np.abs(alpha - (zetas - 1.0))))
    log_c = zeta_table(k, y_max, n_cap=LEVY_Y_CAP)[1:, 1:]  # rows y, columns zeta
    return np.exp(log_scale + log_c - zetas * math.log(k) + log_fall).sum(axis=1)


def _derivative_ladder(alpha: float, zeta_max: int) -> np.ndarray:
    """Coefficients b[zeta, m] with d^zeta/dlam^zeta exp(-c lam^alpha)
    = exp(-c lam^alpha) sum_m b[zeta, m] c^m lam^(alpha m - zeta)."""
    b = np.zeros((zeta_max + 1, zeta_max + 1))
    b[0, 0] = 1.0
    for z in range(zeta_max):
        for m in range(z + 2):
            val = (alpha * m - z) * b[z, m]
            if m >= 1:
                val -= alpha * b[z, m - 1]
            b[z + 1, m] = val
    return b


def sfppok_first_passage(params: OrderParams, alpha: float, level: int, t):
    """Density of the first time the space-fractional process reaches >= level.

    Vectorized over t.  Exact finite formula: minus the time derivative of
    P(N(t) < level), with the lam-derivative ladder of exp(-t (k lam)^alpha)
    evaluated in closed form.
    """
    alpha = SpaceFractional(alpha).alpha
    if level != int(level) or level < 1 or level - 1 > N_CAP:
        raise DomainError(f"level must be an integer in 1..{N_CAP + 1}")
    level = int(level)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise DomainError("t must be positive")
    k, lam = params.k, params.lam
    c = t_arr * k**alpha
    envelope = np.exp(-c * lam**alpha)
    b = _derivative_ladder(alpha, level - 1 if level > 1 else 0)
    # d/dt of the zeta-th lam-derivative of the envelope, shared by every count j
    inners = []
    for zeta in range(level):
        inner = np.zeros_like(t_arr)
        for m in range(zeta + 1):
            if b[zeta, m] == 0.0:
                continue
            piece = -(lam**alpha) * c**m
            if m >= 1:
                piece = piece + m * c ** (m - 1)
            inner += b[zeta, m] * lam ** (alpha * m) * piece
        inners.append(inner)
    log_c = zeta_table(k, level - 1)
    total = np.zeros_like(t_arr)
    for j in range(level):
        for zeta in range(-(-j // k), j + 1):
            pref = (-1.0) ** zeta * math.exp(log_c[j, zeta] - zeta * math.log(k)) * k**alpha
            total += pref * envelope * inners[zeta]
    density = -total
    if not np.all(np.isfinite(density)):
        raise NonConvergence("first-passage ladder overflowed; reduce level or rescale")
    return float(density) if np.ndim(t) == 0 else density


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
    control: Optional[SeriesControl] = None,
) -> float:
    """pgf of the base process on a tempered alpha-stable clock run on an
    inverse tempered beta-stable clock."""
    u = _check_u(u)
    t = _check_t(t)
    variant = TemperedTimeSpace(alpha, beta, mu, nu)
    alpha, beta, mu, nu = variant.alpha, variant.beta, variant.mu, variant.nu
    ctl = control if control is not None else SeriesControl()
    k, lam = params.k, params.lam
    a_val = (mu + k * lam * (1.0 - batch_pgf(params, u))) ** alpha - mu**alpha
    if a_val == 0.0:
        return 1.0
    la = a_val * t**beta
    if la > ctl.z_cap:
        raise DomainError(f"series argument {la:g} exceeds the cap {ctl.z_cap:g}")
    x_nu = nu * t
    z = x_nu**beta  # (nu t)^beta multiplies the inner geometric-over-j series

    # m-series: msum[q] = sum_m (nu t)^m / Gamma(beta q + m + 1), shared by all
    # (r, j) with r + j = q
    q_cap = 2 * ctl.max_terms
    log_la = math.log(la)
    log_z = math.log(z) if z > 0 else -math.inf

    def m_series(q: int) -> float:
        base = beta * q + 1.0
        term = 1.0 / math.gamma(base) if base < 170 else math.exp(-gammaln(base))
        total = term
        m = 0
        while m < 10_000:
            m += 1
            term *= x_nu / (base + m - 1.0) if base + m - 1.0 != 0 else 0.0
            # Gamma(base + m) = Gamma(base + m - 1) * (base + m - 1)
            total += term
            if term < 1e-18 * max(total, 1e-300) and m > x_nu:
                return total
        raise NonConvergence("tempered clock m-series did not converge")

    msum_cache: dict[int, float] = {}

    def msum(q: int) -> float:
        if q not in msum_cache:
            msum_cache[q] = m_series(q)
        return msum_cache[q]

    total = 0.0
    tiny_rows = 0
    for r in range(q_cap):
        # row_r = (A t^beta)^r * sum_j (r)_j / j! * z^j * msum(r + j)
        if r == 0:
            row = msum(0)  # sum over j collapses since (0)_j = 0 for j >= 1
        else:
            log_pref = r * log_la
            row = 0.0
            log_cj = 0.0  # log((r)_j / j!) at j = 0
            j = 0
            while j < 10_000:
                contrib = math.exp(log_pref + log_cj + (j * log_z if j else 0.0)) * msum(r + j)
                row += contrib
                if contrib < 1e-18 * max(row, 1e-300) and j >= 1:
                    break
                j += 1
                if z == 0.0:
                    break
                log_cj += math.log(r + j - 1.0) - math.log(j)
            else:
                raise NonConvergence("tempered clock j-series did not converge")
        term = (-1.0) ** r * row
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1e-300):
            tiny_rows += 1
            if tiny_rows >= 3:
                break
        else:
            tiny_rows = 0
    else:
        raise NonConvergence("tempered clock r-series did not converge")
    value = math.exp(-x_nu) * total
    return min(max(value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# tables and samplers
# ---------------------------------------------------------------------------


def pmf_table(
    params: OrderParams,
    t: float,
    n_max: int,
    variant: Variant = None,
) -> PmfTable:
    """Tabulate P(N = n) for n = 0..n_max plus the truncated tail mass."""
    t = _check_t(t)
    if n_max < 0 or n_max > N_CAP:
        raise DomainError(f"n_max must lie in 0..{N_CAP}")
    if variant is None:
        probs = _ppok_rows(params, t, n_max)
    else:
        probs = variant._pmf_rows(params, t, n_max)
    mass = float(np.sum(probs))
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


# counts are int64; k times a Poisson mean up to 2^62 leaves room for the
# Poisson fluctuation above the mean
_COUNT_CAP = 2.0**62


def _counts_given_clock(params: OrderParams, clock: np.ndarray, gen) -> np.ndarray:
    """Batch totals of the base process run for the given clock amounts.

    Raises CapExceeded, before drawing, when a batch total could leave int64.
    """
    k = params.k
    clock = np.asarray(clock, dtype=float)
    longest = np.max(clock, initial=0.0)
    if not (k * k * params.lam * longest <= _COUNT_CAP):
        raise CapExceeded(f"clock value {longest:g} gives counts beyond int64 at k = {k}")
    n_events = gen.poisson(k * params.lam * clock)
    if k == 1:
        return n_events.astype(np.int64)
    split = gen.multinomial(n_events, np.full(k, 1.0 / k))
    return split @ np.arange(1, k + 1, dtype=np.int64)


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

    Space-fractional draws are exact in law; clocks involving an inverse
    subordinator (time-fractional, tempered time-space) are simulated by
    first crossing on a grid of the given step (default 1e-3 t) and carry an
    O(step) bias.
    """
    t = _check_t(t)
    if size < 1:
        raise DomainError("size must be >= 1")
    gen = as_generator(rng)
    clock = _clock_matrix(variant, np.array([t]), size, gen, step=step)
    return _counts_given_clock(params, clock[:, 0], gen)
