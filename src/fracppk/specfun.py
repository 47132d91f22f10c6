"""Special functions for fractional counting models.

Three-parameter Mittag-Leffler series, Mittag-Leffler derivatives, the
one-sided stable density and its inverse-process density, and L1-discretized
Caputo derivatives with optional exponential tempering.

The Mittag-Leffler series are evaluated in log space term by term.
Alternating series that measurably cancel in float64 are transparently
re-summed in arbitrary precision sized to the peak term, so results stay
accurate across the admissible window (``SeriesControl.z_cap``); arguments
past the window, or cancellation beyond what escalation can absorb, raise
:class:`~fracppk.errors.DomainError` / :class:`~fracppk.errors.NonConvergence`
instead of silently losing digits.

The two densities are Zolotarev's integral over the angle of Kanter's
representation, whose terms are all positive: float64 tanh-sinh quadrature
split at the integrand's peak, summed in log space and certified by the
rule at twice the step.

The time-fractional laws of :mod:`fracppk.processes` do not sum the series.
They read ``E_beta^(n)(-x) = E[M^n exp(-x M)]``, M Mittag-Leffler
distributed, from one trapezoid rule in ``log M`` per beta whose weights are
Zolotarev's integral over the same angle: float64 only, every term positive,
built on first use, kept read-only in a bounded cache, and certified by its
mass and mean and by the rule at twice the step (NonConvergence otherwise).
:func:`ml_derivatives` reads the same rule on the negative axis, and the
Laplace transform of the inverse tempered stable clock is a positive
integral over it (:func:`_inverse_tempered_laplace`).  The series functions
stay public as the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import DomainError, GridTooCoarse, NonConvergence

__all__ = [
    "SeriesControl",
    "GridFunction",
    "mittag_leffler",
    "prabhakar_ml",
    "ml_derivative",
    "ml_derivatives",
    "stable_density",
    "inv_stable_density",
    "caputo_derivative",
    "tempered_caputo_derivative",
]

_LOG_HUGE = 700.0  # exp() overflow threshold in float64
_TINY = 1e-290

# Alternating Mittag-Leffler style series cancel: the float64 pass keeps the
# peak term magnitude and, when the rounding noise it leaves exceeds these
# targets, the sum is redone in arbitrary precision sized to the peak.
_ESCALATE_REL = 1e-11
_ESCALATE_ABS = 1e-18
_LN10 = math.log(10.0)


def _needs_rescue(peak_log: float, total: float) -> bool:
    if peak_log > _LOG_HUGE:
        return True
    return math.exp(peak_log) * 2.3e-16 > max(_ESCALATE_REL * abs(total), _ESCALATE_ABS)


def _rescue_dps(peak_log: float) -> int:
    needed = 30 + max(0, int(peak_log / _LN10) + 1)
    if needed > 1200:
        raise NonConvergence(
            "series cancellation exceeds escalation capacity; the argument is "
            "too deep in the oscillatory regime for this parameter choice"
        )
    return needed


def _prabhakar_mp(a: float, b: float, c: float, z: float, peak_log: float, cap: int) -> float:
    """Arbitrary-precision Prabhakar series, sized so the peak term keeps
    ~30 digits of headroom.  mp.rgamma maps Gamma poles to exact zeros.

    The Gamma argument ``a j + b`` is formed in mp arithmetic: rounding it to
    float64 perturbs each coefficient by ~psi(a j + b) (a j) eps, which the
    peak term amplifies far beyond the cancelled sum.
    """
    with mp.workdps(_rescue_dps(peak_log)):
        zz = mp.mpf(z)
        aa = mp.mpf(a)
        bb = mp.mpf(b)
        coef = mp.mpf(1)  # (c)_j / j!
        power = mp.mpf(1)
        total = mp.mpf(0)
        tol = mp.mpf(10) ** (-25)
        floor = mp.mpf(10) ** (-320)
        small = 0
        for j in range(cap):
            term = coef * power * mp.rgamma(aa * j + bb)
            total += term
            if abs(term) <= tol * max(abs(total), floor):
                small += 1
                if small >= 2:
                    return float(total)
            else:
                small = 0
            coef *= mp.mpf(c + j) / (j + 1)
            power *= zz
    raise NonConvergence(f"series for ({a}, {b}, {c}, {z}) needs more than {cap} terms")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the series evaluators.

    rel_tol
        Relative tail tolerance; summation stops once consecutive terms fall
        below ``rel_tol`` times the running scale of the partial sums.
    max_terms
        Hard cap on the number of terms before NonConvergence is raised.
    z_cap
        Largest admissible ``|z|`` for the Mittag-Leffler style series.
    """

    rel_tol: float = 1e-12
    max_terms: int = 2000
    z_cap: float = 50.0

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < 1):
            raise DomainError("rel_tol must lie in (0, 1)")
        if self.max_terms < 8:
            raise DomainError("max_terms must be at least 8")
        if self.z_cap <= 0:
            raise DomainError("z_cap must be positive")


_DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class GridFunction:
    """A real function tabulated on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1:
            raise DomainError("times and values must be one-dimensional")
        if times.size != values.size:
            raise DomainError("times and values must have equal length")
        if times.size < 3:
            raise GridTooCoarse("a grid function needs at least 3 points")
        if not np.all(np.diff(times) > 0):
            raise DomainError("times must be strictly increasing")

    def uniform_step(self) -> float:
        """Return the grid step, requiring the grid to be uniform."""
        steps = np.diff(self.times)
        h = float(steps[0])
        if np.max(np.abs(steps - h)) > 1e-8 * max(h, 1.0):
            raise DomainError("grid must be uniform for this operation")
        return h


def _check_z(z: float, control: SeriesControl) -> None:
    if abs(z) > control.z_cap:
        raise DomainError(
            f"|z| = {abs(z):g} exceeds the admissible cap {control.z_cap:g}; "
            "the alternating series loses too many digits past it"
        )


def mittag_leffler(a: float, b: float, z: float, control: SeriesControl | None = None) -> float:
    """Two-parameter Mittag-Leffler function ``sum_j z^j / Gamma(a j + b)``.

    Parameters
    ----------
    a : float
        Series index scale, must be positive.
    b : float
        Offset parameter; poles of Gamma are handled (their terms vanish).
    z : float
        Argument with ``|z| <= control.z_cap``.

    Returns
    -------
    float
    """
    return prabhakar_ml(a, b, 1.0, z, control)


def prabhakar_ml(
    a: float, b: float, c: float, z: float, control: SeriesControl | None = None
) -> float:
    """Three-parameter (Prabhakar) Mittag-Leffler function.

    ``sum_j (c)_j z^j / (Gamma(a j + b) j!)`` with the rising factorial
    ``(c)_j``.  For ``c = 0`` only the ``j = 0`` term survives, giving
    ``1/Gamma(b)``; for ``c = 1`` it reduces to :func:`mittag_leffler`.
    """
    ctl = control or _DEFAULT_CONTROL
    if a <= 0:
        raise DomainError("prabhakar_ml requires a > 0")
    if c < 0:
        raise DomainError("prabhakar_ml requires c >= 0")
    _check_z(z, ctl)
    if c == 0.0 or z == 0.0:
        return _recip_gamma(b)

    log_az = math.log(abs(z))
    sgn_z = 1.0 if z > 0 else -1.0
    lg_c = gammaln(c)
    total = 0.0
    peak = -math.inf
    small = 0
    for j in range(ctl.max_terms):
        # (c)_j / j! = Gamma(c + j) / (Gamma(c) Gamma(j + 1)), positive for c > 0
        log_mag = gammaln(c + j) - lg_c - gammaln(j + 1.0) + j * log_az - gammaln(a * j + b)
        peak = max(peak, log_mag)
        term = _signed_exp(log_mag, gammasgn(a * j + b) * sgn_z**j)
        total += term
        if abs(term) <= ctl.rel_tol * max(abs(total), _TINY):
            small += 1
            if small >= 2:
                if _needs_rescue(peak, total):
                    return _prabhakar_mp(a, b, c, z, peak, 4 * ctl.max_terms)
                return total
        else:
            small = 0
    raise NonConvergence(
        f"prabhakar_ml({a}, {b}, {c}, {z}) needs more than {ctl.max_terms} terms"
    )


def ml_derivative(
    n: int, beta: float, z: float, control: SeriesControl | None = None
) -> float:
    """n-th derivative of the one-parameter Mittag-Leffler function at ``z``.

    The order is capped at 60, matching the count cap of the process layer.
    One order of :func:`ml_derivatives`.
    """
    return float(ml_derivatives([n], beta, z, control)[0])


def ml_derivatives(
    orders, beta: float, z: float, control: SeriesControl | None = None
) -> np.ndarray:
    """Mittag-Leffler derivatives of each of ``orders`` at one argument ``z``.

    On the negative axis ``E_beta^(n)(z) = E[M^n exp(z M)]``, M Mittag-Leffler
    distributed: one pass of the cached rule for ``log M``
    (:func:`_ml_log_laplace`) gives every order as a sum of positive terms,
    certified or refused with NonConvergence.  At ``beta = 1`` every
    derivative is ``e^z``, and at ``z = 0`` it is ``n! / Gamma(beta n + 1)``.
    For ``z > 0`` the power series ``sum_m (n+m)! / (m! Gamma(beta (n+m) + 1)) z^m``
    has positive terms only and is summed in float64 over
    ``control.max_terms`` terms; a tail it leaves above ``control.rel_tol``
    of the sum raises NonConvergence.
    """
    ctl = control or _DEFAULT_CONTROL
    if not (0 < beta <= 1):
        raise DomainError("ml_derivative requires beta in (0, 1]")
    checked = []
    for n in orders:
        if n < 0 or n != int(n):
            raise DomainError("derivative order must be a nonnegative integer")
        if n > 60:
            raise DomainError("derivative order capped at 60")
        checked.append(int(n))
    _check_z(z, ctl)
    n = np.array(checked, dtype=float)
    if beta == 1.0:
        return np.full(n.size, math.exp(z))
    if z == 0.0:
        return np.exp(gammaln(n + 1.0) - gammaln(beta * n + 1.0))
    if z < 0.0:
        return np.exp(_ml_log_laplace(beta, checked, -z))
    # log-concave positive terms: the tail past the last one is at most
    # last * ratio / (1 - ratio), with ratio the last term over the one before
    m = np.arange(ctl.max_terms, dtype=float)
    q = n[:, None] + m
    log_terms = gammaln(q + 1.0) - gammaln(beta * q + 1.0) - gammaln(m + 1.0) + m * math.log(z)
    top = log_terms.max(axis=1)
    log_ratio = log_terms[:, -1] - log_terms[:, -2]
    next_term = np.exp(log_terms[:, -1] - top + log_ratio)  # relative to the largest
    converged = (log_ratio < 0.0) & (next_term <= ctl.rel_tol * -np.expm1(log_ratio))
    if np.any(top > _LOG_HUGE) or not np.all(converged):
        raise NonConvergence(f"ml_derivative at beta = {beta}, z = {z} needs more than {ctl.max_terms} terms")
    return np.exp(log_terms - top[:, None]).sum(axis=1) * np.exp(top)


def _kanter_log_a(beta: float, u, log_sin_u=None):
    """``log A(u)`` of Kanter's representation ``S = (A(U) / W)^((1 - beta) / beta)``.

    ``A(u) = sin(beta u)^(beta / (1 - beta)) sin((1 - beta) u) / sin(u)^(1 / (1 - beta))``
    increases from ``beta^(beta / (1 - beta)) (1 - beta)`` at ``u = 0+`` to
    infinity at ``u = pi``.  ``log_sin_u`` replaces ``log(sin(u))`` for a
    caller near ``u = pi`` that can form it from ``pi - u``.
    """
    one = 1.0 - beta
    return (
        (beta / one) * np.log(np.sin(beta * u))
        + np.log(np.sin(one * u))
        - (1.0 / one) * (np.log(np.sin(u)) if log_sin_u is None else log_sin_u)
    )


def _kanter_log_a_at(beta: float, off):
    """``log A`` at the angle ``u`` with ``pi - u = pi e^off``, ``off <= 0``.

    Near ``u = pi``, ``log sin(u) = log(pi - u) + log(sin(pi - u) / (pi - u))``
    keeps every digit, even where ``pi - u`` underflows.
    """
    u = -math.pi * np.expm1(off)
    near_pi = math.log(math.pi) + off + np.log(np.sinc(np.exp(off)))
    return _kanter_log_a(beta, u, np.where(off < -1.0, near_pi, np.log(np.sin(u))))


def _tanh_sinh(h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh (Takahasi-Mori) rule on (0, 1) with step h over ``|k| <= n``.

    Each node is given as its distance ``1 / (1 + e^(pi sinh(k h)))`` from the
    upper end, with its log weight.  Every second node, from the first, alone
    is the same rule at step 2h.
    """
    t = h * np.arange(-n, n + 1)
    v = 0.5 * math.pi * np.sinh(t)
    return 1.0 / (1.0 + np.exp(2.0 * v)), np.log(0.25 * math.pi * h * np.cosh(t)) - 2.0 * np.log(np.cosh(v))


# The densities' rule: step 0.02 over |k h| <= 3.2.
_TS_GAP, _TS_LOG_W = _tanh_sinh(0.02, 160)

# The integrand's peak lies near pi - u ~ t x^-beta (stable) or x t^-beta
# (inverse), above e^-1500 for float64 x and t.
_OFF_MIN = -2000.0
_SECTIONS = np.arange(1, 64) / 64.0


def _solve_log_a(beta: float, targets: list[float]) -> np.ndarray:
    """The offsets ``off`` where ``log A`` equals each target, to ``2e-4``.

    ``log A`` falls as ``off`` grows, so four rounds of 64-fold section over
    ``[_OFF_MIN, 0]`` bracket every target at once.
    """
    goal = np.array(targets)[:, None]
    lo = np.full(goal.shape, _OFF_MIN)
    hi = np.zeros(goal.shape)
    rows = np.arange(goal.shape[0])
    for _ in range(4):
        grid = lo + (hi - lo) * _SECTIONS
        i = np.count_nonzero(_kanter_log_a_at(beta, grid) >= goal, axis=1)
        edges = np.hstack([lo, grid, hi])
        lo, hi = edges[rows, i][:, None], edges[rows, i + 1][:, None]
    return (0.5 * (lo + hi)).ravel()


def _zolotarev_density(beta: float, log_y: float, log_front: float) -> float:
    """``exp(log_front) J`` with Zolotarev's ``J = int_0^pi A e^(-A y) du``.

    Both densities are ``J`` times a power of ``x``: the integrand
    ``exp(q - e^q)``, ``q = log A(u) + log y``, is positive and peaks where
    ``q = 0`` (at ``u = 0`` when ``log A(0+) >= -log y``).  Its width there
    shrinks with ``pi - u``, so the integral runs over ``off = log((pi - u)/pi)``,
    split at the peak and cut where ``q`` is 6 above it (the integrand is
    below e^-390 of its peak past that), with tanh-sinh on each piece.  The
    sum is taken in log space, so a value under the float64 range comes out
    as exactly 0.0; any other value whose step-2h estimate differs by more
    than 1e-6 raises NonConvergence.
    """
    one = 1.0 - beta
    log_a0 = (beta / one) * math.log(beta) + math.log(one)
    peak = -log_y
    if peak > log_a0:
        cuts = _solve_log_a(beta, [peak + 6.0, peak])
    else:
        cuts = _solve_log_a(beta, [log_a0 + 6.0])
    ends = np.append(cuts, 0.0)
    lo, hi = ends[:-1, None], ends[1:, None]
    off = hi - (hi - lo) * _TS_GAP
    q = _kanter_log_a_at(beta, off) + log_y
    # du = pi e^off d(off); a piece that the float cuts left empty drops out
    with np.errstate(divide="ignore"):
        f = q - np.exp(np.minimum(q, 700.0)) + _TS_LOG_W + off + np.log(hi - lo)
    top = f.max()
    terms = np.exp(f - top)
    fine = terms.sum()
    val = math.exp(log_front + math.log(math.pi * fine) + top)
    drift = 2.0 * terms[:, ::2].sum() / fine - 1.0
    if val > 0.0 and abs(drift) > 1e-6:
        raise NonConvergence(
            f"stable density quadrature not certified (beta={beta}, log y={log_y:g}): "
            f"step-2h estimate differs by {drift:.1e}"
        )
    return val


def stable_density(beta: float, x: float, t: float) -> float:
    """Density at ``x`` of the one-sided ``beta``-stable subordinator at time ``t``.

    Zolotarev's integral over the angle of Kanter's representation:
    ``g(x) = beta / ((1 - beta) pi x) int_0^pi A(u) y e^(-A(u) y) du`` with
    ``y = (t x^-beta)^(1 / (1 - beta))`` (time scaling ``S(t) = t^(1/beta) S(1)``
    folded into ``y``).  Every term is positive; the quadrature certifies
    itself (see :func:`_zolotarev_density`), and a density under the float64
    range, deep in the left tail, is exactly 0.0.
    """
    if not (0 < beta < 1):
        raise DomainError("stable_density requires beta in (0, 1)")
    if x <= 0 or t <= 0:
        raise DomainError("stable_density requires x > 0 and t > 0")
    log_y = (math.log(t) - beta * math.log(x)) / (1.0 - beta)
    return _zolotarev_density(beta, log_y, math.log(beta / ((1.0 - beta) * math.pi)) - math.log(x))


def inv_stable_density(beta: float, x: float, t: float) -> float:
    """Density at ``x`` of the inverse (first-passage) ``beta``-stable process at ``t``.

    ``E(t) = (t / S(1))^beta`` turns the stable density into
    ``h(x) = (t / beta) x^(-1 - 1/beta) g(t x^(-1/beta))``, the same positive
    integral as :func:`stable_density` with ``y = (x t^-beta)^(1 / (1 - beta))``
    and prefactor ``1 / ((1 - beta) pi x)``.  At ``x = 0`` the closed limit
    ``t^-beta / Gamma(1 - beta)`` is returned.
    """
    if not (0 < beta < 1):
        raise DomainError("inv_stable_density requires beta in (0, 1)")
    if x < 0 or t <= 0:
        raise DomainError("inv_stable_density requires x >= 0 and t > 0")
    if x == 0.0:
        return t ** (-beta) * _recip_gamma(1.0 - beta)
    log_y = (math.log(x) - beta * math.log(t)) / (1.0 - beta)
    return _zolotarev_density(beta, log_y, -math.log((1.0 - beta) * math.pi) - math.log(x))


class _LogMRule(NamedTuple):
    """Trapezoid rule for ``R = log M``, M Mittag-Leffler distributed.

    ``E f(R) ~ sum_i exp(log_w[i]) f(r[i])``; ``even`` is 1.0 at the nodes of
    the same rule at twice the step and 0.0 elsewhere, and ``drift`` is each
    weight's relative step-2h drift over the angle.  Every array is read-only.
    """

    r: np.ndarray
    log_w: np.ndarray
    drift: np.ndarray
    even: np.ndarray


# Range and steps of the log M rule.  Its nodes run from r = -55, which
# leaves exp(-x M) its whole left tail up to x ~ 1e7, to 3 + log(40 + 60 e)
# units of e = 1 - beta right of the mode.  The r step is at most 0.2 e at the
# mode, 0.36 e / sqrt(1 + 60 e) where M^60 tilts the right tail, 0.06 from
# r ~ -8 up and 0.25 in the far left tail; the angle step advances q by at
# most 0.25 per node, and by half that over the flat start of A.
_RULE_R_MIN = -55.0
_RULE_MODE_STEP = 0.2
_RULE_TILT_STEP = 0.36
_RULE_BULK_STEP = 0.06
_RULE_TAIL_STEP = 0.25
_RULE_H = 0.25
_RULE_STRETCH = 2.6
_RULE_FLAT = 0.5
_RULE_FLAT_WIDTH = 5.0
_RULE_TOL = 1e-7  # step-2h drift of a certified value: about 1e-14 at step h
_RULE_MOMENT_TOL = 1e-13
_RULE_ANGLES = 1 << 18  # reached at beta ~ 0.9995
_RULE_BLOCK = 8192  # gathered angle values per pass of a rule build


def _rule_angles(beta: float, top: float) -> tuple[np.ndarray, np.ndarray]:
    """``log A`` and the log trapezoid weight of ``du`` at the shared angle nodes.

    The nodes are uniform (step 0.25) in ``g >= 0``, with
    ``sigma = g - 2.5 tanh(g / 5)`` and ``u = pi tanh(asinh(sinh(e sigma) / (e a)) / 2)``,
    ``e = 1 - beta``, ``a = 2.6``.  Near ``u = 0``, where ``A`` is flat but a
    node far right of the mode has its whole integrand, the step in u is
    about ``pi 0.125 / (2 a)``; near ``u = pi``, where ``log A`` grows like
    ``-log(pi - u) / e``, each node advances ``log A`` by about 0.25.  The map
    is odd in g and ``A`` is even in u, so the half-weighted node at 0 keeps
    the rule spectrally accurate there.  The nodes continue until ``log A``
    passes ``top``; ``log A`` is formed from ``log((pi - u) / pi)``, so no
    digit is lost where ``pi - u`` underflows.
    """
    one = 1.0 - beta
    a = _RULE_STRETCH
    # log A ~ (tau + log(sin(beta pi) / pi)) / (1 - beta) with pi - u = pi e^-tau,
    # and tau ~ (1 - beta) sigma - log(2 (1 - beta) a)
    tau = one * top + math.log(math.pi / math.sin(beta * math.pi)) + 1.0
    fold = (1.0 - _RULE_FLAT) * _RULE_FLAT_WIDTH
    size = int((tau + math.log(2.0 * one * a)) / (one * _RULE_H) + fold / _RULE_H) + 2
    if size > _RULE_ANGLES:
        raise NonConvergence(f"the log M rule at beta = {beta} needs more than {_RULE_ANGLES} angle nodes")

    def block(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sig = grid - fold * np.tanh(grid / _RULE_FLAT_WIDTH)
        x = np.sinh(one * sig) / (one * a)
        two_s = np.arcsinh(x)
        soft = np.logaddexp(0.0, two_s)
        off = math.log(2.0) - soft  # log((pi - u) / pi)
        # du/dg = 2 pi e^off sigmoid(2 s) (ds/dsigma) (dsigma/dg), with
        # ds/dsigma = cosh(e sigma) / (2 a sqrt(1 + x^2))
        log_du = (
            math.log(math.pi * _RULE_H / a)
            + off
            + (two_s - soft)
            + np.log(np.cosh(one * sig))
            - 0.5 * np.log1p(x * x)
            + np.log1p(-(1.0 - _RULE_FLAT) * (1.0 - np.tanh(grid / _RULE_FLAT_WIDTH) ** 2))
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            return _kanter_log_a_at(beta, off), log_du

    blocks = [block(_RULE_H * np.arange(i, min(i + _RULE_BLOCK, size))) for i in range(0, size, _RULE_BLOCK)]
    log_a = np.concatenate([b[0] for b in blocks])
    log_du = np.concatenate([b[1] for b in blocks])
    log_du[0] -= math.log(2.0)
    log_a[0] = (beta / one) * math.log(beta) + math.log(one)
    if not (log_a[-1] > top and np.all(np.diff(log_a) > 0)):
        raise NonConvergence(f"the log M rule at beta = {beta} has no increasing angle grid")
    return log_a, log_du


def _rule_nodes(beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes r, log trapezoid weights ``log(dr)`` and the step-2h subset of the r rule.

    The nodes are uniform in v with
    ``r = c + e v - b1 softplus(-v - v0) - b2 softplus(-v - v1)``, ``e = 1 - beta``,
    centred at ``c = -beta log beta - e log e``, where ``q = 0`` at ``u = 0``.
    Right of c the density of R falls like ``exp(-e^((r - c) / e))`` and the
    step is e times the v step; left of it the step widens geometrically over
    the shoulder, is 0.06 from about ``r = -8`` up (so an order-60 factor
    ``M^60 e^(-x M)`` is resolved) and 0.25 in the far left tail, where the
    density is ``e^r / Gamma(1 - beta)``.
    """
    one = 1.0 - beta
    h = min(_RULE_MODE_STEP, _RULE_TILT_STEP / math.sqrt(1.0 + 60.0 * one), _RULE_BULK_STEP / one)
    b1 = max(_RULE_BULK_STEP / h - one, 0.0)
    b2 = (_RULE_TAIL_STEP - _RULE_BULK_STEP) / h
    v0 = math.log(b1 / one) if b1 > one else 0.0
    centre = -beta * math.log(beta) - one * math.log(one)
    v1 = v0 + (8.0 + centre) / (b1 + one)
    # far left, r is linear in v with slope e + b1 + b2
    v_min = (_RULE_R_MIN - centre - b1 * v0 - b2 * v1) / (one + b1 + b2) - 2.0
    steps = np.arange(math.floor(v_min / h), math.ceil((3.0 + math.log(40.0 + 60.0 * one)) / h) + 1)
    v = h * steps
    r = centre + one * v - b1 * np.logaddexp(0.0, -v - v0) - b2 * np.logaddexp(0.0, -v - v1)
    dr = one + b1 / (1.0 + np.exp(v + v0)) + b2 / (1.0 + np.exp(v + v1))
    keep = r >= _RULE_R_MIN
    return r[keep], np.log(h * dr[keep]), (steps[keep] % 2 == 0).astype(float)


@lru_cache(maxsize=16)
def _log_m_rule(beta: float) -> _LogMRule:
    """The certified rule for ``R = log M``, built on first use per beta.

    ``M = (W / A(U))^(1 - beta)`` has ``E exp(-x M) = E_beta(-x)``; R has the
    density ``rho(r) = J / ((1 - beta) pi)`` with Zolotarev's
    ``J = int_0^pi exp(q - e^q) du``, ``q = log A(u) + r / (1 - beta)``.  Each
    node's J is a trapezoid sum over one angle grid shared by all nodes
    (:func:`_rule_angles`), restricted to the band that holds all of it but
    e^-50: below the band each term is under e^-50 of the term at ``q = 0``,
    and above it ``e^q`` exceeds its least value by more than 54.  The rule is refused with NonConvergence unless
    its mass and mean, ``1`` and ``1 / Gamma(1 + beta)``, hold to 1e-13 and
    their step-2h drifts, over r and over the angle, stay under 1e-7.
    """
    one = 1.0 - beta
    r, log_dr, even = _rule_nodes(beta)
    c = r / one
    log_a, log_du = _rule_angles(beta, math.log(55.0) - c[0])
    base = log_a + log_du  # log of a term, less r / (1 - beta), while q << 0
    j_mode = np.minimum(np.searchsorted(log_a, -c), log_a.size - 1)
    j_lo = np.searchsorted(np.maximum.accumulate(base), base[j_mode] - 50.0)
    j_hi = np.searchsorted(log_a, np.log(np.exp(np.maximum(log_a[0] + c, 0.0)) + 54.0) - c)
    width = int((j_hi - j_lo).max())
    rows = max(1, _RULE_BLOCK // width)
    log_j = np.empty(r.size)
    drift = np.empty(r.size)
    for b in range(0, r.size, rows):
        lo, hi = j_lo[b : b + rows, None], j_hi[b : b + rows, None]
        idx = lo + np.arange(width)
        outside = idx >= hi
        np.minimum(idx, log_a.size - 1, out=idx)
        q = log_a[idx]
        q += c[b : b + rows, None]
        f = np.exp(np.minimum(q, 700.0))
        np.subtract(q, f, out=f)
        f += log_du[idx]
        f[outside] = -np.inf
        top = f.max(axis=1)
        f -= top[:, None]
        terms = np.exp(f, out=f)
        fine = terms.sum(axis=1)
        # the nodes of even global index alone are the rule at step 2h
        coarse = np.where(lo[:, 0] % 2 == 0, terms[:, ::2].sum(axis=1), terms[:, 1::2].sum(axis=1))
        drift[b : b + rows] = np.abs(2.0 * coarse / fine - 1.0)
        log_j[b : b + rows] = top + np.log(fine)
    log_w = log_j - math.log(one * math.pi) + log_dr
    w = np.exp(log_w)
    wm = w * np.exp(r)
    mass, mean = w.sum(), wm.sum() * math.gamma(1.0 + beta)
    misses = [abs(mass - 1.0), abs(mean - 1.0)]
    drifts = [
        abs(2.0 * (w @ even) / w.sum() - 1.0),
        abs(2.0 * (wm @ even) / wm.sum() - 1.0),
        w @ drift / w.sum(),
        wm @ drift / wm.sum(),
    ]
    if max(misses) > _RULE_MOMENT_TOL or max(drifts) > _RULE_TOL:
        raise NonConvergence(
            f"the log M rule at beta = {beta} is not certified: mass and mean off by "
            f"{misses[0]:.1e} and {misses[1]:.1e}, step-2h drift {max(drifts):.1e}"
        )
    rule = _LogMRule(r, log_w, drift, even)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _ml_log_laplace(beta: float, orders, x: float, log_scale: float = 0.0) -> np.ndarray:
    """``log(s^n E_beta^(n)(-x))`` for each order n, with ``s = exp(log_scale)``.

    ``E_beta^(n)(-x) = E[M^n exp(-x M)]`` for ``x >= 0``: one pass over the
    nodes of the cached rule for ``log M`` (:func:`_log_m_rule`) gives every
    order as a sum of positive terms, formed in log space so that neither
    ``s^n`` nor the sum leaves the float64 range.  A value is certified by
    the rule at twice the step over r and over the angle (drift under 1e-7)
    and by its end terms (under 1e-16 of the sum); otherwise NonConvergence
    is raised.
    """
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"Mittag-Leffler argument -x needs a finite x >= 0, not {x}")
    rule = _log_m_rule(beta)
    expo = np.multiply.outer(np.asarray(orders, dtype=float), rule.r + log_scale)
    expo += rule.log_w - x * np.exp(rule.r)
    top = expo.max(axis=1)
    expo -= top[:, None]
    terms = np.exp(expo, out=expo)
    total = terms.sum(axis=1)
    drift = np.maximum(np.abs(2.0 * (terms @ rule.even) / total - 1.0), terms @ rule.drift / total)
    ends = np.maximum(terms[:, 0], terms[:, -1]) / total
    if np.any(drift > _RULE_TOL) or np.any(ends > 1e-16):
        worst = int(np.argmax(np.maximum(drift / _RULE_TOL, ends / 1e-16)))
        raise NonConvergence(
            f"Mittag-Leffler derivative of order {orders[worst]} at beta = {beta}, "
            f"z = {-x:g} is not certified: step-2h drift {drift[worst]:.1e}, "
            f"end terms {ends[worst]:.1e} of the sum"
        )
    return top + np.log(total)


# The w rule of the inverse tempered stable clock: tanh-sinh at step 0.06 on
# each side of the exponent's peak, out to where it has fallen by 40 (the tail
# past that cut is under e^-40 of the piece, as the exponent is concave).  A
# node of the log M rule whose peak value times its w range is e^-50 below the
# largest one is left out: together they are about 1e-17 of the sum at most.
_W_GAP, _W_LOG_W = _tanh_sinh(0.06, 53)
_W_DROP = 40.0
_W_KEEP = 50.0
_W_NEWTON = 3


def _tempered_w_integral(beta: float, nu: float, x: float, t: float, lo: float, hi: float) -> float:
    """``log E_M[x a int_lo^hi exp(c a w - nu t w^(1/beta)) dw]``, ``a = t^beta M``, ``c = nu^beta - x``.

    The outer expectation is the cached rule for ``log M``
    (:func:`_log_m_rule`).  At each of its nodes the exponent is concave in
    w and peaks at ``w_m = (beta c a / (nu t))^(beta / (1 - beta))`` when
    ``c > 0``, at ``w = 0`` otherwise.  Clipped to ``[lo, hi]``, the peak
    splits the range into two pieces, each cut where the exponent has fallen
    by 40 (found by Newton's method) and covered by tanh-sinh nodes that
    cluster at the peak.  The sum is formed in log space and certified as
    :func:`_ml_log_laplace` certifies its values: by the rules at twice the
    step over r, over the angle and over w (drift under 1e-7) and by a bound
    on its end nodes in r (under 1e-16 of the sum); otherwise NonConvergence
    is raised.
    """
    rule = _log_m_rule(beta)
    p = 1.0 / beta
    b = nu * t
    log_a = beta * math.log(t) + rule.r
    front = rule.log_w + math.log(x) + log_a

    def phi(w, ca):
        return ca * w - b * np.exp(p * np.log(w))

    def slope(w, ca):
        return ca - p * b * np.exp((p - 1.0) * np.log(w))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ca = (nu**beta - x) * np.exp(log_a)
        log_peak = beta / (1.0 - beta) * np.log(np.maximum(ca, 0.0) / (p * b))
        m = np.clip(np.exp(np.minimum(log_peak, _LOG_HUGE)), lo, hi)
        top, s = phi(m, ca), slope(m, ca)
        quad = np.sqrt(2.0 * _W_DROP / (p * (p - 1.0) * b * np.exp((p - 2.0) * np.log(m))))
        quad = np.where(quad > 0.0, quad, np.inf)
        steep = np.exp(beta * np.logaddexp(p * np.log(m), math.log(_W_DROP / b))) - m
        # a piece below the peak where m > lo and one above it where m < hi,
        # each starting from the nearest of the tangent, quadratic and (above
        # the peak) nu t w^(1/beta) estimates of its cut
        below, above = np.flatnonzero(m > lo), np.flatnonzero(m < hi)
        node = np.concatenate([below, above])
        side = np.repeat([-1.0, 1.0], [below.size, above.size])
        reach = np.minimum(quad[node], np.where(side * s[node] < 0.0, _W_DROP / np.abs(s[node]), np.inf))
        reach[below.size :] = np.minimum(reach[below.size :], steep[above])
        cut = np.maximum(m[node] + side * reach, lo)
        # the exponent is concave, so one Newton step lands outside the cut
        # and every further one moves towards it
        ca_n, top_n = ca[node], top[node]
        for _ in range(_W_NEWTON):
            cut = np.maximum(cut - (phi(cut, ca_n) - top_n + _W_DROP) / slope(cut, ca_n), lo)
        span = np.minimum(cut, hi) - m[node]
        bound = front + top + np.log(np.bincount(node, np.abs(span), m.size))
        shift = bound.max()  # at least every log term below
        if not math.isfinite(shift):
            raise NonConvergence(
                f"inverse tempered stable clock at beta = {beta}, nu = {nu}, t = {t:g}, x = {x:g}: "
                "the integrand leaves the float64 range"
            )
        keep = (bound[node] >= shift - _W_KEEP) & (span != 0.0)
        node, span = node[keep], span[keep]
        # phi(w) + log weights, formed in place: fresh temporaries of this
        # size made the whole transform about 1.7 times slower
        w = np.multiply.outer(span, _W_GAP)
        w += m[node, None]
        power = np.log(w)
        power *= p
        power += math.log(b)
        np.exp(power, out=power)
        w *= ca[node, None]
        w -= power
        w += (front[node] + np.log(np.abs(span)) - shift)[:, None]
        w += _W_LOG_W
    terms = np.exp(w, out=w)
    pieces = terms.sum(axis=1)
    total = pieces.sum()
    per_node = np.bincount(node, pieces, rule.r.size)
    drift = max(
        abs(2.0 * terms[:, ::2].sum() / total - 1.0),
        abs(2.0 * (per_node @ rule.even) / total - 1.0),
        per_node @ rule.drift / total,
    )
    log_total = shift + math.log(total)
    ends = math.exp(max(bound[0], bound[-1]) - log_total)
    if not (drift <= _RULE_TOL and ends <= 1e-16):
        raise NonConvergence(
            f"inverse tempered stable clock at beta = {beta}, nu = {nu}, t = {t:g}, x = {x:g} "
            f"is not certified: step-2h drift {drift:.1e}, end terms {ends:.1e} of the sum"
        )
    return log_total


def _inverse_tempered_laplace(beta: float, nu: float, x: float, t: float) -> float:
    """``E exp(-x E(t))`` for E the inverse of the subordinator with Laplace
    exponent ``(s + nu)^beta - nu^beta``, ``0 < beta < 1``, ``nu > 0``, ``x > 0``.

    The Esscher change of measure gives ``P(E(t) <= e) = P(D(e) >= t) =
    E[exp(nu^beta e - nu S(e)); S(e) >= t]``, S beta-stable, with
    ``S(e) = e^(1/beta) S(1)`` and ``M = S(1)^-beta`` Mittag-Leffler
    distributed.  Integrating ``x e^(-x e)`` against it and putting
    ``e = t^beta M w`` gives the transform as the positive integral hi of
    :func:`_tempered_w_integral` over w in (1, inf), and ``1 - hi`` as lo, the
    same integral over (0, 1).  lo ranges over a bounded ``e <= t^beta M``
    and is accurate where x is small; hi keeps its relative accuracy where the
    transform is small.  So ``1 - lo`` is returned when ``lo <= 1/2`` and hi
    otherwise.  The untempered transform ``E_beta(-x t^beta)`` is an upper
    bound (tempering only thins the subordinator's jumps), so lo is skipped
    where that bound is already under 1/2.
    """
    z = x * t**beta
    # past z = 1e3 the bound is under 1/2 at every beta
    if z < 1e3 and _ml_log_laplace(beta, [0], z)[0] > -math.log(2.0):
        lo = math.exp(_tempered_w_integral(beta, nu, x, t, 0.0, 1.0))
        if lo <= 0.5:
            return 1.0 - lo
    return math.exp(_tempered_w_integral(beta, nu, x, t, 1.0, math.inf))


def caputo_derivative(g: GridFunction, beta: float, at_index: int) -> float:
    """Caputo fractional derivative of order ``beta`` by the L1 scheme.

    Piecewise-linear reconstruction on a uniform grid gives

        D^beta g(t_n) ~ h^-beta / Gamma(2 - beta)
                        * sum_i (g_{i+1} - g_i) [(n-i)^(1-beta) - (n-i-1)^(1-beta)]

    with O(h^(2-beta)) error for smooth ``g``.  ``beta = 1`` degenerates to the
    backward difference.
    """
    if not (0 < beta <= 1):
        raise DomainError("caputo_derivative requires beta in (0, 1]")
    n = int(at_index)
    if n >= g.times.size:
        raise DomainError("at_index is outside the grid")
    if n < 2:
        raise GridTooCoarse("caputo_derivative needs at_index >= 2")
    h = g.uniform_step()
    diffs = np.diff(g.values[: n + 1])
    back = np.arange(n, 0, -1, dtype=float)  # n-i for i = 0..n-1
    # (back - 1)^(1-beta) must be 0 at back = 1 even when beta = 1 (0^0 is 1
    # in numpy, which would zero out the backward-difference limit)
    prev = np.where(back > 1.0, (back - 1.0) ** (1.0 - beta), 0.0)
    weights = back ** (1.0 - beta) - prev
    return float(np.dot(diffs, weights) / (math.gamma(2.0 - beta) * h**beta))


def tempered_caputo_derivative(
    g: GridFunction, beta: float, nu: float, at_index: int
) -> float:
    """Caputo-type derivative of order ``beta`` with exponential tempering ``nu``.

    Defined so that its Laplace transform is exactly
    ``((s + nu)^beta - nu^beta) (g^(s) - g(0)/s)``: equivalently

        D^(beta,nu) g(t) = e^(-nu t) D^beta [e^(nu u) (g(u) - g(0))](t)
                           - nu^beta (g(t) - g(0)),

    where D^beta is the Caputo derivative above.  Constants map to zero and
    ``nu = 0`` reduces to :func:`caputo_derivative`.
    """
    if nu < 0:
        raise DomainError("tempering rate nu must be nonnegative")
    n = int(at_index)
    if n >= g.times.size:
        raise DomainError("at_index is outside the grid")
    if n < 2:
        raise GridTooCoarse("tempered_caputo_derivative needs at_index >= 2")
    if nu == 0.0:
        return caputo_derivative(g, beta, n)
    shifted = GridFunction(g.times, np.exp(nu * g.times) * (g.values - g.values[0]))
    core = caputo_derivative(shifted, beta, n)
    t_n = float(g.times[n])
    return math.exp(-nu * t_n) * core - nu**beta * (float(g.values[n]) - float(g.values[0]))


def _recip_gamma(x: float) -> float:
    """1/Gamma(x), zero at the poles."""
    sgn = gammasgn(x)
    if sgn == 0.0:
        return 0.0
    return float(sgn * np.exp(-gammaln(x)))


def _signed_exp(log_mag: float, sign: float) -> float:
    if log_mag > _LOG_HUGE:
        raise NonConvergence("series term overflows float64")
    if sign == 0.0 or log_mag == -math.inf:
        return 0.0
    return sign * math.exp(log_mag)
