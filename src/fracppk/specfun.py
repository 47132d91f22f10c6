"""Special functions for fractional counting models.

Three-parameter Mittag-Leffler series, Mittag-Leffler derivatives, and the
one-sided stable density and its inverse-process density.

The Mittag-Leffler series are evaluated in log space term by term, with
``math.lgamma`` and the sign of Gamma by parity, until the terms fall below
the float64 sum's last bit.  The float pass bounds its own error; a sum whose
bound exceeds 1e-11 of it is transparently re-summed in arbitrary precision
sized to the peak term, in an mpmath context of its own (mpmath is imported
there and nowhere else), so results stay accurate across the admissible
window ``|z| <= 50`` and concurrent calls share no precision.  The series
policy is fixed: a relative tail under 1e-12 within 2,000 terms.
Arguments past the window, or cancellation beyond what escalation can
absorb, raise :class:`~fracppk.errors.DomainError` /
:class:`~fracppk.errors.NonConvergence` instead of silently losing digits.

The time-fractional laws of :mod:`fracppk.processes` do not sum the series.
They read ``E_beta^(n)(-x) = E[M^n exp(-x M)]``, M Mittag-Leffler
distributed, from one trapezoid rule in ``log M`` per beta, float64 only,
every term positive, built on first use and kept read-only in a bounded
cache.  Its weights take two routes: in the left tail, ``M <= 0.05``, the
M-Wright series of the density, certified by a reflection bound on the terms
it drops; elsewhere Zolotarev's integral over Kanter's angle, with ``log A``
formed without terms of size ``1 / (1 - beta)`` (:func:`_kanter_log_a_at`),
certified by the angle rule at twice the step.  The whole rule is certified
by its mass and mean and by the rule at twice the step in ``log M``
(NonConvergence otherwise); it is refused above beta of about 0.99991.
:func:`ml_derivatives` reads the same rule on the negative axis.  The
stable and inverse-stable densities are the density of ``log M`` at one
point, read as one node of that rule on its cached angle grid (finer
grids, cached the same way, where the rule's step leaves a value
uncertified; the value's own band of the grid past the rule's cap).  The
Laplace transform of the inverse tempered stable clock reads no rule: it is
a closed-form residue plus one positive integral over the branch cut of its
transform in t, on tanh-sinh and exp-sinh nodes, certified the same way
(:func:`_inverse_tempered_laplace`).  The series functions stay public as
the independent cross-check.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .combinatorics import N_CAP
from .errors import DomainError, NonConvergence, _count, _index, _nonnegative, _positive, _real

__all__ = [
    "mittag_leffler",
    "prabhakar_ml",
    "ml_derivative",
    "ml_derivatives",
    "stable_density",
    "inv_stable_density",
]

_LOG_HUGE = 700.0  # exp() overflow threshold in float64
_TINY = 1e-290

# Alternating Mittag-Leffler style series cancel.  The float64 pass bounds its
# own error: the rounding of each term, whose log magnitude is off by about
# eps times the magnitudes it is formed from (exp turns that into a relative
# error), the rounding of each partial sum, and the tail past the last term.
# When the bound exceeds these targets, the sum is redone in arbitrary
# precision sized to the peak term.
_EPS = 2.0**-52
_ESCALATE_REL = 1e-11
_ESCALATE_ABS = 1e-18
_LN10 = math.log(10.0)

# The series' policy: two terms in a row under 1e-12 of the sum within 2,000
# terms (the float Mittag-Leffler pass then goes on, within that cap, until
# two terms fall under the float64 resolution of the sum), for |z| <= 50.
_SERIES_REL_TOL = 1e-12
_SERIES_TERMS = 2000
_SERIES_Z_CAP = 50.0


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
    ~30 digits of headroom.  rgamma maps Gamma poles to exact zeros.

    The sum runs in a context of its own, so concurrent calls never share or
    change a global precision.  The Gamma argument ``a j + b`` is formed in
    mp arithmetic: rounding it to float64 perturbs each coefficient by
    ~psi(a j + b) (a j) eps, which the peak term amplifies far beyond the
    cancelled sum.
    """
    import mpmath  # only the escalation needs arbitrary precision

    ctx = mpmath.MPContext()
    ctx.dps = _rescue_dps(peak_log)
    zz = ctx.mpf(z)
    aa = ctx.mpf(a)
    bb = ctx.mpf(b)
    coef = ctx.mpf(1)  # (c)_j / j!
    power = ctx.mpf(1)
    total = ctx.mpf(0)
    tol = ctx.mpf(10) ** (-25)
    floor = ctx.mpf(10) ** (-320)
    small = 0
    for j in range(cap):
        term = coef * power * ctx.rgamma(aa * j + bb)
        total += term
        if abs(term) <= tol * max(abs(total), floor):
            small += 1
            if small >= 2:
                return float(total)
        else:
            small = 0
        coef *= ctx.mpf(c + j) / (j + 1)
        power *= zz
    raise NonConvergence(f"series for ({a}, {b}, {c}, {z}) needs more than {cap} terms")


def _check_z(z: float) -> float:
    x = _real(z)
    if not abs(x) <= _SERIES_Z_CAP:
        raise DomainError(
            f"|z| <= {_SERIES_Z_CAP:g} is the admissible window, not z = {z!r}; "
            "the alternating series loses too many digits past it"
        )
    return x


def mittag_leffler(a: float, b: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function ``sum_j z^j / Gamma(a j + b)``.

    Parameters
    ----------
    a : float
        Series index scale, must be positive.
    b : float
        Offset parameter; poles of Gamma are handled (their terms vanish).
    z : float
        Argument with ``|z| <= 50``.

    Returns
    -------
    float
    """
    return prabhakar_ml(a, b, 1.0, z)


def prabhakar_ml(a: float, b: float, c: float, z: float) -> float:
    """Three-parameter (Prabhakar) Mittag-Leffler function.

    ``sum_j (c)_j z^j / (Gamma(a j + b) j!)`` with the rising factorial
    ``(c)_j``.  For ``c = 0`` only the ``j = 0`` term survives, giving
    ``1/Gamma(b)``; for ``c = 1`` it reduces to :func:`mittag_leffler`.
    """
    a, b, c = _positive("a", a), _real(b), _nonnegative("c", c)
    if math.isnan(b):
        raise DomainError("prabhakar_ml requires a number b")
    z = _check_z(z)
    if c == 0.0 or z == 0.0:
        return _recip_gamma(b)

    log_az = math.log(abs(z))
    sgn_z = 1.0 if z > 0 else -1.0
    lg_c = math.lgamma(c)
    total = 0.0
    peak = -math.inf
    noise = 0.0  # the float sum's rounding bound, in units of eps
    small = tiny = 0  # consecutive terms under rel_tol and under eps of the sum
    for j in range(_SERIES_TERMS):
        # (c)_j / j! = Gamma(c + j) / (Gamma(c) Gamma(j + 1)), positive for c > 0
        lg_cj, lg_j = math.lgamma(c + j), math.lgamma(j + 1.0)
        lg_ab, sgn_ab = _log_gamma_sign(a * j + b)
        log_mag = lg_cj - lg_c - lg_j + j * log_az - lg_ab
        peak = max(peak, log_mag)
        term = _signed_exp(log_mag, sgn_ab * sgn_z**j)
        total += term
        if term != 0.0:
            noise += abs(term) * (2.0 + abs(lg_cj) + abs(lg_c) + abs(lg_j) + j * abs(log_az) + abs(lg_ab))
        noise += abs(total)
        scale = max(abs(total), _TINY)
        small = small + 1 if abs(term) <= _SERIES_REL_TOL * scale else 0
        tiny = tiny + 1 if abs(term) <= _EPS * scale else 0
        if small >= 2 and tiny >= 2:
            break
    if small < 2:
        raise NonConvergence(f"prabhakar_ml({a}, {b}, {c}, {z}) needs more than {_SERIES_TERMS} terms")
    # once the terms fall off, the tail past the last one is at most about its size
    if _EPS * noise + abs(term) > max(_ESCALATE_REL * abs(total), _ESCALATE_ABS):
        return _prabhakar_mp(a, b, c, z, peak, 4 * _SERIES_TERMS)
    return total


def ml_derivative(n: int, beta: float, z: float) -> float:
    """n-th derivative of the one-parameter Mittag-Leffler function at ``z``.

    The order is capped at 60, matching the count cap of the process layer.
    One order of :func:`ml_derivatives`.
    """
    return float(ml_derivatives([n], beta, z)[0])


def ml_derivatives(orders, beta: float, z: float) -> np.ndarray:
    """Mittag-Leffler derivatives of each of ``orders`` at one argument ``z``.

    On the negative axis ``E_beta^(n)(z) = E[M^n exp(z M)]``, M Mittag-Leffler
    distributed: one pass of the cached rule for ``log M``
    (:func:`_ml_log_laplace`) gives every order as a sum of positive terms,
    certified or refused with NonConvergence, for any ``z <= 0``.  At
    ``beta = 1`` every derivative is ``e^z``, and at ``z = 0`` it is
    ``n! / Gamma(beta n + 1)``.  For ``0 < z <= 50`` the power series
    ``sum_m (n+m)! / (m! Gamma(beta (n+m) + 1)) z^m`` has positive terms only
    and is summed in float64 over 2,000 terms; a tail it leaves above 1e-12
    of the sum raises NonConvergence.
    """
    beta = _index("beta", beta, one=True)
    checked = [_count("derivative order", n, 0, N_CAP) for n in orders]
    if not _real(z) <= 0.0:
        z = _check_z(z)
    if beta == 1.0:
        return np.full(len(checked), math.exp(z))
    if z == 0.0:
        return np.exp([math.lgamma(m + 1.0) - math.lgamma(beta * m + 1.0) for m in checked])
    if z < 0.0:
        return np.exp(_ml_log_laplace(beta, checked, -z))
    # log-concave positive terms: the tail past the last one is at most
    # last * ratio / (1 - ratio), with ratio the last term over the one before
    size = max(checked, default=0) + _SERIES_TERMS
    log_fact = np.array([math.lgamma(q + 1.0) for q in range(size)])
    log_coef = log_fact - [math.lgamma(beta * q + 1.0) for q in range(size)]  # log(q! / Gamma(beta q + 1))
    m = np.arange(_SERIES_TERMS)
    log_terms = log_coef[np.array(checked, dtype=int)[:, None] + m] - log_fact[m] + m * math.log(z)
    top = log_terms.max(axis=1)
    log_ratio = log_terms[:, -1] - log_terms[:, -2]
    next_term = np.exp(log_terms[:, -1] - top + log_ratio)  # relative to the largest
    converged = (log_ratio < 0.0) & (next_term <= _SERIES_REL_TOL * -np.expm1(log_ratio))
    if np.any(top > _LOG_HUGE) or not np.all(converged):
        raise NonConvergence(f"ml_derivative at beta = {beta}, z = {z} needs more than {_SERIES_TERMS} terms")
    return np.exp(log_terms - top[:, None]).sum(axis=1) * np.exp(top)


def _kanter_log_a(beta: float, u):
    """``log A(u)`` of Kanter's representation ``S = (A(U) / W)^((1 - beta) / beta)``.

    ``A(u) = sin(beta u)^(beta / (1 - beta)) sin((1 - beta) u) / sin(u)^(1 / (1 - beta))``
    increases from ``beta^(beta / (1 - beta)) (1 - beta)`` at ``u = 0+`` to
    infinity at ``u = pi``.  This is the samplers' form: ``u`` is an array,
    left unchanged; the sum is formed in two buffers, term by term in the
    order written.  Near beta = 1 its terms of size ``1 / (1 - beta)`` cancel,
    which a draw does not see; the log M rule reads :func:`_kanter_log_a_at`.
    """
    one = 1.0 - beta
    out = np.multiply(beta, u)
    np.log(np.sin(out, out=out), out=out)
    out *= beta / one
    part = np.multiply(one, u)
    out += np.log(np.sin(part, out=part), out=part)
    out -= np.multiply(1.0 / one, np.log(np.sin(u, out=part), out=part), out=part)
    return out


def _kanter_log_a0(beta: float) -> float:
    """``log A(0+) = (beta / (1 - beta)) log beta + log(1 - beta)``, the least value of ``log A``."""
    return beta / (1.0 - beta) * math.log(beta) + math.log(1.0 - beta)


def _kanter_log_a_at(beta: float, off):
    """``log A`` at the angle ``u`` with ``pi - u = pi e^off``, ``off < 0``, without cancellation.

    ``sin(beta u) = sin(u) (1 + y)`` with ``y = -2 sin(e u / 2)^2 - cot(u) sin(e u)``,
    ``e = 1 - beta``, so ``log A = (beta / e) log1p(y) + log sin(e u) - log sin(u)``:
    no term of size ``1 / e`` is formed, and ``log A`` keeps its digits up to
    beta = 1.  Where ``off < -1``, ``sin u`` and ``cos u`` are formed from ``pi - u``,
    and so is ``sin(e u) = sin(pi - u + beta u)`` where ``e u > pi / 2`` (only
    below beta = 0.5), which the rounding of ``u`` would otherwise swamp.
    """
    one = 1.0 - beta
    u = -math.pi * np.expm1(off)
    near = off < -1.0
    v = np.where(near, math.pi * np.exp(off), u)  # pi - u near pi, else u
    sin_u, cos_u = np.sin(v), np.where(near, -1.0, 1.0) * np.cos(v)
    eu = one * u
    half, sin_eu = np.sin(0.5 * eu), np.sin(np.where(near & (eu > 0.5 * math.pi), v + beta * u, eu))
    y = -2.0 * half * half - cos_u / sin_u * sin_eu
    return beta / one * np.log1p(y) + np.log(sin_eu) - np.log(sin_u)


def stable_density(beta: float, x: float, t: float) -> float:
    """Density at ``x`` of the one-sided ``beta``-stable subordinator at time ``t``.

    ``M = t S(t)^-beta`` is Mittag-Leffler distributed, so
    ``g(x) = beta rho(r) / x`` with ``rho`` the density of ``R = log M`` at
    ``r = log(t x^-beta)``, read as one node of the log M rule
    (:func:`_log_m_density`).  A density under the float64 range, deep in the
    left tail, is exactly 0.0; one above it raises DomainError.
    """
    beta, x, t = _index("beta", beta), _positive("x", x), _positive("t", t)
    return _log_m_density(beta, math.log(t) - beta * math.log(x), math.log(beta) - math.log(x))


def inv_stable_density(beta: float, x: float, t: float) -> float:
    """Density at ``x`` of the inverse (first-passage) ``beta``-stable process at ``t``.

    ``E(t) = t^beta M``, M Mittag-Leffler distributed, so
    ``h(x) = rho(r) / x`` with ``rho`` the density of ``R = log M`` at
    ``r = log(x t^-beta)`` (:func:`_log_m_density`).  At ``x = 0`` the closed
    limit ``t^-beta / Gamma(1 - beta)`` is returned.  A density under the
    float64 range, deep in the right tail, is exactly 0.0; one above it
    raises DomainError.
    """
    beta, x, t = _index("beta", beta), _nonnegative("x", x), _positive("t", t)
    if x == 0.0:
        return _finite_exp(-beta * math.log(t) - math.lgamma(1.0 - beta))
    return _log_m_density(beta, math.log(x) - beta * math.log(t), -math.log(x))


def _finite_exp(log_val: float) -> float:
    """``exp(log_val)``; a value past the float64 range raises DomainError."""
    try:
        return math.exp(log_val)
    except OverflowError:
        raise DomainError(f"the density e^{log_val:.6g} exceeds the float64 range") from None


class _LogMRule(NamedTuple):
    """Trapezoid rule for ``R = log M``, M Mittag-Leffler distributed.

    ``E f(R) ~ sum_i exp(log_w[i]) f(r[i])``; ``drift`` is each weight's
    relative step-2h drift over the angle.  Every array is read-only.
    """

    r: np.ndarray
    log_w: np.ndarray
    drift: np.ndarray


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
_RULE_ANGLES = 1 << 18  # reached at beta ~ 0.99991
_RULE_SERIES_CUT = 0.05  # the left tail, M <= 0.05, is read from the M-Wright series
_RULE_SERIES_TERMS = 20
_RULE_SERIES_REST = 1e-17
_RULE_BLOCK = 8192  # over the widest band: rows per pass of a rule build
_DENSITY_LEVELS = 4  # halvings of the angle step a density value may take
_SEGMENT_STRIDE = 256  # node stride of the search for one value's band
_SEGMENT_NODES = 1 << 20  # nodes a band search may read: beta up to about 1 - 4e-8
_LOG_UNDER = -1075.0 * math.log(2.0)  # a positive value under e^this rounds to 0.0


class _AngleGrid(NamedTuple):
    """``log A``, the log trapezoid weight of ``du`` and the running maximum of
    their sum at consecutive nodes of one angle grid, from node ``start`` on."""

    log_a: np.ndarray
    log_du: np.ndarray
    reach: np.ndarray
    start: int


def _angle_size(beta: float, top: float) -> int:
    """Nodes of the step-0.25 angle grid, by the asymptote of ``log A`` near
    ``u = pi``, until ``log A`` passes ``top``."""
    one = 1.0 - beta
    # log A ~ (tau + log(sin(beta pi) / pi)) / (1 - beta) with pi - u = pi e^-tau,
    # and tau ~ (1 - beta) sigma - log(2 (1 - beta) a)
    tau = one * top + math.log(math.pi / math.sin(beta * math.pi)) + 1.0
    fold = (1.0 - _RULE_FLAT) * _RULE_FLAT_WIDTH
    return int((tau + math.log(2.0 * one * _RULE_STRETCH)) / (one * _RULE_H) + fold / _RULE_H) + 2


def _angle_nodes(beta: float, level: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log A`` and the log trapezoid weight of ``du`` at the nodes ``idx``.

    The nodes are uniform (step ``h = 0.25 / 2^level``) in ``g >= 0``, with
    ``sigma = g - 2.5 tanh(g / 5)`` and ``u = pi tanh(asinh(sinh(e sigma) / (e a)) / 2)``,
    ``e = 1 - beta``, ``a = 2.6``.  Near ``u = 0``, where ``A`` is flat but a
    node far right of the mode has its whole integrand, the step in u is
    about ``pi h / (4 a)``; near ``u = pi``, where ``log A`` grows like
    ``-log(pi - u) / e``, each node advances ``log A`` by about h.  The map
    is odd in g and ``A`` is even in u, so the half-weighted node at 0 keeps
    the rule spectrally accurate there.  ``log A`` is formed from
    ``log((pi - u) / pi)`` (:func:`_kanter_log_a_at`).
    Node ``2 i`` at one level is node ``i`` at the level below, bit for bit.
    """
    one = 1.0 - beta
    a = _RULE_STRETCH
    h = _RULE_H / (1 << level)
    fold = (1.0 - _RULE_FLAT) * _RULE_FLAT_WIDTH
    grid = h * idx
    sig = grid - fold * np.tanh(grid / _RULE_FLAT_WIDTH)
    x = np.sinh(one * sig) / (one * a)
    two_s = np.arcsinh(x)
    soft = np.logaddexp(0.0, two_s)
    off = math.log(2.0) - soft  # log((pi - u) / pi)
    # du/dg = 2 pi e^off sigmoid(2 s) (ds/dsigma) (dsigma/dg), with
    # ds/dsigma = cosh(e sigma) / (2 a sqrt(1 + x^2))
    log_du = (
        math.log(math.pi * h / a)
        + off
        + (two_s - soft)
        + np.log(np.cosh(one * sig))
        - 0.5 * np.log1p(x * x)
        + np.log1p(-(1.0 - _RULE_FLAT) * (1.0 - np.tanh(grid / _RULE_FLAT_WIDTH) ** 2))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = _kanter_log_a_at(beta, off)
    if idx[0] == 0:
        log_du[0] -= math.log(2.0)
        log_a[0] = _kanter_log_a0(beta)
    return log_a, log_du


def _blocked_nodes(beta: float, size: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_angle_nodes` at level 0 at the nodes ``stride i``, ``i < size``,
    in blocks of ``_RULE_BLOCK`` nodes."""
    blocks = [_angle_nodes(beta, 0, stride * np.arange(i, min(i + _RULE_BLOCK, size)))
              for i in range(0, size, _RULE_BLOCK)]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _checked_grid(beta: float, log_a: np.ndarray, log_du: np.ndarray, top: float, start: int) -> _AngleGrid:
    """The read-only grid of these nodes; NonConvergence unless ``log A``
    increases and passes ``top``."""
    if not (log_a[-1] > top and np.all(np.diff(log_a) > 0)):
        raise NonConvergence(f"the angle grid at beta = {beta} does not increase past log A = {top:g}")
    grid = _AngleGrid(log_a, log_du, np.maximum.accumulate(log_a + log_du), start)
    for arr in grid[:3]:
        arr.setflags(write=False)
    return grid


@lru_cache(maxsize=16)
def _angle_grid(beta: float, level: int) -> Optional[_AngleGrid]:
    """The angle grid of :func:`_angle_nodes` at one level, built on first use.

    Level 0 is the grid of the log M rule: its nodes continue until ``log A``
    passes ``log 55 - r0 / (1 - beta)``, r0 the rule's first band node, so it
    holds the band of every ``r >= r0``; it is None where it would pass
    ``_RULE_ANGLES`` nodes (beta above about 0.99991).  Level L > 0 halves the
    step L times over the flat start of ``A`` only, the band of a value at
    ``q0 = 0`` (:func:`_angle_segment`): it holds the band of every value
    right of the mode, the only ones the level-0 step can leave uncertified.
    Every array is read-only.
    """
    if level:
        log_a0 = _kanter_log_a0(beta)
        return _angle_segment(beta, level, -log_a0, log_a0 + math.log(55.0))
    r = _rule_nodes(beta)[0]
    top = math.log(55.0) - r[np.count_nonzero(np.exp(r) <= _RULE_SERIES_CUT)] / (1.0 - beta)
    size = _angle_size(beta, top)
    if size > _RULE_ANGLES:
        return None
    return _checked_grid(beta, *_blocked_nodes(beta, size, 1), top, 0)


@lru_cache(maxsize=16)
def _rule_nodes(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and log trapezoid weights ``log(dr)`` of the r rule, built once
    per beta for a rule and its level-0 angle grid, read-only.

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
    h = min(_RULE_MODE_STEP, _RULE_TILT_STEP / math.sqrt(1.0 + N_CAP * one), _RULE_BULK_STEP / one)
    b1 = max(_RULE_BULK_STEP / h - one, 0.0)
    b2 = (_RULE_TAIL_STEP - _RULE_BULK_STEP) / h
    v0 = math.log(b1 / one) if b1 > one else 0.0
    centre = -beta * math.log(beta) - one * math.log(one)
    v1 = v0 + (8.0 + centre) / (b1 + one)
    # far left, r is linear in v with slope e + b1 + b2
    v_min = (_RULE_R_MIN - centre - b1 * v0 - b2 * v1) / (one + b1 + b2) - 2.0
    steps = np.arange(math.floor(v_min / h), math.ceil((3.0 + math.log(40.0 + N_CAP * one)) / h) + 1)
    v = h * steps
    r = centre + one * v - b1 * np.logaddexp(0.0, -v - v0) - b2 * np.logaddexp(0.0, -v - v1)
    dr = one + b1 / (1.0 + np.exp(v + v0)) + b2 / (1.0 + np.exp(v + v1))
    keep = r >= _RULE_R_MIN
    nodes = r[keep], np.log(h * dr[keep])
    for arr in nodes:
        arr.setflags(write=False)
    return nodes


def _wright_log_density(beta: float, r: np.ndarray) -> np.ndarray:
    """``log rho(r)`` for ``R = log M`` in its left tail, where ``e^r <= 0.05``.

    ``rho(r) = m M_beta(m)``, ``m = e^r``, with the M-Wright function
    ``M_beta(m) = sum_k (-m)^k / (k! Gamma(1 - beta (k+1)))``, by reflection
    ``sum_k m^k Gamma(beta (k+1)) sin(pi (k+1) (1 - beta)) / (pi k!)``, summed
    over 20 terms.  Below beta = 1/2 that sine is formed as
    ``(-1)^k sin(pi (k+1) beta)``, whose argument is not next to a multiple
    of pi (the other form loses digits like eps / beta there).  Each term
    past them is under
    ``b_k = m^k Gamma(beta (k+1)) / (pi k!)`` (``|sin| <= 1``), and
    ``b_(k+1) / b_k <= m beta^beta (k+1)^(beta - 1)`` (Wendel:
    ``Gamma(x + beta) <= x^beta Gamma(x)``) falls with k, so the rest is at
    most a geometric sum.  NonConvergence is raised unless every sum is
    positive and its rest is under 1e-17 of it.
    """
    one = 1.0 - beta
    m = np.exp(r)
    k = np.arange(_RULE_SERIES_TERMS + 1)
    log_b = np.array([math.lgamma(beta * (j + 1.0)) - math.lgamma(j + 1.0) for j in k]) - math.log(math.pi)
    j = k[-1:0:-1]  # k + 1, from K down to 1
    sines = np.sin(math.pi * j * one) if beta >= 0.5 else np.where(j % 2, 1.0, -1.0) * np.sin(math.pi * j * beta)
    wright = np.zeros_like(m)
    for coef in np.exp(log_b[-2::-1]) * sines:  # Horner, from k = K - 1 down
        wright = wright * m + coef
    ratio = m * beta**beta * (k[-1] + 1.0) ** (beta - 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        rest = np.exp(k[-1] * r + log_b[-1]) / np.where(ratio < 1.0, 1.0 - ratio, 0.0)
    if not np.all((wright > 0.0) & (rest <= _RULE_SERIES_REST * wright)):
        raise NonConvergence(f"the left tail of the log M rule at beta = {beta} is not certified")
    return r + np.log(wright)


def _log_sum(f: np.ndarray):
    """``(top, terms, total, drift)`` of the trapezoid sum ``exp(top) total``
    of ``exp(f)`` over the last axis, ``f`` overwritten by ``terms = exp(f - top)``.

    With E and O the sums over even and odd places, the step-2h drift
    ``|2 E / total - 1| = |E - O| / total = |2 O / total - 1|`` is the same
    whichever half is the rule at twice the step.
    """
    top = f.max(axis=-1)
    f -= top[..., None]
    terms = np.exp(f, out=f)
    total = terms.sum(axis=-1)
    return top, terms, total, np.abs(2.0 * terms[..., ::2].sum(axis=-1) / total - 1.0)


def _rule_sums(rule: _LogMRule, expo: np.ndarray):
    """:func:`_log_sum` over the nodes of ``rule``: ``(top, total, drift, ends)``,
    the drift the larger of those over r and over the angle, and ``ends`` the
    share of the sum in its end terms."""
    top, terms, total, drift = _log_sum(expo)
    drift = np.maximum(drift, terms @ rule.drift / total)
    return top, total, drift, np.maximum(terms[..., 0], terms[..., -1]) / total


@lru_cache(maxsize=16)
def _log_m_rule(beta: float) -> _LogMRule:
    """The certified rule for ``R = log M``, built on first use per beta.

    ``M = (W / A(U))^(1 - beta)`` has ``E exp(-x M) = E_beta(-x)``.  R has
    two routes to its density, split by node:

    - the left tail, ``e^r <= 0.05``, from the M-Wright series with its
      truncation bound (:func:`_wright_log_density`); these nodes carry drift 0;
    - the band, every other node: ``rho(r) = J / ((1 - beta) pi)`` with
      Zolotarev's ``J = int_0^pi exp(q - e^q) du``,
      ``q = log A(u) + r / (1 - beta)``.  Each node's J is a trapezoid sum
      over one angle grid shared by the band nodes (:func:`_angle_grid`),
      restricted to the band that holds all of it but e^-50: below the band
      each term is under e^-50 of the term at ``q = 0``, and above it ``e^q``
      exceeds its least value by more than 54.  Nodes are summed in blocks,
      each row padded with zero terms to the widest band of its own block.

    The rule is refused with NonConvergence unless its mass and mean, ``1``
    and ``1 / Gamma(1 + beta)``, hold to 1e-13 and their step-2h drifts, over
    r and over the angle, stay under 1e-7.
    """
    one = 1.0 - beta
    r, log_dr = _rule_nodes(beta)
    tail = int(np.count_nonzero(np.exp(r) <= _RULE_SERIES_CUT))
    log_rho = np.empty(r.size)
    log_rho[:tail] = _wright_log_density(beta, r[:tail])
    drift = np.zeros(r.size)
    c = r[tail:] / one
    grid = _angle_grid(beta, 0)
    if grid is None:
        raise NonConvergence(f"the log M rule at beta = {beta} needs more than {_RULE_ANGLES} angle nodes")
    log_a, log_du = grid.log_a, grid.log_du
    # log_a + log_du is the log of a term, less r / (1 - beta), while q << 0
    j_mode = np.minimum(np.searchsorted(log_a, -c), log_a.size - 1)
    j_lo = np.searchsorted(grid.reach, log_a[j_mode] + log_du[j_mode] - 50.0)
    j_hi = np.searchsorted(log_a, _band_top(log_a[0] + c, c))
    rows = max(1, _RULE_BLOCK // int((j_hi - j_lo).max()))
    for b in range(0, c.size, rows):
        lo, hi = j_lo[b : b + rows, None], j_hi[b : b + rows, None]
        idx = lo + np.arange((hi - lo).max())
        outside = idx >= hi
        np.minimum(idx, log_a.size - 1, out=idx)
        q = log_a[idx]
        q += c[b : b + rows, None]
        f = np.exp(np.minimum(q, 700.0))
        np.subtract(q, f, out=f)
        f += log_du[idx]
        f[outside] = -np.inf
        nodes = slice(tail + b, tail + b + rows)
        top, _, fine, drift[nodes] = _log_sum(f)
        log_rho[nodes] = top + np.log(fine) - math.log(one * math.pi)
    rule = _LogMRule(r, log_rho + log_dr, drift)
    top, total, drifts, _ = _rule_sums(rule, np.stack([rule.log_w, rule.log_w + r]))
    misses = np.abs(np.exp(top) * total * [1.0, math.gamma(1.0 + beta)] - 1.0)
    if misses.max() > _RULE_MOMENT_TOL or drifts.max() > _RULE_TOL:
        raise NonConvergence(
            f"the log M rule at beta = {beta} is not certified: mass and mean off by "
            f"{misses[0]:.1e} and {misses[1]:.1e}, step-2h drift {drifts.max():.1e}"
        )
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _log_m_density(beta: float, r: float, log_front: float) -> float:
    """``exp(log_front) rho(r)``, ``rho`` the density of ``R = log M``, as one
    node of the log M rule.

    Left of ``e^r = 0.05`` it is the M-Wright series (:func:`_wright_log_density`).
    Elsewhere it is the band sum of :func:`_log_m_rule` for this one node on
    the cached angle grid, certified by its own step-2h drift (under 1e-7);
    an uncertified sum is redone at half the angle step (:func:`_angle_grid`),
    up to 4 times, and NonConvergence is raised past that.  A band that the
    cached grid does not hold, as where the level-0 grid would pass its node
    cap (beta above about 0.99991), is built alone on the same node map
    (:func:`_angle_segment`, refused past beta of about 1 - 4e-8).  Since
    ``q >= q0 = log A(0+) + r / (1 - beta)``, ``J <= pi e^(q0 - e^q0)``
    where ``q0 > 0``: a value that bound puts under the float64 range is 0.0
    without a sum.  A value past the float64 range raises DomainError.
    """
    one = 1.0 - beta
    if r <= math.log(_RULE_SERIES_CUT):
        return _finite_exp(log_front + float(_wright_log_density(beta, np.array([r]))[0]))
    c = r / one
    q0 = _kanter_log_a0(beta) + c
    if q0 > 0.0 and log_front - math.log(one) + q0 - math.exp(min(q0, _LOG_HUGE)) < _LOG_UNDER:
        return 0.0  # rho = J / ((1 - beta) pi) <= e^(q0 - e^q0) / (1 - beta)
    top = _band_top(q0, c, math)
    for level in range(_DENSITY_LEVELS + 1):
        log_j, drift = _band_log_j(_angle_grid(beta, level), c, top)
        if drift == math.inf:  # the band runs past the cached grid, or the grid would pass its cap
            log_j, drift = _band_log_j(_angle_segment(beta, level, c, top), c, top)
        if drift <= _RULE_TOL:
            return _finite_exp(log_front - math.log(one * math.pi) + log_j)
    raise NonConvergence(
        f"the density of log M at beta = {beta}, r = {r:g} is not certified: step-2h drift {drift:.1e}"
    )


def _band_top(q0, c, lib=np):
    """The band's end: ``log A`` where ``e^q``, ``q = log A + c``, passes ``e^max(q0, 0)`` by
    54, formed without overflow by ``lib``, numpy for arrays or math for a float."""
    least = 0.5 * (q0 + abs(q0))  # max(q0, 0), exactly
    return least + lib.log1p(54.0 * lib.exp(-least)) - c


def _band_log_j(grid: Optional[_AngleGrid], c: float, top: float) -> tuple[float, float]:
    """``log J`` for ``q = log A + c`` over its band in ``grid``, and the sum's
    step-2h drift (infinite where there is no grid or the band runs past an
    end of it).

    The band is that of :func:`_log_m_rule`: from where the terms come within
    e^-50 of the term at ``q = 0`` to where ``log A`` passes ``top``.
    """
    if grid is None:
        return math.nan, math.inf
    log_a, log_du = grid.log_a, grid.log_du
    j_mode = min(int(np.searchsorted(log_a, -c)), log_a.size - 1)
    lo = int(np.searchsorted(grid.reach, log_a[j_mode] + log_du[j_mode] - 50.0))
    hi = int(np.searchsorted(log_a, top))
    if hi == log_a.size or (lo == 0 and grid.start > 0):
        return math.nan, math.inf
    q = log_a[lo:hi] + c
    top, _, fine, drift = _log_sum(q - np.exp(np.minimum(q, 700.0)) + log_du[lo:hi])
    return top + math.log(fine), drift


def _angle_segment(beta: float, level: int, c: float, top: float) -> _AngleGrid:
    """The nodes of one level's angle grid around the band of the value at
    ``c``, whose ``log A`` ends at ``top``.

    Every 256th node of the level-0 grid, up to where ``log A`` passes
    ``top``, brackets the band; the segment runs from one stride before it
    to the first node past ``top``.
    """
    stride = _SEGMENT_STRIDE
    size = _angle_size(beta, top) // stride + 2
    if size > _SEGMENT_NODES:
        raise NonConvergence(f"the band search at beta = {beta} needs more than {_SEGMENT_NODES} angle nodes")
    log_a, log_du = _blocked_nodes(beta, size, stride)
    reach = np.maximum.accumulate(log_a + log_du)
    i_mode = min(int(np.searchsorted(log_a, -c)), log_a.size - 1)
    i_lo = max(int(np.searchsorted(reach, reach[max(i_mode - 1, 0)] - 50.0)) - 1, 0)
    i_hi = min(int(np.searchsorted(log_a, top)) + 1, log_a.size - 1)
    start = (stride * i_lo) << level
    log_a, log_du = _angle_nodes(beta, level, np.arange(start, ((stride * i_hi) << level) + 1))
    end = int(np.searchsorted(log_a, top, side="right")) + 1
    return _checked_grid(beta, log_a[:end].copy(), log_du[:end].copy(), top, start)


def _ml_log_laplace(beta: float, orders, x, log_scale=0.0) -> np.ndarray:
    """``log(s^n E_beta^(n)(-x))`` for each order n, with ``s = exp(log_scale)``.

    ``E_beta^(n)(-x) = E[M^n exp(-x M)]`` for ``x >= 0``: one pass over the
    nodes of the cached rule for ``log M`` (:func:`_log_m_rule`) gives every
    order as a sum of positive terms, formed in log space so that neither
    ``s^n`` nor the sum leaves the float64 range.  ``x`` and ``log_scale``
    are floats, or arrays of shape (T, 1, 1) holding T pairs, one per row of
    a (T, orders) result; each row equals the pass for its pair alone.  A
    value is certified, per pair and order, by the rule at twice the step
    over r and over the angle (drift under 1e-7) and by its end terms (under
    1e-16 of the sum); otherwise NonConvergence is raised.
    """
    for value in np.ravel(x).tolist():
        _nonnegative("Mittag-Leffler argument -x", value)
    rule = _log_m_rule(beta)
    expo = np.asarray(orders, dtype=float)[:, None] * (rule.r + log_scale)
    expo += rule.log_w - x * np.exp(rule.r)
    top, total, drift, ends = _rule_sums(rule, expo)
    if np.any(drift > _RULE_TOL) or np.any(ends > 1e-16):
        worst = np.unravel_index(np.argmax(np.maximum(drift / _RULE_TOL, ends / 1e-16)), drift.shape)
        z = -np.ravel(x)[worst[0] if drift.ndim > 1 else 0]
        raise NonConvergence(
            f"Mittag-Leffler derivative of order {orders[worst[-1]]} at beta = {beta}, "
            f"z = {z:g} is not certified: step-2h drift {drift[worst]:.1e}, "
            f"end terms {ends[worst]:.1e} of the sum"
        )
    return top + np.log(total)


def _tanh_sinh(h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh (Takahasi-Mori) rule on (0, 1) with step h over ``|k| <= n``.

    Each node is given as its distance ``1 / (1 + e^(pi sinh(k h)))`` from the
    upper end, with its log weight.  Every second node, from the first, alone
    is the same rule at step 2h.
    """
    t = h * np.arange(-n, n + 1)
    v = 0.5 * math.pi * np.sinh(t)
    return 1.0 / (1.0 + np.exp(2.0 * v)), np.log(0.25 * math.pi * h * np.cosh(t)) - 2.0 * np.log(np.cosh(v))


# The inverse tempered stable clock's transform: tanh-sinh at step 0.04 between
# the splits (nodes as distances from the upper end of (0, 1)) and exp-sinh on
# the two tails, over -4 <= k h <= 3.2; a candidate split whose log-integrand
# lies 45 below the largest one is dropped.
_CUT_TAU = 0.04 * np.arange(-100, 81)
_CUT_SH = 0.5 * math.pi * np.sinh(_CUT_TAU)
_CUT_GAP, _CUT_TS_LOG_W = (x[: _CUT_TAU.size] for x in _tanh_sinh(0.04, 100))
_CUT_ES_U = np.exp(_CUT_SH)
_CUT_ES_LOG_W = np.log(0.02 * math.pi * np.cosh(_CUT_TAU)) + _CUT_SH
_CUT_DROP = 45.0
_LOG2 = math.log(2.0)


def _log1mexp(z: float) -> float:
    """``log(1 - e^-z)`` for ``z > 0``, to full relative accuracy."""
    return math.log(-math.expm1(-z)) if z < _LOG2 else math.log1p(-math.exp(-z))


def _inverse_tempered_laplace(beta: float, nu: float, x: float, t: float) -> float:
    """``E exp(-x E(t))`` for E the inverse of the subordinator with Laplace
    exponent ``phi(s) = (s + nu)^beta - nu^beta``, ``0 < beta < 1``, ``nu > 0``, ``x > 0``.

    The transform ``phi(s) / (s (phi(s) + x))`` in t, folded onto its branch
    cut ``s <= -nu``, gives ``R + (x sin(pi beta) / (pi beta)) int_0^inf
    e^(-(nu + rho) t) rho dv / ((nu + rho) D)`` with ``rho = v^(1/beta)``,
    ``D = |a + v e^(i pi beta)|^2`` and ``a = x - nu^beta``.  R, the residue
    at the real zero s of ``phi + x``, is
    ``e^(s t) x / (|s| beta (s + nu)^(beta - 1))`` where ``a < 0`` and 0
    otherwise.  Both parts are positive and summed in log space, at ``t = 1``
    (only ``nu t`` and ``x t^beta`` matter).

    The integrand in ``log v`` turns where ``rho = 1``, ``rho = nu t`` and
    ``v = |a|``.  The last is the real part of the poles of ``1 / D``, which
    lie ``pi (1 - beta)`` (``a > 0``) or ``pi beta`` (``a < 0``) off the real
    axis; when that is under ``pi / 2`` (``a cos(pi beta) < 0``) they make a
    Lorentzian of relative width ``tan`` of it at ``v_r = -a cos(pi beta)``.
    Tanh-sinh rules run between splits at those three points and, for the
    Lorentzian, at ``2^(+-1) |a|``; outer splits 45 below the largest are
    dropped.  Exp-sinh rules take the tails at the scale of their decay:
    ``beta`` on the right, ``beta / (1 + beta)`` on the left, or
    ``beta / (1 - beta)`` past a split ``4 beta`` further left where the
    integrand falls only like ``v^(1/beta - 1)``.  The value is certified by
    the rule at twice the step (drift under 1e-7) and by the tails' last
    terms (under 1e-16 of the sum); otherwise NonConvergence is raised.
    """
    p = 1.0 / beta
    log_b = math.log(nu) + math.log(t)
    d = math.log(x) - beta * math.log(nu)  # log(x / nu^beta)
    log_y = beta * log_b + d
    log_a = beta * log_b + max(d, 0.0) + _log1mexp(abs(d)) if d else -math.inf
    sin_b = math.sin(math.pi * min(beta, 1.0 - beta))
    cos_b = math.sin(math.pi * (0.5 - beta))
    log_w = log_a + math.log(sin_b)
    log_r = log_a + math.log(abs(cos_b)) if cos_b else -math.inf
    resonant = d * cos_b < 0.0

    def log_f(L):
        if resonant:  # log |v - v_r| at v = e^L
            with np.errstate(divide="ignore"):
                dist = log_r + np.maximum(L - log_r, 0.0) + np.log(-np.expm1(-np.abs(L - log_r)))
        else:
            dist = np.logaddexp(L, log_r)
        pl = p * L
        log_d = np.logaddexp(2.0 * dist, 2.0 * log_w)
        return pl + L - np.exp(np.minimum(pl, _LOG_HUGE)) - np.logaddexp(log_b, pl) - log_d

    cand = np.array([0.0, beta * log_b, log_a if d else 0.0])
    if resonant:
        cand = np.append(cand, log_a + np.array([-_LOG2, _LOG2]))
    value = log_f(cand)
    order = np.argsort(cand)
    kept = np.flatnonzero(value[order] >= value.max() - _CUT_DROP)
    splits = cand[order][kept[0] : kept[-1] + 1]
    splits = splits[np.diff(splits, prepend=-np.inf) > 0.0]  # not np.unique, which imports numpy.ma
    left = beta / (1.0 - beta) if not d or log_a < splits[0] else beta / (1.0 + beta)
    if left > 4.0 * beta:
        splits = np.append(splits[0] - 4.0 * beta, splits)
    span = np.diff(splits)[:, None]
    tails = [splits[0] - left * _CUT_ES_U, splits[-1] + beta * _CUT_ES_U]
    terms = log_f(np.concatenate([tails, splits[1:, None] - span * _CUT_GAP]))
    terms[:2] += _CUT_ES_LOG_W + np.log([[left], [beta]])
    terms[2:] += _CUT_TS_LOG_W + np.log(span)
    top, _, total, _ = _log_sum(terms.ravel())  # the pieces as one sum, exp written over terms
    # each piece's step-2h rule from its first node: in the flat sum the half would
    # alternate between the 181-node pieces, and their errors cancel between neighbours
    drift = abs(2.0 * terms[:, ::2].sum() / total - 1.0)
    last = max(terms[0, -1], terms[1, -1]) / total
    if not (drift <= _RULE_TOL and last <= 1e-16):
        raise NonConvergence(
            f"inverse tempered stable clock at beta = {beta}, nu = {nu}, t = {t:g}, x = {x:g} "
            f"is not certified: step-2h drift {drift:.1e}, tail terms {last:.1e} of the sum"
        )
    log_val = math.log(sin_b / (math.pi * beta) * total) + log_y - math.exp(min(log_b, _LOG_HUGE)) + top
    if d < 0.0:
        shift = _log1mexp(-d) / beta  # log((s + nu) / nu)
        log_s = log_b + _log1mexp(-shift)  # log |s t|
        log_res = -math.exp(log_s) + log_y - log_s - math.log(beta) + (1.0 - beta) * (log_b + shift)
        log_val = np.logaddexp(log_val, log_res)
    return min(math.exp(log_val), 1.0)


def _log_gamma_sign(x: float) -> tuple[float, float]:
    """``(log |Gamma(x)|, sign of Gamma(x))``, ``(inf, 0.0)`` at the poles.

    Off the poles, Gamma(x) < 0 exactly when x < 0 and ``floor(x)`` is odd.
    """
    if x <= 0.0 and x == math.floor(x):
        return math.inf, 0.0
    return math.lgamma(x), -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def _recip_gamma(x: float) -> float:
    """1/Gamma(x), zero at the poles."""
    log_mag, sign = _log_gamma_sign(x)
    return sign * math.exp(-log_mag) if sign else 0.0


def _signed_exp(log_mag: float, sign: float) -> float:
    if log_mag > _LOG_HUGE:
        raise NonConvergence("series term overflows float64")
    if sign == 0.0 or log_mag == -math.inf:
        return 0.0
    return sign * math.exp(log_mag)
