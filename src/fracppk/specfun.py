"""Special functions for fractional counting models.

Three-parameter Mittag-Leffler series, Mittag-Leffler derivatives, Wright-type
series for the one-sided stable density and its inverse-process density, and
L1-discretized Caputo derivatives with optional exponential tempering.

All series are evaluated in log space term by term.  Alternating series that
measurably cancel in float64 are transparently re-summed in arbitrary
precision sized to the peak term, so results stay accurate across the
admissible window (``SeriesControl.z_cap``); arguments past the window, or
cancellation beyond what escalation can absorb, raise
:class:`~fracppk.errors.DomainError` / :class:`~fracppk.errors.NonConvergence`
instead of silently losing digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# Densities have O(1) natural scale; sustained envelope growth past the
# point where the peak term's rounding noise reaches this absolute level
# cannot produce a usable float64 sum, so it triggers escalation eagerly
# (the relative noise check after a completed float pass catches the rest).
_DENSITY_NOISE_CAP = 1e-8

# Envelope magnitude past which sustained term growth defeats float64: a
# peak above the noise cap divided by eps fails the cancellation guard, so
# growth beyond this log threshold hands the sum to the escalated path.
_GROW_LOG_LIMIT = math.log(_DENSITY_NOISE_CAP / 2.3e-16)

# Density escalation ceiling.  The Wright series peak grows like a stretched
# exponential of the tail depth, so the precision bill explodes quickly;
# past this many digits a single evaluation costs seconds and the regime is
# better served by Monte Carlo, so the code refuses instead.
_DENSITY_MAX_DPS = 220

# Absolute cutoff for the escalated Wright sum: terms are kept until their
# envelope drops below e^-115 ~ 1e-50, the escalation's resolution floor.
# A relative cutoff would be wrong here; see _wright_env_scan.
_ENV_FLOOR_LOG = -115.0

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


_MP_RGAMMA_TABLES: dict[tuple[float, int], dict[int, object]] = {}


def _ml_derivatives_mp(
    orders: list[int], beta: float, z: float, peak_log: float, cap: int
) -> list[float]:
    """Arbitrary-precision Mittag-Leffler derivative series for several orders.

    Term m of order n is ``c[n + m] * p[m]`` with ``c[q] = q!/Gamma(beta q + 1)``
    and ``p[m] = z^m / m!``; both are built once and shared by every order, at
    the one precision the largest peak needs.  Reciprocal-gamma values depend
    only on (beta, q), so they are also cached across calls.  The argument
    beta*q + 1 is formed in mp arithmetic, never in float64: per-coefficient
    argument rounding acts as noise of size ~psi(beta q) (beta q) eps relative
    to the peak term, which dominates the heavily cancelled sum this
    escalation path exists to protect.
    """
    dps = _rescue_dps(peak_log)
    cache = _MP_RGAMMA_TABLES.setdefault((beta, dps), {})
    out = []
    with mp.workdps(dps):
        zz = mp.mpf(z)
        bmp = mp.mpf(beta)
        tol = mp.mpf(10) ** (-25)
        floor = mp.mpf(10) ** (-320)
        coef = [mp.mpf(1)]  # rgamma(1) = 1
        power = [mp.mpf(1)]
        fact = mp.mpf(1)
        for n in orders:
            total = mp.mpf(0)
            small = 0
            for m in range(cap):
                q = n + m
                while len(coef) <= q:
                    j = len(coef)
                    rg = cache.get(j)
                    if rg is None:
                        rg = mp.rgamma(bmp * j + 1)
                        cache[j] = rg
                    fact *= j
                    coef.append(fact * rg)
                if len(power) <= m:
                    power.append(power[-1] * zz / m)
                term = coef[q] * power[m]
                total += term
                if abs(term) <= tol * max(abs(total), floor):
                    small += 1
                    if small >= 2:
                        break
                else:
                    small = 0
            else:
                raise NonConvergence(f"ml_derivative({n}, {beta}, {z}) needs more than {cap} terms")
            out.append(float(total))
    return out


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
    ctl = control or _DEFAULT_CONTROL
    if a <= 0:
        raise DomainError("mittag_leffler requires a > 0")
    _check_z(z, ctl)
    if z == 0.0:
        return _recip_gamma(b)

    log_az = math.log(abs(z))
    sgn_z = 1.0 if z > 0 else -1.0
    total = 0.0
    peak = -math.inf
    small = 0
    for j in range(ctl.max_terms):
        log_mag = j * log_az - gammaln(a * j + b)
        peak = max(peak, log_mag)
        term = _signed_exp(log_mag, gammasgn(a * j + b) * sgn_z**j)
        total += term
        if abs(term) <= ctl.rel_tol * max(abs(total), _TINY):
            small += 1
            if small >= 2:
                if _needs_rescue(peak, total):
                    return _prabhakar_mp(a, b, 1.0, z, peak, 4 * ctl.max_terms)
                return total
        else:
            small = 0
    raise NonConvergence(f"mittag_leffler({a}, {b}, {z}) needs more than {ctl.max_terms} terms")


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

    Evaluates ``sum_m (n+m)! / (m! Gamma(beta (n+m) + 1)) z^m``.  The series
    alternates for ``z < 0`` and cancels harder as the order grows, so once
    the float64 pass has lost meaningful digits the sum is redone in
    arbitrary precision.  The order is capped at 60, matching the count cap
    of the process layer.  One order of :func:`ml_derivatives`.
    """
    return float(ml_derivatives([n], beta, z, control)[0])


def ml_derivatives(
    orders, beta: float, z: float, control: SeriesControl | None = None
) -> np.ndarray:
    """Mittag-Leffler derivatives of each of ``orders`` at one argument ``z``.

    Each order is summed as in :func:`ml_derivative`, with the log-gamma
    values read from one table shared by all orders.  The orders whose
    float64 sum cancels too far are redone together in one
    arbitrary-precision pass, at the precision the worst of them needs.
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
    orders = checked
    _check_z(z, ctl)
    out = np.empty(len(orders))

    if z == 0.0:
        for i, n in enumerate(orders):
            out[i] = _signed_exp(gammaln(n + 1.0) - gammaln(beta * n + 1.0), 1.0)
        return out

    # log q! and log Gamma(beta q + 1), grown as the longest sum needs them
    log_fact: list[float] = []
    log_gamma_b: list[float] = []

    def grow(size: int) -> None:
        q = np.arange(len(log_fact), size, dtype=float)
        log_fact.extend(gammaln(q + 1.0).tolist())
        log_gamma_b.extend(gammaln(beta * q + 1.0).tolist())

    log_az = math.log(abs(z))
    sgn_z = 1.0 if z > 0 else -1.0
    rescue: list[int] = []
    peak_max = -math.inf
    for i, n in enumerate(orders):
        total = 0.0
        peak = -math.inf
        small = 0
        for m in range(ctl.max_terms):
            if n + m >= len(log_fact):
                grow(2 * (n + m) + 64)
            log_mag = log_fact[n + m] - log_fact[m] - log_gamma_b[n + m] + m * log_az
            peak = max(peak, log_mag)
            term = _signed_exp(log_mag, sgn_z**m)
            total += term
            if abs(term) <= ctl.rel_tol * max(abs(total), _TINY):
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
        else:
            raise NonConvergence(
                f"ml_derivative({n}, {beta}, {z}) needs more than {ctl.max_terms} terms"
            )
        if _needs_rescue(peak, total):
            rescue.append(i)
            peak_max = max(peak_max, peak)
        else:
            out[i] = total
    if rescue:
        out[rescue] = _ml_derivatives_mp(
            [orders[i] for i in rescue], beta, z, peak_max, 4 * ctl.max_terms
        )
    return out


def _wright_env_scan(beta: float, y: float, k_from: int, peak_log: float) -> tuple[float, int]:
    """Scan the term envelope to its decay point, returning (peak log, end index).

    A cheap float pass over log |Gamma(beta k + 1)/k! y^k|: the factorial
    wins superexponentially in the end, so the scan ends shortly after the
    envelope peak.  The end index bounds how many terms the escalated sum
    must take; the peak sets the precision.

    The cutoff is absolute, not relative to the peak: the cancelled sum can
    sit dozens of orders below its largest term, so terms must be kept until
    they are negligible against the smallest density the escalation resolves
    (~1e-50), never merely against the peak.
    """
    log_y = math.log(y)
    k = k_from
    while k < 50_000:
        k += 1
        log_env = gammaln(beta * k + 1.0) - gammaln(k + 1.0) + k * log_y
        peak_log = max(peak_log, log_env)
        if log_env < peak_log - 60.0 and log_env < _ENV_FLOOR_LOG:
            return peak_log, k
    raise NonConvergence(
        f"wright series needs more than 50000 terms (beta={beta}, y={y:g})"
    )


def _wright_tail_mp(beta: float, y: float, peak_log: float, n_terms: int) -> float:
    """Arbitrary-precision Wright tail sum, sized to the envelope peak.

    Bounded by _DENSITY_MAX_DPS rather than the Mittag-Leffler ceiling: deep
    density tails are vanishingly small and cost-prohibitive at once, so past
    the ceiling the honest answer is a refusal, not a slow near-zero.  Gamma
    arguments are formed in mp arithmetic, never float64 (argument rounding
    noise scales with the peak term; see _ml_derivatives_mp).

    Precision is sized for absolute accuracy ~1e-50 below the peak term, so
    tail values well under float64 underflow of the naive sum (down to about
    1e-44 after accumulation error) still come out with many good digits.
    """
    dps = 50 + max(0, int(peak_log / _LN10) + 1)
    if dps > _DENSITY_MAX_DPS:
        raise NonConvergence(
            f"wright series cancellation needs ~{dps} digits (beta={beta}, "
            f"y={y:g}); this tail regime is meant for Monte Carlo"
        )
    with mp.workdps(dps):
        b = mp.mpf(beta)
        yy = mp.mpf(y)
        total = mp.mpf(0)
        for k in range(1, n_terms + 1):
            term = mp.gamma(b * k + 1) / mp.factorial(k) * yy**k * mp.sinpi(b * k)
            total += -term if k % 2 == 0 else term
        return float(total / mp.pi)


def _wright_tail(beta: float, y: float, ctl: SeriesControl) -> float:
    """Evaluate ``W(-beta, 0; -y) = sum_k (-1)^(k+1) Gamma(beta k + 1)/k! y^k sin(pi beta k)/pi``.

    The series converges for every ``y > 0`` in exact arithmetic, but its terms
    first grow like a stretched exponential when ``y >> 1``, wiping out float64
    accuracy.  The float64 pass stops after 3 consecutive negligible terms
    (isolated sine zeros must not stop the sum); when the term envelope shows
    the cancellation exceeds float64 (sustained growth past the noise limit,
    or a completed sum whose peak left rounding noise within twelve digits of
    the result), the sum is redone in arbitrary precision sized to the
    envelope peak, up to _DENSITY_MAX_DPS digits.
    """
    total = 0.0
    run_max = 0.0
    peak = 0.0
    small = 0
    grow = 0
    prev_env = -math.inf
    log_y = math.log(y)
    for k in range(1, ctl.max_terms + 1):
        log_env = gammaln(beta * k + 1.0) - gammaln(k + 1.0) + k * log_y
        s = math.sin(math.pi * beta * k)
        if abs(s) > 1e-3:
            grow = grow + 1 if log_env > prev_env else 0
            prev_env = log_env
        # Sustained growth past the float64 noise limit (or outright float
        # overflow): stop summing noise, size the escalation from the
        # envelope, and hand the whole sum to arbitrary precision.
        if log_env > _LOG_HUGE or (grow >= 20 and log_env > _GROW_LOG_LIMIT):
            peak_log, k_end = _wright_env_scan(beta, y, k, log_env)
            return _wright_tail_mp(beta, y, peak_log, k_end)
        term = (1.0 if k % 2 == 1 else -1.0) * math.exp(log_env) * s / math.pi
        total += term
        run_max = max(run_max, abs(total))
        peak = max(peak, abs(term))
        if abs(term) < ctl.rel_tol * max(run_max, _TINY):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        raise NonConvergence(
            f"wright series needs more than {ctl.max_terms} terms (beta={beta}, y={y:g})"
        )
    if peak * 2.3e-16 > 1e-12 * abs(total):
        # Converged in float64 but the rounding noise left by the peak term
        # reaches the 12th digit of the cancelled sum (or swallowed it whole).
        # The float pass also stopped on terms small relative to the peak,
        # which can still dwarf that sum: rescan for the absolute cutoff.
        peak_log, k_end = _wright_env_scan(beta, y, k, math.log(peak))
        return _wright_tail_mp(beta, y, peak_log, k_end)
    return total


def stable_density(
    beta: float, x: float, t: float, control: SeriesControl | None = None
) -> float:
    """Density at ``x`` of the one-sided ``beta``-stable subordinator at time ``t``.

    Computed as ``(1/x) W(-beta, 0; -t x^-beta)`` through the alternating
    Wright-type series, escalating to arbitrary precision when cancellation
    exceeds float64.  The far left tail eventually exceeds the escalation
    ceiling and raises NonConvergence; that regime is meant for Monte Carlo.
    Negative rounding residue at negligible densities is clamped to zero.
    """
    ctl = control or _DEFAULT_CONTROL
    if not (0 < beta < 1):
        raise DomainError("stable_density requires beta in (0, 1)")
    if x <= 0 or t <= 0:
        raise DomainError("stable_density requires x > 0 and t > 0")
    val = _wright_tail(beta, t * x ** (-beta), ctl) / x
    return max(val, 0.0)


def inv_stable_density(
    beta: float, x: float, t: float, control: SeriesControl | None = None
) -> float:
    """Density at ``x`` of the inverse (first-passage) ``beta``-stable process at ``t``.

    Computed as ``(x^-1 / beta) W(-beta, 0; -x t^-beta)``, escalating to
    arbitrary precision when cancellation exceeds float64 (deep right tail).
    At ``x = 0`` the closed limit ``t^-beta / Gamma(1 - beta)`` is returned.
    """
    ctl = control or _DEFAULT_CONTROL
    if not (0 < beta < 1):
        raise DomainError("inv_stable_density requires beta in (0, 1)")
    if x < 0 or t <= 0:
        raise DomainError("inv_stable_density requires x >= 0 and t > 0")
    if x == 0.0:
        return t ** (-beta) * _recip_gamma(1.0 - beta)
    val = _wright_tail(beta, x * t ** (-beta), ctl) / (beta * x)
    return max(val, 0.0)


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
