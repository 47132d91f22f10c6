"""Driftless subordinators: Laplace exponents, exact increment samplers and
exact first-passage (inverse) simulation.

Six families are supported, identified by their Laplace exponents ``f`` in
``E[exp(-s L(t))] = exp(-t f(s))``:

======================  =================================================
Stable                  ``s^alpha``
MixedStable             ``sum_i c_i s^(alpha_i)``
TemperedStable          ``(s + mu)^alpha - mu^alpha``
MixtureTemperedStable   ``sum_i c_i ((s + mu_i)^(alpha_i) - mu_i^(alpha_i))``
Gamma                   ``p log(1 + s/a)``
InverseGaussian         ``delta (sqrt(2 s + gamma^2) - gamma)``
======================  =================================================

The four stable families are one sum of independent tempered stable parts
``L_i(u) = S_i(c_i u)`` (:func:`_parts`), and each operation has one branch
for them; a tempered part's exponent is formed without cancellation.

Increments are exact in law: Kanter's representation for one-sided stable
variables, exponential-tilting rejection of infinitely-divisible chunks, all
rows in one loop, for tempered stable, the sum of the parts' time-scaled
increments, and the native gamma / Wald generators otherwise.  A scalar step
draws the bytes of the array of that step, so every family has one increment
path, and forms each stable part's power of it once.

:func:`sample_inverse_at` is the one inverse-subordinator kernel.  Every
clock is exact in law jointly at any number of read times.  An inverse
stable subordinator (``Stable`` or ``TemperedStable(alpha, 0)``) costs one
stable variable at the last read time, ``E(t) = (t / S(1))^alpha``, and each
earlier one draws the first-passage triple of the stable path (Bertoin,
*Subordinators: examples and applications*, 1999) and renews the path there.
The inverse of an inverse Gaussian subordinator is the running maximum of
Brownian motion with drift, drawn at each read time from the Brownian-bridge
maximum over the gap.  The inverse of a gamma subordinator brackets each
row's passage by doubling steps and splits the bracket at the first
size-biased stick of the gamma bridge, a Dirichlet process, until that jump
covers the passage.  Every other sum of stable parts, tempered or not,
races the parts' stable first passages over a split of the distance left in
each round, reads every part that lost at the winner's passage from its own
passage time, which gives its value there given that it stayed below its
share exactly, and renews all parts there.  Tempered parts run the race in
Esscher-tilted rounds accepted by rejection against the exponential tilt
``exp(-mu S(u) + mu^alpha u)``, so an inverse tempered stable subordinator
is the race of one part.  A race runs no rejection loop per round: each part
draws its passage shapes ahead, in blocks that live in the call, and a round
scales the shapes by its shares, each entry once.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import DomainError, HorizonOverflow, NonConvergence, _Record, _count, _index, _nonnegative, _positive, _real
from .specfun import _kanter_log_a

__all__ = [
    "RngStream",
    "as_generator",
    "Stable",
    "MixedStable",
    "TemperedStable",
    "MixtureTemperedStable",
    "Gamma",
    "InverseGaussian",
    "SubordinatorSpec",
    "laplace_exponent",
    "sample_increment",
    "sample_inverse_at",
]

# the most race rounds of one inverse clock, and the most chunks of one tempered step
_MAX_STEPS = 10_000_000
_TINY = np.finfo(float).tiny  # the smallest normal float


class RngStream(_Record):
    """Reproducible random source: a seed plus a stream id.

    Streams with the same seed but different ids are statistically
    independent (counter-based Philox keyed by the pair).  ``generator()``
    returns a fresh numpy Generator positioned at the start of the stream.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        _count("seed", self.seed)
        _count("stream", self.stream)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(np.random.SeedSequence((self.seed, self.stream))))


def as_generator(rng: Union[RngStream, np.random.Generator]) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError("rng must be an RngStream or a numpy Generator")


def _check_parts(spec) -> None:
    """Store each field of a mixed spec as a tuple of floats and check them:
    nonempty and equally long, positive weights, indices in (0, 1) and
    nonnegative tempering rates; anything else raises DomainError."""
    names = spec._fields
    for name in names:
        object.__setattr__(spec, name, tuple(_real(x) for x in getattr(spec, name)))
    if len({len(getattr(spec, name)) for name in names}) != 1 or not spec.weights:
        raise DomainError(f"{', '.join(names)} must be nonempty and equally long")
    for c in spec.weights:
        _positive("mixture weight", c)
    for a in spec.alphas:
        _index("stable index", a)
    for m in getattr(spec, "mus", ()):
        _nonnegative("tempering rate", m)


class Stable(_Record):
    """One-sided stable subordinator, exponent ``s^alpha``."""

    alpha: float

    def __post_init__(self) -> None:
        _index("stable index alpha", self.alpha)


class MixedStable(_Record):
    """Weighted sum of independent stable subordinators, ``sum c_i s^(alpha_i)``."""

    weights: tuple[float, ...]
    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_parts(self)


class TemperedStable(_Record):
    """Exponentially tempered stable subordinator, ``(s + mu)^alpha - mu^alpha``."""

    alpha: float
    mu: float

    def __post_init__(self) -> None:
        _index("stable index alpha", self.alpha)
        _nonnegative("tempering rate mu", self.mu)


class MixtureTemperedStable(_Record):
    """Weighted sum of independent tempered stable subordinators."""

    weights: tuple[float, ...]
    alphas: tuple[float, ...]
    mus: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_parts(self)


class Gamma(_Record):
    """Gamma subordinator, exponent ``p log(1 + s/a)``."""

    p: float
    a: float

    def __post_init__(self) -> None:
        _positive("gamma shape rate p", self.p)
        _positive("gamma scale rate a", self.a)


class InverseGaussian(_Record):
    """Inverse Gaussian subordinator, exponent ``delta (sqrt(2s + gamma^2) - gamma)``."""

    delta: float
    gamma: float

    def __post_init__(self) -> None:
        _positive("delta", self.delta)
        _positive("gamma", self.gamma)


SubordinatorSpec = Union[
    Stable, MixedStable, TemperedStable, MixtureTemperedStable, Gamma, InverseGaussian
]


def _parts(spec: SubordinatorSpec):
    """``(weights, alphas, mus)`` of a stable family spec, the sum of tempered
    stable parts ``L_i(u) = S_i(c_i u)``; any other spec raises DomainError."""
    if isinstance(spec, (Stable, TemperedStable)):
        return (1.0,), (spec.alpha,), (getattr(spec, "mu", 0.0),)
    if isinstance(spec, (MixedStable, MixtureTemperedStable)):
        return spec.weights, spec.alphas, getattr(spec, "mus", (0.0,) * len(spec.alphas))
    raise DomainError(f"unknown subordinator spec {spec!r}")


def _tempered_gap(alpha: float, mu: float, x: float) -> float:
    """``(x + mu)^alpha - mu^alpha`` for ``x >= 0``, ``x^alpha`` at ``mu = 0``:
    as ``mu^alpha expm1(alpha log1p(x / mu))`` where the difference would
    cancel, below ``mu^alpha``, and as its first term
    ``alpha mu^(alpha - 1) x`` where ``x / mu`` is subnormal or 0."""
    floor = mu**alpha
    gap = (x + mu) ** alpha - floor
    if gap >= floor:
        return gap
    if x / mu < _TINY:  # the next term is below 1e-308 of the first
        return alpha * x * (floor / mu)
    return floor * math.expm1(alpha * math.log1p(x / mu))


_tempered_gaps = np.frompyfunc(_tempered_gap, 3, 1)  # on Python floats, as W of the pmf tables


def laplace_exponent(spec: SubordinatorSpec, s):
    """Evaluate the Laplace exponent ``f(s)`` of ``spec`` at ``s >= 0``."""
    s_arr = np.asarray(s, dtype=float)
    if not (s_arr >= 0).all():
        raise DomainError("laplace_exponent requires s >= 0")
    if isinstance(spec, Gamma):
        out = spec.p * np.log1p(s_arr / spec.a)
    elif isinstance(spec, InverseGaussian):
        out = spec.delta * (np.sqrt(2.0 * s_arr + spec.gamma**2) - spec.gamma)
    else:
        out = sum(c * (s_arr**a if m == 0.0 else _tempered_gaps(a, m, s_arr)) for c, a, m in zip(*_parts(spec)))
    return float(out) if s_arr.ndim == 0 else np.asarray(out, dtype=float)


def _kanter_log_ratio(alpha: float, rng: np.random.Generator, size) -> np.ndarray:
    """``log A(U) - log W`` of Kanter's representation
    ``S = (A(U) / W)^((1 - alpha) / alpha)``, U uniform on (0, pi) kept at
    least 1e-13 pi from either end, W standard exponential, S one-sided
    stable with transform ``exp(-s^alpha)``; every step after the draws
    writes into arrays already made."""
    u = rng.random(size)
    np.minimum(np.maximum(u, 1e-12, out=u), 1.0 - 1e-13, out=u)
    u *= math.pi
    e = rng.standard_exponential(size)
    log_ratio = _kanter_log_a(alpha, u)
    log_ratio -= np.log(np.maximum(e, 1e-300, out=e), out=e)
    return log_ratio


def _standard_stable(alpha: float, rng: np.random.Generator, size) -> np.ndarray:
    """Kanter's sampler for the one-sided stable law with transform ``exp(-s^alpha)``."""
    draws = _kanter_log_ratio(alpha, rng, size)
    draws *= (1.0 - alpha) / alpha
    return np.exp(draws, out=draws)


# tempered draws are tilted over pieces of ``mu^alpha dt <= _TILT``, so that a
# rejection step accepts with probability at least exp(-_TILT)
_TILT = 0.7
# a tempered race round also ends by _RACE_ROUND times its split's time scale
# tau*, so that it is accepted with probability exp(-R _RACE_ROUND tau*) or more
_RACE_ROUND = 2.0


def _tempered_increment(alpha: float, mu: float, dt: np.ndarray, rng: np.random.Generator, shape) -> np.ndarray:
    """Tempered stable increments of the given shape over the steps ``dt``: an
    array of that shape, or one step (shape (1,)) shared by all, whose power
    is then formed once.  Each step splits into ``ceil(dt mu^alpha / 0.7)``
    chunks, whose sum has the exact law, as increments are infinitely
    divisible.  Each round of one rejection loop, every row with chunks left
    proposes a draw x over one chunk, accepted with probability
    ``exp(-mu x)``, at least e^-0.7 on average, and an accepted draw takes
    one chunk off its row's count: C chunks take about ``e^0.7 C`` rounds.  A
    step of more than ``_MAX_STEPS`` chunks raises HorizonOverflow before any
    draw, and more than ``3 C + 10,000`` rounds raise NonConvergence."""
    if mu == 0.0:
        return np.power(dt, 1.0 / alpha) * _standard_stable(alpha, rng, shape)
    chunks = np.maximum(1.0, np.ceil(dt * mu**alpha / _TILT))
    scale = np.broadcast_to(np.power(dt / chunks, 1.0 / alpha), shape).ravel()
    left = np.broadcast_to(chunks, shape).flatten()
    most = left.max(initial=0.0)
    if most > _MAX_STEPS:
        raise HorizonOverflow(f"a tempered increment of {most:g} rejection chunks passes {_MAX_STEPS}")
    out = np.zeros(left.size)
    live = np.arange(left.size)
    for _ in range(3 * int(most) + 10_000):
        if live.size == 0:
            return out.reshape(shape)
        prop = scale[live] * _standard_stable(alpha, rng, live.size)
        keep = rng.random(live.size) < np.exp(-mu * prop)
        out[live[keep]] += prop[keep]
        left[live[keep]] -= 1.0
        live = live[left[live] > 0.0]
    raise NonConvergence("tempered stable rejection sampler failed to accept")


def sample_increment(spec: SubordinatorSpec, dt, rng, size=None):
    """Draw ``L(t + dt) - L(t)`` exactly in law.

    ``dt`` may be a positive finite scalar (with an optional integer
    ``size >= 0`` for i.i.d. draws) or an array of per-draw time steps.
    Returns a float for scalar input without ``size``, otherwise an ndarray.
    A scalar step draws the bytes of the array ``np.full(size, dt)``, and
    forms each stable part's power of it once.  A tempered part draws each
    step in ``ceil(dt mu^alpha / 0.7)`` rejection chunks, one rejection loop
    for the chunks of every step; a step of more than 10^7 of them
    (``_MAX_STEPS``) raises HorizonOverflow before that part draws.
    """
    gen = as_generator(rng)
    scalar = np.ndim(dt) == 0
    if scalar:
        shape = (1 if size is None else _count("size", size),)
        dt = np.array([_positive("dt", dt)])
    else:
        if size is not None:
            raise DomainError("size can only be combined with scalar dt")
        dt = np.asarray(dt, dtype=float)
        if not np.all((dt > 0) & np.isfinite(dt)):
            raise DomainError("dt must be positive and finite")
        shape = dt.shape

    if isinstance(spec, Gamma):
        out = gen.gamma(spec.p * dt, 1.0 / spec.a, shape)
    elif isinstance(spec, InverseGaussian):
        scale = spec.delta * dt
        out = gen.wald(scale / spec.gamma, scale * scale, shape)
    else:
        out = sum(_tempered_increment(a, m, c * dt, gen, shape) for c, a, m in zip(*_parts(spec)))
    return float(out[0]) if scalar and size is None else out


def _first_accepted(propose, rate: float, size: int, what: str) -> np.ndarray:
    """The first ``size`` proposals that ``propose`` accepts, in order, as
    the last axis of an array.

    ``propose(m)`` draws m i.i.d. proposals in one pass and returns them
    along the last axis of an array, with the mask of those it accepts;
    acceptance alone decides, so the kept ones are i.i.d. draws of the
    target law.  ``rate`` is the exact acceptance rate, and a pass proposes
    ``(need + 3 sqrt(need)) / rate``, so that the need lies three or more
    standard deviations of the accepted count below its mean: a pass falls
    short less than once in a thousand at every rate of 2 / pi or more, and
    another pass then draws the rest.  More than 10,000 passes raise
    NonConvergence.
    """
    got, need = [], size
    for _ in range(10_000):
        vals, keep = propose(math.ceil((need + 3.0 * math.sqrt(need)) / rate))
        got.append(vals[..., np.flatnonzero(keep)[:need]])
        need -= got[-1].shape[-1]
        if need == 0:
            return got[0] if len(got) == 1 else np.concatenate(got, axis=-1)
    raise NonConvergence(f"{what} rejection sampler failed to accept")


def _log_beta_pair(alpha: float, rng: np.random.Generator, size: int):
    """``log u``, ``log(1 - u)`` and ``log V`` for ``u ~ Beta(alpha, 1 - alpha)``
    and V uniform on (0, 1) independent of u.

    Jöhnk's method (Jöhnk, *Metrika* 8, 1964; Devroye, *Non-Uniform Random
    Variate Generation*, 1986, IX.3) in log space: ``log X = log1p(-U) /
    alpha`` and ``log Y = log1p(-U') / (1 - alpha)`` for uniforms U, U' are
    accepted where ``s = log(X + Y) <= 0``, and ``u = X / (X + Y)``.  Given
    acceptance, ``(u, X + Y)`` has density proportional to
    ``u^(alpha - 1) (1 - u)^-alpha``, free of ``X + Y`` since the two shapes
    sum to one, so ``X + Y = e^s`` is uniform and independent of u, and is
    returned as V.  s is formed as ``max(log X, log Y) + log1p(e^-|log X -
    log Y|)``, so the log of the side near 1 keeps its digits, and nothing
    underflows at small alpha or small 1 - alpha.  A pass accepts
    ``pi alpha (1 - alpha) / sin(pi alpha)`` of its pairs, at least pi / 4.
    """
    one = 1.0 - alpha

    def propose(m):
        logs = rng.random((2, m))
        # 1 - U is exact on the generator's grid, so its log is log1p(-U)
        np.log(np.subtract(1.0, logs, out=logs), out=logs)
        logs /= ((alpha,), (one,))
        # s = logaddexp(log X, log Y) from the gap log X - log Y and
        # log1p(e^-|gap|), which also give log u and log(1 - u)
        out = np.empty((3, m))
        gap, tail, s = out
        np.subtract(logs[0], logs[1], out=gap)
        np.log1p(np.exp(-np.abs(gap)), out=tail)
        np.add(np.maximum(logs[0], logs[1], out=s), tail, out=s)
        return out, s <= 0.0

    rate = math.pi * alpha * one / math.sin(math.pi * alpha)
    gap, tail, s = _first_accepted(propose, rate, size, "Beta")
    return np.minimum(gap, 0.0) - tail, -np.maximum(gap, 0.0) - tail, s


def _size_biased_mittag_leffler(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draws of ``Y = (W / A(U))^(1 - alpha)`` with density proportional to
    ``y`` times the Mittag-Leffler law of ``S(1)^-alpha``.

    Size-biasing Kanter's pair makes W gamma of shape 2 - alpha and gives U
    the density on (0, pi) proportional to
    ``B(U) = A(U)^-(1 - alpha) = sin U / (sin(alpha U)^alpha sin((1 - alpha) U)^(1 - alpha))``.
    B decreases from ``B(0+) = alpha^-alpha (1 - alpha)^-(1 - alpha)`` and
    integrates to ``sin(pi alpha) / (alpha (1 - alpha))``, so U is drawn by
    rejection from the uniform under B(0+), one pass of (angle, test) pairs
    accepting ``alpha^alpha (1 - alpha)^(1 - alpha) sin(pi alpha) /
    (pi alpha (1 - alpha))`` of them, at least 2 / pi, and then W.
    """
    one = 1.0 - alpha
    b_max = alpha**-alpha * one**-one
    half_angles = 0.5 * math.pi * np.array(((1.0,), (alpha,), (one,)))

    def propose(m):
        pairs = rng.random((2, m))
        # the sines of u, alpha u and (1 - alpha) u as 2 t / (1 + t^2), t the
        # tangent of the half angle (numpy's float64 tan is vectorized where
        # its sin is not), kept without the factors 2, which cancel in B
        sines = np.multiply(np.subtract(1.0, pairs[0], out=pairs[0]), half_angles)
        np.tan(sines, out=sines)
        squares = np.multiply(sines, sines)
        squares += 1.0
        sines /= squares
        sines[1] **= alpha
        sines[2] **= one
        sines[0] /= np.multiply(sines[1], sines[2], out=sines[1])
        return sines[0], np.multiply(pairs[1], b_max, out=pairs[1]) < sines[0]

    rate = math.sin(math.pi * alpha) / (math.pi * alpha * one * b_max)
    b = _first_accepted(propose, rate, size, "size-biased Mittag-Leffler")
    return rng.standard_gamma(2.0 - alpha, size) ** one * b


def _passage_shapes(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """The draws of ``size`` stable first passages that no distance enters,
    as rows ``log u``, ``log(1 - u)``, ``Y`` and ``log V`` (see
    :func:`_stable_passage`): the undershoot fraction and V from one pass of
    Jöhnk's method (:func:`_log_beta_pair`), then Y."""
    log_u, log_w, log_v = _log_beta_pair(alpha, rng, size)
    y = _size_biased_mittag_leffler(alpha, rng, size)
    return np.array((log_u, log_w, y, log_v))


def _scale_passage(alpha, ell, log_u, log_w, y, log_v):
    """Passage time ``(ell u)^alpha Y`` and level ``ell u + ell (1 - u)
    V^(-1/alpha)`` of a stable path over distance ``ell``, from the shapes
    of :func:`_passage_shapes`; the level may be +inf at small alpha."""
    log_ell = np.log(ell)
    passage = np.exp(alpha * (log_ell + log_u)) * y
    over = ell * np.exp(log_u) + np.exp(log_ell + log_w - log_v / alpha)
    return passage, over


def _stable_passage(alpha: float, ell, rng: np.random.Generator, size: int):
    """Passage time T and level O = S(T) of a stable path over distance ``ell``.

    The triple's joint law is
    ``P(T in ds, S(T-) in du, S(T) in dv) = ds p_s(u) du Pi(dv - u)``
    (Bertoin, *Subordinators: examples and applications*, 1999): the
    undershoot fraction ``u`` is Beta(alpha, 1 - alpha), the passage time is
    ``(ell u)^alpha`` times a size-biased Mittag-Leffler variable Y, and the
    jump over the level is ``ell (1 - u) V^(-1/alpha)`` with V uniform (the
    sum Jöhnk's method leaves over, :func:`_log_beta_pair`), so O may be +inf
    at small alpha.
    """
    shapes = _passage_shapes(alpha, rng, size)
    with np.errstate(over="ignore"):
        return _scale_passage(alpha, ell, *shapes)


def _inverse_stable_renewal(
    alpha: float, grid: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact joint draws of the inverse ``Stable(alpha)`` clock at increasing times.

    Each row keeps its clock ``c`` and the level ``x = S(c)`` it has reached.
    A row whose level already exceeds ``t_j`` keeps its clock.  Otherwise the
    path restarts at ``x`` (strong Markov property) and must pass
    ``l = t_j - x``.  At the last time only the passage time matters, which is
    ``(l / S(1))^alpha`` from one Kanter draw.  At earlier times the passage
    time and level come from :func:`_stable_passage`; a level of +inf (small
    alpha) only means no later renewal.
    """
    one = 1.0 - alpha
    clock = np.zeros(n)
    level = np.zeros(n)
    out = np.empty((n, grid.size))
    for j, tj in enumerate(grid):
        live = np.flatnonzero(level < tj)
        # every row starts at level 0, so the first distance is the scalar t_0
        # (an array power can differ from a scalar one in the last bit)
        ell = tj - level[live] if j else tj
        if j == grid.size - 1:
            clock[live] += ell**alpha * np.exp(-one * _kanter_log_ratio(alpha, rng, live.size))
        else:
            passage, over = _stable_passage(alpha, ell, rng, live.size)
            clock[live] += passage
            level[live] += over
        out[:, j] = clock
    return out


def _record_passed(live, target, clock, level, nxt, grid, out) -> np.ndarray:
    """Record each live row's clock at every read time its level has reached
    (a level exactly at a read time has reached it, as ``H(t) = inf{u :
    L(u) > t}``), and return the rows that still have read times ahead."""
    passed = live[level[live] >= target]
    if passed.size == 0:
        return live
    while passed.size:
        out[passed, nxt[passed]] = clock[passed]
        nxt[passed] += 1
        passed = passed[nxt[passed] < grid.size]
        passed = passed[level[passed] >= grid[nxt[passed]]]
    return live[nxt[live] < grid.size]


def _race_split(log_c: np.ndarray, inv_alpha: np.ndarray, dist: np.ndarray):
    """Positive parts ``l_i`` of each distance, one column per row, in the
    proportions of ``(c_i tau)^(1/alpha_i)``, and ``log tau``, tau near the
    root of ``sum_i (c_i tau)^(1/alpha_i) = dist``.

    The log of the sum is convex and increasing in ``s = log tau``, and it is
    at least ``log dist`` where the fastest part alone covers the distance, so
    one Newton step from there stays above the root and nears it; one part
    alone is that root, and takes the whole distance.  The parts are then
    scaled to sum to the distance: any positive split is exact, and the root
    only matches the parts' passage times to one another (three steps move
    the rounds per row by about 1%).  The step needs no log-sum-exp: at the
    start each part over the distance, ``w_i``, is at most 1, the step is
    ``log(W) W / sum_i w_i / alpha_i`` with ``W = sum_i w_i``, and the parts
    after it are proportional to ``w_i exp(-step / alpha_i)``.  A part is at
    least the smallest normal float, since a share that underflowed to 0
    would pass at once without moving.
    """
    log_d = np.log(dist)
    s = (log_d / inv_alpha - log_c).min(axis=0)
    if log_c.size == 1:
        return dist[None], s
    w = np.exp((log_c + s) * inv_alpha - log_d)
    total = w.sum(axis=0)
    step = np.log(total) * total / (w * inv_alpha).sum(axis=0)
    w *= np.exp(-step * inv_alpha)
    w *= dist / w.sum(axis=0)
    return np.maximum(w, _TINY, out=w), s - step


# a refill gives each part _AHEAD times the need, but no more than the call
# has taken so far nor _BLOCK entries, and no less than the need
_AHEAD = 8
_BLOCK = 2**14


class _Blocks:
    """Draws that no row's state enters, drawn ahead for each part of a race
    and handed out in order, each entry at most once.

    ``draw(alpha, rng, size)`` returns one part's draws as a (fields, size)
    array; the block holds them as (fields, parts, width) with one cursor,
    since every take hands each part the same number of entries, and lives
    in one call, which keeps the sampler reentrant.
    """

    def __init__(self, draw, alphas, rng: np.random.Generator):
        self.draw, self.alphas, self.rng = draw, alphas, rng
        self.block = np.empty((0, len(alphas), 0))
        self.pos = self.taken = 0

    def take(self, need: int) -> np.ndarray:
        """The next ``need`` entries of every part, as a (fields, parts, need)
        array.  When the block runs short, its entries not yet handed out are
        kept, in order, and every part draws fresh ones after them."""
        if self.pos + need > self.block.shape[2]:
            kept = self.block[:, :, self.pos :]
            width = max(need, min(_AHEAD * need, self.taken, _BLOCK), kept.shape[2])
            fresh = np.stack([self.draw(a, self.rng, width - kept.shape[2]) for a in self.alphas], axis=1)
            self.block = np.concatenate((kept, fresh), axis=2) if kept.shape[2] else fresh
            self.block.setflags(write=False)  # takes are views of it
            self.pos = 0
        self.pos += need
        self.taken += need
        return self.block[:, :, self.pos - need : self.pos]


def _inverse_race(
    weights, alphas, mus, grid: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact joint draws of the inverse clock of a sum of independent
    (tempered) stable parts ``L_i(u) = S_i(c_i u)``.

    Each row keeps its clock ``c`` and level ``x``, as in
    :func:`_inverse_stable_renewal`, and advances in rounds toward its next
    read time t_j, the row's own: all live rows share one loop, and a row
    records its clock at every read time its level has passed.  A round
    splits the distance ``d = t_j - x`` into parts ``l_i``
    (:func:`_race_split`) and draws each part's stable first passage over
    its own ``l_i`` (as :func:`_stable_passage`, the time divided by c_i).
    The first passage wins, at ``sigma = min_i T_i``; before it every
    ``L_i < l_i``, so ``L < d``.  Each other part is known only to have
    stayed below its ``l_i`` at sigma, and its value there is
    ``l_i (sigma / T_i)^(1/alpha_i)`` from its own passage time: T_i has the
    law of ``(l_i / S(1))^alpha_i / c_i``, so that value is
    ``S_i(c_i sigma)`` in law, below ``l_i`` exactly when ``T_i > sigma``,
    and given that it has the law of ``S_i(c_i sigma)`` given
    ``S_i(c_i sigma) < l_i``; the other parts and sigma are independent of
    it.  By the strong Markov property every part restarts afresh at sigma.
    The row advances ``(c, x) += (sigma, sum of the parts' values)``, and
    +inf (an overshoot at small alpha) passes every later read time.  One
    part (``TemperedStable``) takes the whole distance.

    Every part draws its passage shapes (:func:`_passage_shapes`) ahead, in
    blocks (:class:`_Blocks`), as no row's state enters them.  A round takes
    one shape per live (part, row) pair and scales it by the pair's share
    (:func:`_scale_passage`); it runs no rejection loop of its own.  A call
    at 500 rows and 4 read times takes about 32, 21 or 36 rounds
    (``mixed``, ``tempered``, ``mixture``) and 5, 5 or 6 block refills,
    each refill one pass of Jöhnk's pairs and one of Mittag-Leffler
    proposals per part.

    With tempering, ``R = sum_i c_i mu_i^alpha_i > 0``, the race runs under
    the untempered law in rounds cut at ``h_row = min(h, 2 tau*)``, where
    ``h = 0.7 / R`` and tau* is the time scale of the row's split (the tau
    of :func:`_race_split`); h_row is known before the round is drawn.  A
    round that reaches h_row reads every part at h_row from its passage
    time, ``l_i (h_row / T_i)^(1/alpha_i)``, as for a part that lost.  The
    round is accepted with probability
    ``exp(-sum_i mu_i dL_i - R (h_row - tau))``, the Esscher density of the
    tempered law on the round over its bound ``exp(R h_row)`` (Kyprianou,
    *Fluctuations of Levy Processes*, 2014), so ``exp(-R h_row)`` on
    average, and a rejected round is redrawn from the same state.  A part
    with ``mu_i = 0`` adds nothing to the exponent.  Without tempering no
    round is cut.  More than ``_MAX_STEPS`` rounds raise HorizonOverflow, and
    so, before any draw, does ``mu_min t - 0.7 _MAX_STEPS > 745`` at the last
    read time t with every part tempered: a round moves the clock by at most h
    and ``E exp(mu_min L(u)) <= exp(u R)``, so by Markov's inequality t is
    passed within ``_MAX_STEPS`` rounds with probability below ``exp(-745)``.
    """
    c = np.asarray(weights)[:, None]
    log_c = np.log(c)
    alpha = np.asarray(alphas)
    inv_alpha = 1.0 / alpha[:, None]
    mu = np.asarray(mus)[:, None]
    tempered = mu[:, 0] > 0  # a part with mu_i = 0 may rise by +inf, and adds nothing
    mu_t, all_tempered = mu[tempered], tempered.all()
    parts = np.arange(alpha.size)[:, None]
    # a rate so small that 0.7 / rate overflows leaves h = inf: every round
    # then ends by 2 tau*
    rate = sum(w * m**a for w, a, m in zip(weights, alphas, mus))
    h = _TILT / rate if rate > 0 else math.inf
    if all_tempered and min(mus) * grid[-1] - _TILT * _MAX_STEPS > 745.0:
        raise HorizonOverflow(f"read time {grid[-1]:g} is out of reach within {_MAX_STEPS} rounds")
    shapes = _Blocks(_passage_shapes, alphas, rng)
    clock = np.zeros(n)
    level = np.zeros(n)
    nxt = np.zeros(n, dtype=np.int64)
    out = np.empty((n, grid.size))
    live = np.arange(n)
    rounds = 0
    # levels and bounds may overflow to +inf
    with np.errstate(over="ignore"):
        while live.size:
            rounds += 1
            target = grid[nxt[live]]
            if rounds > _MAX_STEPS:
                raise HorizonOverflow(f"no passage of {target[0]:g} within {_MAX_STEPS} rounds")
            ell, log_span = _race_split(log_c, inv_alpha, target - level[live])
            passage, rise = _scale_passage(alpha[:, None], ell, *shapes.take(live.size))
            passage /= c
            win = passage.argmin(axis=0)
            sigma = passage.min(axis=0)
            bound = np.minimum(h, _RACE_ROUND * np.exp(log_span)) if rate > 0 else h
            tau = np.minimum(sigma, bound)
            # a part not past its share at tau sits at l (tau / T)^(1/alpha) in law
            below = (win != parts) | (sigma > bound)
            np.copyto(rise, ell * np.exp(np.log(tau / passage) * inv_alpha), where=below)
            if rate > 0:
                tilt = rate * (bound - tau) + (mu_t * (rise if all_tempered else rise[tempered])).sum(axis=0)
                keep = (rng.standard_exponential(live.size) > tilt).nonzero()[0]
            else:
                keep = slice(None)
            clock[live[keep]] += tau[keep]
            level[live[keep]] += rise[:, keep].sum(axis=0)
            live = _record_passed(live, target, clock, level, nxt, grid, out)
    return out


def _inverse_gaussian_maximum(
    delta: float, gamma: float, grid: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact joint draws of the inverse ``InverseGaussian(delta, gamma)`` clock.

    The subordinator is the first-passage process ``L(u) = T(delta u)`` of
    ``X(s) = W(s) + gamma s`` (Barndorff-Nielsen, *Scand. J. Stat.* 24, 1997),
    so its inverse is the running maximum ``H(t) = sup_{s<=t} X(s) / delta``.
    One (n, T) array draws the independent increments ``b ~ N(gamma d, d)``
    over every read-time gap d, and one more the uniforms U on (0, 1] of the
    maximum, given b, of the Brownian bridge over each gap,
    ``x + (b + sqrt(b^2 - 2 d log U)) / 2`` with x the level before the gap
    (Glasserman, *Monte Carlo Methods in Financial Engineering*, 2004,
    section 6.4); the clock is the running maximum of these along each row.
    """
    gaps = np.diff(grid, prepend=0.0)
    b = rng.standard_normal((n, grid.size))
    b *= np.sqrt(gaps)
    b += gamma * gaps
    bridge = np.zeros((n, grid.size))
    np.cumsum(b[:, :-1], axis=1, out=bridge[:, 1:])
    bridge += 0.5 * (b + np.sqrt(b * b - 2.0 * gaps * np.log1p(-rng.random((n, grid.size)))))
    return np.maximum.accumulate(bridge, axis=1) / delta


# shapes below _MIN_SHAPE are refused, since numpy's beta then forms
# log(U) / shape, which overflows
_MIN_SHAPE = 1e-300


def _shape(shape: np.ndarray) -> np.ndarray:
    if not (shape.min() >= _MIN_SHAPE and shape.max() < math.inf):
        raise NonConvergence("a gamma clock bracket left the range of usable gamma and beta shapes")
    return shape


def _inverse_gamma_bridge(
    p: float, a: float, grid: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact joint draws of the inverse ``Gamma(p, a)`` clock.

    In shape units ``v = p u`` and level units ``y = a x`` the path is the
    standard gamma process G, with ``G(v) ~ Gamma(v, 1)``, and
    ``H(t) = V(a t) / p`` for its passage time V.  Each row keeps its clock
    ``c`` and the level ``G(c)``, and a row whose level already exceeds
    ``a t_j`` keeps its clock.  Otherwise the increments after c are
    independent of the past, so the row brackets the passage by steps
    ``d, 2d, 4d, ..`` with d the distance left (the mean passage time over
    it), one gamma draw each, and finds the passage in the bracket by
    :func:`_gamma_passage`, exactly.  That is about 1.5 gamma draws per row
    and read time, and one Beta and two uniform draws per split: about one
    split where the level left to pass is near 1 or below (0.96 Beta draws
    per row and read time for ``Gamma(1, 1)`` read at 0.25, 0.5, 0.75 and 1),
    and about 1.5 more per factor e above it (21 at ``a t = 10^6``).  A shape
    that leaves [1e-300, inf) raises NonConvergence.
    """
    clock = np.zeros(n)
    level = np.zeros(n)
    out = np.empty((n, grid.size))
    for tj, col in zip(a * grid, out.T):
        live = np.flatnonzero(level <= tj)
        lo, lo_level = clock[live], level[live]
        # a level exactly at a t_j leaves no distance, and still needs a step
        width = np.maximum(tj - lo_level, _MIN_SHAPE)
        hi_level = np.empty(live.size)
        todo = np.arange(live.size)
        while todo.size:
            reach = lo_level[todo] + rng.standard_gamma(_shape(width[todo]))
            crossed = reach > tj
            hi_level[todo[crossed]] = reach[crossed]
            todo = todo[~crossed]
            lo[todo] += width[todo]
            lo_level[todo] = reach[~crossed]
            width[todo] *= 2.0
        clock[live], level[live] = _gamma_passage(tj, lo, width, lo_level, hi_level, rng)
        col[:] = clock / p
    return out


def _gamma_passage(y: float, lo, width, lo_level, hi_level, rng: np.random.Generator):
    """Passage time V and level G(V) of the standard gamma path over ``y``,
    given its values ``lo_level <= y < hi_level`` at the ends of each row's
    bracket ``[lo, lo + width]``.

    Given its ends, the path across a bracket of width w rising by D is D
    times a Dirichlet process of mass w (Ferguson, *Ann. Statist.* 1, 1973).
    Its first size-biased stick (Sethuraman, *Statist. Sinica* 4, 1994) is a
    jump of ``D (1 - R)``, ``R = U^(1/w)`` with U uniform, at
    ``s = lo + w f`` with f uniform, and by neutrality a share
    ``B ~ Beta(w f, w (1 - f))`` of the rest ``D R`` lies before s.  With
    ``before = lo_level + D R B`` and ``after = before + D (1 - R)``, the
    passage is s, at level ``after``, when ``before <= y < after``; otherwise
    it lies in ``[lo, s]`` between levels ``(lo_level, before)`` or in
    ``[s, lo + w]`` between ``(after, hi_level)``, each again a Dirichlet
    bridge of mass ``w f`` or ``w (1 - f)``, and the row splits that one.
    A stick that rounds onto an end of its bracket leaves the bracket at
    float resolution, and the clock is read at its upper end, before any
    Beta shape can be 0.  A pass draws three values per row; more than
    10,000 passes raise NonConvergence.
    """
    clock = np.empty(lo.size)
    level = np.empty(lo.size)
    rows = np.arange(lo.size)
    passes = 0
    while rows.size:
        passes += 1
        if passes > 10_000:
            raise NonConvergence("a gamma clock passage was not found within 10,000 splits")
        frac = rng.random(rows.size)
        stick = lo + width * frac
        ends = (stick <= lo) | (stick >= lo + width)
        if ends.any():
            clock[rows[ends]] = lo[ends] + width[ends]
            level[rows[ends]] = hi_level[ends]
            rows, lo, width, lo_level, hi_level, frac, stick = (
                x[~ends] for x in (rows, lo, width, lo_level, hi_level, frac, stick)
            )
            if rows.size == 0:
                break
        rise = hi_level - lo_level
        rest = np.exp(np.log1p(-rng.random(rows.size)) / width)
        left_width = width * frac
        width -= left_width
        before = lo_level + rise * rest * rng.beta(_shape(left_width), _shape(width))
        after = before + rise * (1.0 - rest)
        left = y < before
        hit = ~left & (y < after)
        clock[rows[hit]] = stick[hit]
        level[rows[hit]] = after[hit]
        np.copyto(width, left_width, where=left)
        np.copyto(hi_level, before, where=left)
        np.copyto(lo, stick, where=~left)
        np.copyto(lo_level, after, where=~left)
        rows, lo, width, lo_level, hi_level = (
            x[~hit] for x in (rows, lo, width, lo_level, hi_level)
        )
    return clock, level


def sample_inverse_at(spec: SubordinatorSpec, times, n: int, rng) -> np.ndarray:
    """Draw ``n`` paths of the inverse subordinator observed at several times.

    Returns an (n, len(times)) matrix ``H[i, j] = H_i(times[j])`` where each
    row is one underlying subordinator path, so the clock is shared across
    observation times exactly as in the continuous object.  Every spec is
    exact in law jointly at every read time, and none draws a path of
    increments.

    The four stable families are one sum of tempered stable parts
    (:func:`_parts`).  A ``Stable(alpha)`` or ``TemperedStable(alpha, 0)``
    spec renews each row's path at the first passage of every read time but
    the last, drawn from the joint law of passage time, undershoot and
    overshoot, and at the last read time adds ``(l / S(1))^alpha`` for the
    distance ``l`` left, S(1) drawn by Kanter's method in log space: read at
    one time, one stable variable per row.  Every other one races its parts
    (:func:`_inverse_race`), so ``MixedStable(c, a)`` draws the bytes of
    ``MixtureTemperedStable(c, a, 0)`` and ``TemperedStable(alpha, mu > 0)``
    those of ``MixtureTemperedStable((1,), (alpha,), (mu,))``: each round
    splits the distance left, reads the other parts' values at the winning
    first passage from their own passage times, ``l (sigma / T)^(1/alpha)``,
    exact in law given that they stayed below their shares, and renews every
    part there.  Tempered parts race in Esscher rounds cut at
    ``min(0.7 / sum_i c_i mu_i^alpha_i, 2 tau*)``, tau* the time scale of
    the row's split, accepted by rejection, so an inverse tempered stable
    clock takes a number of rounds per row that grows like ``mu t / alpha``.
    The CLI's martingale specs take about 2.5 (mixed), 2.0 (tempered) and
    3.3 (mixture) rounds per row and read time, and no round runs a
    rejection loop.  More than 10^7 rounds (``_MAX_STEPS``), or every part
    tempered and ``mu_min t > 0.7 * 10^7 + 745``, raise HorizonOverflow.

    An ``InverseGaussian(delta, gamma)`` spec is ``H(t) = sup_{s<=t}(W(s) +
    gamma s) / delta``, one normal increment and one Brownian-bridge maximum
    per row and read-time gap.  A ``Gamma(p, a)`` spec brackets each row's
    passage by doubling steps, one gamma draw each, then splits the bracket
    at the first size-biased stick of the gamma bridge, a Dirichlet process,
    until that jump covers the passage, which it then reads exactly: one Beta
    and two uniform draws per split, about one split per row and read time
    where the level ``a t`` left to pass is near 1 or below and about 1.5
    more per factor e above it.
    ``times`` must be finite, positive and strictly increasing.
    """
    grid = np.asarray(times, dtype=float)
    if (
        grid.ndim != 1
        or grid.size == 0
        or not np.all(np.isfinite(grid))
        or grid[0] <= 0
        or np.any(np.diff(grid) <= 0)
    ):
        raise DomainError("times must be a strictly increasing vector of finite positive values")
    n = _count("n", n, 1)
    gen = as_generator(rng)
    if isinstance(spec, InverseGaussian):
        return _inverse_gaussian_maximum(spec.delta, spec.gamma, grid, n, gen)
    if isinstance(spec, Gamma):
        return _inverse_gamma_bridge(spec.p, spec.a, grid, n, gen)
    if isinstance(spec, (Stable, TemperedStable)) and getattr(spec, "mu", 0.0) == 0.0:
        return _inverse_stable_renewal(spec.alpha, grid, n, gen)
    return _inverse_race(*_parts(spec), grid, n, gen)
