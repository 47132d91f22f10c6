"""Composition machinery for counting models with batch sizes 1..k.

``Omega(k, n)`` is the set of nonnegative integer vectors ``(x_1, .., x_k)``
with ``sum_i i * x_i = n``: the ways to decompose a total count ``n`` into
batches of size at most ``k``.  The weighted sums over ``Omega`` that every
distribution in this package reduces to are grouped by ``zeta = sum_i x_i``
(the number of batches).  Those grouped weights form one triangle per k,
``log C[n, zeta]``, built once on first use up to :data:`N_CAP` (and up to
:data:`LEVY_Y_CAP` when a count past N_CAP is asked for);
:func:`zeta_table` returns a block of it and :func:`zeta_profile` one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import CapExceeded, DomainError

__all__ = [
    "OrderParams",
    "Composition",
    "enumerate_omega",
    "omega_kernel",
    "log_omega_kernel",
    "zeta_profile",
    "zeta_table",
]

#: Largest total count the enumeration-backed evaluators accept by default.
N_CAP = 60

#: Largest total count of the zeta table; Levy weight reconstruction reads
#: it that far because the jump tail decays slowly.
LEVY_Y_CAP = 200

#: Hard guard on the number of compositions materialized by enumerate_omega.
_ENUMERATION_CAP = 500_000


@dataclass(frozen=True)
class OrderParams:
    """Batch order ``k`` and per-stream rate ``lam`` of a counting model.

    The driving Poisson stream has total rate ``k * lam`` and each arrival
    carries an independent batch size uniform on ``{1, .., k}``.
    """

    k: int
    lam: float

    def __post_init__(self) -> None:
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise DomainError("order k must be an integer >= 1")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise DomainError("rate lam must be positive and finite")

    @property
    def mean_rate(self) -> float:
        """Mean count per unit of clock time, ``lam k (k+1) / 2``."""
        return self.lam * self.k * (self.k + 1) / 2.0

    @property
    def var_rate(self) -> float:
        """Count variance per unit of clock time, ``lam k (k+1) (2k+1) / 6``."""
        return self.lam * self.k * (self.k + 1) * (2 * self.k + 1) / 6.0


@dataclass(frozen=True)
class Composition:
    """One element of ``Omega(k, n)``."""

    counts: tuple[int, ...]

    @property
    def zeta(self) -> int:
        """Number of batches ``sum_i x_i``."""
        return sum(self.counts)

    @property
    def total(self) -> int:
        """Total count ``sum_i i * x_i``."""
        return sum((i + 1) * x for i, x in enumerate(self.counts))

    def log_factorial_product(self) -> float:
        """``log(prod_i x_i!)``."""
        return sum(math.lgamma(x + 1.0) for x in self.counts)


def _check_kn(k: int, n: int, n_cap: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError("order k must be an integer >= 1")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError("count n must be a nonnegative integer")
    if n > n_cap:
        raise CapExceeded(f"n = {n} exceeds the configured cap {n_cap}")


@lru_cache(maxsize=256)
def _count_compositions(k: int, n: int) -> int:
    """Number of partitions of n into parts of size at most k (DP, no enumeration)."""
    table = [1] + [0] * n
    for part in range(1, k + 1):
        for value in range(part, n + 1):
            table[value] += table[value - part]
    return table[n]


@lru_cache(maxsize=8)
def _enumerate(k: int, n: int) -> tuple[Composition, ...]:
    out: list[tuple[int, ...]] = []

    def recurse(part: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if part == k:
            if remaining % k == 0:
                out.append(prefix + (remaining // k,))
            return
        for x in range(remaining // part, -1, -1):
            recurse(part + 1, remaining - part * x, prefix + (x,))

    recurse(1, n, ())
    return tuple(Composition(c) for c in out)


def enumerate_omega(k: int, n: int, n_cap: int = N_CAP) -> tuple[Composition, ...]:
    """All compositions in ``Omega(k, n)`` in descending lexicographic order.

    Results are memoized per ``(k, n)``.  Raises
    :class:`~fracppk.errors.CapExceeded` when ``n`` exceeds ``n_cap`` or the
    enumeration would materialize more than 500k vectors.
    """
    _check_kn(k, n, n_cap)
    if _count_compositions(int(k), int(n)) > _ENUMERATION_CAP:
        raise CapExceeded(f"Omega({k}, {n}) has too many elements to enumerate")
    return _enumerate(int(k), int(n))


@lru_cache(maxsize=16)
def _zeta_triangle(k: int, top: int) -> np.ndarray:
    """``log C[n, zeta]`` for n, zeta = 0..top, ``-inf`` where C is zero.

    ``C[n, zeta] = N[n, zeta] / zeta!`` with ``N[n, zeta]`` the number of
    ordered ways to write n as zeta batch sizes in 1..k, built column by
    column from ``N[n, zeta] = sum_(j=1..k) N[n-j, zeta-1]``.  The counts are
    sums of positive terms below 2^top, so no entry under- or overflows
    float64.  Read-only, so cached rows cannot be altered.
    """
    counts = np.zeros((top + 1, top + 1))
    counts[0, 0] = 1.0
    batch = np.ones(min(k, top))
    for zeta in range(1, top + 1):
        counts[1:, zeta] = np.convolve(counts[:, zeta - 1], batch)[:top]
    with np.errstate(divide="ignore"):
        table = np.log(counts) - gammaln(np.arange(top + 1) + 1.0)
    table.setflags(write=False)
    return table


def _triangle(k: int, n: int) -> np.ndarray:
    # pmf rows stop at N_CAP, so only Levy weights pay for the larger table
    return _zeta_triangle(k, N_CAP if n <= N_CAP else LEVY_Y_CAP)


def zeta_table(k: int, n_max: int, n_cap: int = N_CAP) -> np.ndarray:
    """Read-only ``log C[n, zeta]`` for n, zeta = 0..n_max (``-inf`` where zero).

    ``C[n, zeta] = sum_(X in Omega(k,n), zeta fixed) 1/prod x_i!``; row n is
    nonzero exactly for ``ceil(n/k) <= zeta <= n``.  Every block is read from
    one cached triangle per k (up to :data:`N_CAP`, or up to
    :data:`LEVY_Y_CAP` for ``n_max`` past it), so no n rebuilds the weights.
    """
    _check_kn(k, n_max, min(n_cap, LEVY_Y_CAP))
    return _triangle(int(k), int(n_max))[: n_max + 1, : n_max + 1]


def _zeta_row(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    lo = -(-n // k)
    return np.arange(lo, n + 1, dtype=np.int64), _triangle(k, n)[n, lo : n + 1]


def zeta_profile(k: int, n: int, n_cap: int = N_CAP) -> tuple[np.ndarray, np.ndarray]:
    """``(zetas, log C_zeta)`` for ``Omega(k, n)``: the zetas with ``C_zeta > 0``."""
    _check_kn(k, n, min(n_cap, LEVY_Y_CAP))
    return _zeta_row(int(k), int(n))


def log_omega_kernel(k: int, n: int, w, n_cap: int = N_CAP):
    """``log sum_(X in Omega(k,n)) w^zeta / prod x_i!`` for ``w >= 0``.

    Accepts a scalar or array ``w``; returns ``-inf`` where the kernel is zero
    (``w = 0`` with ``n >= 1``).  Evaluated with log factorials so large ``n``
    or ``w`` do not overflow.
    """
    _check_kn(k, n, min(n_cap, LEVY_Y_CAP))
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr < 0):
        raise DomainError("kernel argument w must be nonnegative")
    scalar = w_arr.ndim == 0
    w_arr = np.atleast_1d(w_arr)
    out = np.full(w_arr.shape, -np.inf)
    if n == 0:
        out[:] = 0.0
    else:
        zetas, logc = _zeta_row(int(k), int(n))
        pos = w_arr > 0
        if np.any(pos):
            logw = np.log(w_arr[pos])
            terms = logc[:, None] + zetas[:, None] * logw[None, :]
            top = terms.max(axis=0)
            out[pos] = top + np.log(np.exp(terms - top).sum(axis=0))
    return float(out[0]) if scalar else out


def omega_kernel(k: int, n: int, w, n_cap: int = N_CAP):
    """``sum_(X in Omega(k,n)) w^zeta / prod x_i!``, the basic batch kernel.

    Multiplied by ``e^(-k lam t)`` with ``w = lam t`` this is the counting
    distribution at time ``t``; the generating identity
    ``sum_n omega_kernel(k, n, w) u^n = exp(w (u + .. + u^k))`` ties it to
    every transform in the package.
    """
    res = log_omega_kernel(k, n, w, n_cap)
    return np.exp(res) if isinstance(res, np.ndarray) else float(np.exp(res))
