"""The zeta table: grouped batch weights for counting models with batch sizes 1..k.

``Omega(k, n)`` is the set of nonnegative integer vectors ``(x_1, .., x_k)``
with ``sum_i i * x_i = n``: the ways to decompose a total count ``n`` into
batches of size at most ``k``.  The weighted sums over ``Omega`` that every
distribution in this package reduces to are grouped by ``zeta = sum_i x_i``
(the number of batches).  Those grouped weights ``log C[n, zeta]`` are the
log view of one table of batch counts per k, cached on first use up to
:data:`N_CAP` (and up to :data:`LEVY_Y_CAP` when a count past N_CAP is asked
for): :func:`zeta_table` returns a block of it, :func:`zeta_profile` one row
and :func:`log_omega_kernel` a row's sum, and the base and time-fractional
pmf rows read its scaled columns (:func:`_batch_powers`).  Every function
here accepts counts up to LEVY_Y_CAP, what the table holds, and raises
:class:`~fracppk.errors.CapExceeded` past it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, DomainError, _Record, _count, _positive

__all__ = [
    "OrderParams",
    "log_omega_kernel",
    "zeta_profile",
    "zeta_table",
]

#: Largest count of the process layer's pmfs and tables; the zeta triangle
#: is first built this far.
N_CAP = 60

#: Largest total count of the zeta table and of the Levy weights; the
#: slowly decaying jump tail needs that range.
LEVY_Y_CAP = 200


class OrderParams(_Record):
    """Batch order ``k`` and per-stream rate ``lam`` of a counting model.

    The driving Poisson stream has total rate ``k * lam`` and each arrival
    carries an independent batch size uniform on ``{1, .., k}``.  A count
    variance rate (the largest of ``k lam`` and both moment rates) past the
    floats raises DomainError.
    """

    k: int
    lam: float

    def __post_init__(self) -> None:
        _count("order k", self.k, 1)
        _positive("rate lam", self.lam)
        if not self.var_rate < math.inf:
            raise DomainError(f"rate lam = {self.lam!r} at k = {self.k} overflows the count variance rate")

    @property
    def mean_rate(self) -> float:
        """Mean count per unit of clock time, ``lam k (k+1) / 2``."""
        return self.lam * self.k * (self.k + 1) / 2.0

    @property
    def var_rate(self) -> float:
        """Count variance per unit of clock time, ``lam k (k+1) (2k+1) / 6``."""
        return self.lam * self.k * (self.k + 1) * (2 * self.k + 1) / 6.0


def _log_factorials(top: int) -> list:
    """``log z!`` for z = 0..top, from libm's lgamma."""
    return [math.lgamma(z + 1.0) for z in range(top + 1)]


@lru_cache(maxsize=16)
def _batch_counts(k: int, top: int) -> np.ndarray:
    """``N[n, zeta]`` for n, zeta = 0..top: the number of ordered ways to write
    n as zeta batch sizes in 1..k, built column by column from
    ``N[n, zeta] = sum_(j=1..k) N[n-j, zeta-1]``.  The counts are sums of
    positive terms below 2^top, so no entry under- or overflows float64.
    Read-only, so cached rows cannot be altered.
    """
    counts = np.zeros((top + 1, top + 1))
    counts[0, 0] = 1.0
    batch = np.ones(min(k, top))
    for zeta in range(1, top + 1):
        counts[1:, zeta] = np.convolve(counts[:, zeta - 1], batch)[:top]
    counts.setflags(write=False)
    return counts


def _batch_powers(k: int, n_max: int) -> np.ndarray:
    """Rows z = 0..n_max of the z-fold convolution powers of the uniform law
    on 1..k, ``N[n, z] / k^z`` on n = 0..n_max (n_max <= N_CAP), from the cached
    counts; an entry whose ``k^-z`` is below the float range reads 0."""
    z = np.arange(n_max + 1)
    return _batch_counts(k, N_CAP)[: n_max + 1, : n_max + 1].T * np.power(float(k), -z)[:, None]


def _log_weights(k: int, n: int, rows, lo: int = 0) -> np.ndarray:
    """Read-only ``log C[rows, zeta] = log(N[rows, zeta] / zeta!)`` for zeta =
    lo..n (``-inf`` where zero); an n past :data:`LEVY_Y_CAP` raises CapExceeded."""
    if n > LEVY_Y_CAP:
        raise CapExceeded(f"n = {n} exceeds the zeta table's cap {LEVY_Y_CAP}")
    # pmf rows stop at N_CAP, so only a count past it pays for the larger counts
    counts = _batch_counts(k, N_CAP if n <= N_CAP else LEVY_Y_CAP)[rows, lo : n + 1]
    with np.errstate(divide="ignore"):
        weights = np.log(counts) - _log_factorials(n)[lo:]
    weights.setflags(write=False)
    return weights


def zeta_table(k: int, n_max: int) -> np.ndarray:
    """Read-only ``log C[n, zeta]`` for n, zeta = 0..n_max (``-inf`` where zero).

    ``C[n, zeta] = sum_(X in Omega(k,n), zeta fixed) 1/prod x_i!``; row n is
    nonzero exactly for ``ceil(n/k) <= zeta <= n``.  Every block is the log
    of one cached table of batch counts per k (up to :data:`N_CAP`, or up to
    :data:`LEVY_Y_CAP` for ``n_max`` past it), so no n rebuilds the counts.
    """
    k, n_max = _count("order k", k, 1), _count("count n_max", n_max)
    return _log_weights(k, n_max, slice(n_max + 1))


def _zeta_row(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    lo = -(-n // k)
    return np.arange(lo, n + 1, dtype=np.int64), _log_weights(k, n, n, lo)


def zeta_profile(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(zetas, log C_zeta)`` for ``Omega(k, n)``: the zetas with ``C_zeta > 0``."""
    return _zeta_row(_count("order k", k, 1), _count("count n", n))


def log_omega_kernel(k: int, n: int, w):
    """``log sum_(X in Omega(k,n)) w^zeta / prod x_i!`` for ``w >= 0``, the log
    of the basic batch kernel.

    Added to ``-k lam t`` with ``w = lam t`` this is the log of the counting
    distribution at time ``t``; the generating identity
    ``sum_n exp(log_omega_kernel(k, n, w)) u^n = exp(w (u + .. + u^k))`` ties
    it to every transform in the package.  Accepts a scalar or array ``w``;
    returns ``-inf`` where the kernel is zero (``w = 0`` with ``n >= 1``).
    Evaluated with log factorials so large ``n`` or ``w`` do not overflow.
    """
    k, n = _count("order k", k, 1), _count("count n", n)
    w_arr = np.asarray(w, dtype=float)
    if not np.all(w_arr >= 0):
        raise DomainError("kernel argument w must be nonnegative")
    scalar = w_arr.ndim == 0
    w_arr = np.atleast_1d(w_arr)
    out = np.full(w_arr.shape, -np.inf)
    if n == 0:
        out[:] = 0.0
    else:
        zetas, logc = _zeta_row(k, n)
        pos = w_arr > 0
        if np.any(pos):
            logw = np.log(w_arr[pos])
            terms = logc[:, None] + zetas[:, None] * logw[None, :]
            top = terms.max(axis=0)
            out[pos] = top + np.log(np.exp(terms - top).sum(axis=0))
    return float(out[0]) if scalar else out
