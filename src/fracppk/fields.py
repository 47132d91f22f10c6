"""Marked Poisson random fields of order k over boxes in R^d.

Driver points form a homogeneous Poisson field with intensity ``k * lam``
per unit volume; each point carries an independent mark uniform on
{1, .., k}.  The field value of a region is the sum of marks inside it, so
counts over a box follow the order-k law with the box volume playing the
role of time, and counts over disjoint regions are independent.

Fractional variants randomize the volume scale: region volumes are pushed
through a common random clock (one draw shared by all regions of a
replicate), which makes marginals match the fractional process laws while
introducing positive dependence between disjoint regions.  The clock is the
variant's own inner-then-outer clock from :mod:`fracppk.processes`, read at
the sorted distinct volumes, and drawn exactly in law jointly at every
distinct volume of a replicate.
Their pmfs have no closed form over several regions, so they are estimated
by averaging the exact conditional pmf over simulated clocks; the estimator
returns its standard error.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .combinatorics import OrderParams, log_omega_kernel
from .errors import DomainError, _Record, _count, _reals
from .processes import (
    TimeFractional,
    Variant,
    ppok_moments,
    ppok_pmf,
    tfppok_cov,
    tfppok_mean,
    _clock_matrix,
    _event_count,
    _inverse_stable_clock_cov,
)
from .subordinators import as_generator

__all__ = [
    "BoxRegion",
    "MarkedPointField",
    "ClockVector",
    "field_pmf",
    "field_moments",
    "sample_field",
    "count_in_region",
    "sample_region_clocks",
    "fractional_field_pmf",
    "fractional_field_moments",
]


class BoxRegion(_Record):
    """Half-open axis-aligned box: points x with lo[i] <= x[i] < hi[i]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(a) for a in np.atleast_1d(self.lo))
        hi = tuple(float(b) for b in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise DomainError("lo and hi must be nonempty and equally long")
        if not all(map(math.isfinite, lo + hi)):
            raise DomainError("box coordinates must be finite")
        if any(b <= a for a, b in zip(lo, hi)):
            raise DomainError("each hi coordinate must exceed its lo coordinate")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership test for an (n, dim) array of points."""
        pts = np.atleast_2d(_reals("points", points))
        if pts.shape[1] != self.dim:
            raise DomainError(f"points must have {self.dim} coordinates")
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts < hi), axis=1)

    def covers(self, other: "BoxRegion") -> bool:
        """Whether ``other`` lies inside this box: the same dimension, and
        each of its coordinate intervals within this box's."""
        if other.dim != self.dim:
            return False
        return all(a <= c for a, c in zip(self.lo, other.lo)) and all(
            d <= b for b, d in zip(self.hi, other.hi)
        )


class MarkedPointField(_Record):
    """A realization: driver point locations with marks, inside a window."""

    points: np.ndarray
    marks: np.ndarray
    window: BoxRegion

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).reshape(-1, self.window.dim)
        marks = np.asarray(self.marks, dtype=np.int64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "marks", marks)
        if pts.shape[0] != marks.shape[0]:
            raise DomainError("points and marks must have matching lengths")
        if np.any(marks < 1):
            raise DomainError("marks must be positive integers")

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.window.dim)) + ("mark",)

    def rows(self):
        for pt, m in zip(self.points.tolist(), self.marks.tolist()):
            yield tuple(repr(c) for c in pt) + (str(m),)

    def json_payload(self) -> dict:
        return {
            "window_lo": list(self.window.lo),
            "window_hi": list(self.window.hi),
            "points": self.points.tolist(),
            "marks": self.marks.tolist(),
        }


class ClockVector(_Record):
    """Simulated clock values for a set of region volumes.

    ``clocks[i, j]`` is replicate i's clock for the region with
    ``volumes[j]``; each row is read off one shared clock path.
    """

    volumes: np.ndarray
    clocks: np.ndarray

    def __post_init__(self) -> None:
        vols = np.asarray(self.volumes, dtype=float)
        clocks = np.asarray(self.clocks, dtype=float)
        object.__setattr__(self, "volumes", vols)
        object.__setattr__(self, "clocks", clocks)
        if clocks.ndim != 2 or clocks.shape[1] != vols.size:
            raise DomainError("clocks must be a (replicates, len(volumes)) matrix")


def field_pmf(params: OrderParams, region: BoxRegion, n: int) -> float:
    """P(field value of the region = n); the box volume acts as time."""
    return ppok_pmf(params, n, region.volume)


def field_moments(params: OrderParams, region: BoxRegion) -> tuple[float, float]:
    """(mean, variance) of the field value of a region."""
    return ppok_moments(params, region.volume)


def sample_field(params: OrderParams, window: BoxRegion, rng) -> MarkedPointField:
    """Exact draw of the marked field restricted to a window."""
    gen = as_generator(rng)
    n_pts = _event_count(params, window.volume, gen)
    lo = np.asarray(window.lo)
    hi = np.asarray(window.hi)
    points = gen.uniform(lo, hi, size=(n_pts, window.dim))
    marks = gen.integers(1, params.k + 1, n_pts)
    return MarkedPointField(points, marks, window)


def count_in_region(field: MarkedPointField, region: BoxRegion) -> int:
    """Sum of marks of the field's points inside a (half-open) region."""
    if field.points.shape[0] == 0:
        return 0
    inside = region.contains(field.points)
    return int(np.sum(field.marks[inside]))


def _region_volumes(regions) -> np.ndarray:
    if isinstance(regions, BoxRegion):
        regions = [regions]
    vols = np.array([r.volume for r in regions], dtype=float)
    if vols.size == 0:
        raise DomainError("need at least one region")
    return vols


def sample_region_clocks(
    variant: Variant,
    volumes,
    size: int,
    rng,
) -> ClockVector:
    """Draw shared-path clock values at the given volumes for each replicate.

    The clock is evaluated on one path per replicate, so columns are
    positively dependent exactly as the fractional field prescribes, and it
    is exact in law jointly at every volume.
    """
    vols = _reals("volumes", volumes)
    if vols.ndim != 1 or vols.size == 0 or not np.all((vols > 0) & np.isfinite(vols)):
        raise DomainError("volumes must be a vector of positive finite numbers")
    size = _count("size", size, 1)
    gen = as_generator(rng)
    uniq, column = np.unique(vols, return_inverse=True)
    return ClockVector(vols, _clock_matrix(variant, uniq, size, gen)[:, column])


def fractional_field_pmf(
    params: OrderParams,
    variant: Variant,
    regions: Union[BoxRegion, Sequence[BoxRegion]],
    counts: Union[int, Sequence[int]],
    size: int,
    rng,
) -> tuple[float, float]:
    """Monte Carlo joint pmf of the fractional field over one or more regions.

    Returns (estimate, standard_error).  Conditionally on the clock the count
    of each region has the exact base law, so the estimator averages exact
    conditional probabilities over simulated clocks; only clock randomness
    contributes to the standard error.
    """
    vols = _region_volumes(regions)
    ns = [_count("count", n) for n in np.atleast_1d(counts)]
    if len(ns) != vols.size:
        raise DomainError("counts must match regions in length")
    k, lam = params.k, params.lam
    cv = sample_region_clocks(variant, vols, size, rng)
    cond = np.ones(size)
    for i, n in enumerate(ns):
        clock = cv.clocks[:, i]
        with np.errstate(divide="ignore"):
            log_p = -k * lam * clock + log_omega_kernel(k, n, lam * clock)
        cond *= np.exp(log_p)
    estimate = float(np.mean(cond))
    se = float(np.std(cond, ddof=1) / math.sqrt(size)) if size > 1 else float("nan")
    return estimate, se


def fractional_field_moments(
    params: OrderParams,
    beta: float,
    regions: Union[BoxRegion, Sequence[BoxRegion]],
) -> tuple[np.ndarray, np.ndarray]:
    """Exact means and covariance matrix of the inverse-stable-clock field.

    Only the inverse-stable (time-fractional) clock keeps finite moments;
    heavy-tailed stable clocks have none.  Disjoint regions are conditionally
    independent given the shared clock, so their covariance comes entirely
    from clock dependence.
    """
    beta = TimeFractional(beta).beta
    vols = _region_volumes(regions)
    means = np.array([tfppok_mean(params, v, beta) for v in vols])
    m = vols.size
    cov = np.empty((m, m))
    for i in range(m):
        cov[i, i] = tfppok_cov(params, vols[i], vols[i], beta)
        for j in range(i + 1, m):
            clock_cov = _inverse_stable_clock_cov(beta, vols[i], vols[j])
            cov[i, j] = cov[j, i] = params.mean_rate**2 * clock_cov
    return means, cov
