"""Gauges: open-interval neighborhood assignments on [-oo, +oo].

A gauge maps every point of a closed interval (including infinite ends)
to an open interval containing it.  A tagged partition is fine for the
gauge when each cell sits inside the window of its tag.  Constructors
here cover the three shapes that drive the integration engine: uniform
widths, windows pinched quadratically near singular points, and windows
shrunk geometrically along an enumeration (the mechanism that makes
indicator functions of countable sets integrate to zero).

A gauge is one vectorized window map over arrays of finite points plus
the two rays [-oo, neg_ray) and (pos_ray, +oo] at the ends; the scalar
``assign`` is derived from them once, on the class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .extreal import (
    NEG_INF,
    POS_INF,
    ExtRealLike,
    OpenInterval,
    ext,
)

__all__ = [
    "Gauge",
    "uniform_gauge",
    "singularity_gauge",
    "enumeration_gauge",
    "intersect_gauges",
    "is_fine",
    "rational_enumeration",
]

# Smallest admissible half-width, scaled by max(|x|, 1).  Keeps every
# constructed window nondegenerate in floats and bounds the bisection
# depth needed to satisfy a pinched gauge near its singular points.
_FLOOR_SCALE = 1024.0 * float(np.finfo(float).eps)

_WindowFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Gauge:
    """A vectorized window map on finite points plus the rays at the ends.

    The window at -oo is [-oo, neg_ray) and the window at +oo is
    (pos_ray, +oo]; both bounds are finite floats.
    """

    window_fn: _WindowFn = field(repr=False)
    neg_ray: float
    pos_ray: float
    description: str = ""

    def windows(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) float arrays of the windows at finite points z.

        Infinite window endpoints come back as float +-inf; membership
        of a finite point is then the strict comparison lo < x < hi.
        """
        return self.window_fn(np.asarray(z, dtype=float))

    def assign(self, x: ExtRealLike) -> OpenInterval:
        """The window of one point of the compactified line."""
        x = ext(x)
        if x == NEG_INF:
            return OpenInterval.ray_below(self.neg_ray)
        if x == POS_INF:
            return OpenInterval.ray_above(self.pos_ray)
        lo, hi = self.windows(np.array([x.value]))
        return OpenInterval(float(lo[0]), float(hi[0]))


def _strict_bounds_array(
    z: np.ndarray, half: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    # Guard against float collapse: the window must contain z strictly.
    lo = z - half
    hi = z + half
    bad_lo = ~(lo < z)
    bad_hi = ~(z < hi)
    if bad_lo.any():
        lo[bad_lo] = np.nextafter(z[bad_lo], -np.inf)
    if bad_hi.any():
        hi[bad_hi] = np.nextafter(z[bad_hi], np.inf)
    return lo, hi


def uniform_gauge(delta: float, tail_cutoff: float = 1e6) -> Gauge:
    """Window of total width delta at finite points.

    The ends get the rays [-oo, -tail_cutoff) and (tail_cutoff, +oo],
    so unbounded cells carved for the ends stay beyond the cutoff.
    """
    delta = float(delta)
    tail_cutoff = float(tail_cutoff)
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be a positive finite real, got {delta}")
    if not (tail_cutoff > 0 and math.isfinite(tail_cutoff)):
        raise ValueError(f"tail_cutoff must be positive finite, got {tail_cutoff}")
    half = delta / 2.0

    def window_fn(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _strict_bounds_array(z, half)

    desc = f"uniform(delta={delta:g}, tail={tail_cutoff:g})"
    return Gauge(window_fn, -tail_cutoff, tail_cutoff, desc)


def singularity_gauge(
    base: Gauge, points: Sequence[float], sharpness: float
) -> Gauge:
    """Pinch the base gauge quadratically near the given points.

    At distance d from the nearest point the window half-width is capped
    at sharpness * d**2 (floored at a machine-scaled positive value), so
    cells are forced to shrink fast approaching a singularity while the
    points themselves keep their full base windows.
    """
    pts = [float(p) for p in points]
    if not pts:
        raise ValueError("singularity_gauge needs at least one point")
    if any(not math.isfinite(p) for p in pts):
        raise ValueError("singular points must be finite")
    sharpness = float(sharpness)
    if not (sharpness > 0 and math.isfinite(sharpness)):
        raise ValueError(f"sharpness must be positive finite, got {sharpness}")
    pts_arr = np.array(sorted(set(pts)), dtype=float)

    def window_fn(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        blo, bhi = base.windows(z)
        d = np.abs(z - pts_arr[0])
        for p in pts_arr[1:]:
            np.minimum(d, np.abs(z - p), out=d)
        half = sharpness * d
        half *= d
        floor = np.abs(z)
        np.maximum(floor, 1.0, out=floor)
        floor *= _FLOOR_SCALE
        lo, hi = _strict_bounds_array(z, np.maximum(half, floor, out=half))
        np.maximum(blo, lo, out=lo)
        np.minimum(bhi, hi, out=hi)
        at_point = d == 0.0
        if at_point.any():
            lo[at_point] = blo[at_point]
            hi[at_point] = bhi[at_point]
        return lo, hi

    desc = f"singularity(points={list(pts_arr)}, sharpness={sharpness:g}) over {base.description}"
    return Gauge(window_fn, base.neg_ray, base.pos_ray, desc)


def enumeration_gauge(
    points: Iterable[float],
    epsilon: float,
    base: Gauge,
    prefix: int = 100_000,
) -> Gauge:
    """Shrink windows geometrically along an enumeration of points.

    The k-th enumerated point (first occurrence wins) gets a window of
    half-width about epsilon * 2**-(k+2) intersected with its base
    window; all other points keep the base window.  The total length of
    the enumerated windows is at most epsilon: the geometric budget is
    trimmed to leave room for the machine-precision floor that keeps
    every window nondegenerate.

    Only the first ``prefix`` points are materialized; any truncation
    error in downstream sums is bounded by the geometric tail.
    """
    epsilon = float(epsilon)
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive finite, got {epsilon}")
    vals: list[float] = []
    for i, p in enumerate(points):
        if i >= prefix:
            break
        v = float(p)
        if not math.isfinite(v):
            raise ValueError("enumerated points must be finite")
        vals.append(v)
    if not vals:
        raise ValueError("enumeration_gauge needs at least one point")
    arr = np.array(vals, dtype=float)
    scale = max(1.0, float(np.max(np.abs(arr))))
    ulp = float(np.finfo(float).eps) * scale
    eps_adj = epsilon - 8.0 * len(vals) * ulp
    if eps_adj <= 0:
        raise ValueError(
            f"epsilon={epsilon:g} is below the precision floor for "
            f"{len(vals)} enumerated points"
        )

    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    # First-match index for duplicated values: within each run of equal
    # values the earliest original position wins.
    run_start = np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
    first_by_group = np.minimum.reduceat(order, np.flatnonzero(run_start))
    sorted_first = first_by_group[np.cumsum(run_start) - 1]

    # Exponents beyond ~1070 underflow; the floor takes over well before.
    exp_cap = 1060.0

    def _half_for_index(k: np.ndarray, z: np.ndarray) -> np.ndarray:
        e = np.minimum(k.astype(float) + 2.0, exp_cap)
        geo = eps_adj * np.exp2(-e)
        floor = np.finfo(float).eps * np.maximum(np.abs(z), 1.0)
        return np.maximum(geo, floor)

    def _lookup(z: np.ndarray) -> np.ndarray:
        """First-occurrence enumeration index of each z, or -1."""
        idx = np.searchsorted(sorted_vals, z)
        k = np.full(z.shape, -1, dtype=np.int64)
        in_range = idx < len(sorted_vals)
        hit = np.zeros(z.shape, dtype=bool)
        hit[in_range] = sorted_vals[idx[in_range]] == z[in_range]
        k[hit] = sorted_first[idx[hit]]
        return k

    def window_fn(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        blo, bhi = base.windows(z)
        k = _lookup(z)
        hit = k >= 0
        if not hit.any():
            return blo, bhi
        half = _half_for_index(k[hit], z[hit])
        lo_h, hi_h = _strict_bounds_array(z[hit], half)
        lo = blo.copy()
        hi = bhi.copy()
        lo[hit] = np.maximum(blo[hit], lo_h)
        hi[hit] = np.minimum(bhi[hit], hi_h)
        return lo, hi

    desc = (
        f"enumeration(n={len(vals)}, epsilon={epsilon:g}) over {base.description}"
    )
    return Gauge(window_fn, base.neg_ray, base.pos_ray, desc)


def intersect_gauges(g1: Gauge, g2: Gauge) -> Gauge:
    """Pointwise intersection; fine for the result means fine for both."""

    def window_fn(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo1, hi1 = g1.windows(z)
        lo2, hi2 = g2.windows(z)
        return np.maximum(lo1, lo2), np.minimum(hi1, hi2)

    desc = f"({g1.description}) & ({g2.description})"
    return Gauge(window_fn, min(g1.neg_ray, g2.neg_ray), max(g1.pos_ray, g2.pos_ray), desc)


def is_fine(partition, gauge: Gauge) -> bool:
    """True iff every cell lies inside the window of its own tag.

    One window call covers the finite tags; a cell tagged -oo must end
    below neg_ray and one tagged +oo start above pos_ray.
    """
    tags, lo, hi = partition.tags, partition.lo, partition.hi
    finite = np.isfinite(tags)
    wlo, whi = gauge.windows(tags[finite])
    return bool(
        np.all((wlo < lo[finite]) & (hi[finite] < whi))
        and np.all(hi[tags == -np.inf] < gauge.neg_ray)
        and np.all(lo[tags == np.inf] > gauge.pos_ray)
    )


def rational_enumeration(count: int) -> np.ndarray:
    """First ``count`` rationals of [0, 1], ordered by denominator.

    Reduced fractions p/q with q = 1, 2, 3, ... and p ascending within
    each q; starts 0, 1, 1/2, 1/3, 2/3, 1/4, 3/4, ...
    """
    out: list[float] = []
    q = 1
    while len(out) < count:
        if q == 1:
            out.extend([0.0, 1.0])
        else:
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    out.append(p / q)
                    if len(out) >= count:
                        break
        q += 1
    return np.array(out[:count], dtype=float)
