"""Points and intervals of the two-point compactified real line [-oo, +oo].

Infinite endpoints are symbolic: membership tests against them are set
logic, never float arithmetic.  Unbounded intervals carry length 0 by
convention, which is what makes Riemann sums over the compactified line
finite sums of finite terms.  JSON spells the ends "inf" and "-inf".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "ExtReal",
    "NEG_INF",
    "POS_INF",
    "ext",
    "ClosedInterval",
    "OpenInterval",
    "DegenerateIntervalError",
    "closed_subset_of_open",
]

ExtRealLike = Union["ExtReal", float, int]


class DegenerateIntervalError(ValueError):
    """Raised when an interval would be empty or a single point."""


class ExtReal:
    """A point of [-oo, +oo]: either a finite real or one of the two ends.

    Finite values are ordinary floats; NaN is rejected.  Float infinities
    passed to the constructor are mapped to the symbolic ends so that no
    float infinity is ever stored.
    """

    __slots__ = ("_rank", "_value")

    def __init__(self, value: ExtRealLike):
        if isinstance(value, ExtReal):
            object.__setattr__(self, "_rank", value._rank)
            object.__setattr__(self, "_value", value._value)
            return
        v = float(value)
        if math.isnan(v):
            raise ValueError("NaN is not a point of the extended real line")
        if math.isinf(v):
            object.__setattr__(self, "_rank", 1 if v > 0 else -1)
            object.__setattr__(self, "_value", 0.0)
        else:
            object.__setattr__(self, "_rank", 0)
            object.__setattr__(self, "_value", v)

    @classmethod
    def _end(cls, rank: int) -> "ExtReal":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_rank", rank)
        object.__setattr__(obj, "_value", 0.0)
        return obj

    @property
    def is_finite(self) -> bool:
        return self._rank == 0

    @property
    def value(self) -> float:
        """The finite float value; raises for the infinite ends."""
        if self._rank != 0:
            raise ValueError("infinite endpoint has no finite value")
        return self._value

    def as_float(self) -> float:
        """Float view: finite value, or +-math.inf for the ends."""
        if self._rank == 0:
            return self._value
        return math.inf if self._rank > 0 else -math.inf

    def _key(self):
        return (self._rank, self._value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __lt__(self, other: "ExtReal") -> bool:
        return self._key() < ext(other)._key()

    def __le__(self, other: "ExtReal") -> bool:
        return self._key() <= ext(other)._key()

    def __gt__(self, other: "ExtReal") -> bool:
        return self._key() > ext(other)._key()

    def __ge__(self, other: "ExtReal") -> bool:
        return self._key() >= ext(other)._key()

    def __neg__(self) -> "ExtReal":
        if self._rank == 0:
            return ExtReal(-self._value)
        return NEG_INF if self._rank > 0 else POS_INF

    def __str__(self) -> str:
        if self._rank > 0:
            return "+inf"
        if self._rank < 0:
            return "-inf"
        return repr(self._value)

    def __repr__(self) -> str:
        if self._rank > 0:
            return "POS_INF"
        if self._rank < 0:
            return "NEG_INF"
        return f"ExtReal({self._value!r})"


NEG_INF = ExtReal._end(-1)
POS_INF = ExtReal._end(1)


def ext(value: ExtRealLike) -> ExtReal:
    """Coerce a float, int, or ExtReal to an ExtReal."""
    return value if isinstance(value, ExtReal) else ExtReal(value)


@dataclass(frozen=True, slots=True)
class ClosedInterval:
    """Nondegenerate closed interval [lo, hi] of the compactified line."""

    lo: ExtReal
    hi: ExtReal

    def __post_init__(self):
        lo, hi = ext(self.lo), ext(self.hi)
        if not lo < hi:
            raise DegenerateIntervalError(
                f"closed interval needs lo < hi, got [{lo}, {hi}]"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_bounded(self) -> bool:
        return self.lo.is_finite and self.hi.is_finite

    def length(self) -> float:
        """Finite length for bounded intervals, 0 by convention otherwise."""
        if not self.is_bounded:
            return 0.0
        return self.hi.value - self.lo.value

    def contains(self, x: ExtRealLike) -> bool:
        x = ext(x)
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return f"ClosedInterval({self.lo}, {self.hi})"


@dataclass(frozen=True, slots=True)
class OpenInterval:
    """Open interval of the compactified line, optionally adjoining an end.

    (lo, hi) with two flags: includes_neg_inf is allowed only when
    lo is -oo (the set is then [-oo, hi)), and symmetrically for +oo.
    These are exactly the neighborhood shapes a gauge may assign.
    """

    lo: ExtReal
    hi: ExtReal
    includes_neg_inf: bool = False
    includes_pos_inf: bool = False

    def __post_init__(self):
        lo, hi = ext(self.lo), ext(self.hi)
        if not lo < hi:
            raise DegenerateIntervalError(
                f"open interval needs lo < hi, got ({lo}, {hi})"
            )
        if self.includes_neg_inf and lo != NEG_INF:
            raise ValueError("interval can adjoin -inf only when lo is -inf")
        if self.includes_pos_inf and hi != POS_INF:
            raise ValueError("interval can adjoin +inf only when hi is +inf")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "includes_neg_inf", bool(self.includes_neg_inf))
        object.__setattr__(self, "includes_pos_inf", bool(self.includes_pos_inf))

    @classmethod
    def ray_below(cls, hi: ExtRealLike) -> "OpenInterval":
        """[-oo, hi): the neighborhoods of -oo."""
        return cls(NEG_INF, hi, includes_neg_inf=True)

    @classmethod
    def ray_above(cls, lo: ExtRealLike) -> "OpenInterval":
        """(lo, +oo]: the neighborhoods of +oo."""
        return cls(lo, POS_INF, includes_pos_inf=True)

    def contains(self, x: ExtRealLike) -> bool:
        x = ext(x)
        if x == NEG_INF:
            return self.includes_neg_inf
        if x == POS_INF:
            return self.includes_pos_inf
        return self.lo < x < self.hi

    def float_bounds(self) -> tuple[float, float]:
        """(lo, hi) as floats with the ends mapped to +-math.inf.

        Strict comparison against these floats decides membership for
        finite points; the symbolic flags remain authoritative for the
        ends themselves.
        """
        return self.lo.as_float(), self.hi.as_float()

    def __repr__(self) -> str:
        left = "[" if self.includes_neg_inf else "("
        right = "]" if self.includes_pos_inf else ")"
        return f"OpenInterval{left}{self.lo}, {self.hi}{right}"


def closed_subset_of_open(c: ClosedInterval, o: OpenInterval) -> bool:
    """True iff every point of c, including infinite endpoints, lies in o.

    Intervals are convex, so endpoint membership decides containment.
    """
    return o.contains(c.lo) and o.contains(c.hi)


def _json_float(x: float) -> object:
    # Strict JSON has no nan/inf literals; those states are legitimate
    # outputs here (a diverged side reports nan), so encode as strings.
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _sanitize_json(obj):
    if isinstance(obj, dict):
        return {k: _sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize_json(v) for v in obj]
    if isinstance(obj, float):
        return _json_float(obj)
    return obj
