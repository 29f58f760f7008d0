"""Outward-rounded float intervals: the certified arithmetic under every other module.

`Enclosure` is a closed interval [lo, hi] whose operators round each
computed endpoint one ulp outward, so the result contains the exact
real image of its operands.  `_ratio_bounds` encloses an exact rational
num/den by the tightest pair of floats, and `_down`, `_up` and the
directions `_DOWN`, `_UP` are the one-ulp steps the callers round with.
`SoundnessError` is the one exception a certified computation raises
when it breaks one of its own invariants.

This module imports nothing from the package: regions, quadrature,
losses, the sieve harness and the Buchstab tabulation all build on it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = ["SoundnessError", "Enclosure"]


# Rounding directions for math.nextafter and np.nextafter in the float-pair
# and array kernels.
_DOWN = -math.inf
_UP = math.inf


def _down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.nextafter(v, math.inf)


class SoundnessError(ValueError):
    """A certified computation broke one of its own invariants.

    Raised for a disjoint enclosure intersection, a nonpositive affine
    factor, or an unproved Buchstab argument range.  It signals a fault
    in the computation, never a usage error.
    """


@dataclass(frozen=True, slots=True)
class Enclosure:
    """Closed interval [lo, hi] with outward-rounded arithmetic.

    Every operator rounds the computed endpoints one ulp outward, so for
    finite inputs the result interval contains the exact real-number
    image of the operand intervals (inclusion isotonicity).  Enclosure(x)
    is the point [x, x]; a NaN or infinite endpoint is rejected.
    """

    lo: float
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.hi is None:
            object.__setattr__(self, "hi", self.lo)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("enclosure endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise SoundnessError(f"disjoint enclosures [{self.lo},{self.hi}] and [{other.lo},{other.hi}]")
        return Enclosure(lo, hi)

    def widen(self, pad: float) -> "Enclosure":
        if pad < 0:
            raise ValueError("pad must be nonnegative")
        return Enclosure(_down(self.lo - pad), _up(self.hi + pad))

    @staticmethod
    def _coerce(value) -> "Enclosure":
        if isinstance(value, Enclosure):
            return value
        if isinstance(value, float):
            return Enclosure(value, value)
        if isinstance(value, numbers.Rational):
            return Enclosure(*_ratio_bounds(value.numerator, value.denominator))
        raise TypeError(f"cannot enclose a {type(value).__name__} exactly")

    def __add__(self, other) -> "Enclosure":
        o = Enclosure._coerce(other)
        return Enclosure(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other) -> "Enclosure":
        o = Enclosure._coerce(other)
        return Enclosure(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Enclosure":
        return Enclosure._coerce(other) - self

    def __mul__(self, other) -> "Enclosure":
        o = Enclosure._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Enclosure(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        o = Enclosure._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError("division by an enclosure containing zero")
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Enclosure(_down(min(quotients)), _up(max(quotients)))

    def __rtruediv__(self, other) -> "Enclosure":
        return Enclosure._coerce(other) / self


def _ratio_bounds(num: int, den: int) -> tuple[float, float]:
    """Tightest float bounds (lo, hi) on the exact rational num/den, den > 0.

    num / den is one correctly rounded division, so the exact value lies
    between that float and its neighbour on the side the rounding moved
    away from; one integer cross-multiplication tells which side.
    """
    f = num / den
    n, d = f.as_integer_ratio()
    side = n * den - num * d  # has the sign of f - num/den
    if side == 0:
        return f, f
    return (f, _up(f)) if side < 0 else (_down(f), f)
