"""Certified enclosures for the Buchstab function and its piecewise bounds.

The Buchstab function omega is the continuous solution of

    omega(u) = 1/u                      for 1 <= u <= 2,
    (u * omega(u))' = omega(u - 1)      for u >= 2.

Everything in this module computes with closed floating-point intervals
(`Enclosure`) whose endpoints are rounded outward after every operation,
so each returned interval is guaranteed to contain the exact real value.

Closed forms used as independent anchors:

    omega(u) = (1 + log(u - 1)) / u                       on [2, 3],
    omega(u) = (1 + log(u - 1)) / u + J(u) / u            on [3, 4],
        where J(u) = integral of log(t - 1) / t over [2, u - 1].

The second form follows from integrating (u omega)' = omega(u - 1) with
omega(u - 1) = (1 + log(u - 2)) / (u - 1) and substituting t = s - 1.

The piecewise bounds `OMEGA_LOWER` and `OMEGA_UPPER` agree with omega on
[1, 3), equal the closed form on [3, 4) (sanity-clamped to
[0.5607, 0.5644]), and flatten to the constants 0.5612 and 0.5617 for
u >= 4, bracketing the asymptotic value exp(-euler_gamma) = 0.56145...
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from array import array
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SoundnessError",
    "Enclosure",
    "log_enc",
    "PiecewiseBound",
    "OMEGA_LOWER",
    "OMEGA_UPPER",
    "BuchstabTable",
    "build_table",
    "omega_enclosure",
    "branch_expression_range",
    "omega_bound",
    "omega_bound_range",
    "dump_table_csv",
]

# Sanity window for the closed-form branch on [3, 4) and plateau constants
# bracketing omega(u) for u >= 4.
BRANCH_FLOOR = 0.5607
BRANCH_CEILING = 0.5644
PLATEAU_LOWER = 0.5612
PLATEAU_UPPER = 0.5617

# Bound on |d/dt (log(t-1)/t)''| over [2, 3] and on |omega''| everywhere
# past u = 1, used in trapezoid error terms.  On [1, 2], omega'' = 2/u**3
# with maximum 2 at u = 1.  On [2, 3], differentiating
# omega'(u) = (omega(u-1) - omega(u))/u termwise and using |omega'| <= 1,
# |omega| <= 1 gives |omega''| <= (1 + 1)/2 + 0.66/4 < 2; further branches
# only shrink.  For g(t) = log(t-1)/t on [2, 3],
# g'' = -(2t-1)/(t**2 (t-1)**2) - 1/((t-1) t**2) + 2 log(t-1)/t**3, whose
# magnitude peaks at t = 2 with value 1.
SECOND_DERIVATIVE_BOUND = 2.0

# Panels of the cumulative trapezoid table of J on [3, 4] (h = 2**-17).
# Its accumulated error bound (u - 3) h^2 / 6 stays within 1e-12 of the
# (u - 3)^3 / (6 * 8192^2) of an 8192-panel trapezoid over [2, u - 1].
LOG_INTEGRAL_PANELS = 2**17

# Global Lipschitz constant for omega on [1, u_max]: |omega'| = 1/u**2 <= 1
# on [1, 2], and |omega'(u)| = |omega(u-1) - omega(u)|/u <= 0.17/2 < 1 past 2.
LIPSCHITZ_BOUND = 1.0


# Rounding directions for math.nextafter in the float-pair kernels.
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


def _log_bounds(lo: float, hi: float) -> tuple[float, float]:
    """Bounds on log over [lo, hi], 0 < lo <= hi (see log_enc)."""
    lo = math.log(lo)
    hi = math.log(hi)
    lo -= abs(lo) * 1e-14
    hi += abs(hi) * 1e-14
    for _ in range(4):
        lo = _down(lo)
        hi = _up(hi)
    return lo, hi


def log_enc(x: Enclosure) -> Enclosure:
    """Enclosure of log over a positive interval.

    math.log is not directed-rounded, so beyond the monotone endpoint
    evaluation the result is widened by four ulps plus a 1e-14 relative
    allowance, far above the worst observed libm error.
    """
    if x.lo <= 0.0:
        raise ValueError("log requires a strictly positive enclosure")
    return Enclosure(*_log_bounds(x.lo, x.hi))


def _expr_23(u: Enclosure) -> Enclosure:
    """Interval evaluation of (1 + log(u - 1)) / u, the closed form on [2, 3]."""
    return (1.0 + log_enc(u - 1.0)) / u


def _g_bounds(t: float) -> tuple[float, float]:
    """Bounds on g(t) = log(t - 1)/t at a float t in [2, 3] (t - 1 is exact there)."""
    lo, hi = _log_bounds(t - 1.0, t - 1.0)
    return _down(lo / t), _up(hi / t)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


@functools.cache
def _log_integral_table() -> tuple[array, array]:
    """Lower and upper bounds on J(3 + k h), k = 0..N, with N = LOG_INTEGRAL_PANELS, h = 1/N.

    Built once, on first use.  Panel k is the trapezoid of the interval
    values of g(t) = log(t - 1)/t on [2 + (k-1) h, 2 + k h], widened by
    the trapezoid error bound h^3/12 * max|g''| (max|g''| <= 2 on
    [2, 3]).  Each side's running sum is a float plus its TwoSum error
    terms, summed with directed rounding, so an entry carries one
    outward rounding rather than one per panel.
    """
    n = LOG_INTEGRAL_PANELS
    h = 1.0 / n
    pad = _up(_up(h**3) * SECOND_DERIVATIVE_BOUND / 12.0)
    lows = array("d", [0.0])
    highs = array("d", [0.0])
    sum_lo = sum_hi = err_lo = err_hi = 0.0
    g_prev_lo = g_prev_hi = 0.0  # g(2) = log(1)/2 = 0
    for k in range(1, n + 1):
        g_lo, g_hi = _g_bounds(2.0 + k * h)
        # Multiplying by h/2, a power of two, is exact.
        sum_lo, err = _two_sum(sum_lo, _down(_down(g_prev_lo + g_lo) * (0.5 * h) - pad))
        err_lo = _down(err_lo + err)
        sum_hi, err = _two_sum(sum_hi, _up(_up(g_prev_hi + g_hi) * (0.5 * h) + pad))
        err_hi = _up(err_hi + err)
        lows.append(_down(sum_lo + err_lo))
        highs.append(_up(sum_hi + err_hi))
        g_prev_lo, g_prev_hi = g_lo, g_hi
    return lows, highs


def _log_integral(u: float) -> Enclosure:
    """Enclosure of J(u) = integral of log(t - 1)/t over [2, u - 1], 3 <= u <= 4.

    The table entry at the grid point 3 + k h just below u, plus a
    trapezoid on the partial panel [2 + k h, u - 1] of width r, widened
    by its own error bound r^3/12 * max|g''|.
    """
    if not 3.0 <= u <= 4.0:
        raise ValueError("log integral is defined for u in [3, 4]")
    lows, highs = _log_integral_table()
    n = LOG_INTEGRAL_PANELS
    # u - 3, its scaling by n = 2**17 and r are all exact.
    x = u - 3.0
    k = int(x * n)
    r = x - k / n
    lo, hi = lows[k], highs[k]
    if r > 0.0:
        g0_lo, g0_hi = _g_bounds(2.0 + k / n)
        g1_lo, g1_hi = _g_bounds(u - 1.0)
        pad = _up(_up(_up(_up(r * r) * r) * SECOND_DERIVATIVE_BOUND) / 12.0)
        lo = _down(lo + _down(_down(_down(g0_lo + g1_lo) * (0.5 * r)) - pad))
        hi = _up(hi + _up(_up(_up(g0_hi + g1_hi) * (0.5 * r)) + pad))
    return Enclosure(lo, hi)


def _branch_34(a: float, b: float) -> Enclosure:
    """Enclosure of the closed form (1 + log(u - 1) + J(u))/u over u in [a, b], 3 <= a <= b <= 4.

    J is nondecreasing (its integrand is nonnegative on [2, 3]), so the
    table enclosures at the two endpoints bound it over the whole segment.
    """
    seg = Enclosure(a, b)
    j_range = Enclosure(_log_integral(a).lo, _log_integral(b).hi)
    return _expr_23(seg) + j_range / seg


@dataclass(frozen=True, slots=True)
class PiecewiseBound:
    """One side of the certified bracket around the Buchstab function.

    kind is "lower" or "upper"; plateau is the constant used for u >= 4.
    Both sides share the closed forms on [1, 4), so they coincide there.
    """

    kind: str
    plateau: float


OMEGA_LOWER = PiecewiseBound("lower", PLATEAU_LOWER)
OMEGA_UPPER = PiecewiseBound("upper", PLATEAU_UPPER)


def omega_bound_range(bound: PiecewiseBound, u: Enclosure) -> Enclosure:
    """Enclosure of {bound(t) : t in u}, for u inside [1, +inf).

    The interval is split at the branch knots 2, 3 and 4; each piece is
    evaluated with interval arithmetic and the pieces are hulled.  The
    [3, 4) piece is intersected with the sanity window
    [0.5607, 0.5644], which provably contains the closed form there.
    """
    if u.lo < 1.0:
        raise ValueError("piecewise bounds are defined for u >= 1")
    pieces: list[Enclosure] = []
    if u.lo < 2.0:
        pieces.append(1.0 / Enclosure(u.lo, min(u.hi, 2.0)))
    # The closed forms agree at the knots, so each right-hand branch is
    # taken closed on the left; degenerate knot inputs stay covered.
    if u.hi >= 2.0 and u.lo < 3.0:
        pieces.append(_expr_23(Enclosure(max(u.lo, 2.0), min(u.hi, 3.0))))
    if u.hi >= 3.0 and u.lo < 4.0:
        piece = _branch_34(max(u.lo, 3.0), min(u.hi, 4.0))
        pieces.append(piece.intersect(Enclosure(BRANCH_FLOOR, BRANCH_CEILING)))
    if u.hi >= 4.0:
        pieces.append(Enclosure(bound.plateau))
    out = pieces[0]
    for piece in pieces[1:]:
        out = out.hull(piece)
    return out


def omega_bound(bound: PiecewiseBound, u: float) -> Enclosure:
    """Enclosure of the bound evaluated at the single point u."""
    return omega_bound_range(bound, Enclosure(u))


def branch_expression_range(step: float = 2e-4) -> Enclosure:
    """Certified range of the closed-form branch over [3, 4].

    Encloses the closed form at each grid point 3 + k * step
    (`_branch_34`) and fills the gaps between grid points with the
    derivative bound |omega'| <= 0.022 on [3, 4].  There
    omega'(u) = (omega(u-1) - omega(u))/u with u >= 3, omega(u-1) in
    [0.5, 0.5672] (omega peaks at about 0.56714 near u = 2.7632) and
    omega(u) in [BRANCH_FLOOR, BRANCH_CEILING] = [0.5607, 0.5644], so
    |omega'| <= (0.5644 - 0.5)/3, the larger of the two gaps.  That band
    is what the range certifies, so a range leaving it raises
    SoundnessError.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError("step must lie in (0, 1e-3]")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 to float precision")
    lo_min = math.inf
    hi_max = -math.inf
    for k in range(m + 1):
        expr = _branch_34(*_ratio_bounds(3 * m + k, m))
        lo_min = min(lo_min, expr.lo)
        hi_max = max(hi_max, expr.hi)
    fill = _up(0.022 * step * 0.5)
    out = Enclosure(_down(lo_min - fill), _up(hi_max + fill))
    if not BRANCH_FLOOR <= out.lo <= out.hi <= BRANCH_CEILING:
        raise SoundnessError(f"branch range [{out.lo}, {out.hi}] leaves [{BRANCH_FLOOR}, {BRANCH_CEILING}]")
    return out


@dataclass(frozen=True, slots=True)
class BuchstabTable:
    """Certified table of omega on the rational grid u_k = 1 + k/grid_den.

    values[k] encloses omega(1 + k/grid_den); the final index corresponds
    to u_max.  max_width is the largest enclosure width in the table.
    """

    u_max: float
    grid_den: int
    values: tuple[Enclosure, ...]
    max_width: float


def build_table(u_max: float = 8.0, step: float = 1e-4) -> BuchstabTable:
    """Solve the delay recurrence on a uniform grid with certified error.

    The grid is u_k = 1 + k/m with m = round(1/step), so the unit delay
    in (u omega)' = omega(u - 1) aligns exactly with the grid.  For
    k <= m the closed form omega = 1/u seeds the table.  Past that, the
    integral form

        u_{k+1} omega(u_{k+1}) = u_k omega(u_k)
                                 + integral of omega(s - 1) over [u_k, u_{k+1}]

    is advanced with a trapezoid step on the delayed enclosures, widened
    by the trapezoid error bound h^3/12 * max|omega''| <= h^3/6 per step.
    The caller judges max_width against the width it needs.
    """
    if not 0.0 < step <= 1e-3:
        raise ValueError("step must lie in (0, 1e-3]")
    if not 2.0 <= u_max <= 64.0:
        raise ValueError("u_max must lie in [2, 64]")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 to float precision")
    span = (u_max - 1.0) * m
    last = round(span)
    if abs(span - last) > 1e-6:
        raise ValueError("u_max - 1 must be a multiple of step")

    h = Enclosure(*_ratio_bounds(1, m))
    step_pad = _up(_up(h.hi ** 3) * SECOND_DERIVATIVE_BOUND / 12.0)
    grid = [Enclosure(*_ratio_bounds(m + k, m)) for k in range(last + 1)]
    values: list[Enclosure] = [1.0 / grid[k] for k in range(min(m, last) + 1)]
    for k in range(m, last):
        delayed = (values[k - m] + values[k - m + 1]) * h * 0.5
        increment = delayed.widen(step_pad)
        values.append((values[k] * grid[k] + increment) / grid[k + 1])
    max_width = max(v.width for v in values)
    return BuchstabTable(u_max=float(u_max), grid_den=m, values=tuple(values), max_width=max_width)


def omega_enclosure(table: BuchstabTable, u: float) -> Enclosure:
    """Enclosure of omega(u) for arbitrary u in [1, u_max].

    For each of the two neighbouring grid points, omega(u) lies within
    that grid enclosure widened by the Lipschitz bound times the exact
    distance from u to the grid point (distances computed in rational
    arithmetic, so index rounding cannot leak).  The two enclosures are
    intersected; at a grid point this collapses to the table entry.
    """
    if not 1.0 <= u <= table.u_max:
        raise ValueError(f"u = {u} outside table domain [1, {table.u_max}]")
    m = table.grid_den
    last = len(table.values) - 1
    scaled = Fraction(u) * m
    k = min(max(int(scaled) - m, 0), last - 1)
    out = None
    for idx in (k, k + 1):
        dist = abs(scaled - (m + idx)) / m
        pad = _up(float(dist) * LIPSCHITZ_BOUND)
        candidate = table.values[idx].widen(pad)
        out = candidate if out is None else out.intersect(candidate)
    return out


def dump_table_csv(table: BuchstabTable, path: str) -> int:
    """Write the table as rows (u, lo, hi) and return the row count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "lo", "hi"])
        for k, enc in enumerate(table.values):
            writer.writerow([repr((table.grid_den + k) / table.grid_den), repr(enc.lo), repr(enc.hi)])
    return len(table.values)
