"""Certified enclosures for the Buchstab function and its piecewise bounds.

The Buchstab function omega is the continuous solution of

    omega(u) = 1/u                      for 1 <= u <= 2,
    (u * omega(u))' = omega(u - 1)      for u >= 2.

Each returned interval contains the exact real value (outward rounding
and `Enclosure` come from `interval`).

Closed forms used as independent anchors:

    omega(u) = (1 + log(u - 1)) / u                       on [2, 3],
    omega(u) = (1 + log(u - 1)) / u + J(u) / u            on [3, 4],
        where J(u) = integral of log(t - 1) / t over [2, u - 1].

The second form follows from integrating (u omega)' = omega(u - 1) with
omega(u - 1) = (1 + log(u - 2)) / (u - 1) and substituting t = s - 1.
J has a closed form through the dilogarithm Li2(v) = sum v^k/k^2:

    J(u) = log(u - 1)^2 / 2 + Li2(1 / (u - 1)) - pi^2 / 12.

With Li2'(v) = -log(1 - v)/v its derivative is log(u - 1)/(u - 1) +
log((u - 2)/(u - 1))/(u - 1) = log(u - 2)/(u - 1) = J'(u), and J(3) = 0
since Li2(1/2) = pi^2/12 - log(2)^2/2 (Euler's reflection formula; Lewin,
Polylogarithms and Associated Functions, 1981).

The piecewise bounds `OMEGA_LOWER` and `OMEGA_UPPER` agree with omega on
[1, 3), equal the closed form on [3, 4) (sanity-clamped to
[0.5607, 0.5644]), and flatten to the constants 0.5612 and 0.5617 for
u >= 4, bracketing the asymptotic value exp(-euler_gamma) = 0.56145...

The table, the branch range and the closed forms are numpy kernels on
float (lo, hi) endpoint arrays.  They make the same IEEE operations in
the same order as `Enclosure` arithmetic, with np.nextafter for every
outward rounding, so each result is bit-identical to the scalar form
the tests keep as their oracle.  A kernel call covers at most one grid
period of m + 1 points (m <= 10^5, so each temporary stays below 1 MB),
with exact grid bounds 1 + k/m from `_grid_bounds` and logs from
math.log per element.  An `Enclosure` is built only where a caller
reads one value.  `omega_bound_range` needs one segment per branch, and
runs it through the same kernels as one-element arrays (`_at`).

The table carries w = u * omega(u) rather than omega, since
(u omega)' = omega(u - 1) makes its step w_{k+1} = w_k + e_k, with e_k
the widened trapezoid increment.  Each e_k is rounded outward once onto
the fixed-point grid 2^-FIXED_BITS, and the increments are added as
int64 prefix sums (`_prefix_sums`), exact while every partial sum stays
within 2^62 in magnitude, a bound checked each grid period.
FIXED_BITS = 56 follows from the domain: u <= u_max <= 64 and omega <= 1
(1/u on [1, 2], at most 0.5672 past 2) give 0 < w <= 64 = 2^6, so a
sound table's sums stay below 2^62, half the int64 range.  That leaves
room for the outward widening, and every such sum converts to a float
and back exactly (2^62 is a float, and int64 -> float rounding is
monotone).  One bit more would leave no headroom near w = 64; each bit
fewer doubles the rounding of an increment, 2^-56 ~ 1.4e-17 per step.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .interval import _DOWN, _UP, Enclosure, SoundnessError, _down, _ratio_bounds, _up

__all__ = [
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

# Bound on |omega''| over [1, u_max - 1], the delayed arguments of the trapezoid
# steps of `build_table`.  On [1, 2], omega'' = 2/u**3 with maximum 2 at u = 1.
# Past 2, omega'' = (omega'(u-1) - 2 omega'(u))/u; bounded per grid cell from the
# certified table it stays below 0.7501 (tests/test_buchstab.py).  omega' jumps at
# u = 2, so omega(s-1) has a kink at s = 3, which is always a grid node.
SECOND_DERIVATIVE_BOUND = 2.0

# Global Lipschitz constant for omega on [1, u_max]: |omega'| = 1/u**2 <= 1
# on [1, 2], and |omega'(u)| = |omega(u-1) - omega(u)|/u <= 0.17/2 < 1 past 2.
LIPSCHITZ_BOUND = 1.0

# Bound on |omega'| over [3, 4], the gap fill of `branch_expression_range`.
BRANCH_DERIVATIVE_BOUND = 0.022


# The fixed-point grid 2^-FIXED_BITS of the table's prefix sums of u * omega(u),
# and the bound on their magnitude (module docstring).
FIXED_BITS = 56
_FIXED_LIMIT = 2**62


# Veltkamp's splitting factor 2^27 + 1: x * _SPLIT splits a float into
# two halves of at most 26 bits each, whose products are exact.
_SPLIT = 134217729.0


def _split(x):
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _grid_bounds(num: np.ndarray, den: int) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise `_ratio_bounds(num, den)` for integers 0 < num, den < 2^53 (arrays lo, hi).

    Both are exact floats, so f = num / den is the same correctly rounded
    division, and the side test needs the sign of f * den - num.
    Dekker's TwoProduct gives f * den = p + e exactly, with p = fl(f * den)
    (no overflow or underflow at these magnitudes); p - num is exact by
    Sterbenz's lemma, p lying within a few ulps of num; and a float sum
    of two floats has the sign of their exact sum, so (p - num) + e has
    the sign of f - num/den.
    """
    if not (0 < num.min() and num.max() < 2**53 and 0 < den < 2**53):
        raise ValueError("grid numerators and denominator must lie in (0, 2^53)")
    n = num.astype(float)
    d = float(den)
    f = n / d
    p = f * d
    f_hi, f_lo = _split(f)
    d_hi, d_lo = _split(d)
    side = (p - n) + (((f_hi * d_hi - p) + f_hi * d_lo + f_lo * d_hi) + f_lo * d_lo)
    return np.where(side > 0.0, np.nextafter(f, _DOWN), f), np.where(side < 0.0, np.nextafter(f, _UP), f)


def _log_bound(x: np.ndarray, side: float) -> np.ndarray:
    """Lower (side = _DOWN) or upper (side = _UP) bounds on log(x), x > 0, elementwise.

    math.log is not directed-rounded, so its value moves toward side by
    a 1e-14 relative allowance plus four ulps, far above the worst
    observed libm error.  np.log is another implementation, whose last
    ulp can differ from the libm that allowance was argued for.
    """
    y = np.fromiter(map(math.log, x.tolist()), float, len(x))
    y += np.copysign(np.abs(y) * 1e-14, side)
    for _ in range(4):
        y = np.nextafter(y, side)
    return y


# Terms of the Li2 series that `_li2_bound` sums.  For 0 < v <= 1/2 the
# tail is sum_{k > 50} v^k/k^2 <= v^51 / (51^2 (1 - v)) <= 2 v^51 / 51^2,
# at most LI2_TAIL = 2^-50 / 51^2 < 4e-19.  Its Horner coefficients are
# 1/k^2 for k = 50, ..., 1, rounded down and up.
LI2_TERMS = 50
LI2_TAIL = _up(2.0**-LI2_TERMS / (LI2_TERMS + 1) ** 2)
_INV_SQUARES_LO, _INV_SQUARES_HI = zip(*(_ratio_bounds(1, k * k) for k in range(LI2_TERMS, 0, -1)))

# pi lies between math.pi and the next float up.
PI_SQ_OVER_12 = Enclosure(math.pi, _up(math.pi)) * Enclosure(math.pi, _up(math.pi)) / 12.0


def _li2_bound(v: np.ndarray, side: float) -> np.ndarray:
    """Lower (side = _DOWN) or upper (side = _UP) bounds on Li2(v), 0 < v <= 1/2, elementwise.

    Horner's rule on the first LI2_TERMS terms of sum v^k/k^2, all
    positive, rounding each step toward side; the upper bound adds LI2_TAIL.
    """
    s = 0.0
    for c in _INV_SQUARES_HI if side == _UP else _INV_SQUARES_LO:
        s = np.nextafter(np.nextafter(s + c, side) * v, side)
    return np.nextafter(s + LI2_TAIL, _UP) if side == _UP else s


def _log_integral_bound(u: np.ndarray, side: float) -> np.ndarray:
    """Lower (side = _DOWN) or upper (side = _UP) bounds on J(u), 3 <= u <= 4, elementwise.

    The dilogarithm form with w = u - 1 (exact): log w >= log 2 > 0 keeps
    its direction when squared, and 1/w <= 1/2 lets its bound be capped there.
    """
    w = u - 1.0
    log_w = _log_bound(w, side)
    half_sq = np.nextafter(log_w * log_w, side) * 0.5  # halving is exact
    li2 = _li2_bound(np.minimum(np.nextafter(1.0 / w, side), 0.5), side)
    pi_term = PI_SQ_OVER_12.lo if side == _UP else PI_SQ_OVER_12.hi
    return np.nextafter(np.nextafter(half_sq + li2, side) - pi_term, side)


def _quotient(n_lo: np.ndarray, n_hi: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise `Enclosure` quotient [n_lo, n_hi] / [d_lo, d_hi] for d_lo > 0: all four endpoint quotients."""
    q = (n_lo / d_lo, n_lo / d_hi, n_hi / d_lo, n_hi / d_hi)
    lo = np.minimum(np.minimum(q[0], q[1]), np.minimum(q[2], q[3]))
    hi = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    return np.nextafter(lo, _DOWN), np.nextafter(hi, _UP)


def _expr_bounds(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise enclosures (lo, hi) of the closed form (1 + log(u - 1))/u over u in [a, b], 2 <= a <= b.

    The `Enclosure` operations of (1 + log(seg - 1.0)) / seg on
    seg = [a, b], in the same order, so bit for bit the same endpoints.
    """
    log_lo = _log_bound(np.nextafter(a - 1.0, _DOWN), _DOWN)
    log_hi = _log_bound(np.nextafter(b - 1.0, _UP), _UP)
    return _quotient(np.nextafter(log_lo + 1.0, _DOWN), np.nextafter(log_hi + 1.0, _UP), a, b)


def _branch_bounds(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise enclosures (lo, hi) of the closed form (1 + log(u - 1) + J(u))/u over u in [a, b], 3 <= a <= b <= 4.

    `_expr_bounds` + J / seg on seg = [a, b] in `Enclosure` operations,
    bit for bit.  J is nondecreasing (its integrand is nonnegative on
    [2, 3]), so bounds at a and at b bound it over the segment.  A
    non-finite value stays non-finite through every operation; on finite
    inputs it is an internal fault, so the one check at the end raises
    SoundnessError.
    """
    expr_lo, expr_hi = _expr_bounds(a, b)
    j_lo, j_hi = _quotient(_log_integral_bound(a, _DOWN), _log_integral_bound(b, _UP), a, b)
    lo = np.nextafter(expr_lo + j_lo, _DOWN)
    hi = np.nextafter(expr_hi + j_hi, _UP)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise SoundnessError("enclosure endpoints must be finite")
    return lo, hi


def _at(kernel, a: float, b: float) -> Enclosure:
    """The Enclosure an elementwise kernel gives over the one segment [a, b]."""
    lo, hi = kernel(np.array([a]), np.array([b]))
    return Enclosure(lo.item(), hi.item())


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
    enclosed with outward rounding (1/u on [1, 2), the kernels
    `_expr_bounds` on [2, 3] and `_branch_bounds` on [3, 4]) and the
    pieces are hulled.  The [3, 4) piece is intersected with the sanity
    window [0.5607, 0.5644], which provably contains the closed form there.
    """
    if u.lo < 1.0:
        raise ValueError("piecewise bounds are defined for u >= 1")
    pieces: list[Enclosure] = []
    if u.lo < 2.0:
        pieces.append(Enclosure(_down(1.0 / min(u.hi, 2.0)), _up(1.0 / u.lo)))
    # The closed forms agree at the knots, so each right-hand branch is
    # taken closed on the left; degenerate knot inputs stay covered.
    if u.hi >= 2.0 and u.lo < 3.0:
        pieces.append(_at(_expr_bounds, max(u.lo, 2.0), min(u.hi, 3.0)))
    if u.hi >= 3.0 and u.lo < 4.0:
        piece = _at(_branch_bounds, max(u.lo, 3.0), min(u.hi, 4.0))
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


def _grid_den(step: float) -> int:
    """The grid denominator m = round(1/step) of a step in [1e-5, 1e-3] that divides 1 to float precision.

    The floor keeps every grid small (at most 6.3e6 rows at u_max = 64)
    and is checked before anything is allocated.
    """
    if not 1e-5 <= step <= 1e-3:
        raise ValueError("step must lie in [1e-5, 1e-3]")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 to float precision")
    return m


def branch_expression_range(step: float = 2e-4) -> Enclosure:
    """Certified range of the closed-form branch over [3, 4].

    Encloses the closed form at each grid point 3 + k * step
    (one `_branch_bounds` call on the exact grid bounds of all m + 1
    points from `_grid_bounds`, with their logs from math.log per
    element) and fills the gaps between grid points with the
    derivative bound |omega'| <= BRANCH_DERIVATIVE_BOUND = 0.022 on
    [3, 4].  There omega'(u) = (omega(u-1) - omega(u))/u with u >= 3,
    omega(u-1) in [0.5, 0.5672] (omega peaks at about 0.56714 near
    u = 2.7632) and omega(u) in [BRANCH_FLOOR, BRANCH_CEILING] =
    [0.5607, 0.5644], so |omega'| <= (0.5644 - 0.5)/3, the larger of the
    two gaps; the tests also derive the bound from the certified table.
    That band is what the range certifies, so a range leaving it raises
    SoundnessError.
    """
    m = _grid_den(step)
    lo, hi = _branch_bounds(*_grid_bounds(np.arange(3 * m, 4 * m + 1), m))
    fill = _up(BRANCH_DERIVATIVE_BOUND * step * 0.5)
    out = Enclosure(_down(lo.min().item() - fill), _up(hi.max().item() + fill))
    if not BRANCH_FLOOR <= out.lo <= out.hi <= BRANCH_CEILING:
        raise SoundnessError(f"branch range [{out.lo}, {out.hi}] leaves [{BRANCH_FLOOR}, {BRANCH_CEILING}]")
    return out


def _prefix_sums(w_lo: int, w_hi: int, e_lo: np.ndarray, e_hi: np.ndarray):
    """Fixed-point bounds on the running sums w + e_0 + ... + e_i, or None if they could overflow.

    w lies in [w_lo, w_hi] 2^-FIXED_BITS (integers) and each e_i in
    [e_lo[i], e_hi[i]] (floats).  Each increment is rounded outward onto
    the grid 2^-FIXED_BITS (multiplying by a power of two is exact), so
    the int64 prefix sums (sum_lo, sum_hi) bound the exact ones: sum_lo[i]
    <= (w + e_0 + ... + e_i) 2^FIXED_BITS <= sum_hi[i].  They are exact
    integer additions when n increments of magnitude at most p after a
    start of magnitude at most c satisfy c + n p <= 2^62, checked in
    Python integers first; a NaN or infinite increment fails the same
    check, so None means the table has left (0, inf).
    """
    steps_lo = np.floor(e_lo * 2.0**FIXED_BITS)
    steps_hi = np.ceil(e_hi * 2.0**FIXED_BITS)
    peak = np.maximum(np.abs(steps_lo), np.abs(steps_hi)).max()
    if not (peak <= _FIXED_LIMIT and max(abs(w_lo), abs(w_hi)) + len(steps_lo) * int(peak) <= _FIXED_LIMIT):
        return None
    return np.cumsum(steps_lo.astype(np.int64)) + w_lo, np.cumsum(steps_hi.astype(np.int64)) + w_hi


def _fixed_to_float(sums: np.ndarray, side: float) -> np.ndarray:
    """The tightest float bounds on sums * 2^-FIXED_BITS on side (_DOWN or _UP), for |sums| <= 2^62.

    int64 -> float rounds to nearest, so where the float converts back
    to an integer on the inward side it steps one float outward; scaling
    by the power of two 2^-FIXED_BITS is then exact.
    """
    f = sums.astype(float)
    back = f.astype(np.int64)
    f = np.where(back > sums if side == _DOWN else back < sums, np.nextafter(f, side), f)
    return f * 2.0**-FIXED_BITS


@dataclass(frozen=True, slots=True)
class BuchstabTable:
    """Certified table of omega on the rational grid u_k = 1 + k/grid_den.

    lo[k] <= omega(1 + k/grid_den) <= hi[k]; the final index corresponds
    to u_max.  max_width is the largest hi[k] - lo[k].  The endpoints
    are read-only float64 buffers (memoryviews of format "d"): an index
    gives a Python float, a slice another buffer, and len and iteration
    work as on a tuple.  Two tables compare with ==, endpoint by
    endpoint.  A table neither hashes nor pickles, as a float64
    memoryview does neither.
    """

    u_max: float
    grid_den: int
    lo: memoryview
    hi: memoryview
    max_width: float

    __hash__ = None


def build_table(u_max: float = 8.0, step: float = 1e-4) -> BuchstabTable:
    """Solve the delay recurrence on a uniform grid with certified error.

    The grid is u_k = 1 + k/m with m = round(1/step), so the unit delay
    in (u omega)' = omega(u - 1) aligns exactly with the grid.  For
    k <= m the closed form omega = 1/u seeds the table, and w = u omega
    is exactly 1.  Past that, the integral form

        w_{k+1} = w_k + integral of omega(s - 1) over [u_k, u_{k+1}]

    is advanced with a trapezoid step on the delayed enclosures, widened
    by the trapezoid error bound h^3/12 * max|omega''| <= h^3/6 per step.
    The caller judges max_width against the width it needs.

    It runs on float lo/hi arrays, one grid period of m steps at a time:
    the period's widened increments e_k, which read entries k - m and
    k - m + 1 of earlier periods, are computed in `Enclosure`'s
    operations; `_prefix_sums` adds them to w exactly in fixed point,
    or the period raises SoundnessError; `_fixed_to_float` turns the sums
    into outward floats; and omega_{k+1} = w_{k+1} / u_{k+1} divides them
    by the exact grid bounds, rounding outward.  Operands are taken
    positive, so a product is lo*lo and hi*hi, a quotient lo/hi and
    hi/lo.  One check of every entry, finite with 0 < lo <= hi, proves
    that (a positive quotient had a positive dividend) or raises
    SoundnessError.
    """
    m = _grid_den(step)
    if not 2.0 <= u_max <= 64.0:
        raise ValueError("u_max must lie in [2, 64]")
    span = (u_max - 1.0) * m
    last = round(span)
    if abs(span - last) > 1e-6:
        raise ValueError("u_max - 1 must be a multiple of step")

    h_lo, h_hi = _ratio_bounds(1, m)
    step_pad = _up(_up(h_hi**3) * SECOND_DERIVATIVE_BOUND / 12.0)
    lo = np.empty(last + 1)
    hi = np.empty(last + 1)
    g_lo, g_hi = _grid_bounds(np.arange(m, 2 * m + 1), m)
    lo[: m + 1] = np.nextafter(1.0 / g_hi, _DOWN)
    hi[: m + 1] = np.nextafter(1.0 / g_lo, _UP)
    w_lo = w_hi = 1 << FIXED_BITS
    for start in range(m, last, m):
        # Steps k = start, ..., stop - 1 make entries start + 1, ..., stop.
        # e_k = (omega_{k-m} + omega_{k-m+1}) * h * 0.5, widened by step_pad
        stop = min(start + m, last)
        a, b = start - m, stop - m
        d_lo = np.nextafter(np.nextafter(np.nextafter(lo[a:b] + lo[a + 1 : b + 1], _DOWN) * h_lo, _DOWN) * 0.5, _DOWN)
        d_hi = np.nextafter(np.nextafter(np.nextafter(hi[a:b] + hi[a + 1 : b + 1], _UP) * h_hi, _UP) * 0.5, _UP)
        sums = _prefix_sums(w_lo, w_hi, np.nextafter(d_lo - step_pad, _DOWN), np.nextafter(d_hi + step_pad, _UP))
        if sums is None:
            raise SoundnessError(
                f"increments past u = {(m + start) / m} are not finite or overflow int64, so the table leaves (0, inf)"
            )
        sum_lo, sum_hi = sums
        w_lo, w_hi = sum_lo[-1].item(), sum_hi[-1].item()
        # omega_{k+1} = w_{k+1} / u_{k+1}
        g_lo, g_hi = _grid_bounds(np.arange(m + start + 1, m + stop + 1), m)
        lo[start + 1 : stop + 1] = np.nextafter(_fixed_to_float(sum_lo, _DOWN) / g_hi, _DOWN)
        hi[start + 1 : stop + 1] = np.nextafter(_fixed_to_float(sum_hi, _UP) / g_lo, _UP)
    ok = (0.0 < lo) & (lo <= hi) & (hi < math.inf)
    if not ok.all():
        k = int(np.argmin(ok))
        raise SoundnessError(f"table entry [{lo[k]}, {hi[k]}] at u = {(m + k) / m} is empty or leaves (0, inf)")
    width = (hi - lo).max().item()
    lo.flags.writeable = hi.flags.writeable = False
    return BuchstabTable(u_max=float(u_max), grid_den=m, lo=memoryview(lo), hi=memoryview(hi), max_width=width)


def omega_enclosure(table: BuchstabTable, u: float) -> Enclosure:
    """Enclosure of omega(u) for arbitrary u in [1, u_max].

    For each of the two neighbouring grid points, omega(u) lies within
    that grid enclosure widened by the Lipschitz bound times the exact
    distance from u to the grid point (distances computed in rational
    arithmetic, so index rounding cannot leak).  The two enclosures are
    intersected.  At a grid point, where the exact distance is 0, the
    result is the table entry itself.
    """
    if not 1.0 <= u <= table.u_max:
        raise ValueError(f"u = {u} outside table domain [1, {table.u_max}]")
    m = table.grid_den
    last = len(table.lo) - 1
    scaled = Fraction(u) * m
    k = min(max(int(scaled) - m, 0), last - 1)
    out = None
    for idx in (k, k + 1):
        entry = Enclosure(table.lo[idx], table.hi[idx])
        dist = abs(scaled - (m + idx)) / m
        if dist == 0:
            return entry
        candidate = entry.widen(_up(float(dist) * LIPSCHITZ_BOUND))
        out = candidate if out is None else out.intersect(candidate)
    return out


def dump_table_csv(table: BuchstabTable, path: str) -> int:
    """Write the table as rows (u, lo, hi) and return the row count."""
    m = table.grid_den
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "lo", "hi"])
        for k, (lo, hi) in enumerate(zip(table.lo, table.hi)):
            writer.writerow([repr((m + k) / m), repr(lo), repr(hi)])
    return len(table.lo)
