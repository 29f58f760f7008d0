"""Tests for the directed-rounding enclosures and the Buchstab table.

Frozen reference values and where they come from:

  * omega(u) = (1 + log(u - 1)) / u on [2, 3] is the closed form
    obtained by integrating (u omega)' = omega(u - 1) with omega = 1/u
    on [1, 2]; it is evaluated directly with math.log.
  * On [3, 4], omega(u) = (1 + log(u - 1)) / u + J(u) / u with
    J(u) = int_2^{u-1} log(t - 1) / t dt.  The literals
    J(3.5) / 3.5 = 0.013317226773258802 and
    int_2^3 log(t - 1)/t dt = 0.14722067695924124 were frozen from
    high-resolution trapezoid runs with rigorous error padding whose
    enclosures had width below 2e-10.  They are now checked against the
    closed form J(u) = log(u - 1)^2 / 2 + Li2(1/(u - 1)) - pi^2/12 that
    `_log_integral_bound` encloses, and `mpmath.quad` and
    `mpmath.polylog` check that enclosure independently.
  * omega(4) = 0.5614582414068379 follows from the closed form above.

The `scalar_*` functions are the one-point Python-float forms of the
array kernels (`_log_bound`, `_li2_bound`, `_log_integral_bound`,
`_expr_bounds`, `_branch_bounds`), kept as their bit-for-bit oracle,
as are `prefix_sum_table` for `build_table` and `scalar_bound_range`
for `omega_bound_range`.  `enclosure_table`, the older recurrence that
rescales omega through u at every step, stays as an independent
cross-check of the table.
"""

from __future__ import annotations

import csv
import math
import random
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sievebound import buchstab, interval
from sievebound.buchstab import (
    BRANCH_CEILING,
    BRANCH_FLOOR,
    OMEGA_LOWER,
    OMEGA_UPPER,
    PLATEAU_LOWER,
    PLATEAU_UPPER,
    branch_expression_range,
    build_table,
    dump_table_csv,
    omega_bound,
    omega_bound_range,
    omega_enclosure,
)
from sievebound.interval import Enclosure, SoundnessError


def closed_form_23(u: float) -> float:
    return (1.0 + math.log(u - 1.0)) / u


def log_enclosure(a: float, b: float) -> Enclosure:
    """log over [a, b] from `_log_bound`'s lower bound at a and upper bound at b."""
    return Enclosure(buchstab._log_bound(np.array([a]), interval._DOWN).item(),
                     buchstab._log_bound(np.array([b]), interval._UP).item())


def log_integral(u: float) -> Enclosure:
    """J(u), 3 <= u <= 4, from `_log_integral_bound` at the one point u."""
    point = np.array([u])
    return Enclosure(buchstab._log_integral_bound(point, interval._DOWN).item(),
                     buchstab._log_integral_bound(point, interval._UP).item())


class TestEnclosure:
    def test_point_interval(self):
        e = Enclosure(0.5)
        assert e.lo == e.hi == 0.5
        assert e.width == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Enclosure(1.0, 0.5)
        with pytest.raises(ValueError):
            Enclosure(math.nan, 1.0)
        with pytest.raises(ValueError):
            Enclosure(0.0, math.nan)
        with pytest.raises(ValueError):
            Enclosure(0.0, math.inf)

    def test_arithmetic_containment(self):
        """Interval operations must contain all pointwise results.

        For random intervals X, Y and random points x in X, y in Y the
        enclosure of X op Y has to contain x op y; this is the defining
        soundness property of the outward-rounded arithmetic.
        """
        rng = random.Random(20240801)
        for _ in range(2000):
            a = rng.uniform(-10, 10)
            b = a + rng.uniform(0, 3)
            c = rng.uniform(-10, 10)
            d = c + rng.uniform(0, 3)
            X = Enclosure(a, b)
            Y = Enclosure(c, d)
            x = rng.uniform(a, b)
            y = rng.uniform(c, d)
            assert (X + Y).contains(x + y)
            assert (X - Y).contains(x - y)
            assert (X * Y).contains(x * y)
            if c > 0.5 or d < -0.5:
                assert (X / Y).contains(x / y)

    def test_division_through_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Enclosure(1.0, 2.0) / Enclosure(-1.0, 1.0)

    def test_hull_intersect(self):
        X = Enclosure(0.0, 1.0)
        Y = Enclosure(0.5, 2.0)
        assert X.hull(Y).lo == 0.0 and X.hull(Y).hi == 2.0
        inter = X.intersect(Y)
        assert inter.lo == 0.5 and inter.hi == 1.0
        with pytest.raises(ValueError):
            Enclosure(0.0, 1.0).intersect(Enclosure(2.0, 3.0))

    def test_log_contains(self):
        """`_log_bound` brackets math.log at seeded points."""
        rng = random.Random(7)
        for _ in range(500):
            v = rng.uniform(1e-6, 50.0)
            assert log_enclosure(v, v).contains(math.log(v))

    def test_coerce_encloses_exact_rationals(self):
        """Non-float operands are enclosed outward, never rounded to a point."""
        for q in (Fraction(1, 3), Fraction(-2, 7), 2**53 + 1, -(2**53 + 1)):
            enc = Enclosure._coerce(q)
            assert Fraction(enc.lo) <= q <= Fraction(enc.hi)
            assert enc.lo < enc.hi
            for result in (Enclosure(0.0) + q, q + Enclosure(0.0), Enclosure(1.0) * q):
                assert Fraction(result.lo) <= q <= Fraction(result.hi)
        assert Enclosure._coerce(Fraction(1, 4)) == Enclosure(0.25)
        assert Enclosure._coerce(2**53) == Enclosure(float(2**53))
        assert Enclosure._coerce(0.1) == Enclosure(0.1)
        with pytest.raises(TypeError):
            Enclosure._coerce(Decimal("0.1"))

    def test_ratio_bounds_are_adjacent_floats_around_exact_value(self):
        """_ratio_bounds(num, den) is (f, f) at a float, else the two floats around num/den.

        `Enclosure._coerce`, which encloses every exact rational operand,
        gives the same bounds.
        """
        rng = random.Random(20240801)
        cases = [(1, 3), (-2, 7), (1, 4), (0, 5), (2**53 + 1, 1), (3**80, 7**50 + 1)]
        for _ in range(2000):
            den = rng.randint(1, 10 ** rng.randint(1, 60))
            cases.append((rng.randint(-den, den) * rng.choice((1, 3, 2**40)), den))
        for num, den in cases:
            q = Fraction(num, den)
            lo, hi = interval._ratio_bounds(num, den)
            assert Enclosure._coerce(q) == Enclosure(lo, hi)
            assert Fraction(lo) <= q <= Fraction(hi)
            if Fraction(lo) == q or Fraction(hi) == q:
                assert lo == hi
            else:
                assert hi == math.nextafter(lo, math.inf)


@pytest.fixture
def mpiv():
    """mpmath's interval context at 113 bits, restored afterwards."""
    mpmath = pytest.importorskip("mpmath")
    saved = mpmath.iv.prec
    mpmath.iv.prec = 113
    yield mpmath
    mpmath.iv.prec = saved


def mp_endpoints(mpmath, interval):
    with mpmath.mp.workprec(113):
        return mpmath.mp.mpf(interval.a), mpmath.mp.mpf(interval.b)


class TestAgainstMpmath:
    """Independent interval oracle: mpmath.iv at 113 bits of precision."""

    def test_log_bound_contains_mpmath(self, mpiv):
        """`_log_bound` at the ends of [a, b] brackets mpmath's interval log, at most a little wider."""
        rng = random.Random(20240801)
        for _ in range(500):
            a = 10.0 ** rng.uniform(-3.0, 3.0)
            b = min(a * (1.0 + rng.choice((0.0, 1e-9, 1e-3, 1.0)) * rng.random()), 1e3)
            enc = log_enclosure(a, b)
            lo, hi = mp_endpoints(mpiv, mpiv.iv.log(mpiv.iv.mpf([a, b])))
            assert enc.lo <= lo and hi <= enc.hi
            scale = max(abs(enc.lo), abs(enc.hi))
            assert (enc.hi - enc.lo) - float(hi - lo) <= 3e-14 * scale + 16 * math.ulp(scale)

    def test_log_integral_contains_mpmath(self):
        """J(u) from the dilogarithm form contains a 30-digit mpmath.quad value, width <= 1e-13."""
        mpmath = pytest.importorskip("mpmath")
        n = 2**17
        rng = random.Random(20240801)
        us = [3.0, 4.0, 3.5, 3.0 + 1 / n, 3.0 + 2**-40, 4.0 - 2**-50]
        us += [rng.uniform(3.0, 4.0) for _ in range(40)]
        us += [3.0 + rng.uniform(0.0, 0.05) for _ in range(20)]
        us += [3.0 + rng.randrange(n) / n for _ in range(10)]
        with mpmath.workdps(30):
            for u in us:
                enc = log_integral(u)
                exact = mpmath.quad(lambda t: mpmath.log(t - 1) / t, [2, u - 1])
                assert mpmath.mpf(enc.lo) <= exact <= mpmath.mpf(enc.hi)
                assert enc.width <= 1e-13

    def test_li2_bounds_contain_mpmath(self):
        """`_li2_bound` brackets mpmath.polylog(2, v) at v = 1/3, 1/2 and seeded points between.

        1/3 is not a float, so its lower bound is taken at the float
        below it and its upper bound at the float above.
        """
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20240801)
        with mpmath.workdps(30):
            cases = [(mpmath.mpf(1) / 3, *interval._ratio_bounds(1, 3)), (mpmath.mpf(0.5), 0.5, 0.5)]
            cases += [(mpmath.mpf(v), v, v) for v in (rng.uniform(1 / 3, 0.5) for _ in range(20))]
            for v, v_lo, v_hi in cases:
                lo = buchstab._li2_bound(v_lo, interval._DOWN)
                hi = buchstab._li2_bound(v_hi, interval._UP)
                assert mpmath.mpf(lo) <= mpmath.polylog(2, v) <= mpmath.mpf(hi)
                assert hi - lo <= 1e-14

    def test_pi_squared_over_12_contains_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        enc = buchstab.PI_SQ_OVER_12
        with mpmath.workdps(40):
            assert mpmath.mpf(enc.lo) <= mpmath.pi**2 / 12 <= mpmath.mpf(enc.hi)
        assert enc.width <= 8 * math.ulp(enc.hi)

    def test_table_entries_contain_mpmath(self, table, mpiv):
        """Grid entries on [1, 3] against 1/u and (1 + log(u - 1))/u, and on [3, 4] against the dilogarithm form.

        On [3, 4], omega(u) = (1 + L + L^2/2 + Li2(1/(u - 1)) - pi^2/12)/u
        with L = log(u - 1), past the kink of the delayed integrand at
        u = 3; mpmath has no interval dilogarithm, so it is a 113-bit
        point value, whose error (about 1e-33) is far below the
        entries' widths.
        """
        iv = mpiv.iv
        m = table.grid_den
        rng = random.Random(20240801)
        ks = [0, m, 2 * m] + rng.sample(range(1, 2 * m), 300)
        for k in ks:
            u = iv.mpf(m + k) / m
            exact = 1 / u if k <= m else (1 + iv.log(u - 1)) / u
            lo, hi = mp_endpoints(mpiv, exact)
            assert table.lo[k] <= lo and hi <= table.hi[k]
        mp = mpiv.mp
        with mp.workprec(113):
            for k in [2 * m, 3 * m] + rng.sample(range(2 * m + 1, 3 * m), 300):
                u = mp.mpf(m + k) / m
                log_w = mp.log(u - 1)
                exact = (1 + log_w + log_w**2 / 2 + mp.polylog(2, 1 / (u - 1)) - mp.pi**2 / 12) / u
                assert table.lo[k] <= exact <= table.hi[k]


FIXED = 2**buchstab.FIXED_BITS


def enclosure_table(u_max: float, step: float) -> tuple[list[Enclosure], float]:
    """(values, max_width) of the step-by-step recurrence omega_{k+1} = (omega_k u_k + e_k) / u_{k+1} in `Enclosure` arithmetic.

    An independent certified table: it carries omega, not u omega, so
    every step multiplies and divides by a grid enclosure and widens.
    Every operation is an `Enclosure` operator, which takes the min and
    max over all endpoint products and quotients and so assumes no sign.
    """
    m = round(1.0 / step)
    last = round((u_max - 1.0) * m)
    h = Enclosure(*interval._ratio_bounds(1, m))
    step_pad = interval._up(interval._up(h.hi**3) * buchstab.SECOND_DERIVATIVE_BOUND / 12.0)
    grid = [Enclosure(*interval._ratio_bounds(m + k, m)) for k in range(last + 1)]
    values = [1.0 / grid[k] for k in range(min(m, last) + 1)]
    for k in range(m, last):
        delayed = (values[k - m] + values[k - m + 1]) * h * 0.5
        increment = delayed.widen(step_pad)
        values.append((values[k] * grid[k] + increment) / grid[k + 1])
    return values, max(v.width for v in values)


def prefix_sum_table(u_max: float, step: float) -> tuple[list[Enclosure], float]:
    """(values, max_width) of `build_table`'s prefix-sum recurrence, one step at a time.

    The reference the float lo/hi kernel must match bit for bit.  The
    increment e_k is `enclosure_table`'s `Enclosure`; its ends are
    rounded outward onto the grid 2^-FIXED_BITS and added to w = u omega
    (1 at u = 2) in Python integers; w's float bounds are the floats
    around that exact rational (`_ratio_bounds`), and omega is their
    `Enclosure` quotient by the grid point.
    """
    m = round(1.0 / step)
    last = round((u_max - 1.0) * m)
    h = Enclosure(*interval._ratio_bounds(1, m))
    step_pad = interval._up(interval._up(h.hi**3) * buchstab.SECOND_DERIVATIVE_BOUND / 12.0)
    grid = [Enclosure(*interval._ratio_bounds(m + k, m)) for k in range(last + 1)]
    values = [1.0 / grid[k] for k in range(min(m, last) + 1)]
    w_lo = w_hi = FIXED
    for k in range(m, last):
        increment = ((values[k - m] + values[k - m + 1]) * h * 0.5).widen(step_pad)
        w_lo += math.floor(increment.lo * FIXED)
        w_hi += math.ceil(increment.hi * FIXED)
        w = Enclosure(interval._ratio_bounds(w_lo, FIXED)[0], interval._ratio_bounds(w_hi, FIXED)[1])
        values.append(w / grid[k + 1])
    return values, max(v.width for v in values)


def scalar_log_bound(x: float, side: float) -> float:
    """`buchstab._log_bound` for one float: math.log, the 1e-14 relative allowance, four ulps toward side."""
    y = math.log(x)
    y += math.copysign(abs(y) * 1e-14, side)
    for _ in range(4):
        y = math.nextafter(y, side)
    return y


def scalar_li2_bound(v: float, side: float) -> float:
    """`buchstab._li2_bound` for one float, Horner's rule on Python floats."""
    s = 0.0
    for c in buchstab._INV_SQUARES_HI if side == interval._UP else buchstab._INV_SQUARES_LO:
        s = math.nextafter(math.nextafter(s + c, side) * v, side)
    return interval._up(s + buchstab.LI2_TAIL) if side == interval._UP else s


def scalar_log_integral_bound(u: float, side: float) -> float:
    """`buchstab._log_integral_bound` for one float."""
    w = u - 1.0
    log_w = scalar_log_bound(w, side)
    half_sq = math.nextafter(log_w * log_w, side) * 0.5
    li2 = scalar_li2_bound(min(math.nextafter(1.0 / w, side), 0.5), side)
    pi_term = buchstab.PI_SQ_OVER_12.lo if side == interval._UP else buchstab.PI_SQ_OVER_12.hi
    return math.nextafter(math.nextafter(half_sq + li2, side) - pi_term, side)


def scalar_log_enc(x: Enclosure) -> Enclosure:
    return Enclosure(scalar_log_bound(x.lo, interval._DOWN), scalar_log_bound(x.hi, interval._UP))


def scalar_branch_34(a: float, b: float) -> Enclosure:
    """The closed form (1 + log(u - 1) + J(u))/u over [a, b] in `Enclosure` arithmetic, one point at a time.

    The reference the array kernel `buchstab._branch_bounds` must match
    bit for bit; every intermediate is an `Enclosure`, which checks it.
    """
    seg = Enclosure(a, b)
    j_range = Enclosure(scalar_log_integral_bound(a, interval._DOWN), scalar_log_integral_bound(b, interval._UP))
    return (1.0 + scalar_log_enc(seg - 1.0)) / seg + j_range / seg


def scalar_bound_range(bound, a: float, b: float) -> Enclosure:
    """`omega_bound_range(bound, Enclosure(a, b))` with each piece in `Enclosure` arithmetic, hulled."""
    pieces = []
    if a < 2.0:
        pieces.append(1.0 / Enclosure(a, min(b, 2.0)))
    if b >= 2.0 and a < 3.0:
        seg = Enclosure(max(a, 2.0), min(b, 3.0))
        pieces.append((1.0 + scalar_log_enc(seg - 1.0)) / seg)
    if b >= 3.0 and a < 4.0:
        pieces.append(scalar_branch_34(max(a, 3.0), min(b, 4.0)).intersect(Enclosure(BRANCH_FLOOR, BRANCH_CEILING)))
    if b >= 4.0:
        pieces.append(Enclosure(bound.plateau))
    out = pieces[0]
    for piece in pieces[1:]:
        out = out.hull(piece)
    return out


def hexes(pairs) -> list[tuple[str, str]]:
    return [(float(lo).hex(), float(hi).hex()) for lo, hi in pairs]


class TestArrayKernels:
    """The numpy kernels against the scalar oracles above, hex for hex."""

    @pytest.mark.parametrize("step", [1e-3, 2e-4, 1 / 1024])
    def test_branch_points_match_scalar_oracle(self, step, monkeypatch):
        """Every grid point's branch enclosure, and the range built from them by one kernel call over all m + 1 points."""
        m = round(1.0 / step)
        grid = buchstab._grid_bounds(np.arange(3 * m, 4 * m + 1), m)
        lo, hi = buchstab._branch_bounds(*grid)
        expected = [scalar_branch_34(*interval._ratio_bounds(3 * m + k, m)) for k in range(m + 1)]
        assert hexes(zip(lo.tolist(), hi.tolist())) == hexes((e.lo, e.hi) for e in expected)
        fill = interval._up(buchstab.BRANCH_DERIVATIVE_BOUND * step * 0.5)
        lo_min = min(e.lo for e in expected)
        hi_max = max(e.hi for e in expected)
        chunks = []
        kernel = buchstab._branch_bounds
        monkeypatch.setattr(buchstab, "_branch_bounds", lambda a, b: chunks.append((a, b)) or kernel(a, b))
        rng = branch_expression_range(step)
        assert len(chunks) == 1
        assert np.array_equal(chunks[0][0], grid[0]) and np.array_equal(chunks[0][1], grid[1])
        assert hexes([(rng.lo, rng.hi)]) == hexes([(interval._down(lo_min - fill), interval._up(hi_max + fill))])

    def test_omega_bound_range_matches_scalar_oracle(self):
        """`omega_bound_range`, both bounds, against `scalar_bound_range` at seeded intervals.

        Intervals inside [1, 2), [2, 3] and [3, 4], points among them,
        the knots themselves, and intervals that span one or more knots.
        """
        rng = random.Random(20240801)
        cases = [(k, k) for k in (1.0, 2.0, 3.0, 4.0)]
        for lo, hi in ((1.0, 2.0), (2.0, 3.0), (3.0, 4.0)):
            for _ in range(100):
                a = rng.uniform(lo, hi)
                cases.append((a, rng.choice((a, rng.uniform(a, hi)))))
        for _ in range(200):
            knot = rng.choice((2.0, 3.0, 4.0))
            cases.append((rng.uniform(1.0, knot), rng.uniform(knot, 5.0)))
        for bound in (OMEGA_LOWER, OMEGA_UPPER):
            got = [omega_bound_range(bound, Enclosure(a, b)) for a, b in cases]
            expected = [scalar_bound_range(bound, a, b) for a, b in cases]
            assert all(type(e.lo) is float and type(e.hi) is float for e in got)
            assert hexes((e.lo, e.hi) for e in got) == hexes((e.lo, e.hi) for e in expected)

    @pytest.mark.parametrize("m", [1000, 1024, 3000, 10**4, 2**26 + 1, 10**12 + 39])
    def test_grid_bounds_match_ratio_bounds(self, m):
        """`_grid_bounds(num, m)` equals `_ratio_bounds(num, m)` on the grid [m, 64 m] of u in [1, 64].

        The whole grid up to m = 10^4; past that its first and last 2^13
        points and 2^13 seeded ones.
        """
        if m <= 10**4:
            nums = list(range(m, 64 * m + 1))
        else:
            rng = random.Random(m)
            nums = list(range(m, m + 2**13)) + list(range(64 * m - 2**13, 64 * m + 1))
            nums += [rng.randint(m, 64 * m) for _ in range(2**13)]
        lo, hi = buchstab._grid_bounds(np.array(nums), m)
        # Positive floats: equal as floats means equal bit for bit.
        assert list(zip(lo.tolist(), hi.tolist())) == [interval._ratio_bounds(n, m) for n in nums]

    def test_grid_bounds_reject_inexact_integers(self):
        """Past 2^53 an integer is no longer an exact float, so the side test would be unsound."""
        with pytest.raises(ValueError, match="2\\^53"):
            buchstab._grid_bounds(np.array([3, 2**53]), 7)
        with pytest.raises(ValueError, match="2\\^53"):
            buchstab._grid_bounds(np.array([0, 1]), 7)

    def test_non_finite_value_raises(self, monkeypatch):
        """A non-finite value inside a kernel raises, with no RuntimeWarning; in the branch range it is a SoundnessError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(buchstab, "LI2_TAIL", math.inf)
            with pytest.raises(SoundnessError, match="finite"):
                branch_expression_range(1e-3)
            with pytest.raises(SoundnessError, match="finite"):
                omega_bound(OMEGA_UPPER, 3.5)
            monkeypatch.setattr(buchstab, "SECOND_DERIVATIVE_BOUND", math.inf)
            with pytest.raises(SoundnessError, match=r"leaves \(0, inf\)"):
                build_table(u_max=3.0, step=1e-3)


class TestTable:
    @pytest.mark.parametrize(
        "u_max, step", [(8.0, 1e-4), (4.0, 1e-3), (2.0, 1e-4), (8.0, 1 / 1024), (3.5, 1 / 3000)]
    )
    def test_float_kernel_matches_enclosure_recurrence(self, u_max, step, monkeypatch):
        """Every entry and max_width equal `prefix_sum_table`'s, bit for bit, and overlap `enclosure_table`'s, no wider.

        The kernel runs one grid period at a time: the seed's m + 1 grid
        points, then the grid bounds of the at most m entries a block
        makes, so each step's delayed entries are known before its block
        starts.  u_max = 2 runs no recurrence step, only the 1/u seed;
        u_max = 3.5 at m = 3000 ends in half a period.
        """
        m, last = round(1.0 / step), round((u_max - 1.0) / step)
        blocks = []
        kernel = buchstab._grid_bounds
        monkeypatch.setattr(buchstab, "_grid_bounds", lambda num, den: blocks.append((num[0].item(), len(num))) or kernel(num, den))
        got = build_table(u_max=u_max, step=step)
        assert blocks == [(m, m + 1)] + [(m + start + 1, min(m, last - start)) for start in range(m, last, m)]
        values, max_width = prefix_sum_table(u_max, step)
        assert len(got.lo) == len(got.hi) == len(values) == last + 1
        assert hexes(zip(got.lo, got.hi)) == hexes((v.lo, v.hi) for v in values)
        assert got.max_width.hex() == max_width.hex()
        old, old_width = enclosure_table(u_max, step)
        assert all(max(lo, v.lo) <= min(hi, v.hi) for lo, hi, v in zip(got.lo, got.hi, old))
        assert got.max_width <= old_width

    def test_largest_grid(self):
        """u_max = 64 at the default step, 630,001 rows: every entry inside (0, inf), no wider than the step-by-step recurrence's 1.0784313553280356e-08."""
        table = build_table(u_max=64.0, step=1e-4)
        lo, hi = np.asarray(table.lo), np.asarray(table.hi)
        assert len(lo) == 630_001
        assert (0.0 < lo).all() and (lo <= hi).all() and (hi < math.inf).all()
        assert table.max_width <= 1.0784313553280356e-08

    def test_prefix_sums_contain_exact_sums(self):
        """`_prefix_sums` then `_fixed_to_float` bound the exact running sums, within the grid and one float.

        Off-grid increments with a small start keep every sum below 2^53,
        where int64 -> float is exact, so only the rounding of the
        increments moves a sum; increments on the grid 2^-FIXED_BITS
        after a start of 1 make exact sums above 2^53, so only the
        conversion to float moves one.
        """
        rng = random.Random(20240801)
        off_grid = [rng.uniform(1e-6, 1e-4) for _ in range(1000)]
        on_grid = [rng.randrange(2**40, 2**42) / FIXED for _ in range(1000)]
        for start, steps in ((2**20, off_grid), (FIXED, on_grid)):
            e = np.array(steps)
            sum_lo, sum_hi = buchstab._prefix_sums(start, start, e, e)
            lo = buchstab._fixed_to_float(sum_lo, interval._DOWN).tolist()
            hi = buchstab._fixed_to_float(sum_hi, interval._UP).tolist()
            exact = Fraction(start, FIXED)
            for i, step in enumerate(steps):
                exact += Fraction(step)
                assert Fraction(lo[i]) <= exact <= Fraction(hi[i])
                assert Fraction(hi[i]) - Fraction(lo[i]) <= Fraction(2 * (i + 1), FIXED) + 2 * Fraction(math.ulp(hi[i]))

    def test_prefix_sum_overflow_raises(self, monkeypatch):
        """Increments whose int64 prefix sums would wrap raise SoundnessError before they are added.

        A step pad of 1 makes each increment about 2^56 in fixed point, so
        128 of them pass 2^63, where np.cumsum wraps without a warning.
        """
        assert np.cumsum(np.full(128, 2**56, dtype=np.int64))[-1] < 0
        monkeypatch.setattr(buchstab, "SECOND_DERIVATIVE_BOUND", 12.0 / interval._ratio_bounds(1, 1000)[1] ** 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SoundnessError, match=r"overflow int64, so the table leaves \(0, inf\)"):
                build_table(u_max=3.0, step=1e-3)

    def test_storage(self):
        """The endpoints are read-only float64 buffers: float items, buffer slices, equal tables compare equal, none hashes."""
        table = build_table(u_max=3.0, step=1e-3)
        again = build_table(u_max=3.0, step=1e-3)
        assert table == again and table is not again
        assert table != build_table(u_max=3.0, step=5e-4)
        for ends in (table.lo, table.hi):
            assert type(ends) is memoryview and ends.readonly and ends.format == "d"
            assert type(ends[7]) is float and ends[7] == list(ends)[7]
            assert ends[1000:1002].tolist() == [ends[1000], ends[1001]]
            with pytest.raises(TypeError):
                ends[0] = 0.0
        with pytest.raises(TypeError):
            hash(table)

    def test_nonpositive_entry_raises(self, monkeypatch):
        """A step pad above the trapezoid increment drives the entries down until one leaves (0, inf)."""
        monkeypatch.setattr(buchstab, "SECOND_DERIVATIVE_BOUND", 1e9)
        values, _ = enclosure_table(8.0, 1e-3)
        assert min(v.lo for v in values) < 0.0
        with pytest.raises(SoundnessError, match=r"leaves \(0, inf\)"):
            build_table(u_max=8.0, step=1e-3)

    def test_inverted_entry_raises(self, monkeypatch):
        """An entry with lo > hi is a SoundnessError, not a usage error; here the grid bounds come back swapped and apart."""
        kernel = buchstab._grid_bounds

        def inverted(num, den):
            lo, hi = kernel(num, den)
            return hi * 1.001, lo

        monkeypatch.setattr(buchstab, "_grid_bounds", inverted)
        with pytest.raises(SoundnessError, match="empty or leaves"):
            build_table(u_max=3.0, step=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_table(step=0.01)
        with pytest.raises(ValueError):
            build_table(u_max=1.5)
        with pytest.raises(ValueError):
            build_table(u_max=100.0)
        with pytest.raises(ValueError):
            build_table(u_max=3.00005, step=1e-3)
        with pytest.raises(ValueError, match=r"\[1e-5, 1e-3\]"):
            buchstab._grid_den(1e-6)
        assert build_table(u_max=3.0, step=1e-3).max_width > 1e-13

    def test_grid_point_is_table_entry(self):
        """At a float grid point the exact distance is 0, so the enclosure is the entry itself, unwidened."""
        table = build_table(u_max=4.0, step=1e-3)
        for j in range(25):
            got = omega_enclosure(table, 1.0 + j / 8)
            assert (got.lo.hex(), got.hi.hex()) == (table.lo[125 * j].hex(), table.hi[125 * j].hex())

    def test_omega_at_two(self, table):
        """omega(2) = 1/2 exactly, from the [1, 2] branch omega = 1/u."""
        enc = omega_enclosure(table, 2.0)
        assert enc.contains(0.5)
        assert enc.width <= 1e-8

    def test_closed_form_on_23(self, table):
        """Table agrees with (1 + log(u-1))/u on a fine grid of [2, 3]."""
        for k in range(0, 101):
            u = 2.0 + k / 100.0
            enc = omega_enclosure(table, u)
            val = closed_form_23(u)
            assert enc.lo - 1e-12 <= val <= enc.hi + 1e-12
            assert abs(enc.mid - val) <= 1e-6

    def test_log_integral_literals(self):
        """J(3) = 0, since Li2(1/2) = pi^2/12 - log(2)^2/2 cancels the other two terms."""
        assert log_integral(3.0).contains(0.0)
        assert (log_integral(3.5) / 3.5).contains(0.013317226773258802)
        # J(4) integrates log(t-1)/t over [2, 3].
        j4 = log_integral(4.0)
        assert j4.contains(0.14722067695924124)
        assert j4.width <= 1e-8

    def test_omega_at_four_closed_form(self, table):
        """omega(4) = (1 + log 3 + J(4)) / 4 = 0.5614582414068379."""
        enc = omega_enclosure(table, 4.0)
        assert enc.contains(0.5614582414068379)
        assert enc.width <= 5e-8

    def test_off_grid_enclosures(self, table):
        rng = random.Random(20240801)
        for _ in range(300):
            u = rng.uniform(2.0, 3.0)
            enc = omega_enclosure(table, u)
            assert enc.contains(closed_form_23(u))
            assert enc.width <= 2e-4

    def test_plateau_range(self, table):
        """Every table entry with u >= 4 lies in the plateau band."""
        start = 3 * table.grid_den  # entry k holds u = 1 + k/grid_den
        band = Enclosure(PLATEAU_LOWER, PLATEAU_UPPER)
        lo = min(table.lo[start:])
        hi = max(table.hi[start:])
        assert band.lo <= lo + 1e-7 and hi - 1e-7 <= band.hi
        # The plateau constants straddle the limiting value e^{-gamma}.
        limit = math.exp(-0.5772156649015329)
        assert PLATEAU_LOWER < limit < PLATEAU_UPPER

    def test_max_width(self, table):
        assert table.max_width <= 5e-8

    def test_lipschitz_consistency(self, table):
        """Neighboring enclosures differ by at most the Lipschitz slack."""
        rng = random.Random(99)
        for _ in range(200):
            u = rng.uniform(2.0, 7.9)
            d = rng.uniform(0.0, 0.05)
            a = omega_enclosure(table, u)
            b = omega_enclosure(table, u + d)
            slack = buchstab.LIPSCHITZ_BOUND * d + a.width + b.width + 1e-12
            assert abs(a.mid - b.mid) <= slack

    def test_csv_roundtrip(self, table, tmp_path):
        path = tmp_path / "table.csv"
        count = dump_table_csv(table, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "lo", "hi"]
        assert count == len(table.lo)
        assert len(rows) == len(table.lo) + 1
        u0, lo0, hi0 = rows[1]
        assert float(u0) == 1.0 and float(lo0) <= 1.0 <= float(hi0)
        u2, lo2, hi2 = rows[1 + table.grid_den]
        assert float(u2) == 2.0
        assert float(lo2) <= 0.5 <= float(hi2)


def grid_cell(m: int, k: int) -> Enclosure:
    """The grid cell [u_k, u_{k+1}] = [1 + k/m, 1 + (k + 1)/m], its exact endpoints rounded outward."""
    return Enclosure(interval._ratio_bounds(m + k, m)[0], interval._ratio_bounds(m + k + 1, m)[1])


def derivative_cells(table, lo: float, hi: float) -> list[Enclosure]:
    """Certified enclosures of omega' over the grid cells of [lo, hi], grid points of `table` past 2.

    There omega'(u) = (omega(u - 1) - omega(u)) / u.  Over each grid cell
    [u_k, u_k + h] both omegas are enclosed by `omega_enclosure` at the
    float midpoint of their cell, widened by LIPSCHITZ_BOUND * h, which
    covers the cell's exact points, and u by the cell's exact endpoints
    rounded outward.
    """
    m = table.grid_den
    first, last = round((lo - 1.0) * m), round((hi - 1.0) * m)
    pad = interval._up(buchstab.LIPSCHITZ_BOUND / m)
    # omega over the cells first - m, ..., last - 1: the delayed cells, then the cells of [lo, hi]
    omega = [omega_enclosure(table, (m + k + 0.5) / m).widen(pad) for k in range(first - m, last)]
    return [(omega[k - first] - omega[k - first + m]) / grid_cell(m, k) for k in range(first, last)]


def derivative_bound(table, lo: float, hi: float) -> float:
    """A certified bound on |omega'| over [lo, hi], grid points of `table` past 2, from `derivative_cells`."""
    return max(max(-slope.lo, slope.hi) for slope in derivative_cells(table, lo, hi))


class TestDerivativeConstants:
    """The derivative bounds `branch_expression_range` and `omega_enclosure` assume, checked on the certified table.

    The cell enclosures themselves widen by LIPSCHITZ_BOUND, so its check
    is a continuation argument: omega' is continuous past 2, and the
    bound derived from the constant, about 1/4 at u = 2, stays far
    inside it.
    """

    def test_branch_fill_bound(self, table):
        """|omega'| <= 0.022 on [3, 4], the fill between `branch_expression_range`'s grid points."""
        bound = derivative_bound(table, 3.0, 4.0)
        assert bound <= buchstab.BRANCH_DERIVATIVE_BOUND == 0.022
        assert bound >= ((1 + math.log(2)) / 3 - 0.5) / 3  # |omega'(3)| = (omega(3) - omega(2)) / 3

    def test_lipschitz_bound(self, table):
        """|omega'| <= LIPSCHITZ_BOUND on [2, u_max]; on [1, 2] it is 1/u**2 <= 1."""
        bound = derivative_bound(table, 2.0, table.u_max)
        assert 0.25 <= bound <= buchstab.LIPSCHITZ_BOUND

    def test_second_derivative_bound(self, table):
        """|omega''| <= SECOND_DERIVATIVE_BOUND on [1, u_max - 1], the delayed arguments of `build_table`'s trapezoid steps.

        On [1, 2], omega'' = 2/u**3 decreases from 2 at u = 1.  Past 2,
        omega'' = (omega'(u - 1) - 2 omega'(u)) / u, with omega' enclosed
        per grid cell: -1/u**2 over the cells of [1, 2], `derivative_cells`
        past 2.  omega''(2+) = (-1 - 2/4)/2 = -3/4, and the bound past 2
        stays below the 2 that u = 1 attains.
        """
        m = table.grid_den
        slopes = [-(1 / (grid_cell(m, k) * grid_cell(m, k))) for k in range(m)]
        slopes += derivative_cells(table, 2.0, table.u_max - 1.0)
        past_two = 0.0
        for k in range(m, len(slopes)):
            curvature = (slopes[k - m] - 2 * slopes[k]) / grid_cell(m, k)
            past_two = max(past_two, -curvature.lo, curvature.hi)
        assert 0.75 <= past_two < 2 / 1**3 == buchstab.SECOND_DERIVATIVE_BOUND

    def test_delay_kink_on_grid(self):
        """u = 3 is a node of every grid `build_table` accepts that reaches it.

        omega' jumps at u = 2, so the trapezoid integrand omega(s - 1)
        has a kink at s = 3; the step error bound h^3/12 * max|omega''|
        holds only where each step's integrand is smooth, so s = 3 must
        end a step.  The node is index 2m, where the table encloses
        omega(3) = (1 + log 2)/3.
        """
        reaching = 0
        for step in (1e-3, 5e-4, 3e-4, 2.5e-4, 1 / 1024, 1 / 3000):
            for u_max in (2.5, 3.0, 3.5, 4.0):
                try:
                    table = build_table(u_max=u_max, step=step)
                except ValueError:
                    continue
                m = table.grid_den
                if u_max < 3.0:
                    assert len(table.lo) - 1 < 2 * m
                    continue
                reaching += 1
                assert table.lo[2 * m] <= (1 + math.log(2)) / 3 <= table.hi[2 * m]
        assert reaching == 15


class TestPiecewiseBounds:
    def test_branch_expression_range(self):
        """The [3, 4) expression range sits inside the certified band.

        The true range of (1 + log(u-1) + J(u))/u over [3, 4] is about
        [0.56082, 0.56438]; the computed enclosure must cover it while
        staying inside [0.5607, 0.5644].
        """
        rng = branch_expression_range()
        assert BRANCH_FLOOR <= rng.lo and rng.hi <= BRANCH_CEILING
        assert rng.lo <= 0.560823 and 0.564382 <= rng.hi

    def test_branch_range_outside_its_band_raises(self, monkeypatch):
        """The derivative fill assumes omega stays in the band, so a range leaving it is a SoundnessError."""
        monkeypatch.setattr(buchstab, "BRANCH_CEILING", 0.5643)
        with pytest.raises(interval.SoundnessError, match="leaves"):
            branch_expression_range(1e-3)

    def test_bounds_sandwich_table(self, table):
        """omega_lower(u) <= omega(u) <= omega_upper(u) pointwise."""
        rng = random.Random(20240801)
        for _ in range(300):
            u = rng.uniform(2.0, 8.0)
            enc = omega_enclosure(table, u)
            low = omega_bound(OMEGA_LOWER, u)
            high = omega_bound(OMEGA_UPPER, u)
            assert low.lo <= enc.hi + 1e-9
            assert enc.lo <= high.hi + 1e-9

    def test_bounds_below_two(self):
        rng = random.Random(5)
        for _ in range(200):
            u = rng.uniform(1.0, 2.0)
            low = omega_bound(OMEGA_LOWER, u)
            high = omega_bound(OMEGA_UPPER, u)
            assert low.lo <= 1.0 / u <= high.hi

    def test_bound_range_over_interval(self):
        """Range enclosures must cover every point evaluation inside."""
        rng = random.Random(17)
        for _ in range(200):
            a = rng.uniform(1.0, 7.0)
            b = a + rng.uniform(0.0, 2.0)
            span = omega_bound_range(OMEGA_UPPER, Enclosure(a, b))
            for frac in (0.0, 0.31, 0.77, 1.0):
                u = a + frac * (b - a)
                pt = omega_bound(OMEGA_UPPER, u)
                assert span.hi >= pt.hi - 1e-12
                assert span.lo <= pt.lo + 1e-12

    def test_plateau_beyond_table(self):
        enc = omega_bound(OMEGA_UPPER, 25.0)
        assert enc.hi <= PLATEAU_UPPER + 1e-12
        enc = omega_bound(OMEGA_LOWER, 25.0)
        assert enc.lo >= PLATEAU_LOWER - 1e-12

    def test_knot_points(self):
        """Evaluation exactly at the branch knots stays defined and tight.

        omega(2) = 1/2 and omega(3) = (1 + log 2)/3 from the closed
        forms, which are continuous across the knots.
        """
        assert omega_bound(OMEGA_UPPER, 2.0).contains(0.5)
        at3 = omega_bound(OMEGA_UPPER, 3.0)
        assert at3.contains((1.0 + math.log(2.0)) / 3.0)
        assert at3.width <= 1e-9
        assert omega_bound(OMEGA_UPPER, 4.0).contains(PLATEAU_UPPER)
        assert omega_bound(OMEGA_LOWER, 1.0).contains(1.0)
