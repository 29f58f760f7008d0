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
    enclosures had width below 2e-10.
  * omega(4) = 0.5614582414068379 follows from the closed form above.
"""

from __future__ import annotations

import csv
import math
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from sievebound import buchstab
from sievebound.buchstab import (
    BRANCH_CEILING,
    BRANCH_FLOOR,
    Enclosure,
    OMEGA_LOWER,
    OMEGA_UPPER,
    PLATEAU_LOWER,
    PLATEAU_UPPER,
    branch_expression_range,
    build_table,
    dump_table_csv,
    log_enc,
    omega_bound,
    omega_bound_range,
    omega_enclosure,
)


def closed_form_23(u: float) -> float:
    return (1.0 + math.log(u - 1.0)) / u


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
        rng = random.Random(7)
        for _ in range(500):
            v = rng.uniform(1e-6, 50.0)
            assert log_enc(Enclosure(v)).contains(math.log(v))

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
            lo, hi = buchstab._ratio_bounds(num, den)
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

    def test_log_enc_contains_mpmath(self, mpiv):
        rng = random.Random(20240801)
        for _ in range(500):
            a = 10.0 ** rng.uniform(-3.0, 3.0)
            b = min(a * (1.0 + rng.choice((0.0, 1e-9, 1e-3, 1.0)) * rng.random()), 1e3)
            enc = log_enc(Enclosure(a, b))
            lo, hi = mp_endpoints(mpiv, mpiv.iv.log(mpiv.iv.mpf([a, b])))
            assert enc.lo <= lo and hi <= enc.hi
            scale = max(abs(enc.lo), abs(enc.hi))
            assert (enc.hi - enc.lo) - float(hi - lo) <= 3e-14 * scale + 16 * math.ulp(scale)

    def test_log_integral_contains_mpmath(self):
        """J(u) from the cumulative table contains a 30-digit mpmath.quad value.

        Its width stays within 1e-12 of the error bound
        (u - 3)^3 / (6 * 8192^2) of the 8192-panel trapezoid over
        [2, u - 1] that the table replaced.
        """
        mpmath = pytest.importorskip("mpmath")
        n = buchstab.LOG_INTEGRAL_PANELS
        rng = random.Random(20240801)
        us = [3.0, 4.0, 3.5, 3.0 + 1 / n, 3.0 + 2**-40, 4.0 - 2**-50]
        us += [rng.uniform(3.0, 4.0) for _ in range(40)]
        us += [3.0 + rng.uniform(0.0, 0.05) for _ in range(20)]
        us += [3.0 + rng.randrange(n) / n for _ in range(10)]
        with mpmath.workdps(30):
            for u in us:
                enc = buchstab._log_integral(u)
                exact = mpmath.quad(lambda t: mpmath.log(t - 1) / t, [2, u - 1])
                assert mpmath.mpf(enc.lo) <= exact <= mpmath.mpf(enc.hi)
                assert enc.width <= (u - 3.0) ** 3 / (6.0 * 8192**2) + 1e-12

    def test_table_entries_contain_mpmath(self, table, mpiv):
        """Grid entries on [1, 3] against 1/u and (1 + log(u - 1))/u."""
        iv = mpiv.iv
        m = table.grid_den
        rng = random.Random(20240801)
        ks = [0, m, 2 * m] + rng.sample(range(1, 2 * m), 300)
        for k in ks:
            u = iv.mpf(m + k) / m
            exact = 1 / u if k <= m else (1 + iv.log(u - 1)) / u
            lo, hi = mp_endpoints(mpiv, exact)
            assert table.values[k].lo <= lo and hi <= table.values[k].hi


class TestTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            build_table(step=0.01)
        with pytest.raises(ValueError):
            build_table(u_max=1.5)
        with pytest.raises(ValueError):
            build_table(u_max=100.0)
        with pytest.raises(ValueError):
            build_table(u_max=3.00005, step=1e-3)
        assert build_table(u_max=3.0, step=1e-3).max_width > 1e-13

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
        assert (buchstab._log_integral(3.5) / 3.5).contains(0.013317226773258802)
        # J(4) integrates log(t-1)/t over [2, 3].
        j4 = buchstab._log_integral(4.0)
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
        start = 3 * table.grid_den  # values[k] holds u = 1 + k/grid_den
        band = Enclosure(PLATEAU_LOWER, PLATEAU_UPPER)
        lo = min(e.lo for e in table.values[start:])
        hi = max(e.hi for e in table.values[start:])
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
        assert count == len(table.values)
        assert len(rows) == len(table.values) + 1
        u0, lo0, hi0 = rows[1]
        assert float(u0) == 1.0 and float(lo0) <= 1.0 <= float(hi0)
        u2, lo2, hi2 = rows[1 + table.grid_den]
        assert float(u2) == 2.0
        assert float(lo2) <= 0.5 <= float(hi2)


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
        with pytest.raises(buchstab.SoundnessError, match="leaves"):
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

    def test_log_integral_table_is_lazy(self):
        """Importing the package builds no J table; the first [3, 4) call does."""
        code = "import sievebound.cli, sievebound.buchstab as b; print(b._log_integral_table.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == "0"
        omega_bound(OMEGA_UPPER, 3.5)
        assert buchstab._log_integral_table.cache_info().currsize == 1

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
