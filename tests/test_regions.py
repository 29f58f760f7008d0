"""Tests for the exact rational region predicates.

Closed-form volume fractions used as oracles (unit hypercube, independent
uniform coordinates):

  * P(T1 + T2 <= 1/2) = 1/8 and P(T1 + T2 <= 3/2) = 7/8 (corner simplices);
  * P(T1 + T2 + T3 <= 1) = 1/6 (standard simplex);
  * P(T1 - T2 <= 0) = 1/2 (symmetry).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from sievebound import quadrature, regions
from sievebound.interval import _ratio_bounds
from sievebound.losses import LOSS_NAMES, integration_domain
from sievebound.quadrature import integrate_mc
from sievebound.regions import (
    PAIR_BASE,
    REGION_A,
    REGION_B,
    REGION_C,
    REGION_U_A3,
    REGION_U_B3,
    SIEVE_FLOOR,
    TYPE_II_STRIP,
    WINDOW_HI,
    WINDOW_LO,
    AndNode,
    LinearConstraint,
    region_catalog,
    type_i_feasible,
    type_ii_feasible,
)

F = Fraction

INSIDE, OUTSIDE, MIXED = "inside", "outside", "mixed"


def corner_range(coeffs, box):
    """Exact (min, max) of sum(coeffs[i] * t_i) over the box, attained at corners."""
    lo = sum((F(co) * F(a if co > 0 else b) for co, (a, b) in zip(coeffs, box)), F(0))
    hi = sum((F(co) * F(b if co > 0 else a) for co, (a, b) in zip(coeffs, box)), F(0))
    return lo, hi


def corner_verdict(rel, bound, lo, hi):
    """Exact corner-range verdict INSIDE / OUTSIDE / MIXED, strict read as non-strict (test oracle).

    A box touching the halfspace only on its face is MIXED.
    """
    if rel in ("<", "<="):
        return INSIDE if hi <= bound else OUTSIDE if lo > bound else MIXED
    return INSIDE if lo >= bound else OUTSIDE if hi < bound else MIXED


def exact_frechet(node, box):
    """Exact rational Frechet bounds from LinearConstraint.fraction (test oracle)."""
    if isinstance(node, LinearConstraint):
        f = node.fraction(box)
        return f, f
    parts = [exact_frechet(c, box) for c in node.children]
    if isinstance(node, AndNode):
        lo = 1 - sum((1 - p[0] for p in parts), F(0))
        hi = min((p[1] for p in parts), default=F(1))
    else:
        lo = max((p[0] for p in parts), default=F(0))
        hi = sum((p[1] for p in parts), F(0))
    return max(lo, F(0)), min(hi, F(1))


def undecided(region, box) -> bool:
    """Whether the region's fraction bounds on the box are neither (1, 1) nor (0, 0)."""
    lo, hi = region.fraction(box)
    return hi > 0.0 and lo < 1.0


def anisotropic_leaf(rng: random.Random, region, domain):
    """A leaf of domain from random bisections, kept undecided by the region's fraction where possible.

    One coordinate is halved up to 17 times more often than the others,
    so side ratios (relative to the domain) reach 2**17 > 1e5.
    """
    splits = [rng.randint(0, 4) for _ in domain]
    splits[rng.randrange(len(domain))] += rng.randint(0, 13)
    order = [i for i, n in enumerate(splits) for _ in range(n)]
    rng.shuffle(order)
    box = list(domain)
    for i in order:
        lo, hi = box[i]
        mid = 0.5 * (lo + hi)
        halves = [box[:i] + [half] + box[i + 1 :] for half in ((lo, mid), (mid, hi))]
        rng.shuffle(halves)
        mixed = [h for h in halves if undecided(region, tuple(h))]
        box = (mixed or halves)[0]
    return tuple(box)


def random_box(rng: random.Random, dims: int, lo=-1.0, hi=1.0):
    box = []
    for _ in range(dims):
        a = rng.uniform(lo, hi)
        b = a + rng.uniform(0.0, 0.5 * (hi - lo))
        box.append((a, b))
    return tuple(box)


class TestConstants:
    def test_exact_rationals(self):
        assert SIEVE_FLOOR == F(3, 19)
        assert WINDOW_LO == F(8, 19)
        assert WINDOW_HI == F(11, 19)
        assert regions.B_SECOND_CAP == F(9, 38)


class TestLinearConstraint:
    def test_evaluate_exact(self):
        c = LinearConstraint(coeffs=(1, 2), rel="<", bound=F(1, 2))
        assert c.evaluate((F(1, 8), F(1, 8))) is True  # 3/8 < 1/2
        assert c.evaluate((F(1, 4), F(1, 8))) is False  # 1/2 < 1/2 fails

    def test_decided_fractions_match_corner_logic(self):
        """The exact fraction is 1 or 0 exactly where exact corner-range logic decides the box.

        A linear form attains its box extremes at corners.  Strict and
        non-strict relations are conflated (boundary slices carry no
        volume): the fraction is 1 iff the corner range lies in the closed
        halfspace, and 0 iff it lies outside, or meets the halfspace only
        where the form equals the bound (a face contact).  The inputs mix
        float, non-dyadic Fraction and subnormal endpoints, endpoints near
        2**60 and 2**-60, non-integer coefficients, and bounds placed
        exactly on a corner value for every relation.
        """

        def interval(rng, kind):
            if kind == "fraction":
                a, b = (F(rng.randint(-60, 60), rng.randint(1, 97)) for _ in range(2))
            elif kind == "subnormal":
                a, b = (rng.randint(-40, 40) * math.ulp(0.0) for _ in range(2))
            else:
                scale = {"float": 1.0, "huge": 2.0**60, "tiny": 2.0**-60}[kind]
                a, b = (rng.uniform(-1.0, 1.0) * scale for _ in range(2))
            return (min(a, b), max(a, b))

        rng = random.Random(20240801)
        kinds = ("float", "fraction", "subnormal", "huge", "tiny")
        ties = {rel: 0 for rel in ("<", "<=", ">", ">=")}
        faces = 0
        for trial in range(2000):
            dims = rng.randint(1, 4)
            coeffs = tuple(rng.randint(-3, 3) for _ in range(dims))
            if trial % 4 == 3:
                coeffs = tuple(F(c, rng.randint(1, 6)) for c in coeffs)
            kind = kinds[trial % len(kinds)]
            box = random_box(rng, dims) if kind == "float" else tuple(interval(rng, kind) for _ in range(dims))
            lo, hi = corner_range(coeffs, box)
            scale = {"huge": 2**60, "tiny": F(1, 2**60), "subnormal": F(math.ulp(0.0))}.get(kind, 1)
            bounds = [F(rng.randint(-8, 8), rng.randint(1, 9)) * scale, lo, hi]
            for rel in ("<", "<=", ">", ">="):
                for bound in bounds:
                    c = LinearConstraint(coeffs=coeffs, rel=rel, bound=bound)
                    f = c.fraction(box)
                    if lo == hi == bound:
                        # The form is constant on the box, at the bound: no volume either way.
                        assert f in (0, 1)
                        continue
                    verdict = corner_verdict(rel, bound, lo, hi)
                    face = lo != hi and bound == (lo if rel in ("<", "<=") else hi)
                    assert (f == 1) == (verdict == INSIDE), (coeffs, rel, bound, box)
                    assert (f == 0) == (verdict == OUTSIDE or face), (coeffs, rel, bound, box)
                    ties[rel] += bound in (lo, hi) and lo != hi
                    faces += face
        assert min(ties.values()) >= 1000 and faces >= 4000

    def test_invalid_boxes_rejected(self):
        """A lo > hi interval or a NaN or infinite endpoint is a ValueError, not a verdict."""
        c = LinearConstraint((1, 1), "<=", F(1, 2))
        bad = [
            ((0.5, 0.25), (0.0, 1.0)),
            ((0.0, 1.0), (F(1, 3), F(1, 4))),
            ((math.nan, 0.5), (0.0, 1.0)),
            ((0.0, 1.0), (0.0, math.nan)),
            ((0.0, math.inf), (0.0, 1.0)),
            ((0.0, 1.0), (-math.inf, 0.0)),
        ]
        for box in bad:
            for call in (REGION_A.fraction, c.fraction, c.fraction_bounds):
                with pytest.raises(ValueError):
                    call(box)

    def test_fraction_closed_forms(self):
        assert LinearConstraint((1, 1), "<=", F(1, 2)).fraction(
            ((0.0, 1.0), (0.0, 1.0))
        ) == F(1, 8)
        assert LinearConstraint((1, 1), "<=", F(3, 2)).fraction(
            ((0.0, 1.0), (0.0, 1.0))
        ) == F(7, 8)
        assert LinearConstraint((1, 1, 1), "<=", F(1)).fraction(
            ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        ) == F(1, 6)
        assert LinearConstraint((1, -1), "<=", F(0)).fraction(
            ((0.0, 1.0), (0.0, 1.0))
        ) == F(1, 2)
        # Strict and complementary relations are consistent.
        leq = LinearConstraint((1, 1), "<=", F(1, 2)).fraction(((0.0, 1.0), (0.0, 1.0)))
        gt = LinearConstraint((1, 1), ">", F(1, 2)).fraction(((0.0, 1.0), (0.0, 1.0)))
        assert leq + gt == 1

    def test_fraction_against_sampling(self):
        """Exact Irwin-Hall fractions agree with empirical frequencies."""
        rng = random.Random(11)
        npr = np.random.default_rng(11)
        for _ in range(25):
            dims = rng.randint(1, 3)
            coeffs = tuple(rng.randint(-2, 2) for _ in range(dims))
            if all(c == 0 for c in coeffs):
                continue
            bound = F(rng.randint(-4, 4), rng.randint(1, 5))
            c = LinearConstraint(coeffs=coeffs, rel="<=", bound=bound)
            box = random_box(rng, dims, lo=-0.5, hi=1.5)
            frac = float(c.fraction(box))
            n = 40000
            pts = npr.uniform(
                [lo for lo, _ in box], [hi for _, hi in box], size=(n, dims)
            )
            hits = (pts @ np.array(coeffs)) <= float(bound)
            freq = hits.mean()
            sigma = max((frac * (1 - frac) / n) ** 0.5, 1e-4)
            assert abs(freq - frac) <= 5 * sigma


def clip_polygon(poly, coeffs, bound):
    """The part of a convex polygon with coeffs . p <= bound, in exact Fractions (Sutherland-Hodgman)."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        vp = sum(c * x for c, x in zip(coeffs, p)) - bound
        vq = sum(c * x for c, x in zip(coeffs, q)) - bound
        if vp <= 0:
            out.append(p)
        if vp * vq < 0:
            s = vp / (vp - vq)
            out.append(tuple(x + s * (y - x) for x, y in zip(p, q)))
    return out


def shoelace_centroid(poly):
    """Exact centroid of a simple polygon from the shoelace sums."""
    area = cx = cy = F(0)
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        cross = x0 * y1 - x1 * y0
        area += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    return cx / (3 * area), cy / (3 * area)


def cutting_constraint(rng, box, rel):
    """A random halfspace through a random point of box; None unless it cuts the box."""
    coeffs = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in box)
    point = [F(rng.uniform(lo, hi)) for lo, hi in box]
    con = LinearConstraint(coeffs, rel, sum((c * t for c, t in zip(coeffs, point)), F(0)))
    return con if 0 < con.fraction(box) < 1 else None


class TestCentroid:
    def test_matches_shoelace_in_two_dimensions(self):
        """centroid equals the exact shoelace centroid of the clipped rectangle, for every relation."""
        rng = random.Random(20261018)
        checked = 0
        while checked < 200:
            rel = ("<", "<=", ">", ">=")[checked % 4]
            box = random_box(rng, 2)
            con = cutting_constraint(rng, box, rel)
            if con is None:
                continue
            (a1, b1), (a2, b2) = (tuple(map(F, iv)) for iv in box)
            corners = [(a1, a2), (b1, a2), (b1, b2), (a1, b2)]
            if rel in ("<", "<="):
                poly = clip_polygon(corners, con.coeffs, con.bound)
            else:
                poly = clip_polygon(corners, tuple(-c for c in con.coeffs), -con.bound)
            assert con.centroid(box) == shoelace_centroid(poly), (box, con)
            checked += 1

    def test_one_dimensional_closed_form(self):
        """On an interval the clipped part is an interval, and its centroid is its midpoint."""
        box = ((0.25, 1.0),)
        for coeff, bound in ((3, F(2)), (-2, F(-1))):
            cut = bound / coeff
            below, above = (F(1, 4), cut), (cut, F(1))
            low_side, high_side = (below, above) if coeff > 0 else (above, below)
            for rel in ("<", "<="):
                assert LinearConstraint((coeff,), rel, bound).centroid(box) == (sum(low_side) / 2,)
            for rel in (">", ">="):
                assert LinearConstraint((coeff,), rel, bound).centroid(box) == (sum(high_side) / 2,)
        # A coordinate the halfspace leaves out keeps the exact box midpoint.
        assert LinearConstraint((0, 1), "<=", F(1, 2)).centroid(((0.0, 0.5), (0.0, 1.0))) == (F(1, 4), F(1, 4))

    def test_halves_split_the_box_centre(self):
        """V c + (1 - V) c' is the box centre exactly, for the <= and > halves in 3-D and 4-D.

        A seeded Monte Carlo mean of the <= half agrees with c within 5
        standard errors in every coordinate.
        """
        rng = random.Random(11)
        npr = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            dims = 3 + checked % 2
            box = random_box(rng, dims)
            below = cutting_constraint(rng, box, "<=")
            if below is None:
                continue
            above = LinearConstraint(below.coeffs, ">", below.bound)
            v = below.fraction(box)
            mixed = [v * c + (1 - v) * d for c, d in zip(below.centroid(box), above.centroid(box))]
            assert mixed == [F(lo) / 2 + F(hi) / 2 for lo, hi in box]
            if checked % 4 == 0:
                pts = npr.uniform([lo for lo, _ in box], [hi for _, hi in box], size=(200_000, dims))
                kept = pts[pts @ np.array([float(c) for c in below.coeffs]) <= float(below.bound)]
                se = kept.std(axis=0) / math.sqrt(len(kept))
                assert np.all(np.abs(kept.mean(axis=0) - [float(c) for c in below.centroid(box)]) <= 5 * se)
            checked += 1

    def test_rejects_a_box_the_halfspace_does_not_cut(self):
        con = LinearConstraint((1, 1), "<=", F(1, 2))
        for box in (((0.0, 0.25), (0.0, 0.25)), ((0.5, 1.0), (0.5, 1.0)), ((0.25, 0.75), (0.25, 0.5))):
            with pytest.raises(ValueError, match="does not cut"):
                con.centroid(box)


class TestRegionMembership:
    def test_pair_bucket_examples(self):
        a_pt = (F(2, 10), F(18, 100))
        strip_pt = (F(25, 100), F(2, 10))
        b_pt = (F(40, 100), F(19, 100))
        c_pt = (F(40, 100), F(24, 100))
        for pt, region in [
            (a_pt, REGION_A),
            (strip_pt, TYPE_II_STRIP),
            (b_pt, REGION_B),
            (c_pt, REGION_C),
        ]:
            assert PAIR_BASE.contains(pt)
            assert region.contains(pt)
        assert not REGION_A.contains(b_pt)
        assert not REGION_C.contains(b_pt)
        assert not REGION_B.contains(c_pt)

    def test_bucket_partition_sampled(self):
        """Inside the base region exactly one bucket claims each point."""
        npr = np.random.default_rng(20240801)
        pts = npr.uniform(0.0, 0.7, size=(100000, 2))
        base = PAIR_BASE.mask(pts)
        covered = (
            REGION_A.mask(pts).astype(int)
            + TYPE_II_STRIP.mask(pts).astype(int)
            + REGION_B.mask(pts).astype(int)
            + REGION_C.mask(pts).astype(int)
        )
        assert np.array_equal(covered, base.astype(int))

    def test_quadruple_members(self):
        assert REGION_U_A3.contains((0.21, 0.205, 0.195, 0.185))
        assert not REGION_U_A3.contains((0.24, 0.21, 0.18, 0.16))
        assert REGION_U_B3.contains((0.40, 0.20, 0.19, 0.195))
        assert not REGION_U_B3.contains((0.21, 0.205, 0.195, 0.185))

    def test_mask_matches_contains(self):
        rng = np.random.default_rng(7)
        for region in region_catalog().values():
            pts = rng.uniform(0.0, 0.7, size=(400, region.arity))
            mask = region.mask(pts)
            for i in range(0, 400, 7):
                assert bool(mask[i]) == region.contains(tuple(pts[i]))

    def test_single_term_mask_matches_dot_product(self):
        """A one-term constraint's mask equals the float dot product with every coefficient."""
        import operator

        compare = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 0.7, size=(5000, 4))
        extra = [LinearConstraint((0, 0, F(-1), 0), "<", F(-1, 5)), LinearConstraint((0, 2, 0, 0), ">=", F(3, 7))]
        stack = [region.tree for region in region_catalog().values() if region.arity == 4] + extra
        checked = 0
        while stack:
            node = stack.pop()
            if not isinstance(node, LinearConstraint):
                stack.extend(node.children)
                continue
            if sum(1 for c in node.coeffs if c) != 1:
                continue
            dot = pts @ np.array([float(c) for c in node.coeffs])
            assert np.array_equal(regions._tree_mask(node, pts), compare[node.rel](dot, float(node.bound)))
            checked += 1
        assert checked >= 10

    def test_u_a3_avoids_type_ii(self):
        """Members of the deep A region never admit a type-II grouping."""
        npr = np.random.default_rng(3)
        pts = npr.uniform(
            [0.200, 0.195, 0.185, 0.175], [0.215, 0.210, 0.200, 0.195], size=(6000, 4)
        )
        inside = pts[REGION_U_A3.mask(pts)]
        assert len(inside) >= 20
        for row in inside[:200]:
            assert not type_ii_feasible([F(v) for v in row])

    def test_classify_boxes(self):
        inside_box = ((0.20, 0.205), (0.18, 0.185))
        outside_box = ((0.9, 0.95), (0.9, 0.95))
        mixed_box = ((0.1, 0.5), (0.1, 0.5))
        assert REGION_A.fraction(inside_box) == (1.0, 1.0)
        assert REGION_A.fraction(outside_box) == (0.0, 0.0)
        lo, hi = REGION_A.fraction(mixed_box)
        assert 0.0 < hi and lo < 1.0

    def test_fraction_bounds_contain_truth(self):
        """Region fraction bounds must bracket sampled frequencies."""
        npr = np.random.default_rng(13)
        rng = random.Random(13)
        for region in (PAIR_BASE, REGION_A, REGION_B, REGION_C, TYPE_II_STRIP):
            for _ in range(10):
                box = random_box(rng, 2, lo=0.0, hi=0.7)
                lo, hi = region.fraction(box)
                n = 20000
                pts = npr.uniform(
                    [a for a, _ in box], [b for _, b in box], size=(n, 2)
                )
                freq = region.mask(pts).mean()
                sigma = max((freq * (1 - freq) / n) ** 0.5, 2e-3)
                assert float(lo) - 5 * sigma <= freq <= float(hi) + 5 * sigma

    def test_float_fractions_contain_exact_frechet_bounds(self):
        """Float fraction bounds contain the exact rational Frechet bounds.

        Boxes are seeded over every catalog region (pair regions on the
        base square, the quadruple regions on their loss boxes) and over
        every loss box, with side ratios up to 1e5.  Each leaf fraction is
        rounded outward once and the Frechet combination once per child,
        so the float bounds are wider than the exact ones by at most 1e-14.
        """
        from sievebound import losses

        edge = (float(SIEVE_FLOOR), float(WINDOW_LO))
        cases = [(r, ((edge,) * 2 if r.arity == 2 else None)) for r in region_catalog().values()]
        cases = [(r, d if d is not None else losses._BOXES["a3" if r.name == "u_a3" else "b3"]) for r, d in cases]
        cases += [(losses._REGIONS[n], losses._BOXES[n]) for n in losses.LOSS_NAMES]
        rng = random.Random(20240801)
        mixed = 0
        for region, domain in cases:
            for _ in range(40):
                box = anisotropic_leaf(rng, region, domain)
                lo, hi = region.fraction(box)
                assert isinstance(lo, float) and isinstance(hi, float)
                exact_lo, exact_hi = exact_frechet(region.tree, box)
                assert lo <= exact_lo and exact_hi <= hi
                assert (hi - lo) - float(exact_hi - exact_lo) <= 1e-14
                mixed += 0.0 < hi and lo < 1.0
        assert mixed >= 200

    def test_disjunction_of_two_undecided_children_contains_exact_sum(self):
        """The window clause t1 + t2 outside [8/19, 11/19] on the base square: the upper bound is the rounded-up sum.

        Neither child is decided on the box, so the disjunction's upper
        bound 0.08 + 0.5 = 0.58 rests on rounding the sum of the
        children's upper bounds up; taking their maximum would give 0.5.
        """
        edge = (float(SIEVE_FLOOR), float(WINDOW_LO))
        box = (edge, edge)
        pair_sum = (1, 1)
        clause = regions.OrNode((LinearConstraint(pair_sum, "<", WINDOW_LO), LinearConstraint(pair_sum, ">", WINDOW_HI)))
        lo, hi = regions.RegionPredicate("window clause", 2, clause).fraction(box)
        exact_lo, exact_hi = exact_frechet(clause, box)
        assert 0 < exact_lo < exact_hi < 1
        assert lo <= exact_lo and exact_hi <= hi
        assert hi - float(exact_hi) <= 1e-15

    def test_fraction_fallback_for_inexact_coefficient(self):
        """A coefficient that is not a float gets the exact fraction, rounded outward once."""
        c = LinearConstraint((F(1, 3), F(1)), "<=", F(1, 2))
        box = ((0.0, 1.0), (0.125, 0.75))
        exact = c.fraction(box)
        lo, hi = c.fraction_bounds(box)
        assert (lo, hi) == _ratio_bounds(*exact.as_integer_ratio())
        assert lo <= exact <= hi and hi - lo <= 2 * math.ulp(hi)

    def test_fraction_fallback_for_thin_anisotropic_box(self):
        """A thin 4-D box, where a float Irwin-Hall sum cancels badly, keeps a tight exact enclosure."""
        c = LinearConstraint((F(1), F(1), F(1), F(1)), "<=", F(9, 10))
        box = ((0.1, 0.5), (0.2, 0.2 + 1e-6), (0.15, 0.15 + 2e-6), (0.2, 0.2 + 3e-6))
        exact = c.fraction(box)
        assert 0 < exact < 1
        lo, hi = c.fraction_bounds(box)
        assert (lo, hi) == _ratio_bounds(*exact.as_integer_ratio())
        assert lo <= exact <= hi and hi - lo <= 2 * math.ulp(hi)
        # The complement is rounded from its own exact value.
        above = LinearConstraint(c.coeffs, ">", c.bound)
        assert above.fraction(box) == 1 - exact
        assert above.fraction_bounds(box) == _ratio_bounds(*(1 - exact).as_integer_ratio())

    def test_wrong_dimension_rejected(self):
        """A box with more or fewer intervals than coefficients is a ValueError, not a verdict."""
        c = LinearConstraint((1, 1), "<=", F(1, 2))
        for box in (((0.0, 1.0),), ((0.0, 1.0),) * 3):
            for call in (c.fraction, c.fraction_bounds):
                with pytest.raises(ValueError, match="2 coordinates"):
                    call(box)

    def test_catalog_json(self):
        blob = regions.catalog_json()
        entries = {entry["name"]: entry for entry in blob["regions"]}
        assert set(entries) == {
            "pair_base",
            "region_a",
            "type_ii_strip",
            "region_b",
            "region_c",
            "u_a3",
            "u_b3",
        }
        assert entries["u_a3"]["arity"] == 4
        assert entries["region_c"]["arity"] == 2


def bisection_chain(rng: random.Random, box, depth: int):
    """Boxes from seeded bisections of box, each inside the one before, box first."""
    chain = [box]
    for _ in range(depth):
        i = rng.randrange(len(box))
        lo, hi = box[i]
        mid = 0.5 * (lo + hi)
        box = box[:i] + (rng.choice(((lo, mid), (mid, hi))),) + box[i + 1 :]
        chain.append(box)
    return chain


def face_boxes(rng: random.Random, arity: int, count: int):
    """Boxes with endpoints at, or one ulp from, the float bounds of the region constraints."""
    anchors = [float(q) for q in (SIEVE_FLOOR, WINDOW_LO, WINDOW_HI, regions.B_SECOND_CAP)]
    ends = [x for a in anchors for x in (math.nextafter(a, 0.0), a, math.nextafter(a, 1.0))]
    boxes = []
    for _ in range(count):
        box = []
        for _ in range(arity):
            lo, hi = sorted((rng.choice(ends), rng.uniform(0.1, 0.6)))
            box.append((lo, hi))
        boxes.append(tuple(box))
    return boxes


def points_in(npr: np.random.Generator, box, n: int) -> np.ndarray:
    """n seeded points of the closed box, with every corner and points on each face."""
    lows = np.array([lo for lo, _ in box])
    his = np.array([hi for _, hi in box])
    pts = npr.uniform(lows, his, size=(n, len(box)))
    on_face = npr.random(pts.shape) < 0.3
    pts = np.where(on_face, np.where(npr.random(pts.shape) < 0.5, lows, his), pts)
    corners = np.array([[box[i][bit >> i & 1] for i in range(len(box))] for bit in range(1 << len(box))])
    return np.vstack([corners, pts])


class TestResiduals:
    def test_residual_gives_the_full_tree_bounds_on_sub_boxes(self):
        """fraction(child, within=fraction(parent).residual) is fraction(child) bit for bit.

        Along seeded bisection chains for every catalog region, and the
        residuals agree too.  A box with bounds (1, 1) or (0, 0) has the
        empty conjunction or disjunction as its residual.
        """
        rng = random.Random(20261018)
        decided = 0
        for region in region_catalog().values():
            for _ in range(30):
                chain = bisection_chain(rng, ((0.1, 0.45),) * region.arity, 14)
                for parent_box, child_box in zip(chain, chain[1:]):
                    parent = region.fraction(parent_box)
                    child = region.fraction(child_box)
                    via = region.fraction(child_box, within=parent.residual)
                    assert [x.hex() for x in via] == [x.hex() for x in child]
                    assert via == tuple(child) and via.residual == child.residual
                    if tuple(child) in ((1.0, 1.0), (0.0, 0.0)):
                        decided += 1
                        expected = regions._TRUE if child[0] == 1.0 else regions._FALSE
                        assert child.residual is expected and via.residual is expected
                        assert region.fraction(child_box, within=child.residual) == child
        assert decided >= 100

    def test_face_contact_is_outside_for_fractions(self):
        """A box touching a <= face from outside has fraction (0, 0) and residual _FALSE.

        The mask on the box still accepts the contact point.
        """
        below = LinearConstraint((1, 1), "<=", F(1, 2))
        box = ((0.25, 0.75), (0.25, 0.5))  # t1 + t2 >= 1/2, equal only at (0.25, 0.25)
        region = regions.RegionPredicate("t1 + t2 <= 1/2", 2, below)
        assert below.fraction(box) == 0 and below.fraction_bounds(box) == (0.0, 0.0)
        bounds = region.fraction(box)
        assert bounds == (0.0, 0.0) and bounds.residual is regions._FALSE
        pts = np.array([[0.25, 0.25], [0.5, 0.25]])
        assert region.mask(pts, box=box).tolist() == region.mask(pts).tolist() == [True, False]
        # In a conjunction the contact decides the whole box.
        both = regions.RegionPredicate("and", 2, AndNode((LinearConstraint((1, 0), ">=", F(0)), below)))
        bounds = both.fraction(box)
        assert bounds == (0.0, 0.0) and bounds.residual is regions._FALSE

    def test_mask_on_a_box_matches_the_full_mask(self):
        """mask(pts, box=b) equals mask(pts) on seeded points of b, faces and corners included.

        The face boxes put endpoints at the float region bounds, where the
        float test and the exact fractions part ways: t1 < 8/19 holds
        exactly on t1 <= float(8/19) < 8/19 but not in floats at the face.
        """
        rng = random.Random(7)
        npr = np.random.default_rng(7)
        pruned = 0
        for region in region_catalog().values():
            boxes = face_boxes(rng, region.arity, 40)
            for _ in range(40):
                boxes.extend(bisection_chain(rng, ((0.1, 0.45),) * region.arity, 10)[2::4])
            for box in boxes:
                pts = points_in(npr, box, 300)
                assert np.array_equal(region.mask(pts, box=box), region.mask(pts))
                residual = regions._tree_residual(region.tree, regions._grid(box))
                pruned += residual != region.tree
        assert pruned >= 100
        strict = regions.RegionPredicate("t1 < 8/19", 1, LinearConstraint((1,), "<", WINDOW_LO))
        box = ((0.3, float(WINDOW_LO)),)
        assert strict.fraction(box) == (1.0, 1.0)
        pts = np.array([[0.3], [0.35], [float(WINDOW_LO)]])
        assert strict.mask(pts, box=box).tolist() == strict.mask(pts).tolist() == [True, True, False]
        # Below the float bound exactly, but the float sum at the corner rounds onto it.
        pair = regions.RegionPredicate("t1 + t2 < 8/19", 2, LinearConstraint((1, 1), "<", WINDOW_LO))
        fb = float(WINDOW_LO)
        t2 = math.nextafter(fb - 0.2, 0.0)
        assert F(0.2) + F(t2) < F(fb) and 0.2 + t2 == fb
        box = ((0.1, 0.2), (0.1, t2))
        pts = np.array([[0.1, 0.1], [0.2, t2]])
        assert pair.mask(pts, box=box).tolist() == pair.mask(pts).tolist() == [True, False]


# A box to sample each catalog region in: the loss boxes for the three
# loss regions, and one box around the pair base for the others.
PAIR_BOX = ((0.15, 0.43), (0.15, 0.43))
SAMPLING_BOXES = {region.name: integration_domain(name)[3] for name, region in (
    ("a3", REGION_U_A3), ("b3", REGION_U_B3), ("c", REGION_C))}


def sampling_box(region):
    return SAMPLING_BOXES.get(region.name, PAIR_BOX)


def walk(monkeypatch, region, pts, box):
    """(region.mask(pts, box=box), the row count each top-level child of the residual was tested on, in order)."""
    rows = []
    real = regions._tree_mask

    def spy(node, array):
        if sys._getframe(1).f_code is regions._and_mask.__code__:
            rows.append(len(array))
        return real(node, array)

    with monkeypatch.context() as patch:
        patch.setattr(regions, "_tree_mask", spy)
        mask = region.mask(pts, box=box)
    assert mask.dtype == bool and mask.shape == (len(pts),)
    assert np.array_equal(mask, regions._tree_mask(region.tree, pts))
    return mask, rows


def first_child(region, box):
    """The residual child the mask walk tests first on box: the smallest exact upper fraction."""
    grid = regions._grid(box)
    residual = regions._tree_residual(region.tree, grid)
    return min(residual.children, key=lambda c: regions._tree_fraction(c, grid)[1])


class TestMaskWalk:
    """mask(pts, box=b) walks the residual conjunction most selective child first, gathering survivors.

    Each case compares against the plain full-tree `_tree_mask` (inside
    `walk`) and observes the rows each child was tested on.
    """

    def test_matches_the_full_tree_on_sampling_boxes(self, monkeypatch):
        """Seeded, face and corner points of each region's sampling box; the sparse loss regions gather."""
        npr = np.random.default_rng(20261018)
        for region in region_catalog().values():
            pts = points_in(npr, sampling_box(region), 20000)
            mask, rows = walk(monkeypatch, region, pts, sampling_box(region))
            assert rows[0] == len(pts) and rows == sorted(rows, reverse=True)
            if region in (REGION_U_A3, REGION_U_B3):
                assert mask.mean() < 0.05 and rows[-1] < 0.1 * len(pts)

    def test_early_exit_when_every_row_is_rejected(self, monkeypatch):
        """Rows the first child rejects end the walk after that child."""
        npr = np.random.default_rng(3)
        for region in (REGION_U_A3, REGION_U_B3, REGION_C):
            box = sampling_box(region)
            pts = points_in(npr, box, 5000)
            pts = pts[~regions._tree_mask(first_child(region, box), pts)]
            mask, rows = walk(monkeypatch, region, pts, box)
            assert len(pts) > 100 and not mask.any() and rows == [len(pts)]

    def test_single_survivor_is_not_gathered(self, monkeypatch):
        """One accepted row among rejected ones keeps every row in hand to the end."""
        npr = np.random.default_rng(4)
        for region in (REGION_U_A3, REGION_U_B3, REGION_C):
            box = sampling_box(region)
            pts = points_in(npr, box, 5000)
            inside = pts[regions._tree_mask(region.tree, pts)][:1]
            rejected = pts[~regions._tree_mask(first_child(region, box), pts)]
            pts = np.vstack([rejected[:500], inside, rejected[500:1000]])
            mask, rows = walk(monkeypatch, region, pts, box)
            assert np.flatnonzero(mask).tolist() == [500]
            assert rows == [len(pts)] * len(rows) and len(rows) > 1

    def test_no_rejected_row(self, monkeypatch):
        """Rows inside the region are tested by every child, none gathered."""
        npr = np.random.default_rng(5)
        for region in region_catalog().values():
            box = sampling_box(region)
            pts = points_in(npr, box, 20000)
            pts = pts[regions._tree_mask(region.tree, pts)]
            mask, rows = walk(monkeypatch, region, pts, box)
            assert len(pts) > 20 and mask.all() and rows == [len(pts)] * len(rows)

    def test_zero_rows(self, monkeypatch):
        for region in region_catalog().values():
            mask, _ = walk(monkeypatch, region, np.empty((0, region.arity)), sampling_box(region))
            assert mask.shape == (0,)

    def test_residual_root_not_a_conjunction(self, monkeypatch):
        """A disjunction, a bare halfspace and a box the float test decides inside or outside."""
        npr = np.random.default_rng(6)
        box = PAIR_BOX
        pair_sum = (1, 1)
        clause = regions.OrNode((LinearConstraint(pair_sum, "<", WINDOW_LO), LinearConstraint(pair_sum, ">", WINDOW_HI)))
        halfspace = LinearConstraint((1, 2), "<", F(1))
        for tree in (clause, halfspace):
            assert regions._tree_residual(tree, regions._grid(box)) is tree
            region = regions.RegionPredicate("root", 2, tree)
            mask, rows = walk(monkeypatch, region, points_in(npr, box, 2000), box)
            assert 0 < mask.sum() < len(mask) and rows == []
        for box, decided in (
            (((0.36, 0.38), (0.25, 0.27)), regions._TRUE),
            (((0.16, 0.2), (0.16, 0.2)), regions._FALSE),
        ):
            assert regions._tree_residual(REGION_C.tree, regions._grid(box)) is decided
            mask, _ = walk(monkeypatch, REGION_C, points_in(npr, box, 500), box)
            assert mask.all() if decided is regions._TRUE else not mask.any()


class TestMaskMemo:
    """mask(pts, box=b) keeps the plan of the last box it was given; another box replaces it."""

    def test_alternating_boxes(self):
        """Two nested boxes, each with its own points, and no box, in turn; a box given as lists hits the memo.

        The inner box decides more constraints than the outer one on
        several regions, so its plan would misjudge the outer points.
        """
        npr = np.random.default_rng(7)
        differ = 0
        for catalogued in region_catalog().values():
            region = dataclasses.replace(catalogued)
            outer = sampling_box(region)
            inner = tuple((lo, (lo + hi) / 2) for lo, hi in outer)
            cases = {"outer": (outer, points_in(npr, outer, 5000)), "inner": (inner, points_in(npr, inner, 5000))}
            cases["lists"] = ([list(iv) for iv in outer], cases["outer"][1])
            cases["none"] = (None, cases["outer"][1])
            for key in ("inner", "outer", "none", "inner", "lists", "outer", "inner", "none", "outer"):
                box, pts = cases[key]
                assert np.array_equal(region.mask(pts, box=box), regions._tree_mask(region.tree, pts))
            grids = (regions._grid(outer), regions._grid(inner))
            differ += regions._tree_residual(region.tree, grids[0]) != regions._tree_residual(region.tree, grids[1])
        assert differ >= 3

    def test_plan_built_once_per_integrate_mc_call(self, monkeypatch):
        """Several blocks in one box build the box's residual once, and a second call not again.

        The spies see stream 0, which runs in this process: 11 blocks of
        its 10,002 samples.  Streams 1 and 2 run in child processes.
        """
        monkeypatch.setattr(quadrature, "_BLOCK", 1_000)
        real = regions._tree_residual
        for name in LOSS_NAMES:
            f, _, catalogued, box = integration_domain(name)
            region = dataclasses.replace(catalogued)
            built, masked = [], []

            def spy(node, grid):
                if node is region.tree:
                    built.append(grid)
                return real(node, grid)

            def mask(pts, box):
                masked.append(len(pts))
                return region.mask(pts, box=box)

            monkeypatch.setattr(regions, "_tree_residual", spy)
            stub = SimpleNamespace(arity=region.arity, mask=mask)
            first = integrate_mc(f, stub, box, samples=30_005, seed=1, workers=3)
            assert len(built) == 1 and len(masked) == 11
            second = integrate_mc(f, stub, box, samples=30_005, seed=1, workers=3)
            assert len(built) == 1 and first == second


_SINGLES = [({i: 1}, F(0)) for i in range(4)]
# The window groups of the quadruple builders; t0 = 1 - t1 - t2 - t3.
WINDOW_GROUPS = {
    "u_a3": [_SINGLES],
    "u_b3": [_SINGLES[:3], [({0: -1, 1: -1, 2: -1}, F(1))] + _SINGLES[1:]],
}


def unpruned_window_clauses(groups):
    """One window clause per (coeffs, const) of every subset sum, nothing else dropped (test oracle)."""
    clauses = {}
    for group in groups:
        for r in range(1, len(group) + 1):
            for subset in itertools.combinations(group, r):
                coeffs = [F(0)] * 4
                const = F(0)
                for cmap, c0 in subset:
                    const += c0
                    for i, c in cmap.items():
                        coeffs[i] += c
                low = LinearConstraint(tuple(coeffs), "<", WINDOW_LO - const)
                high = LinearConstraint(tuple(coeffs), ">", WINDOW_HI - const)
                clauses.setdefault((tuple(coeffs), const), regions.OrNode((low, high)))
    return list(clauses.values())


def window_parts(region):
    """(conjuncts, kept window clauses, unpruned window clauses) of a quadruple region."""
    conjuncts = [c for c in region.tree.children if isinstance(c, LinearConstraint)]
    kept = [c for c in region.tree.children if not isinstance(c, LinearConstraint)]
    assert region.tree.children == tuple(conjuncts + kept)
    return conjuncts, kept, unpruned_window_clauses(WINDOW_GROUPS[region.name])


def avoided(clause):
    """(c, lo, hi): the clause states c.t < lo or c.t > hi."""
    low, high = clause.children
    assert low.coeffs == high.coeffs and (low.rel, high.rel) == ("<", ">") and low.bound < high.bound
    return low.coeffs, low.bound, high.bound


def canonical_key(clause):
    """avoided(clause) with the first nonzero coefficient made positive."""
    c, lo, hi = avoided(clause)
    return (c, lo, hi) if next(x for x in c if x) > 0 else (tuple(-x for x in c), -hi, -lo)


def implies_clause(con, c, lo, hi) -> bool:
    """Whether the halfspace con keeps c.t out of [lo, hi], strictness kept, exactly."""
    if con.coeffs == tuple(-x for x in c):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[con.rel]
        con = LinearConstraint(c, flipped, -con.bound)
    if con.coeffs != c:
        return False
    return {
        "<": con.bound <= lo,
        "<=": con.bound < lo,
        ">": con.bound >= hi,
        ">=": con.bound > hi,
    }[con.rel]


def rational_points(rng: random.Random, box, count: int):
    """Seeded points of a box with rational coordinates k / 10^6 of its sides."""
    return [
        tuple(lo + (hi - lo) * F(rng.randrange(10**6 + 1), 10**6) for lo, hi in box)
        for _ in range(count)
    ]


def on_hyperplane(rng: random.Random, point, coeffs, value):
    """point moved along one coordinate with a nonzero coefficient onto coeffs.t = value, exactly."""
    j = rng.choice([i for i, c in enumerate(coeffs) if c])
    rest = sum((c * t for i, (c, t) in enumerate(zip(coeffs, point)) if i != j), F(0))
    return point[:j] + ((value - rest) / coeffs[j],) + point[j + 1 :]


class TestWindowClauses:
    """The quadruple trees emit each window clause once and drop the clauses a conjunct settles.

    The oracle is the unpruned clause list, one clause per (coeffs,
    const) of every subset sum, rebuilt here from the builders' groups.
    """

    @pytest.mark.parametrize("region, children, twins, implied", [
        (REGION_U_A3, 25, 0, 2),
        (REGION_U_B3, 24, 2, 5),
    ], ids=["u_a3", "u_b3"])
    def test_every_dropped_clause_is_a_twin_or_implied(self, region, children, twins, implied):
        """Each dropped clause is the cofactor twin of a kept clause or settled by a conjunct, in exact rationals.

        u_b3 drops four cofactor twins; two of them twin a clause that is
        itself settled by a conjunct (t1 and t1 + t2), so they count as
        settled here, since a conjunct with the negated coefficients
        settles them too.
        """
        conjuncts, kept, unpruned = window_parts(region)
        assert len(region.tree.children) == children
        assert all(clause in unpruned for clause in kept)
        found = {"twin": 0, "implied": 0}
        for clause in unpruned:
            if clause in kept:
                continue
            c, lo, hi = avoided(clause)
            # c.t < lo or c.t > hi is -c.t > -lo or -c.t < -hi: the kept clause avoiding [-hi, -lo] with -c.
            if any(avoided(k) == (tuple(-x for x in c), -hi, -lo) for k in kept):
                found["twin"] += 1
            else:
                assert any(implies_clause(con, c, lo, hi) for con in conjuncts), clause
                found["implied"] += 1
        assert found == {"twin": twins, "implied": implied}

    @pytest.mark.parametrize("region", [REGION_U_A3, REGION_U_B3], ids=["u_a3", "u_b3"])
    def test_kept_clauses_have_distinct_canonical_keys(self, region):
        _, kept, _ = window_parts(region)
        keys = [canonical_key(clause) for clause in kept]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("name", ["a3", "b3"])
    def test_contains_agrees_with_the_unpruned_tree(self, name):
        """Seeded rational points of the loss box, and points exactly on each dropped clause's hyperplanes."""
        from sievebound import losses

        region = losses._REGIONS[name]
        conjuncts, kept, unpruned = window_parts(region)
        old = regions.RegionPredicate(region.name, 4, AndNode(tuple(conjuncts + unpruned)))
        rng = random.Random(20240801)
        points = rational_points(rng, losses._BOXES_EXACT[name], 3000)
        members = [p for p in points if region.contains(p)]
        for clause in unpruned:
            if clause not in kept:
                c, lo, hi = avoided(clause)
                base = members[:20] + points[:20]
                points += [on_hyperplane(rng, p, c, value) for p in base for value in (lo, hi)]
        assert len(members) >= 30
        assert len(points) >= 3000 + 80 * (len(unpruned) - len(kept))
        for point in points:
            assert region.contains(point) == old.contains(point)

    @pytest.mark.parametrize("name", ["a3", "b3"])
    def test_monte_carlo_is_bit_identical_to_the_unpruned_tree(self, monkeypatch, name):
        from sievebound import losses

        region = losses._REGIONS[name]
        conjuncts, _, unpruned = window_parts(region)
        new = losses.loss_mc(name, samples=10**6, seed=7, workers=2)
        old_region = regions.RegionPredicate(region.name, 4, AndNode(tuple(conjuncts + unpruned)))
        monkeypatch.setitem(losses._REGIONS, name, old_region)
        old = losses.loss_mc(name, samples=10**6, seed=7, workers=2)
        assert (new.lower.hex(), new.stderr.hex()) == (old.lower.hex(), old.stderr.hex())
        assert new == old


def combinations_type_ii_feasible(ts) -> bool:
    """Some nonempty subset sums into [8/19, 11/19], summed in Fractions subset by subset (test oracle)."""
    values = regions._exact_values(ts)
    for r in range(1, len(values) + 1):
        for subset in itertools.combinations(values, r):
            if WINDOW_LO <= sum(subset, F(0)) <= WINDOW_HI:
                return True
    return False


class TestFeasibility:
    def test_type_ii_matches_combinations_oracle(self):
        """The integer subset-sum walk agrees with the Fraction oracle on seeded sets and on window-edge sums."""
        rng = random.Random(20240802)
        cases = []
        for _ in range(1500):
            size = rng.randint(0, regions.MAX_SUBSET_ARITY)
            cases.append([rng.random() * rng.choice((0.3, 1.0)) for _ in range(size)])
            cases.append([F(rng.randint(0, 600), rng.choice((1000, 19, 38, 7 * 19))) for _ in range(size)])
        edge = 0
        for _ in range(500):
            end = rng.choice((WINDOW_LO, WINDOW_HI))
            cut = F(rng.random()) * end
            nudge = rng.choice((0, 0, F(1, 10**30), -F(1, 10**30)))
            others = [F(rng.randint(600, 1000), 1000) for _ in range(rng.randint(0, 3))]
            ts = [cut, end - cut + nudge] + others
            rng.shuffle(ts)
            edge += nudge == 0
            cases.append(ts)
        feasible = 0
        for ts in cases:
            expected = combinations_type_ii_feasible(ts)
            assert type_ii_feasible(ts) == expected, ts
            feasible += expected
        assert 500 < feasible < len(cases) - 500 and edge > 100
        assert type_ii_feasible([F(3, 19), F(5, 19), F(9, 10)]) and type_ii_feasible([F(11, 19), F(7, 10)])
        assert not type_ii_feasible([F(11, 19) + F(1, 10**30)]) and not type_ii_feasible([F(8, 19) - F(1, 10**30)])

    def test_type_ii_examples(self):
        assert type_ii_feasible([F(8, 19)])
        assert type_ii_feasible([F(3, 10), F(2, 10)])
        assert not type_ii_feasible([F(2, 10)])
        assert not type_ii_feasible([F(2, 10), F(1, 10)])
        assert not type_ii_feasible([])

    def test_type_ii_arity_cap(self):
        with pytest.raises(ValueError):
            type_ii_feasible([F(1, 100)] * 9)

    def test_type_ii_monotone(self):
        """Feasibility persists under adding elements (witness subsets persist)."""
        rng = random.Random(20240801)
        for _ in range(2000):
            size = rng.randint(1, 6)
            ts = [F(rng.randint(0, 1000), 1000) for _ in range(size)]
            extra = F(rng.randint(0, 1000), 1000)
            if type_ii_feasible(ts):
                assert type_ii_feasible(ts + [extra])

    def test_type_i_examples(self):
        assert type_i_feasible([])
        assert type_i_feasible([F(42, 100)])
        assert type_i_feasible([F(40, 100), F(22, 100)])
        assert not type_i_feasible([F(43, 100), F(24, 100)])

    def test_type_i_partition_definition(self):
        """Brute-force bipartition agreement on random small sets."""
        rng = random.Random(5)
        for _ in range(500):
            size = rng.randint(0, 6)
            ts = [F(rng.randint(0, 600), 1000) for _ in range(size)]
            expected = False
            for mask in range(1 << size):
                s1 = sum((t for i, t in enumerate(ts) if mask >> i & 1), F(0))
                s2 = sum((t for i, t in enumerate(ts) if not mask >> i & 1), F(0))
                if s1 <= WINDOW_LO and s2 <= regions.B_SECOND_CAP:
                    expected = True
                    break
            assert type_i_feasible(ts) == expected
