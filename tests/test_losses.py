"""Tests for the three loss integrals and the budget ledger.

Oracles:

  * The planar loss reduces, on its region, to the rational form
    1/(t1 t2 (1 - t1 - t2)) because the Buchstab argument stays below 2
    there, where the upper bound equals 1/u exactly.  The inner t1
    integral has the closed antiderivative
    log(t1 / (1 - t2 - t1)) / ((1 - t2) t2), which leaves a smooth
    one-dimensional integrand for composite Simpson in t2.  The outer
    limits split at t2 = 11/38 where both the lower limit switch
    (max(t2, 11/19 - t2)) and the upper limit switch
    (min(8/19, 1 - 2 t2)) happen simultaneously; the region empties at
    t2 = 1/3.

  * 0.23513302634810698, 8.934900411446318e-05 and
    0.0004467450149420221 are frozen high-precision values of the three
    integrals obtained from independent adaptive refinement runs driven
    far past the certified tolerances; they act as regression anchors
    and must lie inside every certified sandwich.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest

from sievebound import losses, quadrature, regions
from sievebound.buchstab import OMEGA_UPPER, omega_bound
from sievebound.interval import Enclosure, SoundnessError
from sievebound.quadrature import MONTE_CARLO, RIGOROUS, IntegralEstimate
from sievebound.regions import PAIR_BASE, AndNode, LinearConstraint, RegionPredicate

FROZEN = {
    "a3": 8.934900411446318e-05,
    "b3": 0.0004467450149420221,
    "c": 0.23513302634810698,
}


def affine_value(form, t) -> float:
    """Round-to-nearest float value of an affine form (const, coeffs) at t."""
    const, coeffs = form
    return const + sum(c * ti for c, ti in zip(coeffs, t) if c)


def affine_exact(form, t) -> Fraction:
    const, coeffs = form
    return Fraction(const) + sum((Fraction(c) * Fraction(ti) for c, ti in zip(coeffs, t)), Fraction(0))


def seeded_leaves(rng, box, count, min_exp=20, max_exp=34):
    """Random sub-boxes of box with sides 2**-k, k uniform in [min_exp, max_exp]."""
    leaves = []
    for _ in range(count):
        leaf = []
        for lo, hi in box:
            side = 2.0 ** -rng.randint(min_exp, max_exp)
            a = rng.uniform(lo, hi - side)
            leaf.append((a, a + side))
        leaves.append(tuple(leaf))
    return leaves


def planar_oracle(panels: int = 4096) -> float:
    """Composite Simpson over the closed-form inner integral."""

    def inner(t2: float) -> float:
        lo = max(t2, 11.0 / 19.0 - t2)
        hi = min(8.0 / 19.0, 1.0 - 2.0 * t2)
        if lo >= hi:
            return 0.0
        c = 1.0 - t2

        def anti(t1: float) -> float:
            return math.log(t1 / (c - t1)) / (c * t2)

        return anti(hi) - anti(lo)

    total = 0.0
    for a, b in ((9.0 / 38.0, 11.0 / 38.0), (11.0 / 38.0, 1.0 / 3.0)):
        h = (b - a) / panels
        acc = inner(a) + inner(b)
        for i in range(1, panels):
            acc += (4.0 if i % 2 else 2.0) * inner(a + i * h)
        total += acc * h / 3.0
    return total


class TestOracles:
    def test_planar_oracle_matches_frozen(self):
        """The Simpson oracle reproduces the frozen planar value to 1e-9."""
        assert abs(planar_oracle() - FROZEN["c"]) <= 1e-9

    def test_rational_kernel_matches_upper_bound_at_members(self):
        """The factor table reproduces upper(u) / monomial inside each region.

        The kernel side goes through the piecewise upper Buchstab bound
        on every argument, so it checks the factor and argument tables
        against the loss definitions in the module docstring.
        """
        import numpy as np

        monomials = {
            "a3": lambda t: t[0] * t[1] * t[2] * t[3] ** 2,
            "b3": lambda t: t[1] * t[2] ** 2 * t[3] ** 2,
            "c": lambda t: t[0] * t[1] ** 2,
        }
        rng = np.random.default_rng(20240801)
        for name in losses.LOSS_NAMES:
            integrand, arguments, region, box = losses.integration_domain(name)
            pts = rng.uniform([lo for lo, _ in box], [hi for _, hi in box], size=(20000, len(box)))
            members = pts[region.mask(pts)][:200]
            assert len(members) == 200
            values = integrand.value_many(members)
            for t, value in zip(members, values):
                kernel = Enclosure(1.0) / monomials[name](t)
                for num, den in arguments:
                    u = affine_value(num, t) / affine_value(den, t)
                    assert 1.0 <= u <= 2.0
                    kernel = kernel * omega_bound(OMEGA_UPPER, u)
                assert value == pytest.approx(kernel.mid, rel=1e-12)

    def test_boxes_cover_regions(self):
        """No region mass may leak outside the pre-clipped boxes."""
        import numpy as np

        rng = np.random.default_rng(20240801)
        for name in losses.LOSS_NAMES:
            _, _, region, box = losses.integration_domain(name)
            pts = rng.uniform(0.0, 0.75, size=(200000, region.arity))
            inside = region.mask(pts)
            lows = np.array([lo for lo, _ in box]) - 1e-12
            his = np.array([hi for _, hi in box]) + 1e-12
            in_box = ((pts >= lows) & (pts <= his)).all(axis=1)
            assert not (inside & ~in_box).any()


class TestCertifiedRuns:
    def test_coarse_sandwiches_contain_frozen(self):
        """Cheap rigorous runs bracket the frozen references."""
        for name, budget, tol in (("a3", 4000, 1e-3), ("b3", 8000, 1e-2), ("c", 4000, 1e-3)):
            est = losses._run(name, budget=budget, tol=tol)
            assert est.mode == RIGOROUS
            assert est.lower <= FROZEN[name] <= est.upper

    def test_default_runs_meet_targets(self, verified_a3, verified_b3, verified_c):
        for (est, _), name in (
            (verified_a3, "a3"),
            (verified_b3, "b3"),
            (verified_c, "c"),
        ):
            assert est.upper <= losses.TARGETS[name]
            assert est.lower <= FROZEN[name] <= est.upper
            assert est.boxes_used <= losses.DEFAULT_BUDGETS[name]

    def test_c_width_requirement(self, verified_c):
        est, escalations = verified_c
        assert est.upper - est.lower <= 5e-5
        assert est.upper - est.lower <= losses.DEFAULT_TOLS["c"]
        assert est.lower > 0.2
        assert escalations == 0
        assert est.boxes_used <= 7_000

    def test_quadruple_sandwiches_pinned(self):
        """verified_loss for a3 and b3 at tol 2e-4 reproduces its sandwich and box count exactly."""
        pinned = {
            "a3": (3.403860186771818e-05, 0.00022691977429907255, 263),
            "b3": (0.00035707470947351745, 0.0005510705984144662, 3521),
        }
        for name, expected in pinned.items():
            est, escalations = losses.verified_loss(name, tol=2e-4)
            assert (est.lower, est.upper, est.boxes_used) == expected
            assert escalations == 0 and not est.exhausted

    def test_determinism(self):
        a = losses._run("a3", budget=2000, tol=1e-9)
        b = losses._run("a3", budget=2000, tol=1e-9)
        assert (a.lower, a.upper, a.boxes_used) == (b.lower, b.upper, b.boxes_used)


class TestMeanValueRigor:
    def test_centre_factors_enclose_exact_values(self, monkeypatch):
        """The centre factor enclosures of average contain the exact factor values.

        `average` asks for factor bounds twice: over the leaf, then over
        the centre box [down(c~), up(c~)] around the float centre
        c~ = (lo + hi) * 0.5.  That box must contain the exact centre c,
        and each factor bound the factor's exact rational value at c.
        A round-to-nearest float evaluation misses that value on a large
        share of leaves.  On the seeded leaves with sides 2**-k the float
        centre is exact; on leaves whose endpoints lie an odd number of
        ulps apart inside one binade lo + hi always rounds, so there
        c~ != c and only the centre box's width covers the difference.
        """
        import random

        calls = []
        factor_bounds = losses.ReciprocalProduct._factor_bounds

        def recording(self, box):
            calls.append((box, factor_bounds(self, box)))
            return calls[-1][1]

        monkeypatch.setattr(losses.ReciprocalProduct, "_factor_bounds", recording)
        rp = losses.ReciprocalProduct(losses._FACTORS["c"])
        rng = random.Random(20240801)
        odd_ulps = []
        for _ in range(500):
            leaf = []
            for lo, hi in losses._BOXES["c"]:
                a = rng.uniform(lo, hi - 1e-6)
                b = a + (2 * rng.randint(0, 2**30) + 1) * math.ulp(a)
                assert math.ulp(b) == math.ulp(a)
                assert Fraction((a + b) * 0.5) != (Fraction(a) + Fraction(b)) / 2
                leaf.append((a, b))
            odd_ulps.append(tuple(leaf))
        missed = 0
        for leaf in seeded_leaves(rng, losses._BOXES["c"], 1000, min_exp=8, max_exp=34) + odd_ulps:
            calls.clear()
            rp.average(leaf)
            assert len(calls) == 2 and calls[0][0] == leaf
            box, bounds = calls[1]
            float_centre = tuple((lo + hi) * 0.5 for lo, hi in leaf)
            centre = tuple((Fraction(lo) + Fraction(hi)) / 2 for lo, hi in leaf)
            for (lo, hi), c in zip(box, centre):
                assert lo <= c <= hi
            for form, (lo, hi) in zip(rp.factors, bounds):
                assert lo <= affine_exact(form, centre) <= hi
            missed += any(Fraction(affine_value(f, float_centre)) != affine_exact(f, centre) for f in rp.factors)
        assert missed >= 200

    def test_average_contains_mpmath_box_average(self):
        """average and enclosure contain an independent 40-digit box average.

        For inside-region leaves of the loss c box with sides from 2**-34
        to 2**-20, where the centre rounding matters, and from 2**-12 to
        2**-5, where the quartic remainder does, the inner t2 integral of
        1/(t1 t2 (1 - t1 - t2)) is log(t2 / (1 - t1 - t2)) / (t1 (1 - t1))
        between the box limits, and mpmath.quad does the outer t1
        integral.
        """
        import random

        mpmath = pytest.importorskip("mpmath")
        integrand, _, region, box = losses.integration_domain("c")
        rng = random.Random(7)
        leaves = seeded_leaves(rng, box, 200) + seeded_leaves(rng, box, 300, min_exp=5, max_exp=12)
        checked = 0
        with mpmath.workdps(40):
            for leaf in leaves:
                if region.fraction(leaf) != (1.0, 1.0):
                    continue
                (a1, b1), (a2, b2) = [(mpmath.mpf(lo), mpmath.mpf(hi)) for lo, hi in leaf]

                def inner(t1):
                    c = 1 - t1
                    return (mpmath.log(b2 / (c - b2)) - mpmath.log(a2 / (c - a2))) / (t1 * c)

                mean = mpmath.quad(inner, [a1, b1]) / ((b1 - a1) * (b2 - a2))
                for enc in (integrand.average(leaf), integrand.enclosure(leaf)):
                    assert mpmath.mpf(enc.lo) <= mean <= mpmath.mpf(enc.hi)
                checked += 1
        assert checked >= 80

    def test_average_contains_separable_average(self):
        """average contains the closed-form box average of 1/(t1 t2 t3 t4).

        The kernel separates, so its average over a box is
        prod_i log(b_i / a_i) / (b_i - a_i), here in 40-digit mpmath, on
        seeded boxes with sides from 2**-12 to 2**-3.
        """
        import random

        mpmath = pytest.importorskip("mpmath")
        rp = losses.ReciprocalProduct(losses._FACTORS["a3"][:4])
        rng = random.Random(11)
        with mpmath.workdps(40):
            for leaf in seeded_leaves(rng, ((0.05, 0.6),) * 4, 200, min_exp=3, max_exp=12):
                mean = mpmath.mpf(1)
                for lo, hi in leaf:
                    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
                    mean *= mpmath.log(b / a) / (b - a)
                enc = rp.average(leaf)
                assert mpmath.mpf(enc.lo) <= mean <= mpmath.mpf(enc.hi)

    def test_average_is_fourth_order(self):
        """Halving the sides of a small inside leaf shrinks its average enclosure at least twelvefold.

        On a leaf with sides 2**-9 the enclosure width is the quartic
        remainder pad up to rounding, so it falls by about 16 when the
        sides halve; a cubic pad would give about 8 and a second-order
        form about 4.
        """
        integrand, _, region, _ = losses.integration_domain("c")
        c1, c2, side = 0.375, 0.3, 2.0**-9
        leaf = ((c1 - side / 2, c1 + side / 2), (c2 - side / 2, c2 + side / 2))
        half = ((c1 - side / 4, c1 + side / 4), (c2 - side / 4, c2 + side / 4))
        assert region.fraction(leaf) == (1.0, 1.0)
        wide, narrow = integrand.average(leaf), integrand.average(half)
        assert wide.hi - wide.lo >= 12 * (narrow.hi - narrow.lo) > 0.0

    def test_average_holds_with_tightest_factor_bounds(self, monkeypatch):
        """average holds when every factor bound is the tightest floats allow.

        Here each `_factor_bounds` call returns the exact corner minimum
        and maximum of each factor, rounded once outward.  Over the
        centre box that leaves only its one-step width to cover the
        distance from the float centre c~ to the exact centre c.  For
        1/(1 - t1 - t2) near the line t1 + t2 = 1 that distance moves the
        value by about 1e-7 relatively; the box average has a closed form
        via G(x) = x log x - x, evaluated in 80-digit mpmath.
        """
        import itertools

        mpmath = pytest.importorskip("mpmath")
        from sievebound.interval import _ratio_bounds

        u = 2.0**-53
        t2 = 0.5 - 2.0**-30
        box = ((0.5 + 3 * u, 0.5 + 6 * u), (t2, t2 + 2 * u))
        (a1, b1), _ = box
        assert Fraction((a1 + b1) * 0.5) != (Fraction(a1) + Fraction(b1)) / 2

        def tightest(self, leaf):
            out = []
            for form in self.factors:
                values = [affine_exact(form, corner) for corner in itertools.product(*leaf)]
                lo, hi = min(values), max(values)
                out.append((_ratio_bounds(lo.numerator, lo.denominator)[0], _ratio_bounds(hi.numerator, hi.denominator)[1]))
            return out

        monkeypatch.setattr(losses.ReciprocalProduct, "_factor_bounds", tightest)
        enc = losses.ReciprocalProduct(((1.0, (-1.0, -1.0)),)).average(box)
        with mpmath.workdps(80):
            (a1, b1), (a2, b2) = [(mpmath.mpf(lo), mpmath.mpf(hi)) for lo, hi in box]

            def g(x):
                return x * mpmath.log(x) - x

            mean = (g(1 - a1 - a2) - g(1 - b1 - a2) - g(1 - a1 - b2) + g(1 - b1 - b2)) / ((b1 - a1) * (b2 - a2))
            assert mpmath.mpf(enc.lo) <= mean <= mpmath.mpf(enc.hi)

    def test_inside_leaf_asks_integrand_once(self, monkeypatch):
        """An inside leaf takes its value bounds from `average` alone.

        `average` intersects its mean-value enclosure with the interval
        extension of the factor bounds it already holds, so the leaf
        needs the factor bounds of the box and of its centre box only.
        """
        integrand, _, region, _ = losses.integration_domain("c")
        box = ((0.375, 0.37890625), (0.25, 0.25390625))
        assert region.fraction(box) == (1.0, 1.0)
        calls = []
        factor_bounds = losses.ReciprocalProduct._factor_bounds

        def recording(self, leaf):
            calls.append(leaf)
            return factor_bounds(self, leaf)

        monkeypatch.setattr(losses.ReciprocalProduct, "_factor_bounds", recording)
        lo, hi = quadrature._leaf_contribution(integrand, region.fraction(box), box)
        assert len(calls) == 2
        assert (lo.hex(), hi.hex()) == ("0x1.c5fbb831e645ap-12", "0x1.c5fbcb487d43fp-12")

    def test_average_rejects_disjoint_enclosures(self, monkeypatch):
        """A mean-value enclosure outside the box's value range is a soundness failure."""
        rp = losses.ReciprocalProduct(losses._FACTORS["c"])
        box = ((0.375, 0.37890625), (0.25, 0.25390625))
        # The box's value range first, then the centre value far above it.
        ranges = iter([(1.0, 2.0), (5.0, 6.0)])
        monkeypatch.setattr(losses, "_reciprocal_bounds", lambda factors: next(ranges))
        with pytest.raises(SoundnessError, match="disjoint enclosures"):
            rp.average(box)

    def test_enclosure_constructions_per_leaf(self, monkeypatch):
        """The leaf kernel builds at most four Enclosure objects per box."""
        calls = []
        original = Enclosure.__post_init__

        def counting(self):
            calls.append(None)
            original(self)

        monkeypatch.setattr(Enclosure, "__post_init__", counting)
        est = losses._run("c", budget=2000, tol=1e-9)
        assert est.boxes_used == 1999
        assert len(calls) <= 4 * est.boxes_used

    def test_nan_propagates_through_min_max_helpers(self):
        nan = math.nan
        assert all(math.isnan(v) for v in losses._mul(0.0, 1.0, 2.0, math.inf))
        assert all(math.isnan(v) for v in losses._mul(1.0, 2.0, nan, 3.0))
        lo, hi = losses._mul(-1.0, 2.0, -3.0, 0.5)
        assert lo <= -6.0 and 3.0 <= hi


def single_halfspace_leaves(name, count, seed, budget=3000):
    """Seeded mixed leaves of a short refinement of a loss whose residual tree is one halfspace.

    Returns (leaf, fraction bounds, halfspace) triples.
    """
    import random
    from types import SimpleNamespace

    integrand, _, region, box = losses.integration_domain(name)
    found = []

    def fraction(leaf, within=None):
        bounds = region.fraction(leaf, within=within)
        halfspace = regions._single_halfspace(bounds.residual)
        if halfspace is not None and bounds[0] != 1.0 and bounds[1] != 0.0:
            found.append((leaf, bounds, halfspace))
        return bounds

    quadrature.integrate_rigorous(integrand, SimpleNamespace(arity=region.arity, fraction=fraction), box,
                                  budget=budget, tol=1e-12)
    assert len(found) >= count
    return random.Random(seed).sample(found, count)


def clipped_c_integral(mpmath, halfspace, leaf):
    """integral of 1/(t1 t2 (1 - t1 - t2)) over leaf intersect halfspace, in mpmath.

    The inner t2 integral is log(t2 / (1 - t1 - t2)) / (t1 (1 - t1))
    between the t2 limits the halfspace leaves at t1; mpmath.quad does
    the outer t1 integral, split where a limit meets a side of the leaf.
    """

    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    (a1, b1), (a2, b2) = [(Fraction(lo), Fraction(hi)) for lo, hi in leaf]
    c1, c2 = halfspace.coeffs
    bound = halfspace.bound
    below = halfspace.rel in ("<", "<=")
    kinks = [(bound - c2 * t2) / c1 for t2 in (a2, b2)] if c1 else []
    points = [mp(t) for t in sorted({a1, b1, *(k for k in kinks if a1 < k < b1)})]

    def inner(t1):
        lo, hi = mp(a2), mp(b2)
        if c2:
            edge = (mp(bound) - mp(c1) * t1) / mp(c2)
            if below == (c2 > 0):
                hi = min(hi, edge)
            else:
                lo = max(lo, edge)
        elif (mp(c1) * t1 <= mp(bound)) != below:
            return mpmath.mpf(0)
        if lo >= hi:
            return mpmath.mpf(0)
        c = 1 - t1
        return (mpmath.log(hi / (c - hi)) - mpmath.log(lo / (c - lo))) / (t1 * c)

    return mpmath.quad(inner, points)


class TestClippedAverage:
    def test_centroid_route_lies_inside_the_enclosure_route(self):
        """On single-halfspace mixed leaves the centroid route tightens the leaf contribution.

        The contribution through `clipped_average` lies inside the one
        through the box's value range and is narrower, by a median factor
        of at least 1.5 on these early, coarse leaves.
        """
        for name in losses.LOSS_NAMES:
            integrand = losses.integration_domain(name)[0]
            first_order = dataclasses.replace(integrand, clipped_average=None)
            ratios = []
            for leaf, bounds, _ in single_halfspace_leaves(name, 40, seed=20261018):
                lo, hi = quadrature._leaf_contribution(integrand, bounds, leaf)
                old_lo, old_hi = quadrature._leaf_contribution(first_order, bounds, leaf)
                assert old_lo <= lo < hi < old_hi, (name, leaf)
                ratios.append((old_hi - old_lo) / (hi - lo))
            assert sorted(ratios)[len(ratios) // 2] >= 1.5, name

    def test_c_contribution_contains_mpmath_integral(self):
        """The centroid-route contribution of a c leaf contains the 30-digit clipped integral.

        The leaves come from a refinement as deep as the default-tol run,
        where the quadratic pad is far below the linear term, so a box
        midpoint in place of the exact centroid fails this test.
        """
        mpmath = pytest.importorskip("mpmath")
        integrand = losses.integration_domain("c")[0]
        with mpmath.workdps(30):
            for leaf, bounds, halfspace in single_halfspace_leaves("c", 12, seed=7, budget=6000):
                lo, hi = quadrature._leaf_contribution(integrand, bounds, leaf)
                exact = clipped_c_integral(mpmath, halfspace, leaf)
                assert mpmath.mpf(lo) <= exact <= mpmath.mpf(hi), (leaf, halfspace)

    def test_rejects_disjoint_enclosures(self, monkeypatch):
        """A centroid value outside the box's value range is a soundness failure."""
        rp = losses.ReciprocalProduct(losses._FACTORS["c"])
        box = ((0.375, 0.37890625), (0.25, 0.25390625))
        centre = ((0.376, 0.376), (0.252, 0.252))
        # The box's value range first, then the centroid value far above it.
        ranges = iter([(1.0, 2.0), (5.0, 6.0)])
        monkeypatch.setattr(losses, "_reciprocal_bounds", lambda factors: next(ranges))
        with pytest.raises(SoundnessError, match="disjoint enclosures"):
            rp.clipped_average(box, centre)


class TestArgumentRange:
    def test_check_passes_for_every_loss(self):
        counts = {}
        for name in losses.LOSS_NAMES:
            _, arguments, region, box = losses.integration_domain(name)
            counts[name] = losses.check_argument_range(region, box, arguments)
        assert counts == {"a3": (1,), "b3": (1, 7), "c": (13,)}

    def test_proof_bypasses_the_traced_name(self, monkeypatch):
        """The range proof calls quadrature.integrate_rigorous, so a wrapper on the losses name sees loss runs only."""
        real = losses.integrate_rigorous
        seen = []

        def watching(f, region, *args, **kwargs):
            seen.append(region.name)
            return real(f, region, *args, **kwargs)

        monkeypatch.setattr(losses, "integrate_rigorous", watching)
        losses.verified_loss("c", tol=1e-3)
        assert seen == ["region_c"]

    def test_rejects_c_over_pair_base(self):
        """Over the whole base pair square the loss c argument reaches 13/3."""
        edge = (float(Fraction(3, 19)), float(Fraction(8, 19)))
        _, arguments, _, _ = losses.integration_domain("c")
        with pytest.raises(SoundnessError, match="<= 2 not certified"):
            losses.check_argument_range(PAIR_BASE, (edge, edge), arguments)

    def test_rejects_denominator_negative_on_the_box(self):
        """D = 1/5 - t4 changes sign on the a3 box, where t4 runs over [3/19, 4/19]."""
        _, _, region, box = losses.integration_domain("a3")
        arguments = ((losses._A3_REST, (Fraction(1, 5), (0, 0, 0, -1))),)
        with pytest.raises(SoundnessError, match="denominator of argument 0 not positive"):
            losses.check_argument_range(region, box, arguments)

    def test_denominators_are_kernel_factors(self):
        """Every D is a kernel factor, so `ReciprocalProduct` checks it positive on each leaf."""
        for name, arguments in losses._ARGUMENTS.items():
            for _, den in arguments:
                assert den in losses._FACTORS[name]

    def test_rejects_missing_lower_halfspace(self):
        """Without t1 + 2 t2 < 1 as a conjunct, u >= 1 is not established."""
        _, arguments, region, box = losses.integration_domain("c")
        kept = tuple(
            c for c in region.tree.children
            if not (isinstance(c, LinearConstraint) and c.coeffs == (1, 2))
        )
        assert len(kept) == len(region.tree.children) - 1
        weakened = RegionPredicate("weakened_c", 2, AndNode(kept))
        with pytest.raises(SoundnessError, match=">= 1"):
            losses.check_argument_range(weakened, box, arguments)

    def test_verified_loss_runs_the_check(self, monkeypatch):
        monkeypatch.setitem(losses._REGIONS, "c", PAIR_BASE)
        with pytest.raises(SoundnessError):
            losses.verified_loss("c", budget=10, tol=1e-3)


class TestVerifiedLoss:
    def test_escalation_path(self):
        """An undersized budget escalates tenfold until the target holds."""
        est, escalations = losses.verified_loss("a3", budget=3, tol=1e-9)
        assert escalations == 1
        assert est.upper <= losses.TARGETS["a3"]
        assert est.lower <= FROZEN["a3"] <= est.upper
        est, escalations = losses.verified_loss("a3", budget=1, tol=1e-9)
        assert escalations == 2

    def test_no_escalation_after_converged_run(self, monkeypatch):
        """A run that reached tol is not repeated with a larger budget.

        With budget 200 the first c run is exhausted; the escalated run
        reaches tol 1e-3 and still misses the target, and a further
        escalation would only repeat it box for box.
        """
        real = losses.integrate_rigorous
        runs = []

        def counting(*args, **kwargs):
            est = real(*args, **kwargs)
            runs.append(est)
            return est

        monkeypatch.setattr(losses, "integrate_rigorous", counting)
        est, escalations = losses.verified_loss("c", budget=200, tol=1e-3)
        assert len(runs) == 2
        assert escalations == 1
        assert runs[0].exhausted and not runs[1].exhausted
        assert est is runs[1]
        assert est.upper > losses.TARGETS["c"]
        assert est.lower <= FROZEN["c"] <= est.upper

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            losses.verified_loss("nope")


class TestLedger:
    def test_target_sum_is_under_budget(self):
        total = sum(losses.TARGETS[name] for name in losses.LOSS_NAMES)
        assert total == pytest.approx(0.249025, abs=1e-12)
        assert total < losses.TARGETS["total"]

    def test_ledger_combines(self, ledger):
        assert ledger.total_upper < losses.TARGETS["total"]
        assert ledger.retained_lower > losses.TARGETS["retained"]
        assert ledger.all_within()
        margins = ledger.margins()
        assert set(margins) >= {"a3", "b3", "c", "total"}
        assert all(m > 0 for m in margins.values())

    def test_verdict_rule_at_the_edges(self):
        """Total must stay strictly below 0.25; retained may equal 0.75; a loss may equal its target."""
        ests = {name: IntegralEstimate(lower=0.0, upper=losses.TARGETS[name], boxes_used=1, mode=RIGOROUS)
                for name in losses.LOSS_NAMES}
        ledger = losses.LossLedger(
            loss_a3=ests["a3"],
            loss_b3=ests["b3"],
            loss_c=ests["c"],
            total_upper=0.25,
            retained_lower=0.75,
            targets=dict(losses.TARGETS),
        )
        assert not ledger.all_within("total")
        assert ledger.all_within("retained")
        assert ledger.all_within("a3", "b3", "c", "retained")
        assert not ledger.all_within()

    def test_ledger_bounds_hold_in_exact_arithmetic(self):
        """On seeded float uppers, total_upper is at least their exact sum and retained_lower at most 1 - total_upper."""
        import random

        rng = random.Random(20240801)
        for _ in range(300):
            a, b, c = (IntegralEstimate(lower=0.0, upper=rng.uniform(0.0, scale), boxes_used=1, mode=RIGOROUS)
                       for scale in (1e-3, 2e-2, 0.25))
            ledger = losses.assemble_ledger(a, b, c)
            assert Fraction(a.upper) + Fraction(b.upper) + Fraction(c.upper) <= Fraction(ledger.total_upper)
            assert Fraction(ledger.retained_lower) <= 1 - Fraction(ledger.total_upper)

    def test_ledger_refuses_monte_carlo(self):
        fake = IntegralEstimate(
            lower=1e-5, upper=1e-5, boxes_used=100000, mode=MONTE_CARLO, stderr=1e-7
        )
        rig = IntegralEstimate(lower=1e-5, upper=2e-5, boxes_used=10, mode=RIGOROUS)
        with pytest.raises(ValueError):
            losses.assemble_ledger(fake, rig, rig)


class TestMonteCarlo:
    def test_mc_agrees_with_frozen(self):
        for name in losses.LOSS_NAMES:
            est = losses.loss_mc(name, samples=10**6, seed=20240801)
            se = max(est.stderr, 1e-12)
            assert abs(est.lower - FROZEN[name]) <= 6 * se

    def test_mc_sandwich(self, verified_a3, verified_b3, verified_c, mc_estimates):
        for (est, _), name in (
            (verified_a3, "a3"),
            (verified_b3, "b3"),
            (verified_c, "c"),
        ):
            mc = mc_estimates[name]
            assert est.lower - 4 * mc.stderr <= mc.lower <= est.upper + 4 * mc.stderr
