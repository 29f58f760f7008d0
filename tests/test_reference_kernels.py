"""The fused per-leaf kernels against their step-by-step reference forms.

`ReciprocalProduct.average` and `clipped_average` make one pass over a
factor table with every interval product written out, and
`LinearConstraint._moments` writes out its sums for one and two open
terms.  `reference_kernels` keeps the forms they replaced.  Both make
the same IEEE operations in the same order, so these tests expect equal
`Enclosure`s, the same exception where one raises, and equal exact
moments with their covariance entries in the same order (the order in
which `clipped_average` sums them).  The inputs are every leaf that
short a3, b3 and c runs hand to the kernels, and seeded boxes and
kernels well outside the loss boxes: coefficients of both signs, sides
down to one ulp, and factor values near the ends of the float range.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from fractions import Fraction
from math import nextafter
from types import SimpleNamespace

import pytest

import reference_kernels

from sievebound import losses, quadrature, regions
from sievebound.interval import _DOWN, _UP, SoundnessError
from sievebound.regions import LinearConstraint


def outcome(route, *args):
    """The result of route(*args), or the type and message of what it raises."""
    try:
        return route(*args)
    except (ArithmeticError, ValueError) as error:
        return type(error), str(error)


def assert_same(rp, box, centre, cov):
    """average and clipped_average on the box agree with their reference forms, results or exceptions."""
    assert outcome(rp.average, box) == outcome(reference_kernels.average, rp, box), box
    fused = outcome(rp.clipped_average, box, centre, cov)
    assert fused == outcome(reference_kernels.clipped_average, rp, box, centre, cov), (box, centre, cov)
    return fused


@pytest.mark.parametrize("name, budget", [("a3", 3001), ("b3", 3001), ("c", 1009)])
def test_run_leaves_match_reference(name, budget):
    """Every leaf of a short run gets the reference forms' enclosure, and every halfspace leaf the walk's moments."""
    integrand, _, region, box = losses.integration_domain(name)
    rp = losses.ReciprocalProduct(losses._FACTORS[name])
    seen = {"average": 0, "clipped": 0}

    def average(leaf):
        seen["average"] += 1
        enc = integrand.average(leaf)
        assert enc == reference_kernels.average(rp, leaf), leaf
        return enc

    def clipped_average(leaf, centre, cov):
        seen["clipped"] += 1
        enc = integrand.clipped_average(leaf, centre, cov)
        assert enc == reference_kernels.clipped_average(rp, leaf, centre, cov), leaf
        return enc

    def fraction(leaf, within=None):
        bounds = region.fraction(leaf, within=within)
        halfspace = regions._single_halfspace(bounds.residual)
        if halfspace is not None and bounds[0] != 1.0 and bounds[1] != 0.0:
            moments = halfspace._moments(leaf.grid)
            reference = reference_kernels.moments(halfspace, leaf.grid)
            assert moments == reference and list(moments[1]) == list(reference[1]), leaf
        return bounds

    watched = dataclasses.replace(integrand, average=average, clipped_average=clipped_average)
    est = quadrature.integrate_rigorous(watched, SimpleNamespace(arity=region.arity, fraction=fraction), box,
                                        budget=budget, tol=1e-12)
    assert est.boxes_used == budget
    assert seen["clipped"] >= 80
    assert seen["average"] >= (400 if name == "c" else 1)


def seeded_kernel(rng, arity):
    """A random ReciprocalProduct of 1 to 4 factors, coefficients of both signs, some zero, every axis used."""
    while True:
        factors = []
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(rng.choice((0.0, 0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -0.25)) for _ in range(arity))
            if any(coeffs):
                factors.append((0.0, coeffs))
        if factors and all(any(c[i] for _, c in factors) for i in range(arity)):
            return factors


def seeded_box(rng, arity, magnitude):
    """A box near magnitude with sides from one ulp to 2^-4 relative, about a random point."""
    box = []
    for _ in range(arity):
        lo = magnitude * rng.uniform(0.25, 1.0)
        kind = rng.random()
        if kind < 0.25:
            hi = nextafter(lo, math.inf)
        elif kind < 0.5:
            hi = lo + rng.randint(1, 64) * math.ulp(lo)
        else:
            hi = lo + lo * 2.0 ** -rng.randint(4, 50)
        box.append((lo, hi))
    return tuple(box)


def positive_consts(factors, box, rng):
    """Each factor with a constant that keeps it positive over the box, by a margin from a few ulps up."""
    out = []
    for _, coeffs in factors:
        low = sum(c * (a if c > 0 else b) for c, (a, b) in zip(coeffs, box))
        scale = max(abs(low), max(b for _, b in box))
        out.append((-low + scale * rng.choice((2.0**-50, 2.0**-20, 0.01, 0.5, 2.0)), coeffs))
    return tuple(out)


def seeded_centre(rng, box):
    """A centre box inside the box: a random point and its one-step neighbours, or an exact endpoint."""
    centre = []
    for lo, hi in box:
        c = rng.choice((lo, hi, lo + (hi - lo) * rng.random()))
        centre.append((nextafter(c, _DOWN), nextafter(c, _UP)) if rng.random() < 0.7 else (c, c))
    return tuple(centre)


def seeded_cov(rng, box):
    """Covariance bounds of the size a part of the box has: variances up to w_i^2 / 12, entries of both signs off them.

    Some off-diagonal entries are left out.
    """
    cov = {}
    arity = len(box)
    for i in range(arity):
        for j in range(i, arity):
            if i != j and rng.random() < 0.3:
                continue
            sides = (box[i][1] - box[i][0]) * (box[j][1] - box[j][0])
            v = sides * rng.uniform(0.0, 1.0 / 12) * (1.0 if i == j else rng.uniform(-1.0, 1.0))
            cov[i, j] = (nextafter(v, _DOWN), nextafter(v, _UP)) if rng.random() < 0.8 else (v, v)
    return cov


def test_seeded_kernels_match_reference():
    """On 2,400 seeded kernels and boxes the fused forms equal the reference forms.

    Most boxes sit at magnitude about 1/2 with margins from 2^-50 up, so
    the kernels run the values the loss boxes see and values whose
    centre boxes nearly touch a zero of a factor.  Some sit near 2^-520
    and 2^500, where reciprocals overflow and products underflow, so
    infinities, zeros and NaN end products run through both.
    """
    rng = random.Random(20261020)
    results = set()
    for n in range(2400):
        arity = rng.randint(1, 4)
        magnitude = 0.5 if n % 8 else rng.choice((2.0**-520, 2.0**500, 2.0**-1000))
        box = seeded_box(rng, arity, magnitude)
        rp = losses.ReciprocalProduct(positive_consts(seeded_kernel(rng, arity), box, rng))
        fused = assert_same(rp, box, seeded_centre(rng, box), seeded_cov(rng, box))
        results.add(type(fused).__name__ if not isinstance(fused, tuple) else fused[0].__name__)
    assert "Enclosure" in results and len(results) >= 2, results


def test_exceptions_match_reference(monkeypatch):
    """A NaN endpoint, a non-positive factor and disjoint enclosures raise the same error in both forms."""
    rp = losses.ReciprocalProduct(losses._FACTORS["c"])
    box = ((0.375, 0.37890625), (0.25, 0.25390625))
    centre = ((0.376, 0.376), (0.252, 0.252))
    cases = [
        (((math.nan, 0.4), (0.25, 0.26)), centre, SoundnessError),
        (box, ((0.376, 0.376), (math.nan, 0.252)), SoundnessError),
        (((0.375, 0.5), (0.25, 0.5)), centre, SoundnessError),
        (box, centre, None),
    ]
    for leaf, centre_box, expected in cases:
        fused = assert_same(rp, leaf, centre_box, {(0, 0): (1e-6, 1e-6)})
        if expected is not None:
            assert fused[0] is expected
    # Factor bounds for the box, then for any centre box: f in [1, 2] over the box, 5 at the centre.
    bounds = [[(1.0, 1.0), (1.0, 1.0), (0.5, 1.0)], [(1.0, 1.0), (1.0, 1.0), (0.2, 0.2)]]
    monkeypatch.setattr(losses.ReciprocalProduct, "_factor_bounds", lambda self, leaf: bounds[leaf != box])
    for route in (rp.average, functools.partial(reference_kernels.average, rp)):
        assert outcome(route, box)[0] is SoundnessError
    assert outcome(rp.average, box) == outcome(reference_kernels.average, rp, box)
    assert outcome(rp.clipped_average, box, centre, {}) == outcome(reference_kernels.clipped_average, rp, box, centre, {})
    assert "disjoint enclosures" in outcome(rp.clipped_average, box, centre, {})[1]


def seeded_constraint(rng, arity, open_terms, rel):
    """A halfspace on arity axes with open_terms nonzero coefficients of both signs, and a box it cuts."""
    axes = rng.sample(range(arity), open_terms)
    coeffs = [Fraction(0)] * arity
    for i in axes:
        coeffs[i] = Fraction(rng.choice((1, -1, 2, -3, 5))) / rng.choice((1, 2, 7, 19))
    box = []
    for _ in range(arity):
        lo = rng.uniform(0.1, 0.5)
        side = rng.choice((math.ulp(lo), rng.randint(1, 1000) * math.ulp(lo), lo * 2.0 ** -rng.randint(1, 40)))
        box.append((lo, lo + side))
    point = [Fraction(lo) + (Fraction(hi) - Fraction(lo)) * Fraction(rng.randint(1, 99), 100) for lo, hi in box]
    bound = sum((c * t for c, t in zip(coeffs, point)), Fraction(0))
    return LinearConstraint(tuple(coeffs), rel, bound), tuple(box)


@pytest.mark.parametrize("rel", ["<", "<=", ">", ">="])
def test_written_out_moments_match_subset_walk(rel):
    """`_moments` with one to three open terms equals the subset walk's centroid and covariance as rationals.

    The covariance entries also come in the same order, which fixes the
    order of `clipped_average`'s sum.  A box the halfspace does not cut
    raises the same error in both.
    """
    rng = random.Random(f"moments {rel}")
    counted = {1: 0, 2: 0, 3: 0}
    for _ in range(800):
        arity = rng.randint(1, 4)
        open_terms = rng.randint(1, min(3, arity))
        con, box = seeded_constraint(rng, arity, open_terms, rel)
        grid = regions._grid(box)
        fused, reference = outcome(con._moments, grid), outcome(reference_kernels.moments, con, grid)
        if isinstance(reference, tuple) and reference[0] is ValueError:
            assert fused == reference
            continue
        (centre, cov), (ref_centre, ref_cov) = fused, reference
        assert [Fraction(*c) for c in centre] == [Fraction(*c) for c in ref_centre]
        assert list(cov) == list(ref_cov)
        assert {ij: Fraction(*v) for ij, v in cov.items()} == {ij: Fraction(*v) for ij, v in ref_cov.items()}
        counted[open_terms] += 1
    assert all(n >= 100 for n in counted.values()), counted
    with pytest.raises(ValueError, match="does not cut"):
        LinearConstraint((Fraction(1),), rel, Fraction(2))._moments(regions._grid(((0.25, 0.5),)))
