"""Exact replay oracles for the certified float kernels.

Each test recomputes one float kernel step by step in `Fraction`s from
the same float inputs and checks lo <= exact <= hi at every step:

  * `LinearConstraint._ratio`, whose integer kernels for one to three
    open terms and subset walk for more must equal the Irwin-Hall
    fraction summed in `Fraction`s over every subset;
  * the grids that `integrate_rigorous`'s leaves carry, against the
    `_grid` of each leaf, and the fraction bounds computed on them
    against those of a freshly built grid;
  * the And/Or nodes of `regions._tree_fraction`, against the exact
    Frechet bounds of their children's float bounds;
  * `ReciprocalProduct.enclosure`, against the exact 1 / prod L_k;
  * the leaf product of `quadrature._leaf_contribution`;
  * the centre boxes of `clipped_average` and `average`, against the
    exact centroid or midpoint and the exact factor values there, and
    the covariance bounds of `clipped_average` against the exact
    covariance;
  * the final `fsum` ends of `integrate_rigorous`, against the exact
    sums of its final leaves' contributions;
  * the per-factor spreads of the mean-value remainders and their
    complete homogeneous symmetric polynomials, as the one pass of
    `ReciprocalProduct._walk` returns them, against the exact h_n and
    the n-th power bound they replaced;
  * the slopes S_i and Hessian entries Q_ij of that pass, against the
    exact sums of their float steps and the exact values at the centre.

Where a step's result is not observable, the replay recomputes it with
the kernel's own float operation and checks that float against the
exact value of its inputs, so the kernel's last step is compared with
the exact value of its own float inputs.  Dropping one outward rounding
then leaves a result rounded to nearest, which falls on the wrong side
of that exact value for about half of the inexact inputs; over a few
hundred seeded leaves or a few dozen runs that fails.  No expected
value is pinned.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction
from math import nextafter
from types import SimpleNamespace

import pytest

from test_losses import seeded_leaves
from test_regions import (
    anisotropic_leaf,
    box_second_moments,
    clip_polygon,
    full_covariance,
    raw_second_moments,
    shoelace_moments,
)

from sievebound import losses, quadrature, regions
from sievebound.interval import _DOWN, _UP
from sievebound.regions import AndNode, LinearConstraint

F = Fraction


def irwin_hall_fraction(con, box) -> Fraction:
    """Exact volume fraction of box satisfying con, from the Irwin-Hall distribution function over all 2^m subsets.

    With T_i = a_i + (b_i - a_i) U_i, and U_i -> 1 - U_i where
    c_i < 0, sum(c_i T_i) <= bound reads sum(beta_i U_i) <= y with
    beta_i = |c_i| (b_i - a_i) > 0 over the open terms, whose
    probability is sum over S of (-1)^|S| max(0, y - beta_S)^m, over
    m! prod(beta_i).  No open term leaves the point test y >= 0.  The
    relations > and >= take the complement.
    """
    y = F(con.bound)
    betas = []
    for c, (a, b) in zip(con.coeffs, box, strict=True):
        c, a, b = F(c), F(a), F(b)
        y -= c * (a if c > 0 else b)
        if c and b > a:
            betas.append(abs(c) * (b - a))
    m = len(betas)
    if m:
        total = sum(
            (
                (-1) ** r * max(y - sum(subset, F(0)), F(0)) ** m
                for r in range(m + 1)
                for subset in itertools.combinations(betas, r)
            ),
            F(0),
        )
        below = total / (math.factorial(m) * math.prod(betas))
    else:
        below = F(int(y >= 0))
    return 1 - below if con.rel in (">", ">=") else below


def oracle_case(rng: random.Random):
    """(constraint, box, open-term count) with seeded integer coefficients of both signs, zeros and zero-width sides.

    Endpoints are floats or fractions with small denominators.  The
    bound is the constraint's value at a point of the box, so most cases
    cut the box, or lies beyond the corner range, which decides it.
    """
    dims = rng.randint(1, 4)
    coeffs = [rng.randint(-3, 3) for _ in range(dims)]
    if not any(coeffs):
        coeffs[rng.randrange(dims)] = rng.choice((-1, 1))
    box = []
    for _ in range(dims):
        if rng.random() < 0.5:
            a = rng.uniform(-1.0, 1.0)
            b = a if rng.random() < 0.15 else a + rng.uniform(0.0, 1.0)
        else:
            den = rng.randint(1, 12)
            a = F(rng.randint(-den, den), den)
            b = a if rng.random() < 0.15 else a + F(rng.randint(1, 2 * den), den)
        box.append((a, b))
    box = tuple(box)
    point = [F(a) + (F(b) - F(a)) * F(rng.randint(0, 16), 16) for a, b in box]
    bound = sum((F(c) * t for c, t in zip(coeffs, point)), F(0))
    if rng.random() < 0.2:
        bound += rng.choice((-1, 1)) * sum((abs(c) * (F(b) - F(a)) for c, (a, b) in zip(coeffs, box)), F(1))
    con = LinearConstraint(tuple(coeffs), rng.choice(("<", "<=", ">", ">=")), bound)
    open_terms = sum(1 for c, (a, b) in zip(coeffs, box) if c and b != a)
    return con, box, open_terms


def test_ratio_equals_irwin_hall_over_all_subsets():
    """`LinearConstraint.fraction` is the exact Irwin-Hall fraction on 3,000 seeded boxes of one to four dimensions.

    Every relation, coefficients of both signs and zero, zero-width
    sides and decided boxes occur; each open-term count from one to four
    has at least 100 boxes the constraint cuts, so the one-, two- and
    three-term kernels and the subset walk all run, and the float bounds
    contain the exact fraction.
    """
    rng = random.Random(20261020)
    cut = [0] * 5
    decided = 0
    for _ in range(3000):
        con, box, open_terms = oracle_case(rng)
        exact = irwin_hall_fraction(con, box)
        assert con.fraction(box) == exact, (con, box)
        lo, hi = con.fraction_bounds(box)
        assert F(lo) <= exact <= F(hi)
        if 0 < exact < 1:
            cut[open_terms] += 1
        else:
            decided += 1
    assert min(cut[1:]) >= 100 and decided >= 300, (cut, decided)


def test_carried_grids_match_fresh_grids():
    """Every box a short a3, b3 and c run hands `fraction` carries its exact `_grid`, and the bounds match a fresh grid's.

    The carried grid is compared as rationals, since a half keeps its
    parent's scale when that is a multiple of the split point's
    denominator.  The bounds, residual and moments computed on the
    carried grid equal those of the same box as a plain tuple, whose
    grid `fraction` builds afresh.
    """
    for name, budget in (("a3", 1500), ("b3", 1500), ("c", 1200)):
        integrand, _, region, box = losses.integration_domain(name)
        seen = []

        def fraction(leaf, within=None):
            bounds = region.fraction(leaf, within=within)
            seen.append((leaf, within, bounds))
            return bounds

        est = quadrature.integrate_rigorous(integrand, SimpleNamespace(arity=region.arity, fraction=fraction), box,
                                            budget=budget, tol=1e-12)
        assert len(seen) == est.boxes_used
        for leaf, within, bounds in seen:
            scale, ends = leaf.grid
            assert [(F(a, scale), F(b, scale)) for a, b in ends] == [(F(a), F(b)) for a, b in leaf]
            fresh = region.fraction(tuple(leaf), within=within)
            assert (bounds[0], bounds[1], bounds.residual) == (fresh[0], fresh[1], fresh.residual)
            halfspace = regions._single_halfspace(bounds.residual)
            if bounds[1] != 0.0 and bounds[0] != 1.0 and halfspace is not None:
                carried, rebuilt = halfspace._moments(leaf.grid), halfspace._moments(regions._grid(leaf))
                assert all(F(*p) == F(*q) for p, q in zip(carried[0], rebuilt[0], strict=True))
                assert carried[1].keys() == rebuilt[1].keys()
                assert all(F(*carried[1][ij]) == F(*rebuilt[1][ij]) for ij in carried[1])


def replay_tree(node, grid) -> tuple[float, float]:
    """`_tree_fraction`'s (lo, hi) of node on grid, each And/Or step checked exactly against its children's floats."""
    lo, hi, _ = regions._tree_fraction(node, grid)
    assert 0.0 <= lo <= hi <= 1.0
    if isinstance(node, LinearConstraint):
        assert F(lo) <= F(*node._ratio(grid)) <= F(hi)
        return lo, hi
    parts = [replay_tree(child, grid) for child in node.children]
    if isinstance(node, AndNode):
        if any(c_hi == 0.0 for _, c_hi in parts):
            assert (lo, hi) == (0.0, 0.0)
            return lo, hi
        missing = 0.0
        for c_lo, _ in parts:
            if c_lo != 1.0:
                gap = nextafter(1.0 - c_lo, _UP)
                assert F(gap) >= 1 - F(c_lo)
                step = nextafter(missing + gap, _UP)
                assert F(step) >= F(missing) + F(gap)
                missing = step
        assert F(missing) >= sum((1 - F(c_lo) for c_lo, _ in parts), F(0))
        assert F(lo) <= max(1 - F(missing), F(0))
        assert F(hi) >= min(F(c_hi) for _, c_hi in parts)
        return lo, hi
    if any(c_lo == 1.0 for c_lo, _ in parts):
        assert (lo, hi) == (1.0, 1.0)
        return lo, hi
    total = 0.0
    for _, c_hi in parts:
        if c_hi != 0.0:
            step = nextafter(total + c_hi, _UP)
            assert F(step) >= F(total) + F(c_hi)
            total = step
    assert F(total) >= sum((F(c_hi) for _, c_hi in parts), F(0))
    assert F(lo) <= max(F(c_lo) for c_lo, _ in parts)
    assert F(hi) >= min(F(total), F(1))
    return lo, hi


@functools.lru_cache(maxsize=None)
def mixed_leaves(name, count=250, seed=20240801):
    """Seeded leaves of a loss box, nearly all undecided by its region.

    Ten come from `anisotropic_leaf`, with side ratios up to 2**17 (kept
    undecided where a bisection allows); the rest are sampled from the undecided leaves a short refinement of
    the loss admits, the boxes `integrate_rigorous` actually meets.
    """
    integrand, _, region, box = losses.integration_domain(name)
    rng = random.Random(seed)
    anisotropic = [anisotropic_leaf(rng, region, box) for _ in range(10)]
    admitted = []

    def fraction(leaf, within=None):
        bounds = region.fraction(leaf, within=within)
        if bounds[0] < bounds[1]:
            admitted.append(leaf)
        return bounds

    quadrature.integrate_rigorous(integrand, SimpleNamespace(arity=region.arity, fraction=fraction), box,
                                  budget=4000, tol=1e-12)
    return anisotropic + rng.sample(admitted, count - len(anisotropic))


@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_tree_fraction_steps_contain_exact_frechet_bounds(name):
    """On 250 seeded leaves, nearly all undecided, every And/Or node encloses the exact Frechet bounds of its children."""
    region = losses.integration_domain(name)[2]
    undecided = 0
    for leaf in mixed_leaves(name):
        lo, hi = replay_tree(region.tree, regions._grid(leaf))
        undecided += lo < hi
    assert undecided >= 240


def exact_factor_range(form, box) -> tuple[Fraction, Fraction]:
    const, coeffs = form
    lo = hi = F(const)
    for c, (a, b) in zip(coeffs, box):
        lo += F(c) * F(a if c > 0 else b)
        hi += F(c) * F(b if c > 0 else a)
    return lo, hi


def leaves_of(name, count, seed):
    """Seeded sub-boxes of a loss box: small ones and coarse ones."""
    box = losses.integration_domain(name)[3]
    rng = random.Random(seed)
    return seeded_leaves(rng, box, count // 2) + seeded_leaves(rng, box, count - count // 2, min_exp=6, max_exp=12)


@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_reciprocal_enclosure_contains_exact_reciprocal(name):
    """`ReciprocalProduct.enclosure` contains 1 / prod L_k, each product step and the division checked exactly."""
    rp = losses.ReciprocalProduct(losses._FACTORS[name])
    for leaf in leaves_of(name, 300, 7):
        factors = rp._factor_bounds(leaf)
        exact_lo = exact_hi = F(1)
        for form, (lo, hi) in zip(rp.factors, factors):
            l_lo, l_hi = exact_factor_range(form, leaf)
            assert F(lo) <= l_lo and l_hi <= F(hi)
            exact_lo, exact_hi = exact_lo * l_lo, exact_hi * l_hi
        p_lo = p_hi = 1.0
        for lo, hi in factors:
            step_lo, step_hi = nextafter(p_lo * lo, _DOWN), nextafter(p_hi * hi, _UP)
            assert F(step_lo) <= F(p_lo) * F(lo) and F(p_hi) * F(hi) <= F(step_hi)
            p_lo, p_hi = step_lo, step_hi
        enc = rp.enclosure(leaf)
        assert F(enc.lo) <= 1 / F(p_hi) and 1 / F(p_lo) <= F(enc.hi)
        assert F(enc.lo) <= 1 / exact_hi and 1 / exact_lo <= F(enc.hi)


def recording(integrand):
    """The integrand with every enclosure its methods return appended to a list."""
    seen = []

    def wrap(method):
        if method is None:
            return None

        def call(*args):
            enc = method(*args)
            seen.append(enc)
            return enc

        return call

    methods = ("enclosure", "average", "clipped_average")
    return dataclasses.replace(integrand, **{m: wrap(getattr(integrand, m)) for m in methods}), seen


@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_leaf_product_contains_exact_product(name):
    """`_leaf_contribution` contains volume * fraction * value, each factor of the product checked exactly.

    The leaves are seeded mixed leaves of the region and seeded
    sub-boxes of the loss box, so the product runs through the
    enclosure, the clipped average and, for c, the inside average.
    """
    integrand, _, region, _ = losses.integration_domain(name)
    leaves = list(mixed_leaves(name)) + leaves_of(name, 200, 8)
    nonzero = 0
    for leaf in map(regions.GridBox, leaves):
        fraction = region.fraction(leaf)
        f, seen = recording(integrand)
        lo, hi = quadrature._leaf_contribution(f, fraction, leaf)
        fr_lo, fr_hi = fraction
        if fr_hi == 0.0:
            assert (lo, hi) == (0.0, 0.0) and not seen
            continue
        (enc,) = seen
        nonzero += 1
        v_lo = v_hi = 1.0
        for a, b in leaf:
            w_lo, w_hi = nextafter(b - a, _DOWN), nextafter(b - a, _UP)
            assert F(w_lo) <= F(b) - F(a) <= F(w_hi)
            step_lo, step_hi = nextafter(v_lo * w_lo, _DOWN), nextafter(v_hi * w_hi, _UP)
            assert F(step_lo) <= F(v_lo) * F(w_lo) and F(v_hi) * F(w_hi) <= F(step_hi)
            v_lo, v_hi = step_lo, step_hi
        if fr_lo != 1.0:
            step_lo, step_hi = nextafter(v_lo * fr_lo, _DOWN), nextafter(v_hi * fr_hi, _UP)
            assert F(step_lo) <= F(v_lo) * F(fr_lo) and F(v_hi) * F(fr_hi) <= F(step_hi)
            v_lo, v_hi = step_lo, step_hi
        assert F(lo) <= max(F(v_lo) * F(max(enc.lo, 0.0)), F(0))
        assert F(v_hi) * F(max(enc.hi, 0.0)) <= F(hi)
    assert nonzero >= 100


def routed_leaves(name, count, seed, budget=3000):
    """Seeded leaves of a short refinement of a loss, by the centre route `_leaf_contribution` takes.

    "inside": (leaf, bounds) with fraction bounds (1, 1), which take
    `average`; "halfspace": mixed leaves whose residual tree is one
    halfspace, which take `clipped_average`.  At most `count` of each.
    """
    integrand, _, region, box = losses.integration_domain(name)
    routes = {"inside": [], "halfspace": []}

    def fraction(leaf, within=None):
        bounds = region.fraction(leaf, within=within)
        if bounds[0] == 1.0:
            routes["inside"].append((leaf, bounds))
        elif bounds[1] != 0.0 and regions._single_halfspace(bounds.residual) is not None:
            routes["halfspace"].append((leaf, bounds))
        return bounds

    quadrature.integrate_rigorous(integrand, SimpleNamespace(arity=region.arity, fraction=fraction), box,
                                  budget=budget, tol=1e-12)
    rng = random.Random(seed)
    return {route: rng.sample(found, min(count, len(found))) for route, found in routes.items()}


def exact_moments(halfspace, leaf) -> tuple[tuple[Fraction, ...], dict]:
    """Centroid and covariance (every (i, j), i <= j) of leaf intersect halfspace.

    In 2-D they come from the shoelace sums of the clipped rectangle.
    In 4-D they come from the code under test, so they are first checked
    against the other side of the halfspace: with V the exact fraction
    and c', M' the other side's centroid and raw second moments
    E[t_i t_j], V c + (1 - V) c' must be the leaf's exact midpoint and
    V M + (1 - V) M' the leaf's exact raw second moments.
    """
    if len(leaf) != 2:
        other = LinearConstraint(halfspace.coeffs, "<=" if halfspace.rel in (">", ">=") else ">", halfspace.bound)
        v = halfspace.fraction(leaf)
        centroid = halfspace.centroid(leaf)
        mixed = [v * c + (1 - v) * d for c, d in zip(centroid, other.centroid(leaf), strict=True)]
        assert mixed == [(F(lo) + F(hi)) / 2 for lo, hi in leaf]
        part, rest = raw_second_moments(halfspace, leaf), raw_second_moments(other, leaf)
        assert {ij: v * m + (1 - v) * rest[ij] for ij, m in part.items()} == box_second_moments(leaf)
        return centroid, full_covariance(halfspace, leaf)
    (a1, b1), (a2, b2) = (tuple(map(F, iv)) for iv in leaf)
    corners = [(a1, a2), (b1, a2), (b1, b2), (a1, b2)]
    if halfspace.rel in ("<", "<="):
        return shoelace_moments(clip_polygon(corners, halfspace.coeffs, halfspace.bound))
    return shoelace_moments(clip_polygon(corners, tuple(-c for c in halfspace.coeffs), -halfspace.bound))


def cutting_halfspaces(node, leaf) -> dict:
    """The distinct halfspaces of a region tree whose exact fraction on the leaf is strictly between 0 and 1."""
    if isinstance(node, LinearConstraint):
        return {node: None} if 0 < node.fraction(leaf) < 1 else {}
    found = {}
    for child in node.children:
        found.update(cutting_halfspaces(child, leaf))
    return found


@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_moments_match_exact_moments(name):
    """On seeded leaves, `_moments` of every region halfspace that cuts the leaf equals `exact_moments`.

    The leaves are 60 of `mixed_leaves` (the `anisotropic_leaf` ones
    first) and 60 `seeded_leaves` sub-boxes, small and coarse.  On c the
    oracle is the shoelace sums; on a3 and b3 `exact_moments` checks the
    centroid and raw second moments of both sides against the leaf's.
    """
    region = losses.integration_domain(name)[2]
    checked = 0
    for leaf in list(mixed_leaves(name))[:60] + leaves_of(name, 60, 9):
        for halfspace in cutting_halfspaces(region.tree, leaf):
            centroid, covariance = exact_moments(halfspace, leaf)
            assert halfspace.centroid(leaf) == centroid
            assert full_covariance(halfspace, leaf) == covariance
            checked += 1
    assert checked >= 60


@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_centre_boxes_contain_exact_centres(monkeypatch, name):
    """The centre box of each mean-value route contains the exact centre, and its factor bounds each exact L_k there.

    On single-halfspace leaves the centre is the exact centroid of leaf
    intersect halfspace (`exact_moments`: on c from the shoelace sums of
    the clipped rectangle, on a3 and b3 checked against the other side's
    moments), and the centre box is the one `clipped_average` is given;
    its covariance bounds contain the exact covariance, and every entry
    they leave out is exactly zero.  On inside leaves the centre is the
    exact midpoint of the leaf, and the centre box the one `average`
    builds.  Both are the second `_factor_bounds` call of the leaf, after
    the leaf itself.  This early (5,000 boxes) a3 and b3 have only a few
    inside leaves: a3 meets its fifth between 4,000 and 5,000.
    """
    integrand, _, region, _ = losses.integration_domain(name)
    routes = routed_leaves(name, 150, seed=20261019, budget=5000)
    calls = []
    factor_bounds = losses.ReciprocalProduct._factor_bounds

    def recording(self, box):
        bounds = factor_bounds(self, box)
        calls.append((self, box, bounds))
        return bounds

    covariances = []

    def clipped_average(box, centre, cov):
        covariances.append(cov)
        return integrand.clipped_average(box, centre, cov)

    watched = dataclasses.replace(integrand, clipped_average=clipped_average)
    monkeypatch.setattr(losses.ReciprocalProduct, "_factor_bounds", recording)
    for route, cases in routes.items():
        for leaf, bounds in cases:
            calls.clear()
            covariances.clear()
            quadrature._leaf_contribution(watched, bounds, leaf)
            assert len(calls) == 2
            (_, first, _), (rp, centre_box, factors) = calls
            assert first == leaf
            if route == "inside":
                centre = [(F(lo) + F(hi)) / 2 for lo, hi in leaf]
                assert not covariances
            else:
                centre, covariance = exact_moments(regions._single_halfspace(bounds.residual), leaf)
                (cov,) = covariances
                for ij, exact in covariance.items():
                    lo, hi = cov.get(ij, (0.0, 0.0))
                    assert F(lo) <= exact <= F(hi), (leaf, ij)
            assert all(F(lo) <= c <= F(hi) for c, (lo, hi) in zip(centre, centre_box, strict=True))
            for (const, coeffs), (lo, hi) in zip(rp.factors, factors, strict=True):
                value = F(const) + sum((F(a) * c for a, c in zip(coeffs, centre)), F(0))
                assert F(lo) <= value <= F(hi)
    assert len(routes["halfspace"]) >= 75
    assert len(routes["inside"]) >= (150 if name == "c" else 5)


def final_leaves(monkeypatch, name, budget):
    """(estimate, contributions of the final leaves) of a short rigorous run of a loss."""
    admitted = {}
    split = set()
    contribution, halve = quadrature._leaf_contribution, quadrature._split

    def recording_contribution(f, fraction, leaf):
        admitted[leaf] = contribution(f, fraction, leaf)
        return admitted[leaf]

    def recording_split(leaf, scale, residual):
        parts = halve(leaf, scale, residual)
        if parts is not None:
            split.add(leaf)
        return parts

    monkeypatch.setattr(quadrature, "_leaf_contribution", recording_contribution)
    monkeypatch.setattr(quadrature, "_split", recording_split)
    est = losses._run(name, budget=budget, tol=1e-12)
    return est, [c for leaf, c in admitted.items() if leaf not in split]


@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_rigorous_sums_contain_exact_leaf_sums(monkeypatch, name):
    """The ends of short `integrate_rigorous` runs contain the exact sums of their final leaves' bounds."""
    for budget in range(41, 402, 40):
        est, final = final_leaves(monkeypatch, name, budget)
        assert est.boxes_used == len(final) * 2 - 1
        exact_lo = sum((F(lo) for lo, _ in final), F(0))
        exact_hi = sum((F(hi) for _, hi in final), F(0))
        assert 0 <= exact_lo <= exact_hi and exact_hi > 0
        assert F(est.lower) <= exact_lo and exact_hi <= F(est.upper)
        assert F(est.upper) - exact_hi <= 2 * F(math.ulp(est.upper))
        assert exact_lo - F(est.lower) <= 2 * F(math.ulp(est.lower))


def walked(monkeypatch, name, count, seed):
    """(rp, ls, at_centre, sides, result) of each `_walk` that `average` and `clipped_average` run on seeded leaves.

    ls and at_centre are the factor bounds over the walk's box and its
    centre box.  Each leaf goes through `average` and through
    `clipped_average` about its float midpoint's centre box, with no
    covariance.
    """
    rp = losses.ReciprocalProduct(losses._FACTORS[name])
    walk, runs = losses.ReciprocalProduct._walk, []

    def recording(self, box, centre, sides):
        ls, at_centre = self._factor_bounds(box), self._factor_bounds(centre)
        runs.append((self, ls, at_centre, sides, walk(self, box, centre, sides)))
        return runs[-1][-1]

    monkeypatch.setattr(losses.ReciprocalProduct, "_walk", recording)
    for leaf in leaves_of(name, count, seed):
        rp.average(leaf)
        rp.clipped_average(leaf, [(nextafter(c := (lo + hi) * 0.5, _DOWN), nextafter(c, _UP)) for lo, hi in leaf], {})
    assert len(runs) == 2 * count
    return runs


@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_complete_lies_between_exact_h_and_power_of_sum(monkeypatch, name):
    """The remainder spreads bound their exact values, and the h_n of `_walk` lie between exact h_n and (sum rho)^n.

    On seeded leaves of each loss box, with the side bounds each form
    passes, each spread that `_walk` returns is at least the exact
    sum_i |a_ki| w_i / L_k,lo of its float inputs.  For n = 2, 3, 4, the
    orders the pads use, its float h_n is at least the exact h_n of
    those spreads, a sum over the multisets of n factors, and at most
    the exact (sum_k rho_k)^n, so the pad is never looser than the n-th
    power bound it replaced.
    """
    for rp, ls, _, sides, result in walked(monkeypatch, name, 300, 9):
        *_, rhos, h = result
        for (_, coeffs), (l_lo, _), rho in zip(rp.factors, ls, rhos, strict=True):
            assert F(rho) >= sum((abs(F(a)) * F(w) for a, w in zip(coeffs, sides)), F(0)) / F(l_lo)
        exact = [F(rho) for rho in rhos]
        for n in (2, 3, 4):
            h_n = sum((math.prod(ms, start=F(1)) for ms in itertools.combinations_with_replacement(exact, n)), F(0))
            assert h_n <= F(h[n]) <= sum(exact, F(0)) ** n, (ls, n)


def interval_product(a, b) -> tuple[Fraction, Fraction]:
    """Exact least and greatest end products of two float intervals."""
    products = [F(x) * F(y) for x in a for y in b]
    return min(products), max(products)


@pytest.mark.parametrize("name", losses.LOSS_NAMES)
def test_walk_contains_exact_slopes_and_hessian_entries(monkeypatch, name):
    """The slopes S_i and entries Q_ij of `_walk` contain their exact values, each step checked exactly.

    At the centre of every walk, each x_ki = a_ki / L_k, with L_k
    anywhere in its centre bounds, lies in the kernel's float bounds,
    recomputed here with the kernel's own operations.  Each S_i bound
    then holds the exact sum of those x bounds, and each Q_ij bound the
    exact sum of the rounded bounds of the products x_ki x_kj, which in
    turn hold the exact end products.  So S_i and Q_ij hold their exact
    values at every point of the centre box, the exact centre included.
    """
    for rp, _, at_centre, _, result in walked(monkeypatch, name, 150, 13):
        s_lo, s_hi, q_lo, q_hi = result[4:8]
        entries = rp._entries
        x = [{} for _ in range(rp._arity)]
        for k, ((_, coeffs), (l_lo, l_hi)) in enumerate(zip(rp.factors, at_centre, strict=True)):
            v_lo, v_hi = nextafter(1.0 / l_hi, _DOWN), nextafter(1.0 / l_lo, _UP)
            assert F(v_lo) <= 1 / F(l_hi) and 1 / F(l_lo) <= F(v_hi)
            for i, a in enumerate(coeffs):
                if a:
                    ends = (a * v_lo, a * v_hi) if a > 0 else (a * v_hi, a * v_lo)
                    x[i][k] = nextafter(ends[0], _DOWN), nextafter(ends[1], _UP)
                    exact = sorted(F(a) / F(l) for l in (l_lo, l_hi))
                    assert F(x[i][k][0]) <= exact[0] and exact[1] <= F(x[i][k][1])
        for i, row in enumerate(x):
            assert F(s_lo[i]) <= sum((F(lo) for lo, _ in row.values()), F(0))
            assert sum((F(hi) for _, hi in row.values()), F(0)) <= F(s_hi[i])
        for (i, j), e in entries.items():
            bound_lo = bound_hi = F(0)
            for k in x[i].keys() & x[j].keys():
                p_lo, p_hi = interval_product(x[i][k], x[j][k])
                lo, hi = nextafter(float(p_lo), _DOWN), nextafter(float(p_hi), _UP)
                assert F(lo) <= p_lo and p_hi <= F(hi)
                bound_lo, bound_hi = bound_lo + F(lo), bound_hi + F(hi)
            assert F(q_lo[e]) <= bound_lo and bound_hi <= F(q_hi[e]), (i, j)
