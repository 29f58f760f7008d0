"""Exact replay oracles for the certified float kernels.

Each test recomputes one float kernel step by step in `Fraction`s from
the same float inputs and checks lo <= exact <= hi at every step:

  * the And/Or nodes of `regions._tree_fraction`, against the exact
    Frechet bounds of their children's float bounds;
  * `ReciprocalProduct.enclosure`, against the exact 1 / prod L_k;
  * the leaf product of `quadrature._leaf_contribution`;
  * the final `fsum` ends of `integrate_rigorous`, against the exact
    sums of its final leaves' contributions.

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
import math
import random
from fractions import Fraction
from math import nextafter
from types import SimpleNamespace

import pytest

from test_losses import seeded_leaves
from test_regions import anisotropic_leaf

from sievebound import losses, quadrature, regions
from sievebound.interval import _DOWN, _UP
from sievebound.regions import AndNode, LinearConstraint

F = Fraction


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
    for leaf in leaves:
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


def final_leaves(monkeypatch, name, budget):
    """(estimate, contributions of the final leaves) of a short rigorous run of a loss."""
    admitted = {}
    split = set()
    contribution, halve = quadrature._leaf_contribution, quadrature._split

    def recording_contribution(f, fraction, leaf):
        admitted[leaf] = contribution(f, fraction, leaf)
        return admitted[leaf]

    def recording_split(leaf, scale):
        parts = halve(leaf, scale)
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
