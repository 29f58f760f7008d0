"""Tests for the certified integrator and the Monte Carlo estimator.

Closed-form oracles over the unit square with the halfspace region
t1 + t2 <= 1/2:

  * area = 1/8;
  * int t1 dA = int_0^{1/2} t1 (1/2 - t1) dt1 = 1/48.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from sievebound import losses, quadrature, regions
from sievebound.interval import Enclosure, SoundnessError
from sievebound.quadrature import (
    LEAF_CLASSES,
    Integrand,
    MONTE_CARLO,
    RIGOROUS,
    integrate_mc,
    integrate_rigorous,
)
from sievebound.regions import REGION_A, AndNode, LinearConstraint, OrNode, RegionPredicate


def halfspace_region() -> RegionPredicate:
    tree = AndNode((LinearConstraint((1, 1), "<=", Fraction(1, 2)),))
    return RegionPredicate("half", 2, tree)


def constant_one() -> Integrand:
    return Integrand(
        arity=2,
        enclosure=lambda box: Enclosure(1.0),
        value_many=lambda pts: np.ones(len(pts)),
    )


def linear_t1() -> Integrand:
    """f(t) = t1; its box average is the midpoint of t1's side, rounded outward and kept inside the side."""
    return Integrand(
        arity=2,
        enclosure=lambda box: Enclosure(box[0][0], box[0][1]),
        value_many=lambda pts: pts[:, 0].copy(),
        average=lambda box: ((Enclosure(box[0][0]) + box[0][1]) * 0.5).intersect(Enclosure(*box[0])),
    )


UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


class TestRigorous:
    def test_area_of_triangle(self):
        est = integrate_rigorous(constant_one(), halfspace_region(), UNIT_SQUARE, tol=1e-6)
        assert est.mode == RIGOROUS
        assert est.lower <= 0.125 <= est.upper
        assert est.upper - est.lower <= 1e-6
        assert not est.exhausted

    def test_first_moment(self):
        est = integrate_rigorous(linear_t1(), halfspace_region(), UNIT_SQUARE, tol=1e-4)
        exact = 1.0 / 48.0
        assert est.lower <= exact <= est.upper
        assert est.upper - est.lower <= 1e-4
        assert not est.exhausted

    def test_budget_monotone_bounds(self):
        """More budget never loosens the certified sandwich.

        Each refinement replaces one box by its two halves; interval
        arithmetic is inclusion isotone, so the certified upper bound is
        non-increasing and the lower bound non-decreasing in the budget
        (up to the final one-ulp outward rounding).
        """
        f = linear_t1()
        region = halfspace_region()
        exact = 1.0 / 48.0
        prev = None
        for budget in (20, 100, 500, 2500, 12500):
            est = integrate_rigorous(f, region, UNIT_SQUARE, budget=budget, tol=1e-15)
            assert est.lower <= exact <= est.upper
            if prev is not None:
                assert est.upper <= prev.upper + 1e-12
                assert est.lower >= prev.lower - 1e-12
            prev = est

    def test_budget_exhaustion_flag(self):
        est = integrate_rigorous(
            linear_t1(), halfspace_region(), UNIT_SQUARE, budget=30, tol=1e-9
        )
        assert est.exhausted
        assert est.boxes_used <= 30
        assert est.lower <= 1.0 / 48.0 <= est.upper

    def test_outside_box_is_zero(self):
        box = ((0.8, 1.0), (0.8, 1.0))
        est = integrate_rigorous(constant_one(), halfspace_region(), box, tol=1e-9)
        assert est.lower == 0.0 and est.upper == 0.0

    def test_inside_box_uses_average(self):
        box = ((0.0, 0.2), (0.0, 0.2))
        f = Integrand(
            arity=2,
            enclosure=lambda b: Enclosure(b[0][0], b[0][1]),
            average=lambda b: Enclosure(0.5 * (b[0][0] + b[0][1])).widen(1e-15),
        )
        est = integrate_rigorous(f, halfspace_region(), box, tol=1e-12, budget=10**4)
        exact = 0.1 * 0.04  # mean of t1 times area
        assert est.lower <= exact <= est.upper
        assert est.upper - est.lower <= 1e-10

    def test_determinism(self):
        f = linear_t1()
        region = halfspace_region()
        a = integrate_rigorous(f, region, UNIT_SQUARE, budget=2000, tol=1e-7)
        b = integrate_rigorous(f, region, UNIT_SQUARE, budget=2000, tol=1e-7)
        assert (a.lower, a.upper, a.boxes_used) == (b.lower, b.upper, b.boxes_used)

    def test_fraction_bounds_outside_unit_interval_rejected(self):
        """Region fraction bounds are checked before any leaf arithmetic uses them."""
        for bounds in ((math.nan, math.nan), (0.5, 0.25), (-0.25, 0.5), (0.5, 1.5)):
            region = SimpleNamespace(arity=2, fraction=lambda box, b=bounds: b)
            with pytest.raises(SoundnessError, match="volume fraction bounds"):
                integrate_rigorous(constant_one(), region, UNIT_SQUARE)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            integrate_rigorous(linear_t1(), halfspace_region(), ((0.0, 1.0),))

    def test_region_stub_with_a_forwarding_fraction(self):
        """A region exposing only arity and a forwarding fraction gives the same run.

        The root box walks the full tree; every later box walks the
        residual of the box it was split from.
        """
        calls = []

        def fraction(*args, **kwargs):
            calls.append(kwargs)
            return REGION_A.fraction(*args, **kwargs)

        stub = SimpleNamespace(arity=2, fraction=fraction)
        box = ((0.1, 0.45), (0.1, 0.45))
        a = integrate_rigorous(linear_t1(), stub, box, budget=3000, tol=1e-9)
        b = integrate_rigorous(linear_t1(), REGION_A, box, budget=3000, tol=1e-9)
        assert (a.lower, a.upper, a.boxes_used, a.exhausted) == (b.lower, b.upper, b.boxes_used, b.exhausted)
        assert len(calls) == b.boxes_used
        assert calls[0] == {} and all(set(kw) == {"within"} for kw in calls[1:])


def test_leaf_contribution_has_a_gap_unless_outside():
    """Every leaf not outside its region gives hi > lo, so only an outside leaf, (0, 0), carries no gap.

    Seeded boxes with ordinary, tiny and subnormal sides, fraction
    bounds with hi > 0 down to the smallest subnormal, and enclosures
    that are zero, negative, straddle zero or lie near overflow; a
    fraction of (1, 1) takes the integrand's average, the rest its
    enclosure.
    """
    rng = np.random.default_rng(20261020)
    tiny, huge = 5e-324, 1.7976931348623157e308
    encs = [Enclosure(0.0), Enclosure(-2.0, -1.0), Enclosure(-1.0, 3.0), Enclosure(-huge, 0.0),
            Enclosure(1e308, huge), Enclosure(huge), Enclosure(tiny), Enclosure(0.5, 2.0)]
    fractions = [(0.0, tiny), (tiny, tiny), (0.0, 1.0), (0.25, 0.25), (0.5, math.nextafter(0.5, 1.0)), (1.0, 1.0)]
    checked = 0
    for _ in range(300):
        box = []
        for _ in range(int(rng.integers(1, 5))):
            lo = float(rng.choice([0.0, tiny, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1e-300)]))
            kind = rng.integers(3)
            side = float(rng.uniform(1e-3, 1.0)) if kind == 0 else float(rng.uniform(0.0, 1e-200)) if kind == 1 else 0.0
            hi = max(lo + side, math.nextafter(lo, math.inf))
            box.append((lo, hi))
        box = regions.GridBox(tuple(box))
        for enc in encs:
            f = Integrand(arity=len(box), enclosure=lambda b, e=enc: e, average=lambda b, e=enc: e)
            for fr_lo, fr_hi in fractions:
                fraction = regions.FractionBounds(fr_lo, fr_hi, regions._TRUE)
                lo, hi = quadrature._leaf_contribution(f, fraction, box)
                assert hi > lo >= 0.0 and hi >= tiny, (box, enc, fr_lo, fr_hi)
                checked += 1
    outside = regions.FractionBounds(0.0, 0.0, regions._FALSE)
    assert quadrature._leaf_contribution(constant_one(), outside, regions.GridBox(UNIT_SQUARE)) == (0.0, 0.0)
    assert checked == 300 * len(encs) * len(fractions)


def split_axis(box, scale, residual):
    """The one axis on which `_split`'s halves differ from box, checked to be its halves there."""
    left, right = quadrature._split(regions.GridBox(box), scale, residual)
    (dim,) = [i for i, (a, b) in enumerate(zip(left, right)) if a != b]
    lo, hi = box[dim]
    assert left[dim] == (lo, 0.5 * (lo + hi)) and right[dim] == (0.5 * (lo + hi), hi)
    assert left[:dim] + left[dim + 1 :] == box[:dim] + box[dim + 1 :] == right[:dim] + right[dim + 1 :]
    return dim


class TestSplit:
    """`_split` halves the axis that most thins the leaf's open halfspaces."""

    def test_open_halfspace_picks_its_own_axes(self):
        """A residual halfspace in t1 and t2 alone is split across, even when t3 is the widest relative side.

        Scores are side times weight: 0.1 * 1/3 for t1 and 0.1 * 2/3 for
        t2, and 0 for t3 and t4, which the halfspace leaves out.
        """
        box = ((0.0, 0.1), (0.0, 0.1), (0.0, 0.5), (0.0, 0.1))
        scale = (1.0, 1.0, 1.0, 1.0)
        residual = AndNode((LinearConstraint((1, -2, 0, 0), "<", Fraction(1, 20)),))
        assert split_axis(box, scale, regions._TRUE) == 2
        assert split_axis(box, scale, residual) == 1
        # A wider t1 side outweighs t2's larger coefficient: 0.3 * 1/3 > 0.1 * 2/3.
        wide_t1 = ((0.0, 0.3),) + box[1:]
        assert split_axis(wide_t1, scale, residual) == 0

    def test_weights_add_over_open_constraints(self):
        """Each open constraint adds its own shares: two t3 clauses outweigh one t1 + t2 clause."""
        box = ((0.0, 0.25), (0.0, 0.25), (0.0, 0.125), (0.0, 0.25))
        third = LinearConstraint((0, 0, 1, 0), ">", Fraction(1, 16))
        pair = LinearConstraint((1, 1, 0, 0), "<", Fraction(1, 4))
        assert split_axis(box, (1.0,) * 4, OrNode((pair, third))) == 0
        assert split_axis(box, (1.0,) * 4, OrNode((pair, AndNode((third, third))))) == 2

    def test_inside_leaf_splits_its_widest_relative_side(self):
        """With no open constraint the widest side relative to the domain box is halved, the lowest index on a tie."""
        box = ((0.0, 0.5), (0.0, 0.25), (0.0, 0.25))
        assert split_axis(box, (1.0, 1.0, 1.0), regions._TRUE) == 0
        assert split_axis(box, (1.0, 0.25, 1.0), regions._TRUE) == 1
        assert split_axis(box, (1.0, 0.5, 0.5), regions._TRUE) == 0

    def test_tied_scores_fall_back_to_the_relative_side(self):
        """t1 + t2 on a square scores both axes alike, so the widest relative side decides."""
        box = ((0.0, 0.5), (0.0, 0.5))
        residual = LinearConstraint((1, 1), "<=", Fraction(1, 2))
        assert split_axis(box, (1.0, 1.0), residual) == 0
        assert split_axis(box, (1.0, 0.5), residual) == 1

    def test_unhalvable_top_axis_gives_way_to_the_next(self):
        """A top-ranked side of two adjacent floats cannot be halved, so the next-ranked axis is, and the leaf is not settled."""
        one_ulp = (1.0, math.nextafter(1.0, 2.0))
        residual = LinearConstraint((1, 0), "<", 1 + Fraction(1, 2**53))
        assert split_axis((one_ulp, (0.0, 1.0)), (1.0, 1.0), residual) == 1
        assert quadrature._split((one_ulp, one_ulp), (1.0, 1.0), residual) is None


class TestLeafCounters:
    @pytest.mark.parametrize("name, budget", [("c", 401), ("c", 1201), ("a3", 2001), ("b3", 2001)])
    def test_counts_and_gaps_match_the_final_leaves(self, monkeypatch, name, budget):
        """`leaves` and `gaps` equal a recount of a short loss run's final leaves.

        Every admitted leaf's fraction bounds and contribution are
        recorded, and the final leaves are those never split.  A leaf
        with no gap is settled; an open one is inside when its lower
        fraction bound is 1, single-halfspace when its residual tree is
        one halfspace, else multi.
        """
        admitted = {}
        split = set()
        contribution, halve = quadrature._leaf_contribution, quadrature._split

        def recording_contribution(f, fraction, leaf):
            admitted[leaf] = fraction, contribution(f, fraction, leaf)
            return admitted[leaf][1]

        def recording_split(leaf, scale, residual):
            parts = halve(leaf, scale, residual)
            if parts is not None:
                split.add(leaf)
            return parts

        monkeypatch.setattr(quadrature, "_leaf_contribution", recording_contribution)
        monkeypatch.setattr(quadrature, "_split", recording_split)
        est = losses._run(name, budget=budget, tol=1e-12)
        gaps = {k: [] for k in LEAF_CLASSES}
        for leaf, (fraction, (lo, hi)) in admitted.items():
            if leaf in split:
                continue
            if hi - lo <= 0.0:
                gaps["settled"].append(0.0)
            elif fraction[0] == 1.0:
                gaps["inside"].append(hi - lo)
            elif regions._single_halfspace(fraction.residual) is not None:
                gaps["single_halfspace"].append(hi - lo)
            else:
                gaps["multi"].append(hi - lo)
        assert est.leaves == tuple(len(gaps[k]) for k in LEAF_CLASSES)
        assert est.gaps == tuple(math.fsum(gaps[k]) for k in LEAF_CLASSES)
        assert sum(est.leaves) == (est.boxes_used + 1) // 2 == len(admitted) - len(split)
        assert all(est.leaves)

    def test_monte_carlo_has_no_leaves(self):
        est = integrate_mc(constant_one(), halfspace_region(), UNIT_SQUARE, samples=10_000, seed=1)
        assert est.leaves == () and est.gaps == ()


class TestMonteCarlo:
    def test_estimates_area(self):
        est = integrate_mc(constant_one(), halfspace_region(), UNIT_SQUARE, samples=200000, seed=1)
        assert est.mode == MONTE_CARLO
        se = est.stderr
        assert abs(est.lower - 0.125) <= 5 * se
        assert est.boxes_used == 200000

    def test_estimates_moment(self):
        est = integrate_mc(linear_t1(), halfspace_region(), UNIT_SQUARE, samples=200000, seed=2)
        assert abs(est.lower - 1.0 / 48.0) <= 5 * est.stderr

    def test_seed_determinism(self):
        a = integrate_mc(linear_t1(), halfspace_region(), UNIT_SQUARE, samples=50000, seed=9)
        b = integrate_mc(linear_t1(), halfspace_region(), UNIT_SQUARE, samples=50000, seed=9)
        c = integrate_mc(linear_t1(), halfspace_region(), UNIT_SQUARE, samples=50000, seed=10)
        assert (a.lower, a.stderr) == (b.lower, b.stderr)
        assert a.lower != c.lower

    def test_worker_streams_reproducible(self):
        a = integrate_mc(linear_t1(), halfspace_region(), UNIT_SQUARE, samples=60000, seed=4, workers=3)
        b = integrate_mc(linear_t1(), halfspace_region(), UNIT_SQUARE, samples=60000, seed=4, workers=3)
        assert (a.lower, a.stderr) == (b.lower, b.stderr)

    def test_stderr_shrinks(self):
        small = integrate_mc(linear_t1(), halfspace_region(), UNIT_SQUARE, samples=20000, seed=3)
        large = integrate_mc(linear_t1(), halfspace_region(), UNIT_SQUARE, samples=320000, seed=3)
        assert large.stderr < small.stderr

    def test_zero_hits_warns(self):
        box = ((0.9, 1.0), (0.9, 1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = integrate_mc(constant_one(), halfspace_region(), box, samples=10000, seed=5)
        assert est.lower == 0.0
        assert any("hit the region" in str(w.message) for w in caught)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            integrate_mc(constant_one(), halfspace_region(), UNIT_SQUARE, samples=100, seed=1)

    def test_workers_at_most_samples(self, monkeypatch):
        """A worker owns at least one sample: the worker cap lies below the least sample count.

        So samples + 1 workers is refused by the cap, before any stream is built.
        """
        seeds = []
        monkeypatch.setattr(np.random, "SeedSequence", lambda *args: seeds.append(args))
        assert quadrature.MAX_WORKERS < 10_000
        with pytest.raises(ValueError, match=f"workers must not exceed {quadrature.MAX_WORKERS}, got 10001"):
            integrate_mc(constant_one(), halfspace_region(), UNIT_SQUARE, samples=10000, seed=1, workers=10001)
        assert seeds == []

    def test_worker_cap(self, monkeypatch):
        """MAX_WORKERS + 1 workers is refused before any stream or process is made."""
        import multiprocessing

        contexts = []
        monkeypatch.setattr(multiprocessing, "get_context", lambda *args: contexts.append(args))
        workers = quadrature.MAX_WORKERS + 1
        with pytest.raises(ValueError, match=f"workers must not exceed {quadrature.MAX_WORKERS}"):
            integrate_mc(constant_one(), halfspace_region(), UNIT_SQUARE, samples=10000, seed=1, workers=workers)
        assert contexts == [] and multiprocessing.active_children() == []

    def test_child_stream_exception_reaches_the_caller(self):
        """An exception raised only inside a child stream is raised again by the caller, and no child is left."""
        import multiprocessing
        import os

        parent = os.getpid()

        def value_many(pts):
            if os.getpid() != parent:
                raise FloatingPointError("raised in a child stream")
            return np.ones(len(pts))

        f = Integrand(arity=2, enclosure=lambda box: Enclosure(1.0), value_many=value_many)
        with pytest.raises(FloatingPointError, match="raised in a child stream"):
            integrate_mc(f, halfspace_region(), UNIT_SQUARE, samples=30000, seed=1, workers=3)
        assert multiprocessing.active_children() == []

    def test_child_exception_that_does_not_pickle(self):
        """A child exception that cannot cross the pipe arrives as a RuntimeError that names it."""
        import os

        class Unpicklable(Exception):
            pass

        parent = os.getpid()

        def value_many(pts):
            if os.getpid() != parent:
                raise Unpicklable("local class")
            return np.ones(len(pts))

        f = Integrand(arity=2, enclosure=lambda box: Enclosure(1.0), value_many=value_many)
        with pytest.raises(RuntimeError, match=r"stream 1 failed: Unpicklable\('local class'\)"):
            integrate_mc(f, halfspace_region(), UNIT_SQUARE, samples=20000, seed=1, workers=2)

    def test_child_stream_that_exits_without_a_result(self):
        """A child that ends before sending its stream is a RuntimeError naming its exit code, and no child is left."""
        import multiprocessing
        import os

        parent = os.getpid()

        def value_many(pts):
            if os.getpid() != parent:
                os._exit(3)
            return np.ones(len(pts))

        f = Integrand(arity=2, enclosure=lambda box: Enclosure(1.0), value_many=value_many)
        with pytest.raises(RuntimeError, match="stream 1 exited with code 3 before sending a result"):
            integrate_mc(f, halfspace_region(), UNIT_SQUARE, samples=20000, seed=1, workers=2)
        assert multiprocessing.active_children() == []

    def test_region_stub_with_only_a_mask(self):
        """A region exposing only arity and a forwarding mask gives the same estimate; it is given the box."""
        calls = []

        def mask(*args, **kwargs):
            calls.append(kwargs)
            return REGION_A.mask(*args, **kwargs)

        stub = SimpleNamespace(arity=2, mask=mask)
        box = ((0.1, 0.45), (0.1, 0.45))
        a = integrate_mc(linear_t1(), stub, box, samples=50000, seed=6, workers=2)
        b = integrate_mc(linear_t1(), REGION_A, box, samples=50000, seed=6, workers=2)
        assert (a.lower, a.stderr) == (b.lower, b.stderr)
        assert calls and all(kw == {"box": box} for kw in calls)


def per_block_mc(f, region, box, samples, seed, workers=1):
    """(estimate, stderr, hits) of `integrate_mc`'s block loop drawn by rng.uniform and masked on the full tree.

    The reference `integrate_mc` must match bit for bit: each block of
    `_BLOCK` rows is drawn by `rng.uniform`, masked on the full tree
    (`region.mask(pts)`), and `value_many` evaluates the accepted rows,
    whose values and squares are summed per block.
    """
    lows = np.array([lo for lo, _ in box])
    his = np.array([hi for _, hi in box])
    volume = float(np.prod(his - lows))
    counts = [samples // workers + (1 if w < samples % workers else 0) for w in range(workers)]
    total = total_sq = 0.0
    hits = 0
    for w, count in enumerate(counts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, w)))
        for start in range(0, count, quadrature._BLOCK):
            pts = rng.uniform(lows, his, size=(min(count - start, quadrature._BLOCK), len(box)))
            vals = f.value_many(pts[region.mask(pts)])
            total += float(vals.sum())
            total_sq += float(np.square(vals).sum())
            hits += len(vals)
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    return volume * mean, volume * math.sqrt(variance / samples), hits


def same_as_reference(est, reference) -> bool:
    estimate, stderr, _ = reference
    return (est.lower.hex(), est.upper.hex(), est.stderr.hex()) == (estimate.hex(), estimate.hex(), stderr.hex())


class TestMonteCarloReference:
    """integrate_mc, which evaluates only the accepted rows, against `per_block_mc`."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("name", losses.LOSS_NAMES)
    def test_losses_match(self, name, workers):
        f, _, region, box = losses.integration_domain(name)
        est = integrate_mc(f, region, box, samples=200_000, seed=20240801, workers=workers)
        reference = per_block_mc(f, region, box, 200_000, 20240801, workers)
        assert same_as_reference(est, reference) and est.boxes_used == 200_000
        assert reference[2] > 1000

    def test_several_chunks_per_worker(self, monkeypatch):
        """Blocks of 7,000 samples with a ragged last one, on the uneven three-worker split."""
        monkeypatch.setattr(quadrature, "_BLOCK", 7_000)
        f, _, region, box = losses.integration_domain("b3")
        est = integrate_mc(f, region, box, samples=100_001, seed=11, workers=3)
        assert same_as_reference(est, per_block_mc(f, region, box, 100_001, 11, 3))

    def test_lone_accepted_row(self, monkeypatch):
        """A block with one accepted row evaluates that row alone, as the reference does.

        numpy takes a one-row matrix product as a dot product, which on
        some of these seeds sums the row in another order than a
        matrix-vector product over more rows.  The samples are one
        block, and then blocks of 999 rows, with the row in a block
        after the first on every seed; every other block sums to zero,
        so the estimate does not depend on the block size.
        """
        coeffs = np.array([0.7, -1.3, 2.9, 0.45])
        f = Integrand(arity=4, enclosure=lambda box: Enclosure(0.0, 6.0), value_many=lambda pts: 1.0 + pts @ coeffs)
        box = ((0.0, 1.0),) * 4
        for seed in range(12):
            column = np.random.default_rng(np.random.SeedSequence((seed, 0))).random((10_000, 4))[:, 0]
            region = RegionPredicate("top row", 4, AndNode((LinearConstraint((1, 0, 0, 0), ">=", Fraction(column.max())),)))
            reference = per_block_mc(f, region, box, 10_000, seed)
            assert reference[2] == 1 and column.argmax() >= 999
            for block in (quadrature._BLOCK, 999):
                with monkeypatch.context() as patch:
                    patch.setattr(quadrature, "_BLOCK", block)
                    est = integrate_mc(f, region, box, samples=10_000, seed=seed)
                assert same_as_reference(est, reference)

    @pytest.mark.parametrize("workers, samples", [(1, 24_001), (3, 30_005), (2, 2 * ((1 << 16) + 1))])
    @pytest.mark.parametrize("block", [1_000, 2_333, 1 << 16])
    def test_block_boundaries(self, monkeypatch, block, workers, samples):
        """Full blocks, ragged last blocks and one-row last blocks, in order, per worker.

        At `_BLOCK` = 1,000 one worker's 24,001 samples and the third
        worker's 10,001 of 30,005 end in a one-row block, and at the
        real `_BLOCK` = 2^16 so do both workers' 65,537; the other cases
        end in a ragged block or fit in one.  The stub sees stream 0's
        blocks, which run in this process; the other streams run in
        child processes, and the bit-for-bit match with `per_block_mc`
        covers their blocks.
        """
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        f, _, region, box = losses.integration_domain("b3")
        rows = []

        def mask(pts, box):
            rows.append(len(pts))
            return region.mask(pts, box=box)

        stub = SimpleNamespace(arity=region.arity, mask=mask)
        est = integrate_mc(f, stub, box, samples=samples, seed=13, workers=workers)
        reference = per_block_mc(f, region, box, samples, 13, workers)
        assert same_as_reference(est, reference) and reference[2] > 100
        first = samples // workers + (1 if samples % workers else 0)
        assert rows == [min(block, first - start) for start in range(0, first, block)]
        assert sum(rows) == first

    def test_zero_hits(self):
        """A box the region meets only in a corner: the walk ends after its one child, and the warning fires."""
        box = ((0.25, 1.0), (0.25, 1.0))
        with pytest.warns(UserWarning, match="hit the region"):
            est = integrate_mc(linear_t1(), halfspace_region(), box, samples=20_000, seed=8, workers=3)
        reference = per_block_mc(linear_t1(), halfspace_region(), box, 20_000, 8, 3)
        assert reference[2] == 0 and same_as_reference(est, reference) and est.lower == 0.0


INVALID_BOXES = {
    "infinite": ((0.0, math.inf), (0.0, 1.0)),
    "reversed": ((0.0, 1.0), (1.0, 0.0)),
    "degenerate": ((0.5, 0.5), (0.0, 1.0)),
}
INTEGRATORS = {
    "rigorous": lambda box: integrate_rigorous(constant_one(), halfspace_region(), box),
    "monte_carlo": lambda box: integrate_mc(constant_one(), halfspace_region(), box, samples=10000, seed=1),
}


@pytest.mark.parametrize("box", INVALID_BOXES.values(), ids=INVALID_BOXES.keys())
@pytest.mark.parametrize("integrate", INTEGRATORS.values(), ids=INTEGRATORS.keys())
def test_invalid_box_rejected(integrate, box):
    """Both integrators reject a non-finite, reversed or zero-width interval with ValueError."""
    with pytest.raises(ValueError, match="finite and nondegenerate"):
        integrate(box)


@pytest.mark.parametrize("integrate", [integrate_rigorous, integrate_mc], ids=["rigorous", "monte_carlo"])
def test_inexact_endpoint_rejected(integrate):
    """An endpoint that float() would round is a ValueError, not a moved box.

    Rounded, the box below has width 9.992e-16 in floats, so a run over
    it would certify an area that excludes the true 1e-15.  Fraction and
    int endpoints that are floats exactly are accepted.
    """
    one = Integrand(arity=1, enclosure=lambda box: Enclosure(1.0), value_many=lambda pts: np.ones(len(pts)))
    everywhere = RegionPredicate("everywhere", 1, AndNode(()))
    kwargs = {"samples": 10000, "seed": 1} if integrate is integrate_mc else {}
    third = Fraction(1, 3)
    with pytest.raises(ValueError, match="not exactly representable"):
        integrate(one, everywhere, ((third, third + Fraction(1, 10**15)),), **kwargs)
    with pytest.raises(ValueError, match="not exactly representable"):
        integrate(one, everywhere, ((0, 2**60 + 1),), **kwargs)
    est = integrate(one, everywhere, ((Fraction(1, 4), 1),), **kwargs)
    assert est.lower <= 0.75 <= est.upper and est.width <= 1e-15
