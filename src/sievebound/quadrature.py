"""Certified region integration: adaptive interval quadrature and Monte Carlo.

`integrate_rigorous` encloses integral(f over region intersect box) between
machine floats.  The box is refined adaptively; every leaf contributes

    volume(leaf) * fraction_bounds(leaf) * value_bounds(leaf)

where fraction_bounds are the region module's certified volume-fraction
bounds, outward-rounded floats (the exact integer Irwin-Hall fraction
of a single linear constraint rounded outward once, Frechet-combined
above), and value_bounds come from the integrand's interval extension.
Each constraint is decided on a leaf by that exact fraction alone: 1 is
inside, 0 is outside, so a leaf that meets the region only in a face
contact of measure zero contributes exactly zero.  Leaves fully inside
the region use the integrand's certified average enclosure (a
mean-value form) instead, which lies inside the box's value range and so
keeps refinement monotone.  A mixed leaf whose residual tree is one
halfspace, after single-child wrappers, uses the integrand's
`clipped_average` about the exact rational centroid of box intersect
halfspace, where the linear Taylor term integrates to zero.  The
centroid comes as integer ratios on the grid the fraction bounds were
computed on (`LinearConstraint._centroid` of `FractionBounds.grid`), and
each coordinate is rounded outward to floats once.  The leaf product is
computed on plain floats rounded outward after every operation, and the
final endpoint sums use math.fsum, which is correctly rounded, before
one outward rounding step.
Each heap entry carries its leaf's residual region tree (the constraints
the leaf left undecided), and both halves of a split are classified
against it only, which gives the same fraction bounds as the full tree.

`integrate_mc` is the unrigorous cross-check: plain uniform sampling over
the box with the region as indicator, masked on the box's residual (the
constraints the box does not decide for every sample).  Samples are
drawn, scaled, masked and summed in blocks of `_BLOCK` rows, small
enough to stay in cache, and only the rows the mask accepts reach the
integrand's `value_many`.  The estimate is deterministic for a fixed
(samples, seed, workers) triple and the constant `_BLOCK`; the worker
count changes the stream split, never the statistical meaning.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from math import nextafter
from typing import Callable, Optional

import numpy as np

from .interval import _DOWN, _UP, Enclosure, SoundnessError, _down, _ratio_bounds, _up
from .regions import Box, RegionPredicate, _single_halfspace

__all__ = [
    "Integrand",
    "IntegralEstimate",
    "integrate_rigorous",
    "integrate_mc",
]

RIGOROUS = "rigorous"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class Integrand:
    """A nonnegative integrand with a certified interval extension.

    value_many: vectorized row-by-row evaluation for an (n, arity) float
                array; only required for Monte Carlo, which calls it on
                the rows the region mask accepts.
    enclosure:  certified bounds on {f(t) : t in box}.
    average:    optional certified bounds on the box average of f
                (tighter than `enclosure` when curvature information is
                available); must hold for the true mean over the box and
                lie inside the box's value range, i.e. inside `enclosure`.
    clipped_average:
                optional certified bounds on the average of f over
                box intersect one halfspace, called as
                clipped_average(box, centre) with `centre` the outward
                float box around that part's exact centroid; the same
                containment rules as `average`.
    """

    arity: int
    enclosure: Callable[[Box], Enclosure]
    value_many: Optional[Callable[[np.ndarray], np.ndarray]] = None
    average: Optional[Callable[[Box], Enclosure]] = None
    clipped_average: Optional[Callable[[Box, Box], Enclosure]] = None


@dataclass(frozen=True)
class IntegralEstimate:
    """Result of an integration run.

    In rigorous mode [lower, upper] is a certified sandwich and stderr
    is zero.  In Monte Carlo mode lower == upper == point estimate and
    stderr is the estimated standard error; nothing is certified.
    exhausted marks a rigorous run that hit its box budget before
    reaching the requested gap.
    """

    lower: float
    upper: float
    boxes_used: int
    mode: str
    stderr: float = 0.0
    exhausted: bool = False

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _leaf_contribution(f: Integrand, fraction: tuple[float, float], box: Box) -> tuple[float, float]:
    """Certified bounds on integral(f) over (region intersect box), given the region's fraction bounds on box.

    A mixed leaf whose residual tree is one halfspace takes its value
    bounds from `clipped_average` about the exact centroid of
    box intersect halfspace, when the integrand has one.
    """
    fr_lo, fr_hi = fraction
    if not 0.0 <= fr_lo <= fr_hi <= 1.0:
        raise SoundnessError(f"volume fraction bounds [{fr_lo}, {fr_hi}] not inside [0, 1]")
    if fr_hi == 0.0:
        return 0.0, 0.0
    if fr_lo == 1.0 and f.average is not None:
        enc = f.average(box)
    elif f.clipped_average is not None and (halfspace := _single_halfspace(fraction.residual)):
        centre = tuple(_ratio_bounds(num, den) for num, den in halfspace._centroid(fraction.grid))
        enc = f.clipped_average(box, centre)
    else:
        enc = f.enclosure(box)
    lo = hi = 1.0
    for a, b in box:
        lo = nextafter(lo * nextafter(b - a, _DOWN), _DOWN)
        hi = nextafter(hi * nextafter(b - a, _UP), _UP)
    if fr_lo != 1.0:
        lo = nextafter(lo * fr_lo, _DOWN)
        hi = nextafter(hi * fr_hi, _UP)
    # The integrand is nonnegative, so its enclosure is clipped at zero.
    lo = nextafter(lo * max(enc.lo, 0.0), _DOWN)
    hi = nextafter(hi * max(enc.hi, 0.0), _UP)
    return max(lo, 0.0), hi


def _split(box: Box, scale: tuple[float, ...]) -> Optional[tuple[Box, Box]]:
    widths = [(hi - lo) / s for (lo, hi), s in zip(box, scale)]
    dim = max(range(len(box)), key=lambda i: (widths[i], -i))
    lo, hi = box[dim]
    mid = 0.5 * (lo + hi)
    if not lo < mid < hi:
        return None
    left = tuple(box[:dim]) + ((lo, mid),) + tuple(box[dim + 1 :])
    right = tuple(box[:dim]) + ((mid, hi),) + tuple(box[dim + 1 :])
    return left, right


def _checked_box(f: Integrand, region: RegionPredicate, box: Box) -> Box:
    """box as float intervals; ValueError unless finite, nondegenerate, exactly floats and of the common dimension.

    An endpoint that float() would round (a Fraction such as 1/3, a
    huge int) is rejected rather than moved, since the rounded box is a
    different domain.
    """
    exact = tuple(tuple(iv) for iv in box)
    if len(exact) != f.arity or len(exact) != region.arity:
        raise ValueError("box, integrand and region dimensions disagree")
    try:
        box = tuple((float(lo), float(hi)) for lo, hi in exact)
    except OverflowError:
        raise ValueError("box intervals must be finite and nondegenerate") from None
    for floats, given in zip(box, exact):
        lo, hi = floats
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("box intervals must be finite and nondegenerate")
        if floats != given:
            raise ValueError(f"box endpoints {given} are not exactly representable as floats")
    return box


def integrate_rigorous(
    f: Integrand,
    region: RegionPredicate,
    box: Box,
    budget: int = 10**6,
    tol: float = 1e-5,
) -> IntegralEstimate:
    """Adaptive certified sandwich for integral(f over region intersect box).

    Refines the leaf with the largest lower/upper contribution gap until
    the total gap falls below tol or `budget` boxes have been evaluated.
    Deterministic: the refinement order depends only on the arguments.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    box = _checked_box(f, region, box)

    scale = tuple(hi - lo for lo, hi in box)
    stop_tol = 0.97 * tol
    settled_lo: list[float] = []
    settled_hi: list[float] = []
    # Heap entries: (-gap, seq, leaf, lo, hi, the leaf's residual region tree).
    heap: list[tuple[float, int, Box, float, float, object]] = []
    seq = 0

    def admit(leaf: Box, fraction) -> float:
        nonlocal seq
        lo_c, hi_c = _leaf_contribution(f, fraction, leaf)
        gap = hi_c - lo_c
        if gap <= 0.0:
            if hi_c != 0.0 or lo_c != 0.0:
                settled_lo.append(lo_c)
                settled_hi.append(hi_c)
            return 0.0
        heapq.heappush(heap, (-gap, seq, leaf, lo_c, hi_c, fraction.residual))
        seq += 1
        return gap

    boxes_used = 1
    approx_gap = admit(box, region.fraction(box))
    while heap and boxes_used + 2 <= budget and approx_gap > stop_tol:
        _, _, leaf, lo_c, hi_c, residual = heapq.heappop(heap)
        parts = _split(leaf, scale)
        if parts is None:
            settled_lo.append(lo_c)
            settled_hi.append(hi_c)
            continue
        boxes_used += 2
        approx_gap -= hi_c - lo_c
        for part in parts:
            approx_gap += admit(part, region.fraction(part, within=residual))

    lows = settled_lo + [item[3] for item in heap]
    highs = settled_hi + [item[4] for item in heap]
    lower = max(_down(math.fsum(lows)), 0.0)
    high_sum = math.fsum(highs)
    # A zero sum of nonnegative leaf uppers is exact; no outward round.
    upper = _up(high_sum) if high_sum != 0.0 else 0.0
    return IntegralEstimate(
        lower=lower,
        upper=upper,
        boxes_used=boxes_used,
        mode=RIGOROUS,
        exhausted=bool(upper - lower > tol),
    )


# Rows drawn, scaled, masked, evaluated and summed at a time: at d = 4 a
# block is 2 MB, which stays in a core's L2 cache.
_BLOCK = 1 << 16
# Floats per row of the view the scale and shift of a block run on.
_TILE = 512


def integrate_mc(
    f: Integrand,
    region: RegionPredicate,
    box: Box,
    samples: int,
    seed: int,
    workers: int = 1,
) -> IntegralEstimate:
    """Plain Monte Carlo estimate of integral(f over region intersect box).

    Each worker index owns an independent child stream of the seed,
    drawn in blocks of `_BLOCK` rows into one reused buffer, so results
    are bit-reproducible for a fixed (samples, seed, workers) triple.  A
    block is `Generator.random` scaled by hi - lo and shifted by lo,
    which equals `Generator.uniform(lo, hi)`; whole groups of rows are
    scaled as rows of up to `_TILE` floats against the tiled spans and
    lows, the same elementwise operations as the broadcast left for the
    last few rows.  `region.mask` is called once per block with the box,
    `f.value_many` on the accepted rows only, and their values and
    squares are summed per block into the running totals.
    """
    if samples < 10_000:
        raise ValueError("samples must be at least 10000")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    # Checked before the per-worker counts and streams are built.
    if workers > samples:
        raise ValueError(f"workers must not exceed samples, got {workers} > {samples}")
    if f.value_many is None:
        raise TypeError("integrand lacks a vectorized value_many, required for Monte Carlo")
    box = _checked_box(f, region, box)

    d = len(box)
    lows = np.array([lo for lo, _ in box])
    spans = np.array([hi for _, hi in box]) - lows
    volume = float(np.prod(spans))
    group = max(_TILE // d, 1)  # rows per tiled row
    tiled_spans, tiled_lows = np.tile(spans, group), np.tile(lows, group)
    counts = [samples // workers + (1 if w < samples % workers else 0) for w in range(workers)]
    buffer = np.empty((min(max(counts), _BLOCK), d))

    total = 0.0
    total_sq = 0.0
    hits = 0
    for w, count in enumerate(counts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, w)))
        for start in range(0, count, _BLOCK):
            m = min(count - start, _BLOCK)
            # lo + (hi - lo) * U with U <= 1 - 2^-53 never rounds
            # past hi, so every sample lies in the closed box.
            pts = rng.random(out=buffer[:m])
            tiled = m // group * group
            body = pts[:tiled].reshape(-1, group * d)
            body *= tiled_spans
            body += tiled_lows
            pts[tiled:] *= spans
            pts[tiled:] += lows
            vals = f.value_many(np.compress(region.mask(pts, box=box), pts, axis=0))
            total += float(vals.sum())
            total_sq += float(np.square(vals).sum())
            hits += len(vals)

    if hits == 0:
        warnings.warn("no Monte Carlo sample hit the region; estimate degenerates to zero")
    mean = total / samples
    variance = max(total_sq / samples - mean * mean, 0.0)
    estimate = volume * mean
    stderr = volume * math.sqrt(variance / samples)
    return IntegralEstimate(
        lower=estimate,
        upper=estimate,
        boxes_used=samples,
        mode=MONTE_CARLO,
        stderr=stderr,
    )
