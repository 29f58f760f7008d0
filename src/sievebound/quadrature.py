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
halfspace, where the linear Taylor term integrates to zero and the
quadratic one averages to the Hessian against the part's exact
covariance, which leaves a cubic remainder.  The centroid and the
covariance come as integer ratios on the grid the fraction bounds were
computed on (`LinearConstraint._moments` of `FractionBounds.grid`), and
each coordinate and covariance entry is rounded outward to floats once.
The leaf product is computed on plain floats rounded outward after
every operation, and the final endpoint sums use math.fsum, which is
correctly rounded, before one outward rounding step.
Each heap entry carries its leaf's residual region tree (the constraints
the leaf left undecided), and both halves of a split are classified
against it only, which gives the same fraction bounds as the full tree.
The same residual picks the axis the leaf is halved on (`_split`): axis
i scores the leaf's side w_i times the sum, over the residual's
constraints a.t REL b, of |a_i| / ||a||_1, the share of each open
hyperplane's thickness across the leaf that halving i removes.  Ties,
and inside leaves, whose residual holds no constraint, halve the widest
side relative to the domain box, lowest index first.  An axis whose
midpoint rounds onto an end gives way to the next-ranked one; a leaf on
which no axis halves is settled with its gap.

`integrate_mc` is the unrigorous cross-check: plain uniform sampling over
the box with the region as indicator, masked on the box's residual (the
constraints the box does not decide for every sample).  Samples are
drawn, scaled, masked and summed in blocks of `_BLOCK` rows, small
enough to stay in cache, and only the rows the mask accepts reach the
integrand's `value_many`.  The samples are split into `workers`
independent streams of the seed.  Stream 0 runs in the calling process;
with workers > 1 each other stream runs in a child process made by
fork, which sends back its per-block sums over a pipe.  The caller adds
every block in stream order, then block order, as one process running
the streams in turn would, so the estimate is bit-identical for a fixed
(samples, seed, workers) triple and the constant `_BLOCK`, wherever each
stream ran; the worker count changes the stream split, never the
statistical meaning.  fork copies only the calling thread, so it is
unsafe in a process with other live threads; the package starts none.
numpy is imported inside `integrate_mc`, the float mask
(`RegionPredicate.mask`) and the integrand's `value_many`, and
multiprocessing inside `_run_streams`, so the rigorous route loads
neither.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from math import nextafter
from typing import TYPE_CHECKING, Callable, Optional

from .interval import _DOWN, _UP, Enclosure, SoundnessError, _down, _ratio_bounds, _up
from .regions import _TRUE, Box, LinearConstraint, RegionPredicate, _single_halfspace

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Integrand",
    "IntegralEstimate",
    "LEAF_CLASSES",
    "integrate_rigorous",
    "integrate_mc",
]

RIGOROUS = "rigorous"
MONTE_CARLO = "monte_carlo"

# The classes of a rigorous run's final leaves, in the order of
# `IntegralEstimate.leaves` and `IntegralEstimate.gaps`: open leaves
# inside the region, open mixed leaves whose residual tree is one
# halfspace, other open mixed leaves, and the leaves that carry no gap
# (outside the region or decided exactly) or could not be split.
LEAF_CLASSES = ("inside", "single_halfspace", "multi", "settled")


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
                clipped_average(box, centre, cov) with `centre` the
                outward float box around that part's exact centroid and
                cov the outward float bounds of its exact covariance,
                keyed (i, j) with i <= j, an entry left out being exactly
                zero; the same containment rules as `average`.
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
    reaching the requested gap.  A rigorous run also counts its final
    leaves, (boxes_used + 1) / 2 of them, by the classes of
    `LEAF_CLASSES` (`leaves`), and adds up the float gap hi - lo of each
    class's leaf contributions (`gaps`, a diagnostic, not certified);
    both are empty in Monte Carlo mode.
    """

    lower: float
    upper: float
    boxes_used: int
    mode: str
    stderr: float = 0.0
    exhausted: bool = False
    leaves: tuple[int, ...] = ()
    gaps: tuple[float, ...] = ()

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _leaf_contribution(f: Integrand, fraction: tuple[float, float], box: Box) -> tuple[float, float]:
    """Certified bounds on integral(f) over (region intersect box), given the region's fraction bounds on box.

    A mixed leaf whose residual tree is one halfspace takes its value
    bounds from `clipped_average` about the exact centroid and
    covariance of box intersect halfspace, when the integrand has one.
    """
    fr_lo, fr_hi = fraction
    if not 0.0 <= fr_lo <= fr_hi <= 1.0:
        raise SoundnessError(f"volume fraction bounds [{fr_lo}, {fr_hi}] not inside [0, 1]")
    if fr_hi == 0.0:
        return 0.0, 0.0
    if fr_lo == 1.0 and f.average is not None:
        enc = f.average(box)
    elif f.clipped_average is not None and (halfspace := _single_halfspace(fraction.residual)):
        centroid, covariance = halfspace._moments(fraction.grid)
        centre = tuple(_ratio_bounds(num, den) for num, den in centroid)
        enc = f.clipped_average(box, centre, {ij: _ratio_bounds(num, den) for ij, (num, den) in covariance.items()})
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


def _open_weights(tree, scores: list[float]) -> None:
    """Add each LinearConstraint of the tree, in walk order, to scores: coordinate i gains |a_i| / ||a||_1."""
    if isinstance(tree, LinearConstraint):
        for i, w in tree._weights:
            scores[i] += w
    else:
        for child in tree.children:
            _open_weights(child, scores)


def _split(box: Box, scale: tuple[float, ...], residual) -> Optional[tuple[Box, Box]]:
    """The two halves of box across the axis that most thins its open halfspaces, or None if no axis halves.

    Axis i scores (hi_i - lo_i) * sum over the residual's constraints of
    |a_i| / ||a||_1: each open hyperplane's thickness across the box is
    sum |a_i| (hi_i - lo_i) / ||a||_1, and halving axis i removes half
    of its term.  Ties, and a residual with no constraint (an inside
    leaf), fall back to the widest side relative to `scale`, lowest
    index first.  An axis whose midpoint rounds onto an end gives way to
    the next-ranked one.
    """
    scores = [0.0] * len(box)
    _open_weights(residual, scores)
    keys = [((hi - lo) * w, (hi - lo) / s, -i) for i, ((lo, hi), s, w) in enumerate(zip(box, scale, scores))]
    for dim in sorted(range(len(box)), key=keys.__getitem__, reverse=True):
        lo, hi = box[dim]
        mid = 0.5 * (lo + hi)
        if lo < mid < hi:
            return box[:dim] + ((lo, mid),) + box[dim + 1 :], box[:dim] + ((mid, hi),) + box[dim + 1 :]
    return None


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
    Each refinement halves the leaf across the axis that most thins the
    halfspaces its residual tree leaves open (`_split`), and a leaf with
    none open across its widest side relative to `box`.
    Deterministic: the refinement order depends only on the arguments,
    and so do the leaf counts and gaps by class on the result.
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
    # Final leaves outside the heap: those admitted with no gap, and those
    # popped but too small to split, whose gaps are kept.
    settled = 0
    settled_gaps: list[float] = []
    # Heap entries: (-gap, seq, leaf, lo, hi, the leaf's residual region tree).
    heap: list[tuple[float, int, Box, float, float, object]] = []
    seq = 0

    def admit(leaf: Box, fraction) -> float:
        nonlocal seq, settled
        lo_c, hi_c = _leaf_contribution(f, fraction, leaf)
        gap = hi_c - lo_c
        if gap <= 0.0:
            settled += 1
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
        parts = _split(leaf, scale, residual)
        if parts is None:
            settled_lo.append(lo_c)
            settled_hi.append(hi_c)
            settled += 1
            settled_gaps.append(hi_c - lo_c)
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
    # Open leaves by class: the residual of an inside leaf is the empty conjunction.
    gaps: list[list[float]] = [[], [], [], settled_gaps]
    for _, _, _, lo_c, hi_c, residual in heap:
        k = 0 if residual == _TRUE else 1 if _single_halfspace(residual) else 2
        gaps[k].append(hi_c - lo_c)
    return IntegralEstimate(
        lower=lower,
        upper=upper,
        boxes_used=boxes_used,
        mode=RIGOROUS,
        exhausted=bool(upper - lower > tol),
        leaves=(len(gaps[0]), len(gaps[1]), len(gaps[2]), settled),
        gaps=tuple(math.fsum(g) for g in gaps),
    )


# Rows drawn, scaled, masked, evaluated and summed at a time: at d = 4 a
# block is 2 MB, which stays in a core's L2 cache.
_BLOCK = 1 << 16
# Floats per row of the view the scale and shift of a block run on.
_TILE = 512
# Most Monte Carlo streams one call runs, each past the first in its own process.
MAX_WORKERS = 32


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
    drawn in blocks of `_BLOCK` rows into one reused buffer per stream,
    so results are bit-reproducible for a fixed (samples, seed, workers)
    triple.  A
    block is `Generator.random` scaled by hi - lo and shifted by lo,
    which equals `Generator.uniform(lo, hi)`; whole groups of rows are
    scaled as rows of up to `_TILE` floats against the tiled spans and
    lows, the same elementwise operations as the broadcast left for the
    last few rows.  `region.mask` is called once per block with the box,
    `f.value_many` on the accepted rows only, and each block yields the
    sum of its values, the sum of their squares and its hit count.

    Stream 0 runs in the calling process.  With workers > 1 each stream
    1 ... workers - 1 runs in a forked child (`_run_streams`), which
    sends its per-block triples back over a pipe.  The totals add every
    block in stream order, then block order, exactly as one process
    running the streams in turn would, so the estimate does not depend
    on where a stream ran.  A child's exception is raised again in the
    caller, and no child outlives the call.  fork copies only the
    calling thread, so it is unsafe in a process with other live
    threads; the package starts none.
    """
    if samples < 10_000:
        raise ValueError("samples must be at least 10000")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    # Checked before the per-worker counts, streams and processes are built.
    if workers > samples:
        raise ValueError(f"workers must not exceed samples, got {workers} > {samples}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must not exceed {MAX_WORKERS}, got {workers}")
    if f.value_many is None:
        raise TypeError("integrand lacks a vectorized value_many, required for Monte Carlo")
    box = _checked_box(f, region, box)

    import numpy as np

    d = len(box)
    lows = np.array([lo for lo, _ in box])
    spans = np.array([hi for _, hi in box]) - lows
    volume = float(np.prod(spans))
    group = max(_TILE // d, 1)  # rows per tiled row
    tiled_spans, tiled_lows = np.tile(spans, group), np.tile(lows, group)
    counts = [samples // workers + (1 if w < samples % workers else 0) for w in range(workers)]

    def stream(w: int) -> list[tuple[float, float, int]]:
        """(sum, sum of squares, hits) of each block of stream w, in order."""
        count = counts[w]
        rng = np.random.default_rng(np.random.SeedSequence((seed, w)))
        buffer = np.empty((min(count, _BLOCK), d))
        triples = []
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
            triples.append((float(vals.sum()), float(np.square(vals).sum()), len(vals)))
        return triples

    total = 0.0
    total_sq = 0.0
    hits = 0
    for triples in _run_streams(stream, workers):
        for block_sum, block_sq, block_hits in triples:
            total += block_sum
            total_sq += block_sq
            hits += block_hits

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


def _run_streams(stream: Callable[[int], list], workers: int) -> list[list]:
    """[stream(0), ..., stream(workers - 1)]: stream 0 here, every other one in a forked child.

    Each child runs its stream and sends the result, or the exception
    it raised, over a one-way pipe.  The target is a closure, which
    fork does not pickle, so the children see the caller's objects as
    they are, monkeypatched module constants included.  multiprocessing
    is imported only here, so a serial run never loads it.
    """
    if workers == 1:
        return [stream(0)]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    received = False
    try:
        for w in range(1, workers):
            reader, writer = context.Pipe(duplex=False)

            def run(w=w, writer=writer):
                try:
                    outcome = (True, stream(w))
                except Exception as exc:  # sent to the parent, which raises it again
                    outcome = (False, exc)
                try:
                    writer.send(outcome)
                except Exception as exc:  # an exception that does not pickle
                    writer.send((False, RuntimeError(f"Monte Carlo stream {w} failed: {outcome[1]!r} ({exc})")))

            child = context.Process(target=run, name=f"sievebound-mc-{w}", daemon=True)
            child.start()
            # The parent keeps the reading end only, so a child that dies
            # without sending ends the parent's recv with EOFError.
            writer.close()
            children.append((child, reader))
        results = [stream(0)]
        for w, (child, reader) in enumerate(children, start=1):
            try:
                ok, value = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"Monte Carlo stream {w} exited with code {child.exitcode} before sending a result") from None
            if not ok:
                raise value
            results.append(value)
        received = True
        return results
    finally:
        for child, reader in children:
            if not received:
                child.terminate()
            child.join()
            reader.close()
