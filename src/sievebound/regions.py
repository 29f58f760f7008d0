"""Exact rational predicates for the exponent-vector regions.

A point (t_1, ..., t_d) collects the exponents t_i = log p_i / log n of
the large prime factors of an integer n.  The decomposition of the sieve
count splits the base pair region

    base = { 3/19 <= t2 < t1 < 8/19,  t1 + 2 t2 < 1 }

into three subregions by the pair sum t1 + t2:

    region_a:      t1 + t2 < 8/19,
    type_ii_strip: 8/19 <= t1 + t2 <= 11/19,
    region_b:      t1 + t2 > 11/19 and t2 < 9/38,
    region_c:      t1 + t2 > 11/19 and t2 > 9/38,

and two four-variable refinements (u_a3, u_b3) whose extra clauses state
that no nonempty subset of designated exponents has sum inside the
groupable window [8/19, 11/19]: each is an OrNode c.t + const < 8/19 or
c.t + const > 11/19 (`_window_clause`).  Only the clauses that nothing
else in the tree implies are written: t2 + t3 + t4 of the 15 subset
sums of u_a3, and t1 + t3, t0 + t3 + t4 and t2 + t3 + t4 of the 19 of
u_b3, where t0 = 1 - t1 - t2 - t3 is the cofactor exponent.  Every other
subset clause holds wherever the conjuncts and the kept clauses do,
strictness included, which exact Fourier-Motzkin elimination proves in
the tests (`TestWindowClauses` in tests/test_regions.py).  The sets are
those of the trees with every subset clause; u_a3 has 13 children and
u_b3 15.  Every clause left open on a box costs the Frechet lower bound
its missing mass, so the fewer clauses the tree holds, the fewer boxes
a run needs.

Point membership runs in exact `Fraction` arithmetic, float inputs
converted exactly.  Box tests are exact integer arithmetic: each
constraint is scaled to integer coefficients and bound once, and each
box is on a common integer grid (`_grid`: every float, int or Fraction
endpoint is A / scale for one integer scale).  A `GridBox` carries
its grid, which every box test reads instead of building one
(`_box_grid`), and the halves of one (`_halves`) derive theirs from it
at the split: one `as_integer_ratio` of the midpoint, and a rescale
of the parent's integers only when the midpoint's denominator does not
divide the parent's scale.  Strict and non-strict inequalities are
distinguished by point membership but deliberately conflated by box
tests, since they differ on a measure-zero set and every integral is
insensitive to it.

Each predicate computes, for a box, certified float bounds on the
fraction of the box volume satisfying the predicate.  That is the one
box decision the integrals and `losses.check_argument_range` use: a box
whose upper bound is 0 meets the region in a set of measure zero.
After rescaling the box to the unit cube a single linear constraint
reads sum(b_i * U_i) <= y with b_i > 0 and U uniform, and its fraction
is the Irwin-Hall distribution function

    F(y; b) = (1/m!) * sum over subsets S of (-1)^|S| * max(0, y - b_S)^m

divided by the product of the b_i.  F is homogeneous of degree 0 in
(y, b), so on the box's integer grid y and the b_i are integers and F
is an exact integer ratio (`LinearConstraint._ratio`).  With one, two
or three open terms (b_i > 0) the sum is written out, linear, quadratic
or cubic, with nested tests for the subsets whose slack y - b_S is
positive; with four or more a walk lists those subsets.  A constraint
is decided on a box by that ratio alone: 1 is inside, 0 is outside,
which counts a face contact of measure zero as outside, and any other
value is rounded to floats once, by one correctly rounded division and
an integer check of which side of the quotient the exact value lies
(`interval._ratio_bounds`), so each bound is within one ulp of the exact
fraction.  Conjunctions and disjunctions combine their children's
bounds with two-sided Frechet bounds in directed rounding, which are
exact up to rounding when a single child is undecided on the box.  On
the same grid the first and second moments of the same corner simplices
give the exact centroid and covariance of the part of a box one
halfspace keeps, as unreduced integer ratios (`LinearConstraint._moments`;
`centroid` gives the centroid as Fractions).

A constraint decided on a box stays decided on every sub-box, so each
fraction also returns the box's residual tree: the conjunctions without
their inside children and the disjunctions without their outside ones
(the inner/outer box tests of SIVIA, Jaulin, Kieffer, Didrit & Walter,
*Applied Interval Analysis*, 2001).  Walked on a sub-box
(`fraction(box, within=residual)`), it gives the full tree's bounds bit
for bit while visiting only the constraints left open.  The float point
mask keeps one float form per constraint, its coefficients and bound
rounded to floats (`_mask_data`), and tests it as one dot product per
point.  One walk (`_tree_mask`) serves the full tree and a box's plan,
and every conjunction in it tests each child only on the points still
accepted (`_and_mask`).  On a box the plan skips the constraints whose
float comparison the box decides for every point in it, strictness and
rounding included (`LinearConstraint._mask_residual`, walked by
`_tree_residual`), and orders the remaining conjunction most selective
child first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import nextafter
from typing import TYPE_CHECKING

from .interval import _DOWN, _UP, _ratio_bounds

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LinearConstraint",
    "AndNode",
    "OrNode",
    "RegionPredicate",
    "FractionBounds",
    "GridBox",
    "PAIR_BASE",
    "REGION_A",
    "REGION_B",
    "REGION_C",
    "TYPE_II_STRIP",
    "REGION_U_A3",
    "REGION_U_B3",
    "region_catalog",
    "catalog_json",
    "type_ii_feasible",
    "SIEVE_FLOOR",
    "WINDOW_LO",
    "WINDOW_HI",
    "B_SECOND_CAP",
]

SIEVE_FLOOR = Fraction(3, 19)
WINDOW_LO = Fraction(8, 19)
WINDOW_HI = Fraction(11, 19)
B_SECOND_CAP = Fraction(9, 38)

MAX_SUBSET_ARITY = 8

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

Box = tuple[tuple[float, float], ...]
# (scale, integer endpoints): the box ((A_i / scale, B_i / scale), ...).
Grid = tuple[int, tuple[tuple[int, int], ...]]


def _grid(box: Box) -> Grid:
    """The box on a common integer grid, exactly; float, int and Fraction endpoints.

    Raises ValueError for a NaN or infinite endpoint and for an interval
    with lo > hi.
    """
    try:
        ratios = [(lo.as_integer_ratio(), hi.as_integer_ratio()) for lo, hi in box]
    except (OverflowError, ValueError):
        raise ValueError(f"box endpoints must be finite: {box!r}") from None
    scale = math.lcm(*(d for pair in ratios for _, d in pair))
    ends = tuple((a * (scale // da), b * (scale // db)) for (a, da), (b, db) in ratios)
    if any(a > b for a, b in ends):
        raise ValueError("box interval with lo > hi")
    return scale, ends


class GridBox(tuple):
    """A box of float intervals that carries its `_grid` (by default built from the box).

    The box tests read the carried grid instead of building one
    (`_box_grid`), `quadrature._leaf_contribution` takes the moments of
    a leaf on it, and `_halves` derives each half's grid from it.
    """

    def __new__(cls, box: Box, grid: Grid | None = None):
        leaf = super().__new__(cls, box)
        leaf.grid = _grid(leaf) if grid is None else grid
        return leaf


def _halves(box: GridBox, dim: int, mid: float) -> tuple[GridBox, GridBox]:
    """box halved on axis dim at mid, lo < mid < hi, each half carrying a grid derived from box's.

    The parent's grid holds every endpoint but mid, so a half's grid is
    the parent's with mid's integer on the split axis: mid = N / D
    exactly, and the parent's scale is rescaled to a multiple of D only
    when it is not one already.  Each half is the same rational box as
    its own `_grid`, possibly on a larger scale.
    """
    lo, hi = box[dim]
    left = box[:dim] + ((lo, mid),) + box[dim + 1 :]
    right = box[:dim] + ((mid, hi),) + box[dim + 1 :]
    scale, ends = box.grid
    num, den = mid.as_integer_ratio()
    if scale % den:
        k = den // math.gcd(scale, den)
        scale *= k
        ends = tuple((a * k, b * k) for a, b in ends)
    m = num * (scale // den)
    a, b = ends[dim]
    head, tail = ends[:dim], ends[dim + 1 :]
    return GridBox(left, (scale, head + ((a, m),) + tail)), GridBox(right, (scale, head + ((m, b),) + tail))


def _box_grid(box: Box, arity: int) -> Grid:
    """The grid a `GridBox` carries, or `_grid(box)`, for a box that must have `arity` intervals."""
    if len(box) != arity:
        raise ValueError(f"expected a box on {arity} coordinates, got {len(box)} intervals")
    return box.grid if isinstance(box, GridBox) else _grid(box)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _integer_ratio(value) -> tuple[int, int]:
    """(numerator, positive denominator) of `_as_fraction(value)`, without building a Fraction."""
    if isinstance(value, float):
        return value.as_integer_ratio()
    value = _as_fraction(value)
    return value.numerator, value.denominator


@dataclass(frozen=True)
class LinearConstraint:
    """Exact halfspace sum(coeffs[i] * t_i) REL bound with REL in <, <=, >, >=."""

    coeffs: tuple[Fraction, ...]
    rel: str
    bound: Fraction

    def __post_init__(self) -> None:
        if self.rel not in _COMPARE:
            raise ValueError(f"unknown relation {self.rel!r}")
        # Integer data for volume fractions: scaled by the lcm of the
        # denominators, the halfspace reads sum(C_i * t_i) REL B.
        rationals = [Fraction(c) for c in self.coeffs] + [Fraction(self.bound)]
        den = math.lcm(*(q.denominator for q in rationals))
        *scaled, bound = (q.numerator * (den // q.denominator) for q in rationals)
        object.__setattr__(self, "_terms", tuple((i, c) for i, c in enumerate(scaled) if c))
        object.__setattr__(self, "_ibound", bound)
        # Each coordinate's share |a_i| / ||a||_1 of the normal, which
        # `quadrature._split` sums over a leaf's open constraints.
        norm = sum(abs(c) for _, c in self._terms)
        object.__setattr__(self, "_weights", tuple((i, abs(c) / norm) for i, c in self._terms))
        # The float halfspace that `_tree_mask` tests, sum(F_i * t_i) REL FB
        # with coefficients and bound rounded to floats.  `_tree_mask`
        # makes the array, so building a constraint needs no numpy.
        object.__setattr__(self, "_mask_data", (tuple(float(c) for c in self.coeffs), float(self.bound)))

    def evaluate(self, point) -> bool:
        total = sum((c * _as_fraction(t) for c, t in zip(self.coeffs, point, strict=True)), Fraction(0))
        return _COMPARE[self.rel](total, self.bound)

    def _mask_residual(self, grid: Grid):
        """`_TRUE`, `_FALSE` or self: the float comparison in `_tree_mask` over a box given as its `_grid`.

        `_tree_mask` compares the float dot product of the point with the
        float coefficients of `_mask_data` against its float bound,
        strictness included.  In any summation order that product lies
        within gamma_k * sum|F_i t_i| + k * 2^-1074 of the exact one, for
        k nonzero terms, gamma_k = k u / (1 - k u) and u = 2^-53 (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2002, sec. 3.1;
        the second term covers products that underflow), which is checked
        in integers on the float data's common denominator.  The result
        is `_TRUE` or `_FALSE` only when the comparison holds, or fails,
        at both ends of the exact corner range widened by that error, so
        it holds for every point of the closed box.  Sums that might
        overflow leave the constraint undecided.
        """
        scale, ends = grid
        coeffs, bound = self._mask_data
        floats = [q.as_integer_ratio() for q in (*coeffs, bound)]
        fden = math.lcm(*(d for _, d in floats))
        *scaled, fbound = (n * (fden // d) for n, d in floats)
        terms = [(i, c) for i, c in enumerate(scaled) if c]
        lo = hi = mag = 0
        for i, c in terms:
            a, b = ends[i]
            lo += c * (a if c > 0 else b)
            hi += c * (b if c > 0 else a)
            mag += abs(c) * max(-a, b)
        width = fden * scale  # the exact sums are lo / width, hi / width
        if mag >= width << 1023:
            return self
        # Everything times (2^53 - k) * 2^1074 * width, all integers.
        k = len(terms)
        g = ((1 << 53) - k) << 1074
        err = (k * mag << 1074) + k * width * ((1 << 53) - k)
        bound = fbound * scale * g
        compare = _COMPARE[self.rel]
        at_lo, at_hi = compare(lo * g - err, bound), compare(hi * g + err, bound)
        return _TRUE if at_lo and at_hi else _FALSE if not (at_lo or at_hi) else self

    def fraction(self, box: Box) -> Fraction:
        """Exact volume fraction of the box satisfying the halfspace."""
        return Fraction(*self._ratio(_box_grid(box, len(self.coeffs))))

    def fraction_bounds(self, box: Box) -> tuple[float, float]:
        """Float bounds on the volume fraction of the box satisfying the halfspace.

        The exact fraction rounded outward once: (f, f) when it is a
        float, otherwise the two floats adjacent to it.
        """
        return _ratio_bounds(*self._ratio(_box_grid(box, len(self.coeffs))))

    def _ratio(self, grid: Grid) -> tuple[int, int]:
        """The exact volume fraction as (numerator, denominator > 0), in Irwin-Hall form.

        On the grid the threshold Y and the widths B_i of
        P(sum c_i T_i <= bound) are integers; F is homogeneous of degree
        0 in (Y, B), so the integer data give the same value as the
        rescaled rational data.  Only subsets S with Y - B_S > 0 are
        enumerated: supersets of the others contribute zero.  One, two
        and three open terms (B_i > 0) take the written-out sums, which
        add the same integers over the same subsets as the walk that
        more terms take, and so return the same pair.  The relations >
        and >= take the complement.
        """
        scale, ends = grid
        y = self._ibound * scale
        betas = []
        for i, c in self._terms:
            a, b = ends[i]
            # T = a + (b - a) U; for c < 0 reflect U -> 1 - U, so that
            # c T = c b + |c| (b - a) U with a positive width coefficient.
            y -= c * a if c > 0 else c * b
            beta = abs(c) * (b - a)
            if beta:
                betas.append(beta)
        m = len(betas)
        if not m:
            num, den = int(y >= 0), 1
        elif y <= 0:
            num, den = 0, 1
        elif y >= sum(betas):
            num, den = 1, 1
        elif m == 1:
            num, den = y, betas[0]
        elif m == 2:
            # 0 < Y < P + Q, so the subset {P, Q} has no positive slack.
            p, q = betas
            num = y * y
            if y > p:
                num -= (y - p) ** 2
            if y > q:
                num -= (y - q) ** 2
            den = 2 * p * q
        elif m == 3:
            # Each pair's slack is tested inside its first member's; the
            # subset {P, Q, R} has no positive slack.
            p, q, r = betas
            num = y**3
            sp = y - p
            if sp > 0:
                num -= sp**3
                if sp > q:
                    num += (sp - q) ** 3
                if sp > r:
                    num += (sp - r) ** 3
            sq = y - q
            if sq > 0:
                num -= sq**3
                if sq > r:
                    num += (sq - r) ** 3
            if y > r:
                num -= (y - r) ** 3
            den = 6 * p * q * r
        else:
            # (slack Y - B_S, (-1)^|S|) over the subsets S with positive slack.
            slacks = [(y, 1)]
            for beta in betas:
                slacks += [(s - beta, -sign) for s, sign in slacks if s > beta]
            num = sum(sign * s**m for s, sign in slacks)
            den = math.factorial(m) * math.prod(betas)
        if self.rel in (">", ">="):
            num = den - num
        return num, den

    def centroid(self, box: Box) -> tuple[Fraction, ...]:
        """Exact centroid of box intersect halfspace, for a box the halfspace cuts (see `_moments`)."""
        return tuple(Fraction(num, den) for num, den in self._moments(_box_grid(box, len(self.coeffs)))[0])

    def _moments(self, grid: Grid) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], tuple[int, int]]]:
        """(centroid, covariance) of a box given as its `_grid` intersect halfspace, as (num, den > 0) pairs.

        On `_ratio`'s grid, with the same reflected unit coordinates, the
        part sum(x_j) <= Y of the box 0 <= x_j <= beta_j (x_j = beta_j U_j)
        is an inclusion-exclusion sum of simplices: the subset S
        contributes, with sign (-1)^|S|, the corner simplex of side
        s = Y - beta_S at the vertex v (v_j = beta_j for j in S, else 0).
        With y = x - v, that simplex has volume s^m / m!,
        integral(y_j) = s^(m+1) / (m+1)! and
        integral(y_j y_k) = (1 + [j = k]) s^(m+2) / (m+2)!, so every raw
        moment of the part, times (m+2)!, is an integer sum over the
        subsets with s > 0.  For > and >= the part is the complement,
        whose moments are the box's (volume B = prod(beta_j), first
        moments B beta_j / 2, second B beta_j^2 / 3 and
        B beta_j beta_k / 4) minus the part's.  The centroid and the
        covariance (M2 M0 - M1_j M1_k) / M0^2 then map back to t, where
        t_i moves by -+1 / (|c_i| scale) per unit of x_j.

        A coordinate the halfspace does not involve keeps the box's exact
        midpoint, variance w^2 / 12 for its side w, and zero covariance
        with every other coordinate; the covariance dict holds the
        entries (i, k), i <= k, that are not zero for that reason.
        Raises ValueError unless the fraction is strictly between 0 and
        1.  The pairs are not reduced: the integrator rounds them to
        floats at once, which needs no gcd.
        """
        scale, ends = grid
        # `_ratio`'s unit form, keeping each term's index and coefficient;
        # `_ratio` keeps its own copy of this loop, which is its hot path.
        y = self._ibound * scale
        dims = []
        for i, c in self._terms:
            a, b = ends[i]
            y -= c * a if c > 0 else c * b
            beta = abs(c) * (b - a)
            if beta:
                dims.append((i, c, beta))
        betas = [beta for _, _, beta in dims]
        if not 0 < y < sum(betas):
            raise ValueError("the halfspace does not cut the box")
        m = len(dims)
        # Signed sums over the subsets S with positive slack s = Y - B_S of w0 = (-1)^|S| s^m,
        # w1 = w0 s and w2 = w1 s (z), of w0 and w1 over the subsets holding j (one0, one1),
        # and of w0 over those holding both j and k of a pair j < k (two0).
        pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
        one0, one1, two0 = [0] * m, [0] * m, [0] * len(pairs)
        if m <= 2:
            # Written out: Y < B_1 + ... + B_m leaves the empty subset and some singletons.
            z0, z1, z2 = y**m, y ** (m + 1), y ** (m + 2)
            for j, beta in enumerate(betas):
                if y > beta:
                    one0[j] = w0 = -((y - beta) ** m)
                    one1[j] = w1 = w0 * (y - beta)
                    z0, z1, z2 = z0 + w0, z1 + w1, z2 + w1 * (y - beta)
        else:
            # (slack Y - B_S, (-1)^|S|, bit mask of S) over the subsets S with positive slack.
            slacks = [(y, 1, 0)]
            for j, beta in enumerate(betas):
                slacks += [(s - beta, -sign, mask | 1 << j) for s, sign, mask in slacks if s > beta]
            z0 = z1 = z2 = 0
            for s, sign, mask in slacks:
                w0 = sign * s**m
                w1 = w0 * s
                z0, z1, z2 = z0 + w0, z1 + w1, z2 + w1 * s
                if mask:
                    for j in range(m):
                        if mask >> j & 1:
                            one0[j] += w0
                            one1[j] += w1
                    for p, (j, k) in enumerate(pairs):
                        if mask >> j & mask >> k & 1:
                            two0[p] += w0
        # The part's raw moments times (m + 2)!: the vertex v of S has
        # v_j = beta_j for j in S, so the sums over S of v_j w and v_j v_k w0
        # are beta_j one and beta_j beta_k two0.  For > and >= (the complement)
        # every moment is 12 times the box's minus 12 times the part's.
        n1, n2 = m + 2, (m + 2) * (m + 1)
        mom0 = n2 * z0
        complement = self.rel in (">", ">=")
        if complement:
            whole = math.factorial(m + 2) * math.prod(betas)
            mom0 = 12 * (whole - mom0)
        centre = [(a + b, 2 * scale) for a, b in ends]
        covariance = {(i, i): ((b - a) ** 2, 12 * scale * scale) for i, (a, b) in enumerate(ends)}
        # Covariances in x over mom0^2, and t_i moves by 1 / (|c_i| scale) per unit of x_j.
        norm = (mom0 * scale) ** 2
        mom1 = []
        for j, (i, c, beta) in enumerate(dims):
            num = n1 * z1 + n2 * beta * one0[j]
            square = 2 * z2 + 2 * n1 * beta * one1[j] + n2 * beta * beta * one0[j]
            if complement:
                num = 6 * whole * beta - 12 * num
                square = 4 * whole * beta * beta - 12 * square
            mom1.append(num)
            # The unit coordinate u_i = num / den of the centroid.
            den = beta * mom0
            a, b = ends[i]
            centre[i] = (b * den - (b - a) * num if c < 0 else a * den + (b - a) * num, scale * den)
            covariance[i, i] = (square * mom0 - num * num, c * c * norm)
        for p, (j, k) in enumerate(pairs):
            (i, c, beta), (i2, c2, beta2) = dims[j], dims[k]
            cross = z2 + n1 * (beta * one1[j] + beta2 * one1[k]) + n2 * beta * beta2 * two0[p]
            if complement:
                cross = 3 * whole * beta * beta2 - 12 * cross
            num = cross * mom0 - mom1[j] * mom1[k]
            covariance[i, i2] = (num if (c < 0) == (c2 < 0) else -num, abs(c * c2) * norm)
        return tuple(centre), covariance

    def to_json(self) -> dict:
        return {
            "type": "constraint",
            "coeffs": [{"num": c.numerator, "den": c.denominator} for c in self.coeffs],
            "rel": self.rel,
            "bound": {"num": self.bound.numerator, "den": self.bound.denominator},
        }


@dataclass(frozen=True, slots=True)
class AndNode:
    children: tuple


@dataclass(frozen=True, slots=True)
class OrNode:
    children: tuple


def _tree_contains(node, point) -> bool:
    if isinstance(node, LinearConstraint):
        return node.evaluate(point)
    if isinstance(node, AndNode):
        return all(_tree_contains(c, point) for c in node.children)
    return any(_tree_contains(c, point) for c in node.children)


# The residual of a box inside or outside the region: the empty
# conjunction and the empty disjunction, which every walk decides the
# same way.
_TRUE = AndNode(())
_FALSE = OrNode(())


def _pruned(node, kept: list):
    """node with its children replaced by `kept`, their residuals in order.

    No child left means every child was neutral: an AndNode whose
    children all hold on the box is `_TRUE`, an OrNode whose children
    all fail `_FALSE`.  A node that lost no child and whose children are
    their own residuals is returned as is, so unchanged subtrees are
    shared, not copied.
    """
    if not kept:
        return _TRUE if isinstance(node, AndNode) else _FALSE
    if len(kept) == len(node.children) and all(map(operator.is_, kept, node.children)):
        return node
    return type(node)(tuple(kept))


def _tree_fraction(node, grid: Grid) -> tuple[float, float, object]:
    """(lo, hi, residual): outward float bounds on the satisfied volume fraction of a box given as its `_grid`.

    A leaf is decided by its exact fraction alone: 1 gives (1, 1), 0
    gives (0, 0), and any other value is rounded outward, so its bounds
    are neither (1, 1) nor (0, 0).  A box that meets the halfspace only
    on its boundary, a face contact of measure zero, has fraction 0 and
    counts as outside.  AndNode combines its children's bounds by the
    Frechet conjunction bounds [1 - sum(1 - f_i), min(f_i)] and stops at
    a (0, 0) child; OrNode uses the dual [max(f_i), sum(f_i)] and stops
    at a (1, 1) child.  Both are clipped to [0, 1] and rounded outward.

    The residual is the part of the tree the box leaves undecided:
    `_TRUE` for (1, 1), `_FALSE` for (0, 0), otherwise the node with
    the (1, 1) children of an AndNode and the (0, 0) children of an
    OrNode dropped.  A fraction of 1 or 0 stays so on every sub-box,
    and such a child adds exactly nothing to its parent's bounds, so
    walking the residual on any sub-box gives the bounds the full tree
    gives, bit for bit.
    """
    if isinstance(node, LinearConstraint):
        num, den = node._ratio(grid)
        if num == den:
            return 1.0, 1.0, _TRUE
        if num == 0:
            return 0.0, 0.0, _FALSE
        return *_ratio_bounds(num, den), node
    kept = []
    if isinstance(node, AndNode):
        missing = 0.0
        hi = 1.0
        for child in node.children:
            c_lo, c_hi, residual = _tree_fraction(child, grid)
            if c_hi == 0.0:
                return 0.0, 0.0, _FALSE
            if c_lo != 1.0:
                missing = nextafter(missing + nextafter(1.0 - c_lo, _UP), _UP)
                kept.append(residual)
            hi = min(hi, c_hi)
        lo = nextafter(1.0 - missing, _DOWN) if missing != 0.0 else 1.0
        return max(lo, 0.0), hi, _pruned(node, kept)
    lo = 0.0
    hi = 0.0
    for child in node.children:
        c_lo, c_hi, residual = _tree_fraction(child, grid)
        if c_lo == 1.0:
            return 1.0, 1.0, _TRUE
        lo = max(lo, c_lo)
        if c_hi != 0.0:
            hi = nextafter(hi + c_hi, _UP)
            kept.append(residual)
    return lo, min(hi, 1.0), _pruned(node, kept)


def _single_halfspace(tree):
    """The one LinearConstraint a tree is through single-child AndNode/OrNode wrappers, else None."""
    while isinstance(tree, (AndNode, OrNode)) and len(tree.children) == 1:
        tree = tree.children[0]
    return tree if isinstance(tree, LinearConstraint) else None


def _tree_residual(node, grid: Grid):
    """The part of the tree whose float mask a box given as its `_grid` leaves undecided.

    Each constraint is `LinearConstraint._mask_residual`; AndNode drops
    its `_TRUE` children and OrNode its `_FALSE` ones, as in
    `_tree_fraction`, and a decided tree is `_TRUE` or `_FALSE`.
    """
    if isinstance(node, LinearConstraint):
        return node._mask_residual(grid)
    decisive, neutral = (_FALSE, _TRUE) if isinstance(node, AndNode) else (_TRUE, _FALSE)
    kept = []
    for child in node.children:
        residual = _tree_residual(child, grid)
        if residual is decisive:
            return decisive
        if residual is not neutral:
            kept.append(residual)
    return _pruned(node, kept)


def _tree_mask(node, pts: np.ndarray) -> np.ndarray:
    """Float membership of the rows of a C-contiguous (n, arity) array in the tree.

    A constraint is the one float test `pts @ F REL FB` on its
    `_mask_data` for every row; a zero coefficient adds an exact zero
    at a finite point.  An AndNode is walked by `_and_mask`, an OrNode
    is the union of its children's masks.
    """
    import numpy as np

    if isinstance(node, LinearConstraint):
        coeffs, bound = node._mask_data
        return _COMPARE[node.rel](pts @ np.array(coeffs), bound)
    if isinstance(node, AndNode):
        return _and_mask(node, pts)
    out = np.zeros(len(pts), dtype=bool)
    for c in node.children:
        out |= _tree_mask(c, pts)
    return out


def _and_mask(node: AndNode, pts: np.ndarray) -> np.ndarray:
    """`_tree_mask` of a conjunction, testing each child, in order, only on the rows every earlier one accepted.

    Once fewer than half of the rows in hand survive, they are gathered
    (`flatnonzero` and `take`, much cheaper than a boolean gather) and
    the later children see only them; no survivor ends the walk.  A
    single survivor is not gathered: numpy computes a one-row matrix
    product as a dot product, which sums in another order than the
    matrix-vector product of a larger array, so its float test could
    differ from the full array's.  Otherwise every row keeps its own
    float comparisons, so for a C-contiguous array, as
    `RegionPredicate.mask` passes, the mask is that of every child
    tested on every row, bit for bit.
    """
    import numpy as np

    out = np.zeros(len(pts), dtype=bool)
    rows = None  # positions in the input of the rows in hand; None while all are
    alive = np.ones(len(pts), dtype=bool)
    for child in node.children:
        alive &= _tree_mask(child, pts)
        count = int(np.count_nonzero(alive))
        if count == 0:
            return out
        if 1 < count < len(alive) / 2:
            keep = np.flatnonzero(alive)
            pts = pts.take(keep, axis=0)
            rows = keep if rows is None else rows.take(keep)
            alive = np.ones(count, dtype=bool)
    if rows is None:
        return alive
    out[rows] = alive
    return out


def _tree_json(node) -> dict:
    if isinstance(node, LinearConstraint):
        return node.to_json()
    key = "and" if isinstance(node, AndNode) else "or"
    return {"type": key, "children": [_tree_json(c) for c in node.children]}


class FractionBounds(tuple):
    """(lo, hi) volume-fraction bounds of a box, with the box's residual region tree.

    `residual` is the part of the tree the box leaves undecided (see
    `_tree_fraction`); walked on any sub-box it gives the same bounds as
    the full tree.
    """

    def __new__(cls, lo: float, hi: float, residual):
        bounds = super().__new__(cls, (lo, hi))
        bounds.residual = residual
        return bounds


@dataclass(frozen=True)
class RegionPredicate:
    """A named region of exponent space defined by an and/or constraint tree."""

    name: str
    arity: int
    tree: object = field(repr=False)

    def contains(self, point) -> bool:
        """Exact membership of a single point (floats converted exactly)."""
        point = tuple(point)
        if len(point) != self.arity:
            raise ValueError(f"{self.name} expects {self.arity} coordinates, got {len(point)}")
        return _tree_contains(self.tree, point)

    def fraction(self, box: Box, within=None) -> FractionBounds:
        """Certified outward float bounds on the satisfied volume fraction of the box.

        The result unpacks as (lo, hi) and carries the box's residual
        tree.  `within` is the tree to walk: by default the full tree, or
        the residual of a box that contains this one, which gives the
        same bounds with only the constraints that box left open.  A
        `GridBox` passes its carried grid.
        """
        tree = self.tree if within is None else within
        return FractionBounds(*_tree_fraction(tree, _box_grid(box, self.arity)))

    def mask(self, pts: np.ndarray, box: Box | None = None) -> np.ndarray:
        """Vectorized float membership for an (n, arity) array of finite points.

        The points are taken as one C-contiguous float array, so the
        mask does not depend on the input's layout.  A row with a NaN or
        infinite coordinate may be rejected by any constraint, even one
        whose coefficient on that coordinate is zero (0 * inf is NaN).  With a box, which
        must contain every point (faces included), `_tree_mask` walks
        the box's plan (`_mask_plan`) instead of the full tree; the mask
        is the same.
        """
        import numpy as np

        pts = np.ascontiguousarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise ValueError(f"{self.name} expects an (n, {self.arity}) array")
        return _tree_mask(self.tree if box is None else self._mask_plan(box), pts)

    def _mask_plan(self, box: Box):
        """The residual tree of the box, a conjunction's children sorted for `_and_mask`, memoised per box.

        A residual conjunction becomes an AndNode of its children in
        ascending order of their exact upper volume fraction on the box
        (the share of uniform samples they can pass), so the most
        selective test runs first, each on the rows the earlier ones
        kept.  The plan depends on the box alone and is kept on the
        instance for the last box it was built for, keyed by the box's
        endpoints, so `integrate_mc`, which masks block after block in
        one box, builds it once.  The memo is one (box, plan) pair
        replaced whole, so callers sharing the region each get the plan
        of their own box.
        """
        key = tuple(tuple(iv) for iv in box)
        memo = self.__dict__.get("_plan")
        if memo is not None and memo[0] == key:
            return memo[1]
        grid = _box_grid(key, self.arity)
        plan = _tree_residual(self.tree, grid)
        if isinstance(plan, AndNode):
            plan = AndNode(tuple(sorted(plan.children, key=lambda c: _tree_fraction(c, grid)[1])))
        object.__setattr__(self, "_plan", (key, plan))
        return plan

    def to_json(self) -> dict:
        return {"name": self.name, "arity": self.arity, "tree": _tree_json(self.tree)}


def _lc(arity: int, coeff_map: dict[int, Fraction | int], rel: str, bound: Fraction) -> LinearConstraint:
    coeffs = [Fraction(0)] * arity
    for idx, c in coeff_map.items():
        coeffs[idx] = Fraction(c)
    return LinearConstraint(tuple(coeffs), rel, Fraction(bound))


def _base_constraints(arity: int) -> list[LinearConstraint]:
    return [
        _lc(arity, {0: 1}, ">=", SIEVE_FLOOR),
        _lc(arity, {0: 1}, "<", WINDOW_LO),
        _lc(arity, {1: 1}, ">=", SIEVE_FLOOR),
        _lc(arity, {1: 1, 0: -1}, "<", Fraction(0)),
        _lc(arity, {0: 1, 1: 2}, "<", Fraction(1)),
    ]


def _window_clause(arity: int, coeff_map: dict[int, int], const: Fraction | int) -> OrNode:
    """The clause c.t + const < 8/19 or c.t + const > 11/19: that affine sum avoids the window."""
    return OrNode((_lc(arity, coeff_map, "<", WINDOW_LO - const), _lc(arity, coeff_map, ">", WINDOW_HI - const)))


def _build_pair_regions() -> dict[str, RegionPredicate]:
    base = _base_constraints(2)
    pair_sum = {0: 1, 1: 1}
    regions = {
        "pair_base": AndNode(tuple(base)),
        "region_a": AndNode(tuple(base + [_lc(2, pair_sum, "<", WINDOW_LO)])),
        "type_ii_strip": AndNode(
            tuple(base + [_lc(2, pair_sum, ">=", WINDOW_LO), _lc(2, pair_sum, "<=", WINDOW_HI)])
        ),
        "region_b": AndNode(
            tuple(base + [_lc(2, pair_sum, ">", WINDOW_HI), _lc(2, {1: 1}, "<", B_SECOND_CAP)])
        ),
        "region_c": AndNode(
            tuple(base + [_lc(2, pair_sum, ">", WINDOW_HI), _lc(2, {1: 1}, ">", B_SECOND_CAP)])
        ),
    }
    return {name: RegionPredicate(name, 2, tree) for name, tree in regions.items()}


def _build_u_a3() -> RegionPredicate:
    arity = 4
    cons: list = _base_constraints(arity)
    cons.append(_lc(arity, {0: 1, 1: 1}, "<", WINDOW_LO))
    cons.extend(
        [
            _lc(arity, {2: 1}, ">=", SIEVE_FLOOR),
            _lc(arity, {2: 1, 1: -1}, "<", Fraction(0)),
            _lc(arity, {0: 1, 1: 1, 2: 2}, "<", Fraction(1)),
            _lc(arity, {3: 1}, ">=", SIEVE_FLOOR),
            _lc(arity, {3: 1, 2: -1}, "<", Fraction(0)),
            _lc(arity, {0: 1, 1: 1, 2: 1, 3: 2}, "<", Fraction(1)),
        ]
    )
    # No grouping window may capture any subset sum of {t1,t2,t3,t4}; the
    # conjuncts and this clause imply every other subset's clause.
    cons.append(_window_clause(arity, {1: 1, 2: 1, 3: 1}, 0))
    return RegionPredicate("u_a3", arity, AndNode(tuple(cons)))


def _build_u_b3() -> RegionPredicate:
    arity = 4
    cons: list = _base_constraints(arity)
    cons.append(_lc(arity, {0: 1, 1: 1}, ">", WINDOW_HI))
    cons.append(_lc(arity, {1: 1}, "<", B_SECOND_CAP))
    cons.extend(
        [
            _lc(arity, {2: 1}, ">=", SIEVE_FLOOR),
            _lc(arity, {2: 1, 1: -1}, "<", Fraction(0)),
            _lc(arity, {0: 1, 1: 1, 2: 2}, "<", Fraction(1)),
            _lc(arity, {3: 1}, ">=", SIEVE_FLOOR),
            _lc(arity, {3: 2, 0: -1}, "<", Fraction(0)),
        ]
    )
    # Windows over subsets of {t1,t2,t3} and of {t0,t2,t3,t4}, where
    # t0 = 1 - t1 - t2 - t3 is the exponent of the leftover cofactor; the
    # conjuncts and the clauses on t1 + t3, t0 + t3 + t4 and t2 + t3 + t4
    # imply every other subset's clause.
    cons.append(_window_clause(arity, {0: 1, 2: 1}, 0))
    cons.append(_window_clause(arity, {0: -1, 1: -1, 3: 1}, 1))
    cons.append(_window_clause(arity, {1: 1, 2: 1, 3: 1}, 0))
    return RegionPredicate("u_b3", arity, AndNode(tuple(cons)))


_PAIR = _build_pair_regions()
PAIR_BASE = _PAIR["pair_base"]
REGION_A = _PAIR["region_a"]
REGION_B = _PAIR["region_b"]
REGION_C = _PAIR["region_c"]
TYPE_II_STRIP = _PAIR["type_ii_strip"]
REGION_U_A3 = _build_u_a3()
REGION_U_B3 = _build_u_b3()


def region_catalog() -> dict[str, RegionPredicate]:
    return {
        r.name: r
        for r in (PAIR_BASE, REGION_A, REGION_B, REGION_C, TYPE_II_STRIP, REGION_U_A3, REGION_U_B3)
    }


def catalog_json() -> dict:
    return {"regions": [r.to_json() for r in region_catalog().values()]}


def _exact_values(ts, exact=_as_fraction) -> list:
    values = [exact(t) for t in ts]
    if len(values) > MAX_SUBSET_ARITY:
        raise ValueError(f"subset scans support at most {MAX_SUBSET_ARITY} exponents")
    return values


def type_ii_feasible(ts) -> bool:
    """True when some nonempty subset of the exponents sums into [8/19, 11/19].

    Exact: float inputs are converted to rationals without rounding,
    and every value and window end is scaled to an integer on their
    common denominator.  One walk extends the subset sums so far by
    each value in turn, which visits every nonempty subset once, and
    returns at the first sum inside the window.  The empty collection
    is infeasible.
    """
    ratios = _exact_values(ts, _integer_ratio)
    den = math.lcm(WINDOW_LO.denominator, WINDOW_HI.denominator, *(d for _, d in ratios))
    lo, hi = (end.numerator * (den // end.denominator) for end in (WINDOW_LO, WINDOW_HI))
    sums = [0]
    for num, d in ratios:
        step = num * (den // d)
        extended = [total + step for total in sums]
        for total in extended:
            if lo <= total <= hi:
                return True
        sums += extended
    return False
