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
groupable window [8/19, 11/19].  Each such clause is emitted once per
canonical form (`_window_avoidance`).  In u_b3 the sum of the cofactor
exponent t0 = 1 - t1 - t2 - t3 and any subset of {t2, t3} is 1 minus a
sum over {t1, t2, t3}, and it avoids the window exactly when that sum
does, since 8/19 + 11/19 = 1.  A clause that a conjunct on the same
form already settles (t1 + t2 < 8/19 in u_a3, t1 + t2 > 11/19 in u_b3)
is left out.  The sets are unchanged; u_a3 has 25 conjuncts and u_b3
24.  Every clause left open on a box costs the Frechet lower bound its
missing mass, so the default a3 and b3 runs need 5,835 and 22,479
boxes, not the 8,359 and 38,161 of the trees with every subset clause.

Point membership runs in exact `Fraction` arithmetic, float inputs
converted exactly.  Box tests are exact integer arithmetic: each
constraint is scaled to integer coefficients and bound once, and each
box is put once on a common integer grid (`_grid`: every float, int or
Fraction endpoint is A / scale for one integer scale), which
`RegionPredicate.fraction` returns with the bounds.  Strict and
non-strict inequalities are distinguished by point membership but
deliberately conflated by box tests, since they differ on a
measure-zero set and every integral is insensitive to it.

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
is an exact integer ratio (`LinearConstraint._ratio`; only subsets with
y - b_S > 0 are enumerated).  A constraint is decided on a box by that
ratio alone: 1 is inside, 0 is outside, which counts a face contact of
measure zero as outside, and any other value is rounded to floats once,
by one correctly rounded division and an integer check of which side of
the quotient the exact value lies (`interval._ratio_bounds`), so each
bound is within one ulp of the exact fraction.  Conjunctions and
disjunctions combine their children's bounds with two-sided Frechet
bounds in directed rounding, which are exact up to rounding when a
single child is undecided on the box.  On the same grid the first
moments of the same corner simplices give the exact centroid of the
part of a box one halfspace keeps, as unreduced integer ratios
(`LinearConstraint._centroid`; `centroid` gives it as Fractions).

A constraint decided on a box stays decided on every sub-box, so each
fraction also returns the box's residual tree: the conjunctions without
their inside children and the disjunctions without their outside ones
(the inner/outer box tests of SIVIA, Jaulin, Kieffer, Didrit & Walter,
*Applied Interval Analysis*, 2001).  Walked on a sub-box
(`fraction(box, within=residual)`), it gives the full tree's bounds bit
for bit while visiting only the constraints left open.  The float point
mask skips, on a box, the constraints whose float comparison the box
decides for every point in it, strictness and rounding included
(`LinearConstraint._mask_residual`, walked by `_tree_residual`), and
tests the remaining conjunction most selective child first on the
points still accepted (`_and_mask`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import nextafter

import numpy as np

from .interval import _DOWN, _UP, _ratio_bounds

__all__ = [
    "LinearConstraint",
    "AndNode",
    "OrNode",
    "RegionPredicate",
    "FractionBounds",
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
    "type_i_feasible",
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


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
        # The same for the float halfspace that `_tree_mask` tests, with
        # coefficients and bound rounded to floats: sum(F_i * t_i) REL FB
        # scaled by `_fden`.
        floats = [float(q).as_integer_ratio() for q in rationals]
        fden = math.lcm(*(d for _, d in floats))
        *fscaled, fbound = (n * (fden // d) for n, d in floats)
        object.__setattr__(self, "_fterms", tuple((i, c) for i, c in enumerate(fscaled) if c))
        object.__setattr__(self, "_fbound", fbound)
        object.__setattr__(self, "_fden", fden)
        # The float test itself: the one nonzero column times its
        # coefficient, or a dot product with every float coefficient.
        fcoeffs = [float(c) for c in self.coeffs]
        nonzero = [(i, c) for i, c in enumerate(fcoeffs) if c]
        column = nonzero[0] if len(nonzero) == 1 else None
        object.__setattr__(self, "_mask_data", (column, np.array(fcoeffs), float(self.bound)))

    def evaluate(self, point) -> bool:
        total = sum((c * _as_fraction(t) for c, t in zip(self.coeffs, point, strict=True)), Fraction(0))
        return _COMPARE[self.rel](total, self.bound)

    def _box_grid(self, box: Box) -> Grid:
        """`_grid` of a box, which must have one interval per coefficient."""
        if len(box) != len(self.coeffs):
            raise ValueError(f"constraint on {len(self.coeffs)} coordinates given a {len(box)}-dimensional box")
        return _grid(box)

    def _mask_residual(self, grid: Grid):
        """`_TRUE`, `_FALSE` or self: the float comparison in `_tree_mask` over a box given as its `_grid`.

        `_tree_mask` compares a float dot product of the point with the
        float coefficients against the float bound, strictness included.
        In any summation order that product lies within
        gamma_k * sum|F_i t_i| + k * 2^-1074 of the exact one, for k
        nonzero terms, gamma_k = k u / (1 - k u) and u = 2^-53 (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2002, sec. 3.1;
        the second term covers products that underflow).  The result is
        `_TRUE` or `_FALSE` only when the comparison holds, or fails, at
        both ends of the exact corner range widened by that error, so it
        holds for every point of the closed box.  Sums that might overflow
        leave the constraint undecided.
        """
        scale, ends = grid
        lo = hi = mag = 0
        for i, c in self._fterms:
            a, b = ends[i]
            lo += c * (a if c > 0 else b)
            hi += c * (b if c > 0 else a)
            mag += abs(c) * max(-a, b)
        width = self._fden * scale  # the exact sums are lo / width, hi / width
        if mag >= width << 1023:
            return self
        # Everything times (2^53 - k) * 2^1074 * width, all integers.
        k = len(self._fterms)
        g = ((1 << 53) - k) << 1074
        err = (k * mag << 1074) + k * width * ((1 << 53) - k)
        bound = self._fbound * scale * g
        compare = _COMPARE[self.rel]
        at_lo, at_hi = compare(lo * g - err, bound), compare(hi * g + err, bound)
        return _TRUE if at_lo and at_hi else _FALSE if not (at_lo or at_hi) else self

    def fraction(self, box: Box) -> Fraction:
        """Exact volume fraction of the box satisfying the halfspace."""
        return Fraction(*self._ratio(self._box_grid(box)))

    def fraction_bounds(self, box: Box) -> tuple[float, float]:
        """Float bounds on the volume fraction of the box satisfying the halfspace.

        The exact fraction rounded outward once: (f, f) when it is a
        float, otherwise the two floats adjacent to it.
        """
        return _ratio_bounds(*self._ratio(self._box_grid(box)))

    def _ratio(self, grid: Grid) -> tuple[int, int]:
        """The exact volume fraction as (numerator, denominator > 0), in Irwin-Hall form.

        On the grid the threshold Y and the widths B_i of
        P(sum c_i T_i <= bound) are integers; F is homogeneous of degree
        0 in (Y, B), so the integer data give the same value as the
        rescaled rational data.  Only subsets S with Y - B_S > 0 are
        enumerated: supersets of the others contribute zero.  The
        relations > and >= take the complement.
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
        if not betas:
            num, den = int(y >= 0), 1
        elif y <= 0:
            num, den = 0, 1
        elif y >= sum(betas):
            num, den = 1, 1
        else:
            m = len(betas)
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
        """Exact centroid of box intersect halfspace, for a box the halfspace cuts (see `_centroid`)."""
        return tuple(Fraction(num, den) for num, den in self._centroid(self._box_grid(box)))

    def _centroid(self, grid: Grid) -> tuple[tuple[int, int], ...]:
        """The exact centroid of a box given as its `_grid` intersect halfspace, as (numerator, denominator > 0) pairs.

        On `_ratio`'s grid, with the same reflected unit coordinates, the
        part sum(beta_i U_i) <= Y is an inclusion-exclusion sum of
        simplices: the subset S contributes the corner simplex of side
        s = Y - beta_S with sign (-1)^|S|, volume s^m / m! and centroid
        beta_S + s / (m + 1) in the x_i = beta_i U_i coordinates.  Over
        the subsets with s > 0, A = sum(+-s^(m+1)), C = sum(+-s^m) and
        B_j, the part of C from the subsets containing j, give
        u_j = (A + (m + 1) beta_j B_j) / ((m + 1) beta_j C).  For > and
        >= the part is the complement, whose volume 1 - V and first
        moment 1/2 - V u_j give u'_j = (1/2 - V u_j) / (1 - V).  A
        coordinate the halfspace does not involve keeps the box's exact
        midpoint.  Raises ValueError unless the fraction is strictly
        between 0 and 1.  The pairs are not reduced: the integrator rounds
        them to floats at once, which needs no gcd.
        """
        scale, ends = grid
        # `_ratio`'s unit form, keeping each term's index and reflection;
        # `_ratio` keeps its own copy of this loop, which is its hot path.
        y = self._ibound * scale
        dims = []
        for i, c in self._terms:
            a, b = ends[i]
            y -= c * a if c > 0 else c * b
            beta = abs(c) * (b - a)
            if beta:
                dims.append((i, beta, c < 0))
        if not 0 < y < sum(beta for _, beta, _ in dims):
            raise ValueError("the halfspace does not cut the box")
        m = len(dims)
        # (slack Y - B_S, (-1)^|S|, bit mask of S) over the subsets S with positive slack.
        slacks = [(y, 1, 0)]
        for j, (_, beta, _) in enumerate(dims):
            slacks += [(s - beta, -sign, mask | 1 << j) for s, sign, mask in slacks if s > beta]
        powers = [(sign * s**m, s, mask) for s, sign, mask in slacks]
        moment = sum(p * s for p, s, _ in powers)
        total = sum(p for p, _, _ in powers)
        # box volume times m!, in the same units as total
        volume = math.factorial(m) * math.prod(beta for _, beta, _ in dims)
        centre = [(a + b, 2 * scale) for a, b in ends]
        for j, (i, beta, reflected) in enumerate(dims):
            part = sum(p for p, _, mask in powers if mask >> j & 1)
            num = moment + (m + 1) * beta * part
            den = (m + 1) * beta * total
            if self.rel in (">", ">="):
                # V u_j = num / ((m + 1) beta volume), V = total / volume.
                num, den = (m + 1) * beta * volume - 2 * num, 2 * (m + 1) * beta * (volume - total)
            a, b = ends[i]
            centre[i] = (b * den - (b - a) * num if reflected else a * den + (b - a) * num, scale * den)
        return tuple(centre)

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
    if isinstance(node, LinearConstraint):
        column, coeffs, bound = node._mask_data
        if column is None:
            return _COMPARE[node.rel](pts @ coeffs, bound)
        # At finite points zero coefficients add exact zeros to a dot
        # product, so the single column gives the same sums.
        i, c = column
        return _COMPARE[node.rel](pts[:, i] * c, bound)
    if isinstance(node, AndNode):
        out = np.ones(len(pts), dtype=bool)
        for c in node.children:
            out &= _tree_mask(c, pts)
        return out
    out = np.zeros(len(pts), dtype=bool)
    for c in node.children:
        out |= _tree_mask(c, pts)
    return out


def _and_mask(children, pts: np.ndarray) -> np.ndarray:
    """`_tree_mask` of AndNode(children), testing each child only on the rows every earlier one accepted.

    Once fewer than half of the rows in hand survive, they are gathered
    (`flatnonzero` and `take`, much cheaper than a boolean gather) and
    the later children see only them; no survivor ends the walk.  A
    single survivor is not gathered: numpy computes a one-row matrix
    product as a dot product, which sums in another order than the
    matrix-vector product of a larger array, so its float test could
    differ from the full array's.  Otherwise every row keeps its own
    float comparisons, so for a C-contiguous array, as `integrate_mc`
    draws, the mask is `_tree_mask`'s bit for bit.
    """
    out = np.zeros(len(pts), dtype=bool)
    rows = None  # positions in the input of the rows in hand; None while all are
    alive = np.ones(len(pts), dtype=bool)
    for child in children:
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
    """(lo, hi) volume-fraction bounds of a box, with the box's residual region tree and its `_grid`.

    `residual` is the part of the tree the box leaves undecided (see
    `_tree_fraction`); walked on any sub-box it gives the same bounds as
    the full tree.  `grid` is the box on the integer grid the bounds
    were computed on, which `LinearConstraint._centroid` takes as is.
    """

    def __new__(cls, lo: float, hi: float, residual, grid: Grid):
        bounds = super().__new__(cls, (lo, hi))
        bounds.residual = residual
        bounds.grid = grid
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

    def _box_grid(self, box: Box) -> Grid:
        """`_grid` of a box, which must have `arity` intervals."""
        box = tuple(tuple(iv) for iv in box)
        if len(box) != self.arity:
            raise ValueError(f"{self.name} expects a {self.arity}-dimensional box")
        return _grid(box)

    def fraction(self, box: Box, within=None) -> FractionBounds:
        """Certified outward float bounds on the satisfied volume fraction of the box.

        The result unpacks as (lo, hi) and carries the box's residual
        tree and grid.  `within` is the tree to walk: by default the full
        tree, or the residual of a box that contains this one, which
        gives the same bounds with only the constraints that box left
        open.
        """
        tree = self.tree if within is None else within
        grid = self._box_grid(box)
        return FractionBounds(*_tree_fraction(tree, grid), grid)

    def mask(self, pts: np.ndarray, box: Box | None = None) -> np.ndarray:
        """Vectorized float membership for an (n, arity) array of points.

        With a box, which must contain every point (faces included), the
        constraints whose float test the box decides are skipped, and a
        residual conjunction is walked by `_and_mask`: its children in
        ascending order of their exact upper volume fraction on the box
        (the share of uniform samples they can pass), so the most
        selective test runs first, each on the rows the earlier ones
        kept.  The mask is the same.  That plan depends on the box alone
        and is kept on the instance for the last box it was built for,
        keyed by the box's endpoints, so `integrate_mc`, which masks
        block after block in one box, builds it once.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise ValueError(f"{self.name} expects an (n, {self.arity}) array")
        if box is None:
            return _tree_mask(self.tree, pts)
        plan = self._mask_plan(box)
        if isinstance(plan, tuple):
            return _and_mask(plan, pts)
        return _tree_mask(plan, pts)

    def _mask_plan(self, box: Box):
        """The residual tree of the box, or its conjunction's children in `_and_mask` order, memoised per box.

        The memo is one (box, plan) pair replaced whole, so callers
        sharing the region each get the plan of their own box.
        """
        key = tuple(tuple(iv) for iv in box)
        memo = self.__dict__.get("_plan")
        if memo is not None and memo[0] == key:
            return memo[1]
        grid = self._box_grid(key)
        residual = _tree_residual(self.tree, grid)
        if isinstance(residual, AndNode):
            plan = tuple(sorted(residual.children, key=lambda c: _tree_fraction(c, grid)[1]))
        else:
            plan = residual
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


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _sign(coeffs) -> int:
    """-1 when the first nonzero coefficient is negative, else 1."""
    return -1 if next((c for c in coeffs if c), 0) < 0 else 1


def _settles(rel: str, bound: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """Whether form REL bound keeps the form out of the closed interval [lo, hi]."""
    if rel in ("<", "<="):
        return bound < lo or (bound == lo and rel == "<")
    return bound > hi or (bound == hi and rel == ">")


def _window_avoidance(
    arity: int, groups: list[list[tuple[dict[int, int], Fraction]]], conjuncts: list[LinearConstraint]
) -> list[OrNode]:
    """Or-clauses stating every listed affine sum avoids [8/19, 11/19], each emitted once.

    Each group lists affine forms (coeff_map, const); for each nonempty
    subset of a group the summed form c.t + const must fall below 8/19
    or above 11/19, that is c.t must avoid [8/19 - const, 11/19 - const].
    A clause is keyed by its canonical form: c with its first nonzero
    coefficient made positive (c and the interval negated otherwise),
    and the interval.  Since 8/19 + 11/19 = 1, the form 1 - f avoids
    the window exactly when f does, so a form and its cofactor twin
    (t0 = 1 - t1 - t2 - t3 against t1 + t2 + t3, say) share a key and
    give one clause, in the orientation met first.  A clause is also
    left out when one of `conjuncts`, the other children of the
    clauses' AndNode, has the same canonical coefficients and already
    keeps the form below or above that interval, compared exactly with
    strictness kept.  Either way the conjunction is the same set.
    """
    # The (rel, bound) of each conjunct, per canonical coefficient vector.
    sides: dict[tuple, list[tuple[str, Fraction]]] = {}
    for con in conjuncts:
        if _sign(con.coeffs) > 0:
            sides.setdefault(con.coeffs, []).append((con.rel, con.bound))
        else:
            sides.setdefault(tuple(-c for c in con.coeffs), []).append((_FLIP[con.rel], -con.bound))
    clauses: dict[tuple, OrNode] = {}
    for group in groups:
        for r in range(1, len(group) + 1):
            for subset in itertools.combinations(group, r):
                coeffs = [Fraction(0)] * arity
                const = Fraction(0)
                for cmap, c0 in subset:
                    const += c0
                    for idx, c in cmap.items():
                        coeffs[idx] += c
                low, high = WINDOW_LO - const, WINDOW_HI - const
                if _sign(coeffs) > 0:
                    canonical, lo, hi = tuple(coeffs), low, high
                else:
                    canonical, lo, hi = tuple(-c for c in coeffs), -high, -low
                key = (canonical, lo, hi)
                if key in clauses or any(_settles(rel, b, lo, hi) for rel, b in sides.get(canonical, ())):
                    continue
                clauses[key] = OrNode(
                    (LinearConstraint(tuple(coeffs), "<", low), LinearConstraint(tuple(coeffs), ">", high))
                )
    return list(clauses.values())


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
    # No grouping window may capture any subset of {t1,t2,t3} or of
    # {t1,t2,t3,t4}; the latter family subsumes the former.
    group = [({i: 1}, Fraction(0)) for i in range(4)]
    cons.extend(_window_avoidance(arity, [group], cons))
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
    # t0 = 1 - t1 - t2 - t3 is the exponent of the leftover cofactor.
    t0 = ({0: -1, 1: -1, 2: -1}, Fraction(1))
    group_a = [({0: 1}, Fraction(0)), ({1: 1}, Fraction(0)), ({2: 1}, Fraction(0))]
    group_b = [t0, ({1: 1}, Fraction(0)), ({2: 1}, Fraction(0)), ({3: 1}, Fraction(0))]
    cons.extend(_window_avoidance(arity, [group_a, group_b], cons))
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


def _exact_values(ts) -> list[Fraction]:
    values = [_as_fraction(t) for t in ts]
    if len(values) > MAX_SUBSET_ARITY:
        raise ValueError(f"subset scans support at most {MAX_SUBSET_ARITY} exponents")
    return values


def type_ii_feasible(ts) -> bool:
    """True when some nonempty subset of the exponents sums into [8/19, 11/19].

    Exact: float inputs are converted to rationals without rounding.
    The empty collection is infeasible.
    """
    values = _exact_values(ts)
    for r in range(1, len(values) + 1):
        for subset in itertools.combinations(values, r):
            total = sum(subset, Fraction(0))
            if WINDOW_LO <= total <= WINDOW_HI:
                return True
    return False


def type_i_feasible(ts) -> bool:
    """True when the exponents split into halves with sums <= 8/19 and <= 9/38.

    Every exponent must land in one of the two halves.  The empty
    collection is feasible (both sums are zero).
    """
    values = _exact_values(ts)
    n = len(values)
    total = sum(values, Fraction(0))
    for mask in range(1 << n):
        first = sum((values[i] for i in range(n) if mask >> i & 1), Fraction(0))
        if first <= WINDOW_LO and total - first <= B_SECOND_CAP:
            return True
    return False
