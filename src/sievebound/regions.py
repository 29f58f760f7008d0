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
groupable window [8/19, 11/19].

Point membership runs in exact `Fraction` arithmetic, float inputs
converted exactly.  Box classification is exact integer arithmetic: each
constraint is scaled to integer coefficients and bound once, and each
box is put once on a common integer grid (`_grid`: every float, int or
Fraction endpoint is A / scale for one integer scale), so the corner
range of a constraint over the box is an integer sum compared with
bound * scale.  Strict and non-strict inequalities are distinguished by
point membership but deliberately conflated by box classification, since
they differ on a measure-zero set and every integral is insensitive to
it.

Each predicate also computes, for a box, certified float bounds on the
fraction of the box volume satisfying the predicate.  After rescaling
the box to the unit cube a single linear constraint reads
sum(b_i * U_i) <= y with b_i > 0 and U uniform, and its fraction is the
Irwin-Hall distribution function

    F(y; b) = (1/m!) * sum over subsets S of (-1)^|S| * max(0, y - b_S)^m

divided by the product of the b_i.  F is homogeneous of degree 0 in
(y, b), so on the box's integer grid y and the b_i are integers and F
is an exact integer ratio (`LinearConstraint._ratio`; only subsets with
y - b_S > 0 are enumerated).  That ratio is rounded to floats once, by
one correctly rounded division and an integer check of which side of
the quotient the exact value lies (`buchstab._ratio_bounds`), so each
bound is within one ulp of the exact fraction.  Conjunctions and
disjunctions combine their children's bounds with two-sided Frechet
bounds in directed rounding, which are exact up to rounding when a
single child is undecided on the box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import nextafter

import numpy as np

from .buchstab import _DOWN, _UP, _ratio_bounds

__all__ = [
    "INSIDE",
    "OUTSIDE",
    "MIXED",
    "LinearConstraint",
    "AndNode",
    "OrNode",
    "RegionPredicate",
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

INSIDE = "inside"
OUTSIDE = "outside"
MIXED = "mixed"

SIEVE_FLOOR = Fraction(3, 19)
WINDOW_LO = Fraction(8, 19)
WINDOW_HI = Fraction(11, 19)
B_SECOND_CAP = Fraction(9, 38)

MAX_SUBSET_ARITY = 8

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
        if self.rel not in ("<", "<=", ">", ">="):
            raise ValueError(f"unknown relation {self.rel!r}")
        # Integer data for classification: scaled by the lcm of the
        # denominators, the halfspace reads sum(C_i * t_i) REL B.
        rationals = [Fraction(c) for c in self.coeffs] + [Fraction(self.bound)]
        den = math.lcm(*(q.denominator for q in rationals))
        *scaled, bound = (q.numerator * (den // q.denominator) for q in rationals)
        object.__setattr__(self, "_terms", tuple((i, c) for i, c in enumerate(scaled) if c))
        object.__setattr__(self, "_ibound", bound)

    def evaluate(self, point) -> bool:
        total = sum((c * _as_fraction(t) for c, t in zip(self.coeffs, point, strict=True)), Fraction(0))
        if self.rel == "<":
            return total < self.bound
        if self.rel == "<=":
            return total <= self.bound
        if self.rel == ">":
            return total > self.bound
        return total >= self.bound

    def _box_grid(self, box: Box) -> Grid:
        """`_grid` of a box, which must have one interval per coefficient."""
        if len(box) != len(self.coeffs):
            raise ValueError(f"constraint on {len(self.coeffs)} coordinates given a {len(box)}-dimensional box")
        return _grid(box)

    def classify(self, box: Box) -> str:
        """Three-valued box test, treating strict relations as non-strict."""
        return self._classify(self._box_grid(box))

    def _classify(self, grid: Grid) -> str:
        """classify on a box given as its `_grid`: exact integer corner range against the bound."""
        scale, ends = grid
        lo = hi = 0
        for i, c in self._terms:
            a, b = ends[i]
            if c > 0:
                lo += c * a
                hi += c * b
            else:
                lo += c * b
                hi += c * a
        bound = self._ibound * scale
        if self.rel in ("<", "<="):
            return INSIDE if hi <= bound else OUTSIDE if lo > bound else MIXED
        return INSIDE if lo >= bound else OUTSIDE if hi < bound else MIXED

    def fraction(self, box: Box) -> Fraction:
        """Exact volume fraction of the box satisfying the halfspace."""
        return Fraction(*self._ratio(self._box_grid(box)))

    def fraction_bounds(self, box: Box) -> tuple[float, float]:
        """Float bounds on the volume fraction of the box satisfying the halfspace.

        The exact fraction rounded outward once: (f, f) when it is a
        float, otherwise the two floats adjacent to it.
        """
        return self._fraction_bounds(self._box_grid(box))

    def _fraction_bounds(self, grid: Grid) -> tuple[float, float]:
        """fraction_bounds on a box given as its `_grid`."""
        return _ratio_bounds(*self._ratio(grid))

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


def _tree_classify(node, grid: Grid) -> str:
    if isinstance(node, LinearConstraint):
        return node._classify(grid)
    if isinstance(node, AndNode):
        verdict = INSIDE
        for child in node.children:
            v = _tree_classify(child, grid)
            if v == OUTSIDE:
                return OUTSIDE
            if v == MIXED:
                verdict = MIXED
        return verdict
    verdict = OUTSIDE
    for child in node.children:
        v = _tree_classify(child, grid)
        if v == INSIDE:
            return INSIDE
        if v == MIXED:
            verdict = MIXED
    return verdict


def _tree_fraction(node, grid: Grid) -> tuple[float, float]:
    """Outward float bounds on the satisfied volume fraction of a box given as its `_grid`.

    A leaf decided by exact classification is (1, 1) or (0, 0); any
    other leaf gets its exact fraction rounded outward.  AndNode combines
    its children's bounds by the Frechet conjunction bounds
    [1 - sum(1 - f_i), min(f_i)] and stops at a (0, 0) child; OrNode
    uses the dual [max(f_i), sum(f_i)] and stops at a (1, 1) child.
    Both are clipped to [0, 1] and rounded outward.  A subtree that
    exact classification decides gets exactly (1, 1) or (0, 0), and no
    other subtree gets (1, 1): a MIXED leaf's fraction, and with it its
    lower bound, is below 1.  It may be exactly 0, when the box meets
    the halfspace only on its boundary, and then the leaf gets (0, 0).
    """
    if isinstance(node, LinearConstraint):
        verdict = node._classify(grid)
        if verdict == INSIDE:
            return 1.0, 1.0
        if verdict == OUTSIDE:
            return 0.0, 0.0
        return node._fraction_bounds(grid)
    if isinstance(node, AndNode):
        missing = 0.0
        hi = 1.0
        for child in node.children:
            c_lo, c_hi = _tree_fraction(child, grid)
            if c_hi == 0.0:
                return 0.0, 0.0
            if c_lo != 1.0:
                missing = nextafter(missing + nextafter(1.0 - c_lo, _UP), _UP)
            hi = min(hi, c_hi)
        lo = nextafter(1.0 - missing, _DOWN) if missing != 0.0 else 1.0
        return max(lo, 0.0), hi
    lo = 0.0
    hi = 0.0
    for child in node.children:
        c_lo, c_hi = _tree_fraction(child, grid)
        if c_lo == 1.0:
            return 1.0, 1.0
        lo = max(lo, c_lo)
        if c_hi != 0.0:
            hi = nextafter(hi + c_hi, _UP)
    return lo, min(hi, 1.0)


def _tree_mask(node, pts: np.ndarray) -> np.ndarray:
    if isinstance(node, LinearConstraint):
        coeffs = np.array([float(c) for c in node.coeffs])
        totals = pts @ coeffs
        bound = float(node.bound)
        if node.rel == "<":
            return totals < bound
        if node.rel == "<=":
            return totals <= bound
        if node.rel == ">":
            return totals > bound
        return totals >= bound
    if isinstance(node, AndNode):
        out = np.ones(len(pts), dtype=bool)
        for c in node.children:
            out &= _tree_mask(c, pts)
        return out
    out = np.zeros(len(pts), dtype=bool)
    for c in node.children:
        out |= _tree_mask(c, pts)
    return out


def _tree_json(node) -> dict:
    if isinstance(node, LinearConstraint):
        return node.to_json()
    key = "and" if isinstance(node, AndNode) else "or"
    return {"type": key, "children": [_tree_json(c) for c in node.children]}


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

    def classify(self, box: Box) -> str:
        """INSIDE / OUTSIDE / MIXED over an axis-aligned box, exactly."""
        box = tuple(tuple(iv) for iv in box)
        if len(box) != self.arity:
            raise ValueError(f"{self.name} expects a {self.arity}-dimensional box")
        return _tree_classify(self.tree, _grid(box))

    def fraction(self, box: Box) -> tuple[float, float]:
        """Certified outward float bounds on the satisfied volume fraction of the box."""
        box = tuple(tuple(iv) for iv in box)
        if len(box) != self.arity:
            raise ValueError(f"{self.name} expects a {self.arity}-dimensional box")
        return _tree_fraction(self.tree, _grid(box))

    def mask(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized float membership for an (n, arity) array of points."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise ValueError(f"{self.name} expects an (n, {self.arity}) array")
        return _tree_mask(self.tree, pts)

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


def _window_avoidance(arity: int, groups: list[list[tuple[dict[int, int], Fraction]]]) -> list[OrNode]:
    """Or-clauses stating every listed affine sum avoids [8/19, 11/19].

    Each group lists affine forms (coeff_map, const); for each nonempty
    subset of a group the summed form must fall below 8/19 or above
    11/19.  Duplicate clauses arising from overlapping groups are
    emitted once.
    """
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
                key = (tuple(coeffs), const)
                if key in clauses:
                    continue
                low = LinearConstraint(tuple(coeffs), "<", WINDOW_LO - const)
                high = LinearConstraint(tuple(coeffs), ">", WINDOW_HI - const)
                clauses[key] = OrNode((low, high))
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
    cons.extend(_window_avoidance(arity, [group]))
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
    cons.extend(_window_avoidance(arity, [group_a, group_b]))
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
