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

divided by the product of the b_i.  F is nondecreasing in y and
nonincreasing in every b_i, so with the float enclosures [y_lo, y_hi]
and [b_lo, b_hi] of the rescaled data,

    F(y_lo; b_hi) <= F(y; b) <= F(y_hi; b_lo),

and each side is evaluated at those float points with every operation
rounded outward.  The alternating sum cancels badly on thin, anisotropic
boxes; when the two sides are more than FLOAT_FRACTION_MAX_WIDTH apart,
or a coefficient is not an exact float, the exact Irwin-Hall value
(`LinearConstraint.fraction`, integer y and b_i read from the grid) is
used instead, rounded outward to floats.  Conjunctions and disjunctions
combine their children's bounds with two-sided Frechet bounds in
directed rounding, which are exact up to rounding when a single child
is undecided on the box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import nextafter

import numpy as np

from .buchstab import _DOWN, _UP, _rational_bounds, _two_sum

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

# Widest float Irwin-Hall bound accepted before the exact fallback.
FLOAT_FRACTION_MAX_WIDTH = 2.0**-40

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
        # Float Irwin-Hall data, when every coefficient is an exact float.
        object.__setattr__(self, "_fcoeffs", tuple(float(c) for c in self.coeffs))
        if any(Fraction(fc) != c for fc, c in zip(self._fcoeffs, self.coeffs)):
            object.__setattr__(self, "_fcoeffs", None)
        else:
            # bound = b + residual, and whether every product coeff *
            # endpoint is exact (|coeff| a power of two, >= 1).
            b = float(self.bound)
            object.__setattr__(self, "_bound_float", b)
            object.__setattr__(self, "_bound_residual", _rational_bounds(self.bound - Fraction(b)))
            exact = all(c == 0.0 or (abs(c) >= 1.0 and abs(math.frexp(c)[0]) == 0.5) for c in self._fcoeffs)
            object.__setattr__(self, "_exact_products", exact)

    def evaluate(self, point) -> bool:
        total = sum((c * _as_fraction(t) for c, t in zip(self.coeffs, point, strict=True)), Fraction(0))
        if self.rel == "<":
            return total < self.bound
        if self.rel == "<=":
            return total <= self.bound
        if self.rel == ">":
            return total > self.bound
        return total >= self.bound

    def classify(self, box: Box) -> str:
        """Three-valued box test, treating strict relations as non-strict."""
        return self._classify(_grid(box))

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
        below = self._fraction_leq(_grid(box))
        if self.rel in ("<", "<="):
            return below
        return 1 - below

    def _fraction_leq(self, grid: Grid) -> Fraction:
        """Exact P(sum c_i T_i <= bound) for T uniform on the box (Irwin-Hall form).

        On the grid the threshold Y and the widths B_i are integers; F is
        homogeneous of degree 0 in (Y, B), so the integer data give the
        same value as the rescaled rational data.
        """
        scale, ends = grid
        y = self._ibound * scale
        betas = []
        for i, c in self._terms:
            a, b = ends[i]
            y -= c * a
            beta = c * (b - a)
            if beta < 0:
                # Reflect U -> 1 - U to make the coefficient positive.
                y -= beta
                beta = -beta
            if beta:
                betas.append(beta)
        if not betas:
            return Fraction(int(y >= 0))
        if y <= 0:
            return Fraction(0)
        if y >= sum(betas):
            return Fraction(1)
        m = len(betas)
        vol = 0
        for r in range(m + 1):
            for subset in itertools.combinations(betas, r):
                slack = y - sum(subset)
                if slack > 0:
                    vol += (-1) ** r * slack**m
        return Fraction(vol, math.factorial(m) * math.prod(betas))

    def fraction_bounds(self, box: Box) -> tuple[float, float]:
        """Outward float bounds on the volume fraction of the box satisfying the halfspace.

        Float Irwin-Hall (module docstring) when the coefficients are
        exact floats and its bounds lie within FLOAT_FRACTION_MAX_WIDTH
        of each other; otherwise the exact fraction, rounded outward.
        """
        if self._fcoeffs is not None:
            lo, hi = self._float_fraction_leq(box)
            if hi - lo <= FLOAT_FRACTION_MAX_WIDTH:
                if self.rel in (">", ">="):
                    lo, hi = nextafter(1.0 - hi, _DOWN), nextafter(1.0 - lo, _UP)
                return max(lo, 0.0), min(hi, 1.0)
        return _rational_bounds(self.fraction(box))

    def _float_fraction_leq(self, box: Box) -> tuple[float, float]:
        """Outward float bounds on P(sum c_i T_i <= bound) for T uniform on the box.

        The rescaled threshold y = bound - sum(c_i * corner_i) is summed
        with TwoSum, so that its float value plus the collected error
        terms is exact, and only their sum is rounded outward; the widths
        b_i are enclosed outward.  The monotone Irwin-Hall function is
        then evaluated at (y_lo, b_hi) for the lower and at (y_hi, b_lo)
        for the upper bound.  Inputs that are not finite give the trivial
        bounds (0, 1).
        """
        y = self._bound_float
        err_lo, err_hi = self._bound_residual
        betas_lo: list[float] = []
        betas_hi: list[float] = []
        for c, (a, b) in zip(self._fcoeffs, box, strict=True):
            if c == 0.0:
                continue
            # T = a + (b - a) U; for c < 0 reflect U -> 1 - U, so that
            # c T = c b + |c| (b - a) U with a positive width coefficient.
            p = -c * a if c > 0.0 else -c * b
            if not self._exact_products:
                half_ulp = math.ulp(p) * 0.5
                err_lo = nextafter(err_lo - half_ulp, _DOWN)
                err_hi = nextafter(err_hi + half_ulp, _UP)
            y, err = _two_sum(y, p)
            err_lo = nextafter(err_lo + err, _DOWN)
            err_hi = nextafter(err_hi + err, _UP)
            w = b - a
            if w != 0.0:
                mag = abs(c)
                betas_lo.append(nextafter(mag * nextafter(w, _DOWN), _DOWN))
                betas_hi.append(nextafter(mag * nextafter(w, _UP), _UP))
        y_lo = nextafter(y + err_lo, _DOWN)
        y_hi = nextafter(y + err_hi, _UP)
        if not betas_lo:
            return (1.0, 1.0) if y_lo >= 0.0 else (0.0, 0.0) if y_hi < 0.0 else (0.0, 1.0)
        # Also false for a NaN: the slack pruning in _irwin_hall needs finite data.
        if not y_hi - y_lo + sum(betas_hi) < math.inf:
            return 0.0, 1.0
        return _irwin_hall(y_lo, betas_hi)[0], _irwin_hall(y_hi, betas_lo)[1]

    def to_json(self) -> dict:
        return {
            "type": "constraint",
            "coeffs": [{"num": c.numerator, "den": c.denominator} for c in self.coeffs],
            "rel": self.rel,
            "bound": {"num": self.bound.numerator, "den": self.bound.denominator},
        }


def _irwin_hall(y: float, betas: list[float]) -> tuple[float, float]:
    """Outward enclosure of the Irwin-Hall function F(y; betas) at finite float inputs.

    A nonpositive denominator m! * prod(betas) gives the trivial bounds (0, 1).
    """
    m = len(betas)
    # (slack lo, slack hi, |S| odd) over the subsets S whose slack
    # y - b_S may be positive; supersets of the others contribute zero.
    slacks = [(y, y, False)]
    for b in betas:
        for lo, hi, odd in slacks[:]:
            if hi - b > 0.0:
                slacks.append((nextafter(lo - b, _DOWN), nextafter(hi - b, _UP), not odd))
    acc_lo = acc_hi = 0.0
    for lo, hi, odd in slacks:
        if hi <= 0.0:
            continue
        lo = max(lo, 0.0)
        p_lo, p_hi = lo, hi
        for _ in range(m - 1):
            p_lo = nextafter(p_lo * lo, _DOWN)
            p_hi = nextafter(p_hi * hi, _UP)
        if odd:
            acc_lo = nextafter(acc_lo - p_hi, _DOWN)
            acc_hi = nextafter(acc_hi - p_lo, _UP)
        else:
            acc_lo = nextafter(acc_lo + p_lo, _DOWN)
            acc_hi = nextafter(acc_hi + p_hi, _UP)
    d_lo = d_hi = float(math.factorial(m))
    for b in betas:
        d_lo = nextafter(d_lo * b, _DOWN)
        d_hi = nextafter(d_hi * b, _UP)
    if not d_lo > 0.0:
        return 0.0, 1.0
    lo = nextafter(acc_lo / (d_hi if acc_lo >= 0.0 else d_lo), _DOWN)
    hi = nextafter(acc_hi / (d_lo if acc_hi >= 0.0 else d_hi), _UP)
    return lo, hi


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


def _tree_fraction(node, box: Box, grid: Grid) -> tuple[float, float]:
    """Outward float bounds on the satisfied volume fraction of the box, given with its grid.

    A leaf decided by exact classification is (1, 1) or (0, 0); any
    other leaf uses LinearConstraint.fraction_bounds.  AndNode combines
    its children's bounds by the Frechet conjunction bounds
    [1 - sum(1 - f_i), min(f_i)] and stops at a (0, 0) child; OrNode
    uses the dual [max(f_i), sum(f_i)] and stops at a (1, 1) child.
    Both are clipped to [0, 1] and rounded outward.  A subtree that
    exact classification decides gets exactly (1, 1) or (0, 0), and no
    other subtree gets (1, 1): a MIXED leaf's fraction, and with it its
    lower bound, is below 1.
    """
    if isinstance(node, LinearConstraint):
        verdict = node._classify(grid)
        if verdict == INSIDE:
            return 1.0, 1.0
        if verdict == OUTSIDE:
            return 0.0, 0.0
        return node.fraction_bounds(box)
    if isinstance(node, AndNode):
        missing = 0.0
        hi = 1.0
        for child in node.children:
            c_lo, c_hi = _tree_fraction(child, box, grid)
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
        c_lo, c_hi = _tree_fraction(child, box, grid)
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
        return _tree_fraction(self.tree, box, _grid(box))

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
