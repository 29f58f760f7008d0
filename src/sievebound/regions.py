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

All membership and box-classification logic runs in exact `Fraction`
arithmetic; float inputs are converted exactly.  Strict and non-strict
inequalities are distinguished by point membership but deliberately
conflated by box classification, since they differ on a measure-zero
set and every integral is insensitive to it.

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
or a coefficient is not an exact float, the exact rational Irwin-Hall
value (`LinearConstraint.fraction`) is used instead, rounded outward to
floats.  Conjunctions and disjunctions combine their children's bounds
with two-sided Frechet bounds in directed rounding, which are exact up
to rounding when a single child is undecided on the box.
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
        # Float screen data.  Coefficients in this module are small
        # integers, hence exact in float; coefficient times endpoint is
        # a single rounding, bounded outward below.
        object.__setattr__(self, "_fcoeffs", tuple(float(c) for c in self.coeffs))
        if any(Fraction(fc) != c for fc, c in zip(self._fcoeffs, self.coeffs)):
            object.__setattr__(self, "_fcoeffs", None)
        else:
            b = float(self.bound)
            object.__setattr__(self, "_bound_below", b if Fraction(b) <= self.bound else math.nextafter(b, -math.inf))
            object.__setattr__(self, "_bound_above", b if Fraction(b) >= self.bound else math.nextafter(b, math.inf))
            # Volume-fraction data: bound = b + residual, and whether every
            # product coeff * endpoint is exact (|coeff| a power of two, >= 1).
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

    def _corner_range_exact(self, box: Box) -> tuple[Fraction, Fraction]:
        lo = Fraction(0)
        hi = Fraction(0)
        for c, (a, b) in zip(self.coeffs, box, strict=True):
            if a > b:
                raise ValueError("box interval with lo > hi")
            if c > 0:
                lo += c * Fraction(a)
                hi += c * Fraction(b)
            elif c < 0:
                lo += c * Fraction(b)
                hi += c * Fraction(a)
        return lo, hi

    def _screen(self, box: Box) -> str | None:
        """Directed-rounded float classification, or None when too close to call.

        Products coeff*endpoint are exact (the coefficients are small
        integers), and each running addition is pushed one ulp outward
        (resp. inward), so [lo_out, hi_out] encloses the exact corner
        range and [lo_in, hi_in] is enclosed by it.  Decisions made from
        these intervals therefore agree with exact arithmetic; anything
        undecidable at float precision falls back to rationals.
        """
        fcoeffs = self._fcoeffs
        if fcoeffs is None:
            return None
        lo_out = 0.0
        hi_out = 0.0
        lo_in = 0.0
        hi_in = 0.0
        for c, (a, b) in zip(fcoeffs, box):
            if c > 0.0:
                plo, phi = c * a, c * b
            elif c < 0.0:
                plo, phi = c * b, c * a
            else:
                continue
            lo_out = math.nextafter(lo_out + plo, -math.inf)
            hi_out = math.nextafter(hi_out + phi, math.inf)
            lo_in = math.nextafter(lo_in + plo, math.inf)
            hi_in = math.nextafter(hi_in + phi, -math.inf)
        below, above = self._bound_below, self._bound_above
        if self.rel in ("<", "<="):
            if hi_out <= below:
                return INSIDE
            if lo_out > above:
                return OUTSIDE
            if lo_in <= below and hi_in > above:
                return MIXED
            return None
        if lo_out >= above:
            return INSIDE
        if hi_out < below:
            return OUTSIDE
        if hi_in >= above and lo_in < below:
            return MIXED
        return None

    def classify(self, box: Box) -> str:
        """Three-valued box test, treating strict relations as non-strict."""
        screened = self._screen(box)
        if screened is not None:
            return screened
        lo, hi = self._corner_range_exact(box)
        if self.rel in ("<", "<="):
            if hi <= self.bound:
                return INSIDE
            if lo > self.bound:
                return OUTSIDE
            return MIXED
        if lo >= self.bound:
            return INSIDE
        if hi < self.bound:
            return OUTSIDE
        return MIXED

    def fraction(self, box: Box) -> Fraction:
        """Exact volume fraction of the box satisfying the halfspace."""
        below = _halfspace_fraction_leq(self.coeffs, self.bound, box)
        if self.rel in ("<", "<="):
            return below
        return 1 - below

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


def _halfspace_fraction_leq(coeffs: tuple[Fraction, ...], bound: Fraction, box: Box) -> Fraction:
    """Exact P(sum c_i T_i <= bound) for T uniform on the box (Irwin-Hall form)."""
    y = bound
    betas: list[Fraction] = []
    for c, (a, b) in zip(coeffs, box, strict=True):
        fa, fb = Fraction(a), Fraction(b)
        w = fb - fa
        y -= c * fa
        s = c * w
        if s > 0:
            betas.append(s)
        elif s < 0:
            # Reflect U -> 1 - U to make the coefficient positive.
            y -= s
            betas.append(-s)
    if not betas:
        return Fraction(1) if y >= 0 else Fraction(0)
    if y <= 0:
        return Fraction(0)
    if y >= sum(betas):
        return Fraction(1)
    m = len(betas)
    vol = Fraction(0)
    for r in range(m + 1):
        for subset in itertools.combinations(betas, r):
            slack = y - sum(subset, Fraction(0))
            if slack > 0:
                vol += (-1) ** r * slack**m
    denom = math.factorial(m)
    for b in betas:
        denom *= b
    return vol / denom


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


def _tree_classify(node, box: Box) -> str:
    if isinstance(node, LinearConstraint):
        return node.classify(box)
    if isinstance(node, AndNode):
        verdict = INSIDE
        for child in node.children:
            v = _tree_classify(child, box)
            if v == OUTSIDE:
                return OUTSIDE
            if v == MIXED:
                verdict = MIXED
        return verdict
    verdict = OUTSIDE
    for child in node.children:
        v = _tree_classify(child, box)
        if v == INSIDE:
            return INSIDE
        if v == MIXED:
            verdict = MIXED
    return verdict


def _tree_fraction(node, box: Box) -> tuple[float, float]:
    """Outward float bounds on the satisfied volume fraction of the box.

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
        verdict = node.classify(box)
        if verdict == INSIDE:
            return 1.0, 1.0
        if verdict == OUTSIDE:
            return 0.0, 0.0
        return node.fraction_bounds(box)
    if isinstance(node, AndNode):
        missing = 0.0
        hi = 1.0
        for child in node.children:
            c_lo, c_hi = _tree_fraction(child, box)
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
        c_lo, c_hi = _tree_fraction(child, box)
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
        return _tree_classify(self.tree, box)

    def fraction(self, box: Box) -> tuple[float, float]:
        """Certified outward float bounds on the satisfied volume fraction of the box."""
        box = tuple(tuple(iv) for iv in box)
        if len(box) != self.arity:
            raise ValueError(f"{self.name} expects a {self.arity}-dimensional box")
        return _tree_fraction(self.tree, box)

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
