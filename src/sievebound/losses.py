"""The three certified loss integrals and their budget ledger.

Each loss is the volume of sieve mass discarded by one pruning step of
the decomposition, expressed as an exponent-space integral of a
Buchstab-bound kernel over one of the region predicates:

    loss_a3: upper(u) / (t1 t2 t3 t4^2) du, u = (1 - t1 - t2 - t3 - t4)/t4,
             over u_a3;
    loss_b3: upper(u1) upper(u2) / (t2 t3^2 t4^2),
             u1 = (t1 - t4)/t4,  u2 = (1 - t1 - t2 - t3)/t3, over u_b3;
    loss_c:  upper(u) / (t1 t2^2) du, u = (1 - t1 - t2)/t2, over region_c,

where upper is the piecewise upper Buchstab bound.  Where every
argument lies in [1, 2], upper(u) = 1/u exactly, and each kernel is the
rational function of its factor table (`_FACTORS`):

    loss_a3: 1 / (t1 t2 t3 t4 (1 - t1 - t2 - t3 - t4)),
    loss_b3: 1 / (t2 t3 t4 (t1 - t4) (1 - t1 - t2 - t3)),
    loss_c:  1 / (t1 t2 (1 - t1 - t2)).

`check_argument_range` proves that range almost everywhere at the start
of every `verified_loss` call.  For each argument u = N/D of the
argument table (`_ARGUMENTS`) it establishes, on region intersect box:

    D > 0:   D < 0 has exact volume fraction 0 on the box, and D is a
             kernel factor, which `ReciprocalProduct` checks positive per leaf;
    u >= 1:  the halfspace N - D >= 0 (or > 0) is, coefficient for
             coefficient in exact rationals, a top-level conjunct of the
             region's AndNode;
    u <= 2:  `integrate_rigorous` bounds the volume of region and
             N - 2 D > 0 by exactly 0 within RANGE_LEAF_BUDGET boxes.

It raises SoundnessError otherwise.  Over PAIR_BASE on [3/19, 8/19]^2,
for example, the argument of loss_c reaches 13/3.  So `verified_loss`
is the one certified entry for a loss: a sandwich integrated without
that check bounds the rational kernel, not the loss.  Rigorous runs and
Monte Carlo both use the one rational integrand per loss, a
`ReciprocalProduct`: its interval extension bounds the value on a leaf,
a fourth-order mean-value form the average over a leaf inside the
region, and a third-order form about the exact centroid, with the exact
covariance, the average over a mixed leaf cut by a single halfspace,
each in one pass over one table of the factors (`ReciprocalProduct._walk`).

Integration domains are pre-clipped bounding boxes of the regions,
derived exactly:

    u_a3 box:     t1 in [11/57, 13/57], t2 in [11/57, 4/19],
                  t3 in [7/38, 4/19],   t4 in [3/19, 4/19]
       (3 t2 > t2 + t3 + t4 > 11/19; t1 > t2; t1 < 8/19 - t2;
        2 t3 > 11/19 - t2 > 7/19; the usual floors elsewhere);
    u_b3 box:     t1 in [7/19, 8/19],   t2 in [3/19, 9/38],
                  t3 in [3/19, 4/19],   t4 in [3/19, 4/19]
       (the set's windows force t1 + t3 > 11/19 and t3 < 8/19 - t2,
        the first by a clause of the tree and the second by what the
        tree implies (see `regions`), so 11/19 - t1 < 8/19 - t2 with
        t2 > 11/19 - t1 gives t1 > 7/19;
        t3 < (1 - t1 - t2)/2 < 4/19; t4 < t1/2 < 4/19);
    region_c box: t1 in [11/38, 8/19],  t2 in [9/38, 8/19]
       (2 t1 > t1 + t2 > 11/19).

That each box covers its region is proved in the tests, not at run
time: exact elimination finds no point of the region beyond any face
(`TestLossBoxesByElimination`).  The boxes are not tight: on region_c,
t2 < t1 and t1 + 2 t2 < 1 give t2 < 1/3, yet its box runs to 8/19.  On
these boxes every affine factor is bounded away from zero (for
example 1 - t1 - t2 - t3 - t4 >= 8/57 on the u_a3 box), so the interval
extensions never divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf as _INF, nextafter
from typing import TYPE_CHECKING

from .interval import _DOWN, _UP, Enclosure, SoundnessError, _down, _up
from . import quadrature
from .quadrature import Integrand, IntegralEstimate, RIGOROUS, integrate_mc, integrate_rigorous
from .regions import REGION_C, REGION_U_A3, REGION_U_B3, AndNode, Box, LinearConstraint, RegionPredicate

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TARGETS",
    "LOSS_NAMES",
    "LossLedger",
    "check_argument_range",
    "integration_domain",
    "loss_mc",
    "verified_loss",
    "assemble_ledger",
]

# Externally fixed budget constants each certified upper bound must stay
# below; total is the allowed combined loss and retained the implied
# floor on surviving mass.
TARGETS = {
    "a3": 0.000829,
    "b3": 0.013062,
    "c": 0.235134,
    "total": 0.25,
    "retained": 0.75,
}

LOSS_NAMES = ("a3", "b3", "c")

DEFAULT_BUDGETS = {"a3": 10**7, "b3": 10**7, "c": 10**6}
DEFAULT_TOLS = {"a3": 2e-5, "b3": 5e-5, "c": 5e-7}
MAX_ESCALATIONS = 2
RANGE_LEAF_BUDGET = 256

# Default base seed of every Monte Carlo cross-check.
MC_SEED = 20240801

_F = Fraction

_BOXES_EXACT = {
    "a3": ((_F(11, 57), _F(13, 57)), (_F(11, 57), _F(4, 19)), (_F(7, 38), _F(4, 19)), (_F(3, 19), _F(4, 19))),
    "b3": ((_F(7, 19), _F(8, 19)), (_F(3, 19), _F(9, 38)), (_F(3, 19), _F(4, 19)), (_F(3, 19), _F(4, 19))),
    "c": ((_F(11, 38), _F(8, 19)), (_F(9, 38), _F(8, 19))),
}


def _outward_box(exact: tuple[tuple[Fraction, Fraction], ...]) -> Box:
    return tuple((_down(float(lo)), _up(float(hi))) for lo, hi in exact)


_BOXES: dict[str, Box] = {name: _outward_box(b) for name, b in _BOXES_EXACT.items()}
_REGIONS: dict[str, RegionPredicate] = {"a3": REGION_U_A3, "b3": REGION_U_B3, "c": REGION_C}

# An affine form (const, coeffs) is const + sum(coeffs[i] * t_i).  The
# tables below hold small integers, exact both as floats and as Fractions.
AffineForm = tuple[float, tuple[float, ...]]

_T1, _T2, _T3, _T4 = ((0.0, tuple(float(i == k) for i in range(4))) for k in range(4))
_PAIR_T1, _PAIR_T2 = (0.0, (1.0, 0.0)), (0.0, (0.0, 1.0))
_A3_REST = (1.0, (-1.0, -1.0, -1.0, -1.0))
_B3_GAP = (0.0, (1.0, 0.0, 0.0, -1.0))
_B3_REST = (1.0, (-1.0, -1.0, -1.0, 0.0))
_C_REST = (1.0, (-1.0, -1.0))

# Affine factors L_k of each rational kernel 1 / prod L_k.
_FACTORS = {
    "a3": (_T1, _T2, _T3, _T4, _A3_REST),
    "b3": (_T2, _T3, _T4, _B3_GAP, _B3_REST),
    "c": (_PAIR_T1, _PAIR_T2, _C_REST),
}

# Buchstab arguments u = N / D of each loss, as (N, D) pairs.
_ARGUMENTS = {
    "a3": ((_A3_REST, _T4),),
    "b3": ((_B3_GAP, _T4), (_B3_REST, _T3)),
    "c": ((_C_REST, _PAIR_T2),),
}


def _intersect_range(a_lo: float, a_hi: float, f_lo: float, f_hi: float) -> Enclosure:
    """Mean-value bounds [a_lo, a_hi] on an average intersected with the value range [f_lo, f_hi] it lies in.

    A non-finite or empty mean-value pair (an overflowed remainder, say) raises SoundnessError, and so does a
    disjoint pair, through `Enclosure.intersect`.
    """
    lo, hi = max(a_lo, f_lo), min(a_hi, f_hi)
    if -_INF < a_lo <= a_hi < _INF and -_INF < f_lo <= f_hi < _INF and lo <= hi:
        return Enclosure(lo, hi)
    if not -_INF < a_lo <= a_hi < _INF:
        raise SoundnessError(f"mean-value bounds [{a_lo}, {a_hi}] not finite and ordered")
    return Enclosure(a_lo, a_hi).intersect(Enclosure(f_lo, f_hi))


@dataclass(frozen=True)
class ReciprocalProduct:
    """f(t) = 1 / prod_k L_k(t) with affine factors L_k positive on the box.

    Supplies the certified interval extension, a fourth-order
    mean-value average enclosure and a third-order one about a given
    centroid and covariance (`clipped_average`), all computed on float
    (lo, hi) pairs rounded outward after every operation; only the
    result is an Enclosure.  With f = exp(-sum log L_k),
    S_i = sum_k a_ki / L_k and Q_ij = sum_k a_ki a_kj / L_k^2, the
    second partials are d_i d_j f = f (S_i S_j + Q_ij).  Expanding f to
    fourth order about the exact centre c of a box with half-widths r,
    the odd terms and the mixed second-order terms average to zero and
    E[d_i^2] = r_i^2 / 3, so

        avg = F(c) + E[R_4],  F(x) = f(x) (1 + sum_i (S_i^2 + Q_ii)(x) r_i^2 / 6).

    Along the segment from c to t, with delta_k = L_k(t) - L_k(c), the
    function g(s) = f(c + s (t - c)) has g^(4)/4! = g h_4(x) for the
    complete homogeneous symmetric polynomial h_4 and x_k = -delta_k / L_k
    with L_k at the intermediate point, so
    |x_k| <= rho_k = sum_i |a_ki| r_i / L_k,lo.
    Every coefficient of h_4 is +1 and h_4 increases in each nonnegative
    argument, so |h_4(x)| <= h_4(|x|) <= h_4(rho) and

        |R_4| <= f_hi h_4(rho_1, ..., rho_K),

    with f_hi and L_k,lo the bounds of f and L_k over the box.  h_4(rho)
    is at most (sum_k rho_k)^4; on the inside leaves of a default loss c
    run it is 3.1 to 5.2 times smaller, 4.5 in the median.
    Round-to-nearest puts each c_j within one float step of
    c~_j = (lo_j + hi_j) * 0.5, so factor bounds over the centre box
    [down(c~), up(c~)] enclose F(c), and the remainder alone widens it.
    The average lies in the box's value range, so both forms end in
    `_intersect_range`, which intersects the widened enclosure with the
    interval extension of the box's factor bounds.

    Both forms make one pass (`_walk`) over one table of the factors,
    built once, from the factor bounds over the box and a centre box;
    it yields every Q_ij, of which `average` reads the Q_ii.  Every
    interval product is written out from its four end products; a NaN
    among them makes both ends NaN.
    """

    factors: tuple[AffineForm, ...]

    def __post_init__(self) -> None:
        # (const, ((i, a_i), ...)) over the nonzero coefficients of each factor.
        terms = tuple((const, tuple((i, c) for i, c in enumerate(coeffs) if c)) for const, coeffs in self.factors)
        arity = len(self.factors[0][1])
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_arity", arity)
        # The position of each entry Q_ij, i <= j: Q_ii at i, then the pairs i < j.
        pairs = ((i, j) for i in range(arity) for j in range(i + 1, arity))
        entries = {(i, i): i for i in range(arity)} | {ij: e for e, ij in enumerate(pairs, arity)}
        object.__setattr__(self, "_entries", entries)
        # `_walk`'s table: per factor, its terms (i, a_i, |a_i|), and (t, u, position of Q_ij)
        # for each pair of its terms t < u, on axes i < j.
        object.__setattr__(self, "_table", tuple((
            tuple((i, a, abs(a)) for i, a in ts),
            tuple((t, u, entries[ts[t][0], ts[u][0]]) for t in range(len(ts)) for u in range(t + 1, len(ts))),
        ) for _, ts in terms))

    def _factor_bounds(self, box: Box) -> list[tuple[float, float]]:
        if len(box) != self._arity:
            raise ValueError(f"expected a {self._arity}-dimensional box")
        out = []
        for const, terms in self._terms:
            lo = hi = const
            for i, c in terms:
                a, b = box[i]
                if c > 0.0:
                    lo = nextafter(lo + nextafter(c * a, _DOWN), _DOWN)
                    hi = nextafter(hi + nextafter(c * b, _UP), _UP)
                else:
                    lo = nextafter(lo + nextafter(c * b, _DOWN), _DOWN)
                    hi = nextafter(hi + nextafter(c * a, _UP), _UP)
            if not lo > 0.0:
                raise SoundnessError("affine factor not positive over the box")
            out.append((lo, hi))
        return out

    def _walk(self, box: Box, centre: Box, sides: list[float]):
        """One pass over the factor table, with the factor bounds over the box and over the centre box.

        Returns the bounds of f over the box and at the centre; the lower and upper bounds of each
        S_i = sum_k x_ki and of each Q_ij = sum_k x_ki x_kj, at its position in `_entries`, x_ki = a_ki / L_k
        at the centre; the spreads rho_k = sum_i |a_ki| sides_i / L_k,lo; and (h_0, ..., h_4) of the
        spreads, by h_m(.., rho) = h_m(..) + rho h_{m-1}(.., rho) with every term nonnegative and rounded up.
        """
        ls, at_centre = self._factor_bounds(box), self._factor_bounds(centre)
        p_lo = p_hi = c_lo = c_hi = 1.0
        s_lo, s_hi = [0.0] * self._arity, [0.0] * self._arity
        q_lo, q_hi = [0.0] * len(self._entries), [0.0] * len(self._entries)
        spreads = []
        h1 = h2 = h3 = h4 = 0.0
        for (lo, hi), (l_lo, l_hi), (terms, pairs) in zip(ls, at_centre, self._table):
            p_lo, p_hi = nextafter(p_lo * lo, _DOWN), nextafter(p_hi * hi, _UP)
            c_lo, c_hi = nextafter(c_lo * l_lo, _DOWN), nextafter(c_hi * l_hi, _UP)
            v_lo, v_hi = nextafter(1.0 / l_hi, _DOWN), nextafter(1.0 / l_lo, _UP)
            xs, num = [], 0.0
            for i, a, span in terms:
                if a > 0.0:
                    x_lo, x_hi = nextafter(a * v_lo, _DOWN), nextafter(a * v_hi, _UP)
                else:
                    x_lo, x_hi = nextafter(a * v_hi, _DOWN), nextafter(a * v_lo, _UP)
                s_lo[i], s_hi[i] = nextafter(s_lo[i] + x_lo, _DOWN), nextafter(s_hi[i] + x_hi, _UP)
                # x_ki^2: x_lo x_hi never exceeds the larger square, and is the least product only when negative.
                p, q, s = x_lo * x_lo, x_lo * x_hi, x_hi * x_hi
                ok = (probe := p + q + q + s) == probe
                q_lo[i] = nextafter(q_lo[i] + nextafter(q if q < 0.0 else p if p < s else s, _DOWN), _DOWN) if ok else probe
                q_hi[i] = nextafter(q_hi[i] + nextafter(p if p > s else s, _UP), _UP) if ok else probe
                num = nextafter(num + nextafter(span * sides[i], _UP), _UP)
                xs.append((x_lo, x_hi))
            for t, u, e in pairs:
                (a_lo, a_hi), (b_lo, b_hi) = xs[t], xs[u]
                p, q, r, s = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi
                ok = (probe := p + q + r + s) == probe
                q_lo[e] = nextafter(q_lo[e] + nextafter(min(p, q, r, s), _DOWN), _DOWN) if ok else probe
                q_hi[e] = nextafter(q_hi[e] + nextafter(max(p, q, r, s), _UP), _UP) if ok else probe
            rho = nextafter(num / lo, _UP)
            spreads.append(rho)
            h1 = nextafter(h1 + nextafter(rho, _UP), _UP)
            h2 = nextafter(h2 + nextafter(rho * h1, _UP), _UP)
            h3 = nextafter(h3 + nextafter(rho * h2, _UP), _UP)
            h4 = nextafter(h4 + nextafter(rho * h3, _UP), _UP)
        return (nextafter(1.0 / p_hi, _DOWN), nextafter(1.0 / p_lo, _UP), nextafter(1.0 / c_hi, _DOWN),
                nextafter(1.0 / c_lo, _UP), s_lo, s_hi, q_lo, q_hi, spreads, (1.0, h1, h2, h3, h4))

    def enclosure(self, box: Box) -> Enclosure:
        """Outward bounds on 1 / prod of the factor bounds over the box."""
        p_lo = p_hi = 1.0
        for lo, hi in self._factor_bounds(box):
            p_lo = nextafter(p_lo * lo, _DOWN)
            p_hi = nextafter(p_hi * hi, _UP)
        return Enclosure(nextafter(1.0 / p_hi, _DOWN), nextafter(1.0 / p_lo, _UP))

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        import numpy as np

        prod = np.ones(len(pts))
        for const, coeffs in self.factors:
            prod *= const + pts @ np.array(coeffs)
        return 1.0 / prod

    def average(self, box: Box) -> Enclosure:
        centre = [(nextafter(c := (lo + hi) * 0.5, _DOWN), nextafter(c, _UP)) for lo, hi in box]
        widths = [nextafter(hi - lo, _UP) for lo, hi in box]
        f_lo, f_hi, fc_lo, fc_hi, s_lo, s_hi, q_lo, q_hi, _, h = self._walk(box, centre, widths)

        # curv = sum_i (S_i^2 + Q_ii)(c) r_i^2 / 6 with r_i^2 / 6 = w_i^2 / 24 for the side w_i.
        curv_lo = curv_hi = 0.0
        for (lo, hi), w, a_lo, a_hi, b_lo, b_hi in zip(box, widths, s_lo, s_hi, q_lo, q_hi):
            # S_i^2 as the x_ki^2 of `_walk`, raised to 0.
            p, q, s = a_lo * a_lo, a_lo * a_hi, a_hi * a_hi
            ok = (probe := p + q + q + s) == probe
            t_lo = nextafter(max(nextafter(q if q < 0.0 else p if p < s else s, _DOWN), 0.0) + b_lo, _DOWN) if ok else probe
            t_hi = nextafter(nextafter(p if p > s else s, _UP) + b_hi, _UP) if ok else probe
            w_lo = nextafter(hi - lo, _DOWN)
            rr_lo = nextafter(nextafter(w_lo * w_lo, _DOWN) / 24.0, _DOWN)
            rr_hi = nextafter(nextafter(w * w, _UP) / 24.0, _UP)
            curv_lo = nextafter(curv_lo + nextafter(t_lo * rr_lo, _DOWN), _DOWN)
            curv_hi = nextafter(curv_hi + nextafter(t_hi * rr_hi, _UP), _UP)

        # rho_k is half the full-width spread s_k, and h_4 is homogeneous of degree 4:
        # f_hi h_4(rho) = f_hi h_4(s) / 16.
        pad = nextafter(nextafter(f_hi * h[4], _UP) / 16.0, _UP)
        mid_lo = nextafter(fc_lo + nextafter(fc_lo * curv_lo, _DOWN), _DOWN)
        mid_hi = nextafter(fc_hi + nextafter(fc_hi * curv_hi, _UP), _UP)
        return _intersect_range(nextafter(mid_lo - pad, _DOWN), nextafter(mid_hi + pad, _UP), f_lo, f_hi)

    def clipped_average(self, box: Box, centre: Box, cov: dict[tuple[int, int], tuple[float, float]]) -> Enclosure:
        """Certified bounds on the average of f over a convex part P of the box, given its centroid and covariance.

        `centre` must contain the exact centroid c of P, and cov[i, j]
        the exact covariance E_P[(t_i - c_i)(t_j - c_j)] for each i <= j
        it lists; an entry it leaves out must be exactly zero.  The
        integrator passes the outward float bounds of the exact rational
        moments of box intersect one halfspace.  The third-order form is
        the argument of `average` one order down.  Along the segment from
        c to t in P, which stays in P by convexity, g(s) = f(c + s (t - c))
        has g'''/3! = g h_3(-delta_k / L_k) with delta_k = L_k(t) - L_k(c),
        h_3 the complete homogeneous symmetric polynomial of degree 3 and
        L_k at the intermediate point, and |h_3(x)| <= h_3(rho) as in the
        class docstring.  The Hessian of f is f (S_i S_j + Q_ij).  So

            f(t) = f(c) + grad f(c) . (t - c)
                   + f(c) sum_ij (S_i S_j + Q_ij)(c) (t_i - c_i)(t_j - c_j) / 2 + R_3,
            |R_3| <= f_hi h_3(rho),  rho_k = sum_i |a_ki| r_i / L_k,lo,

        where r_i = max(c_i - lo_i, hi_i - c_i) bounds |t_i - c_i| (the
        distance from the centre box to the farther face), and f_hi and
        L_k,lo are the bounds of f and L_k over the box.  The linear term
        averages to exactly zero over P because c is its centroid, so

            avg = f(c) (1 + sum_ij (S_i S_j + Q_ij)(c) Cov_ij / 2) + E_P[R_3],

        with every value at c bounded over `centre`.  The result is that
        form intersected with the box's value range, in which the average
        lies (`_intersect_range`).
        """
        reach = [nextafter(max(c_hi - lo, hi - c_lo), _UP) for (lo, hi), (c_lo, c_hi) in zip(box, centre)]
        f_lo, f_hi, fc_lo, fc_hi, s_lo, s_hi, q_lo, q_hi, _, h = self._walk(box, centre, reach)

        # total = sum_ij (S_i S_j + Q_ij) Cov_ij, each off-diagonal entry counted twice.
        total_lo = total_hi = 0.0
        for (i, j), (c_lo, c_hi) in cov.items():
            e = self._entries[i, j]
            p, q, r, s = s_lo[i] * s_lo[j], s_lo[i] * s_hi[j], s_hi[i] * s_lo[j], s_hi[i] * s_hi[j]
            ok = (probe := p + q + r + s) == probe
            ss_lo, ss_hi = (nextafter(min(p, q, r, s), _DOWN), nextafter(max(p, q, r, s), _UP)) if ok else (probe, probe)
            if i == j:
                ss_lo = max(ss_lo, 0.0)
            else:
                c_lo, c_hi = 2.0 * c_lo, 2.0 * c_hi  # exact
            t_lo, t_hi = nextafter(ss_lo + q_lo[e], _DOWN), nextafter(ss_hi + q_hi[e], _UP)
            p, q, r, s = t_lo * c_lo, t_lo * c_hi, t_hi * c_lo, t_hi * c_hi
            ok = (probe := p + q + r + s) == probe
            total_lo = nextafter(total_lo + nextafter(min(p, q, r, s), _DOWN), _DOWN) if ok else probe
            total_hi = nextafter(total_hi + nextafter(max(p, q, r, s), _UP), _UP) if ok else probe
        curv_lo, curv_hi = nextafter(0.5 * total_lo, _DOWN), nextafter(0.5 * total_hi, _UP)
        p, q, r, s = fc_lo * curv_lo, fc_lo * curv_hi, fc_hi * curv_lo, fc_hi * curv_hi
        ok = (probe := p + q + r + s) == probe
        shift_lo, shift_hi = (nextafter(min(p, q, r, s), _DOWN), nextafter(max(p, q, r, s), _UP)) if ok else (probe, probe)

        cube_pad = nextafter(f_hi * h[3], _UP)
        a_lo = nextafter(nextafter(fc_lo + shift_lo, _DOWN) - cube_pad, _DOWN)
        a_hi = nextafter(nextafter(fc_hi + shift_hi, _UP) + cube_pad, _UP)
        return _intersect_range(a_lo, a_hi, f_lo, f_hi)


def _integrand(name: str) -> Integrand:
    rp = ReciprocalProduct(_FACTORS[name])
    return Integrand(
        len(_BOXES[name]),
        enclosure=rp.enclosure,
        value_many=rp.value_many,
        average=rp.average,
        clipped_average=rp.clipped_average,
    )


_INTEGRANDS = {name: _integrand(name) for name in LOSS_NAMES}


def _halfspace(num: AffineForm, den: AffineForm, scale: int, rel: str) -> LinearConstraint:
    """The exact halfspace num(t) - scale * den(t) REL 0."""
    (n0, n), (d0, d) = num, den
    return LinearConstraint(tuple(_F(a) - scale * _F(b) for a, b in zip(n, d)), rel, scale * _F(d0) - _F(n0))


def _nonnegative_form(con: LinearConstraint) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(const, coeffs) of the form g with con equivalent to g >= 0 or g > 0."""
    if con.rel in (">", ">="):
        return -con.bound, con.coeffs
    return con.bound, tuple(-c for c in con.coeffs)


def check_argument_range(region: RegionPredicate, box: Box, arguments) -> tuple[int, ...]:
    """Prove 1 <= N/D <= 2 almost everywhere on region intersect box for every (N, D) argument.

    u <= 2 is a certified zero integral of 1 over region and u > 2.
    Returns the boxes integrated per argument; raises SoundnessError
    when any of the three steps in the module docstring fails.
    """
    if not isinstance(region.tree, AndNode):
        raise SoundnessError(f"{region.name}: argument range check needs a top-level AndNode")
    conjuncts = {_nonnegative_form(c) for c in region.tree.children if isinstance(c, LinearConstraint)}
    zero = (0.0, (0.0,) * len(box))
    one = Integrand(region.arity, enclosure=lambda _: Enclosure(1.0))
    visited = []
    for k, (num, den) in enumerate(arguments):
        # -D > 0 has fraction 0 only when D >= 0 on the whole closed box.
        if _halfspace(zero, den, 1, ">").fraction_bounds(box) != (0.0, 0.0):
            raise SoundnessError(f"{region.name}: denominator of argument {k} not positive over the box")
        if _nonnegative_form(_halfspace(num, den, 1, ">=")) not in conjuncts:
            raise SoundnessError(f"{region.name}: argument {k} >= 1 is not a top-level constraint")
        probe = AndNode(region.tree.children + (_halfspace(num, den, 2, ">"),))
        beyond_two = RegionPredicate(f"{region.name} with argument {k} > 2", region.arity, probe)
        # tol is the smallest positive float: refine until every leaf settles or the budget
        # is spent.  Called through its module: traced runs rebind losses.integrate_rigorous.
        volume = quadrature.integrate_rigorous(one, beyond_two, box, budget=RANGE_LEAF_BUDGET, tol=5e-324)
        if volume.upper != 0.0:
            raise SoundnessError(f"{region.name}: argument {k} <= 2 not certified in {RANGE_LEAF_BUDGET} boxes")
        visited.append(volume.boxes_used)
    return tuple(visited)


def integration_domain(name: str) -> tuple[Integrand, tuple, RegionPredicate, Box]:
    """(integrand, Buchstab arguments as (N, D) forms, region, bounding box) for a loss."""
    if name not in LOSS_NAMES:
        raise ValueError(f"unknown loss {name!r}; expected one of {LOSS_NAMES}")
    return _INTEGRANDS[name], _ARGUMENTS[name], _REGIONS[name], _BOXES[name]


def _run(name: str, budget: int, tol: float) -> IntegralEstimate:
    integrand, _, region, box = integration_domain(name)
    return integrate_rigorous(integrand, region, box, budget=budget, tol=tol)


def loss_mc(name: str, samples: int = 10**7, seed: int = MC_SEED, workers: int = 1) -> IntegralEstimate:
    """Monte Carlo cross-check of a loss integral (uncertified)."""
    integrand, _, region, box = integration_domain(name)
    return integrate_mc(integrand, region, box, samples=samples, seed=seed, workers=workers)


def verified_loss(name: str, budget: int | None = None, tol: float | None = None) -> tuple[IntegralEstimate, int]:
    """Check the argument range, then run a loss and escalate until its target certifies.

    If the certified upper bound exceeds the target and the run was
    exhausted (stopped by its box budget before reaching tol), the
    budget is multiplied by ten and the run repeated, at most twice.  A
    run that reached tol is final: the refinement is deterministic, so
    a larger budget would repeat it box for box.  Returns the final
    estimate and the number of escalations used.
    """
    _, arguments, region, box = integration_domain(name)
    check_argument_range(region, box, arguments)
    budget = DEFAULT_BUDGETS[name] if budget is None else budget
    tol = DEFAULT_TOLS[name] if tol is None else tol
    escalations = 0
    est = _run(name, budget, tol)
    while est.exhausted and est.upper > TARGETS[name] and escalations < MAX_ESCALATIONS:
        escalations += 1
        budget *= 10
        est = _run(name, budget, tol)
    return est, escalations


@dataclass(frozen=True)
class LossLedger:
    """Combined certified budget: three sandwiches and their implied totals."""

    loss_a3: IntegralEstimate
    loss_b3: IntegralEstimate
    loss_c: IntegralEstimate
    total_upper: float
    retained_lower: float
    targets: dict

    def margins(self) -> dict[str, float]:
        return {
            "a3": self.targets["a3"] - self.loss_a3.upper,
            "b3": self.targets["b3"] - self.loss_b3.upper,
            "c": self.targets["c"] - self.loss_c.upper,
            "total": self.targets["total"] - self.total_upper,
            "retained": self.retained_lower - self.targets["retained"],
        }

    def all_within(self, *names: str) -> bool:
        """Whether each named bound (all of them by default) meets its target; only total is strict.

        Losses pass at upper <= target, total at upper < 0.25, retained at lower >= 0.75."""
        margins = self.margins()
        return all(margins[k] > 0.0 if k == "total" else margins[k] >= 0.0 for k in names or margins)


def assemble_ledger(a3: IntegralEstimate, b3: IntegralEstimate, c: IntegralEstimate) -> LossLedger:
    """Combine three certified loss sandwiches into the total budget.

    Refuses Monte Carlo inputs: the ledger is only meaningful when every
    term carries a certified upper bound.
    """
    for name, est in (("a3", a3), ("b3", b3), ("c", c)):
        if est.mode != RIGOROUS:
            raise ValueError(f"ledger requires rigorous estimates, got {est.mode} for {name}")
    total_upper = _up(_up(a3.upper + b3.upper) + c.upper)
    retained_lower = _down(1.0 - total_upper)
    return LossLedger(
        loss_a3=a3,
        loss_b3=b3,
        loss_c=c,
        total_upper=total_upper,
        retained_lower=retained_lower,
        targets=dict(TARGETS),
    )


def __getattr__(name: str):
    """`losses.omega_bound_range`, loaded from buchstab on first access (PEP 562).

    Nothing here calls it; perfbench's traced runs read and rebind it.
    Resolving it lazily keeps buchstab out of every process that only
    certifies the losses.
    """
    if name == "omega_bound_range":
        from .buchstab import omega_bound_range

        return omega_bound_range
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
