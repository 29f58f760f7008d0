"""Step-by-step reference forms of the fused per-leaf value kernels.

`ReciprocalProduct.average` and `clipped_average` walk their factor
table once, with every product written out; `LinearConstraint._moments`
writes out its sums for one and two open terms.  The functions here are
the same forms built from one helper per step (an interval product, the
centre slopes, one Hessian entry, the spreads), and the moments from the
subset walk alone.  They make the same IEEE operations in the same order,
so the tests expect bit-identical results and the same exceptions from
both (`test_reference_kernels.py`).  They read the kernel's factor bounds
through `ReciprocalProduct._factor_bounds`, so a test that patches that
seam changes both alike.

`plain_mask` is the float point mask without its conjunction walk: every
constraint of a region tree tested on every row, the oracle for
`RegionPredicate.mask` (`test_regions.py`).
"""

from __future__ import annotations

import math
import operator
from math import nextafter

import numpy as np

from sievebound.interval import _DOWN, _UP, Enclosure, SoundnessError
from sievebound.regions import AndNode, LinearConstraint


def mul(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    """Outward-rounded interval product [alo, ahi] * [blo, bhi]; a NaN product makes both ends NaN."""
    p, q, r, s = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    probe = p + q + r + s
    if probe != probe:
        return probe, probe
    return nextafter(min(p, q, r, s), _DOWN), nextafter(max(p, q, r, s), _UP)


def complete(rhos: list[float], n: int) -> list[float]:
    """Upper bounds [h_0, ..., h_n] on the complete homogeneous symmetric polynomials of nonnegative rhos."""
    h = [1.0] + [0.0] * n
    for rho in rhos:
        for m in range(1, n + 1):
            h[m] = nextafter(h[m] + nextafter(rho * h[m - 1], _UP), _UP)
    return h


def reciprocal_bounds(factors: list[tuple[float, float]]) -> tuple[float, float]:
    """Outward bounds on 1 / prod of positive factor bounds."""
    p_lo = p_hi = 1.0
    for lo, hi in factors:
        p_lo = nextafter(p_lo * lo, _DOWN)
        p_hi = nextafter(p_hi * hi, _UP)
    return nextafter(1.0 / p_hi, _DOWN), nextafter(1.0 / p_lo, _UP)


def factor_spreads(rp, ls: list[tuple[float, float]], widths: list[float]) -> list[float]:
    """Upper bounds on sum_i |a_ki| w_i / L_k,lo, one per factor k, for factor bounds ls and side bounds widths."""
    spreads = []
    for (_, coeffs), (lo, _) in zip(rp.factors, ls):
        num = 0.0
        for i, a in enumerate(coeffs):
            if a:
                num = nextafter(num + nextafter(abs(a) * widths[i], _UP), _UP)
        spreads.append(nextafter(num / lo, _UP))
    return spreads


def centre_slopes(rp, at_centre: list[tuple[float, float]]) -> tuple[list[dict], list[tuple[float, float]]]:
    """(x, slopes): x[i][k] bounds a_ki / L_k(c) in factor order, and slopes[i] bounds S_i(c) = sum_k x[i][k]."""
    x = [{} for _ in rp.factors[0][1]]
    for k, ((_, coeffs), (lo, hi)) in enumerate(zip(rp.factors, at_centre)):
        v_lo, v_hi = nextafter(1.0 / hi, _DOWN), nextafter(1.0 / lo, _UP)
        for i, a in enumerate(coeffs):
            if not a:
                continue
            if a > 0.0:
                x[i][k] = nextafter(a * v_lo, _DOWN), nextafter(a * v_hi, _UP)
            else:
                x[i][k] = nextafter(a * v_hi, _DOWN), nextafter(a * v_lo, _UP)
    slopes = []
    for row in x:
        s_lo = s_hi = 0.0
        for x_lo, x_hi in row.values():
            s_lo = nextafter(s_lo + x_lo, _DOWN)
            s_hi = nextafter(s_hi + x_hi, _UP)
        slopes.append((s_lo, s_hi))
    return x, slopes


def hessian_entry(x: list[dict], slopes: list[tuple[float, float]], i: int, j: int) -> tuple[float, float]:
    """Bounds on (S_i S_j + Q_ij)(c), Q_ij = sum_k x[i][k] x[j][k] (see `centre_slopes`)."""
    ss_lo, ss_hi = mul(*slopes[i], *slopes[j])
    if i == j:
        ss_lo = max(ss_lo, 0.0)
    q_lo = q_hi = 0.0
    for k, (a_lo, a_hi) in x[i].items():
        if k in x[j]:
            p_lo, p_hi = mul(a_lo, a_hi, *x[j][k])
            q_lo = nextafter(q_lo + p_lo, _DOWN)
            q_hi = nextafter(q_hi + p_hi, _UP)
    return nextafter(ss_lo + q_lo, _DOWN), nextafter(ss_hi + q_hi, _UP)


def within_range(a_lo: float, a_hi: float, f_lo: float, f_hi: float) -> Enclosure:
    """Mean-value bounds, checked finite and ordered, intersected with the value range [f_lo, f_hi]."""
    if not (math.isfinite(a_lo) and math.isfinite(a_hi) and a_lo <= a_hi):
        raise SoundnessError(f"mean-value bounds [{a_lo}, {a_hi}] not finite and ordered")
    return Enclosure(a_lo, a_hi).intersect(Enclosure(f_lo, f_hi))


def average(rp, box) -> Enclosure:
    """`ReciprocalProduct.average`, step by step."""
    ls = rp._factor_bounds(box)
    f_lo, f_hi = reciprocal_bounds(ls)
    centre = tuple((lo + hi) * 0.5 for lo, hi in box)
    at_centre = rp._factor_bounds(tuple((nextafter(c, _DOWN), nextafter(c, _UP)) for c in centre))
    fc_lo, fc_hi = reciprocal_bounds(at_centre)
    x, slopes = centre_slopes(rp, at_centre)
    widths = [nextafter(hi - lo, _UP) for lo, hi in box]
    curv_lo = curv_hi = 0.0
    for i, (lo, hi) in enumerate(box):
        t_lo, t_hi = hessian_entry(x, slopes, i, i)
        w_lo = nextafter(hi - lo, _DOWN)
        w_sq = nextafter(widths[i] * widths[i], _UP)
        rr_lo = nextafter(nextafter(w_lo * w_lo, _DOWN) / 24.0, _DOWN)
        rr_hi = nextafter(w_sq / 24.0, _UP)
        curv_lo = nextafter(curv_lo + nextafter(t_lo * rr_lo, _DOWN), _DOWN)
        curv_hi = nextafter(curv_hi + nextafter(t_hi * rr_hi, _UP), _UP)
    h4 = complete(factor_spreads(rp, ls, widths), 4)[4]
    pad = nextafter(nextafter(f_hi * h4, _UP) / 16.0, _UP)
    mid_lo = nextafter(fc_lo + nextafter(fc_lo * curv_lo, _DOWN), _DOWN)
    mid_hi = nextafter(fc_hi + nextafter(fc_hi * curv_hi, _UP), _UP)
    return within_range(nextafter(mid_lo - pad, _DOWN), nextafter(mid_hi + pad, _UP), f_lo, f_hi)


def clipped_average(rp, box, centre, cov) -> Enclosure:
    """`ReciprocalProduct.clipped_average`, step by step."""
    ls = rp._factor_bounds(box)
    f_lo, f_hi = reciprocal_bounds(ls)
    at_centre = rp._factor_bounds(centre)
    fc_lo, fc_hi = reciprocal_bounds(at_centre)
    x, slopes = centre_slopes(rp, at_centre)
    total_lo = total_hi = 0.0
    for (i, j), (c_lo, c_hi) in cov.items():
        if i != j:
            c_lo, c_hi = 2.0 * c_lo, 2.0 * c_hi
        t_lo, t_hi = mul(*hessian_entry(x, slopes, i, j), c_lo, c_hi)
        total_lo, total_hi = nextafter(total_lo + t_lo, _DOWN), nextafter(total_hi + t_hi, _UP)
    curv_lo, curv_hi = nextafter(0.5 * total_lo, _DOWN), nextafter(0.5 * total_hi, _UP)
    shift_lo, shift_hi = mul(fc_lo, fc_hi, curv_lo, curv_hi)
    reach = [nextafter(max(c_hi - lo, hi - c_lo), _UP) for (lo, hi), (c_lo, c_hi) in zip(box, centre)]
    h = complete(factor_spreads(rp, ls, reach), 3)
    cube_pad = nextafter(f_hi * h[3], _UP)
    a_lo = nextafter(nextafter(fc_lo + shift_lo, _DOWN) - cube_pad, _DOWN)
    a_hi = nextafter(nextafter(fc_hi + shift_hi, _UP) + cube_pad, _UP)
    return within_range(a_lo, a_hi, f_lo, f_hi)


def moments(con, grid):
    """`LinearConstraint._moments` by the subset walk for every number of open terms."""
    scale, ends = grid
    y = con._ibound * scale
    dims = []
    for i, c in con._terms:
        a, b = ends[i]
        y -= c * a if c > 0 else c * b
        beta = abs(c) * (b - a)
        if beta:
            dims.append((i, c, beta))
    betas = [beta for _, _, beta in dims]
    if not 0 < y < sum(betas):
        raise ValueError("the halfspace does not cut the box")
    m = len(dims)
    slacks = [(y, 1, 0)]
    for j, beta in enumerate(betas):
        slacks += [(s - beta, -sign, mask | 1 << j) for s, sign, mask in slacks if s > beta]
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    z0 = z1 = z2 = 0
    one0, one1 = [0] * m, [0] * m
    two0 = [0] * len(pairs)
    for s, sign, mask in slacks:
        w0 = sign * s**m
        w1 = w0 * s
        z0 += w0
        z1 += w1
        z2 += w1 * s
        if mask:
            for j in range(m):
                if mask >> j & 1:
                    one0[j] += w0
                    one1[j] += w1
            for p, (j, k) in enumerate(pairs):
                if mask >> j & mask >> k & 1:
                    two0[p] += w0
    n1, n2 = m + 2, (m + 2) * (m + 1)
    mom0 = n2 * z0
    complement = con.rel in (">", ">=")
    if complement:
        whole = math.factorial(m + 2) * math.prod(betas)
        mom0 = 12 * (whole - mom0)
    centre = [(a + b, 2 * scale) for a, b in ends]
    covariance = {(i, i): ((b - a) ** 2, 12 * scale * scale) for i, (a, b) in enumerate(ends)}
    norm = (mom0 * scale) ** 2
    mom1 = []
    for j, (i, c, beta) in enumerate(dims):
        num = n1 * z1 + n2 * beta * one0[j]
        square = 2 * z2 + 2 * n1 * beta * one1[j] + n2 * beta * beta * one0[j]
        if complement:
            num = 6 * whole * beta - 12 * num
            square = 4 * whole * beta * beta - 12 * square
        mom1.append(num)
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


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def plain_mask(node, pts: np.ndarray) -> np.ndarray:
    """Float membership of the rows of a C-contiguous array in a region tree, every child tested on every row.

    A constraint compares the dot product of each row with its
    coefficients rounded to floats against its bound rounded to a float.
    """
    if isinstance(node, LinearConstraint):
        return _COMPARE[node.rel](pts @ np.array([float(c) for c in node.coeffs]), float(node.bound))
    conjunction = isinstance(node, AndNode)
    out = np.full(len(pts), conjunction)
    for child in node.children:
        mask = plain_mask(child, pts)
        out = out & mask if conjunction else out | mask
    return out
