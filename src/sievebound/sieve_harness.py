"""Exact integer verification of the sieve decomposition on a dyadic window.

For every integer n in (x, 2x] this module evaluates, with pure integer
arithmetic, each term of the decomposition that the loss integrals bound
asymptotically, and checks the combinatorial identities termwise:

    prime_split:      1_p(n) = S1 - S2 - S3 + S4
    bucket_partition: S4 = S_A + S_T2 + S_B + S_C
    low_chain:        S_A = S_A1 - S_A2 + S_A3
    reversal_chain:   S_B = S_B1 - S_B2 + S_B3

together with the minorant properties of

    rho(n) = 1_p(n) - S_C(n) - dropped_A3(n) - dropped_B3(n).

Notation: z = x^(3/19) is the sieve cut, psi(m, w) = [spf(m) >= w] with
spf(1) treated as infinite, and all weights below are psi-values of
integer cofactors, so every check is exact.

Threshold realizations (all equality cases are impossible for x in
range, by parity or by size, so strict and non-strict agree):

    p >= z                <=>  p >= CZ, CZ = min{v : v^19 >= x^3}
    p <= (2x)^(8/19)      <=>  p^19 <= (2x)^8
    p <  sqrt(2x)         <=>  p^2 < 2x
    pair buckets          by  (p1 p2)^19 against (2x)^8 and (2x)^11,
                          B/C split by p2^38 against (2x)^9
    q p2 > (2x)^(11/19)   <=>  q p2 > TOP11, TOP11 = max{v : v^19 <= (2x)^11}
                          (the reversal chain's first q for each p2)
    grouping window       group_lo <= prod(T) <= group_hi  (x-based), with
                          group_lo = min{v : v^19 >= x^8} and
                          group_hi = max{v : v^19 <= x^11}
    spf table             uint16 entries min(spf(m), 65535), and
                          65535 for m = 1; every threshold compared
                          against the table is at most
                          ceil(sqrt(2x)) <= 1415, so [spf(m) >= t]
                          stays exact, and spf_of maps a capped entry
                          back to m, a prime since 2x < 65536^2

Two evaluation routes share these realizations.  decompose evaluates
one n: each term adds psi(n/d, w) over the term's prime tuples d of n,
with w the term's threshold, and the reversed B chain adds
psi(beta, p3) over the divisors beta of n/(p2 p3), with
q = n/(beta p2 p3).  window_term computes one term on the whole
window: it enumerates the prime tuples d of the term (every cap and
bucket test once per tuple, in exact integers), and for each adds
[spf(m) >= threshold] over the contiguous cofactor range
x/d < m <= 2x/d into the strided slice of the multiples n = d m.  The
reversed B chain enumerates (p2, p3, q) with q <= (2x)^(8/19) and
takes beta = n/(p2 p3 q) as the cofactor; S_B3 and dropped_B3 cap it
at beta <= (2x - 1) // (p4^2 p2 p3) for each prime p4 | q, and
dropped_B3 tests the grouping window on beta.  harness_report builds
each term once and adds it, signed, into every identity residual and
into rho; decompose is the per-n oracle.

Derivation of the identities (each exact for n in (x, 2x], x >= 10^4):

  1_p(n) = [spf(n)^2 >= 2x]: a composite n with spf^2 >= 2x would need a
  second factor >= spf, hence n >= spf^2 >= 2x >= n with equality
  forcing n = 2x = spf^2, impossible by parity.

  The Buchstab step [spf(m) >= w1] = [spf(m) >= w2] + sum over primes
  w1 <= p < w2 of [p | m] psi(m/p, p) applied to S1 at w2 = sqrt(2x)
  gives 1_p = S1 - sum over CZ <= p, p^2 < 2x; the sum splits at
  (2x)^(8/19) into the S3 range (weights psi(n/p, p)) and the low range,
  which a second Buchstab step converts to S2 - S4 with S4 over pairs
  p2 < p1.  The S4 cap p1 p2^2 < 2x is free: a dropped term has
  cofactor m = n/(p1 p2) <= p2, so m = 1 (then n = p1 p2 <=
  (2x)^(16/19) < x, outside the window) or m = p2 (then n = 2x, odd
  times odd, impossible), hence weight zero.

  The A-chain applies two more Buchstab steps to psi(n/(p1 p2), p2) on
  the A-pair list.  The level-3 cap p1 p2 p3^2 < 2x and level-4 cap
  p1 p2 p3 p4^2 < 2x again drop only identically-zero branches: the
  respective cofactors are squeezed to {1, p3} or {1, p4}, the prime
  case forces n = 2x (parity), and the unit case forces
  n <= (2x)^(16/19) < x since p3 p4 < p2^2 <= p1 p2 < (2x)^(8/19).

  The reversal chain rewrites the first B-side Buchstab step, a sum of
  psi(beta, p3) over B-pairs (p1, p2) and p3 | n/(p1 p2) with
  beta = n/(p1 p2 p3), as a sum over (beta, p2, p3) with
  q = n/(beta p2 p3) required to be the prime p1.  With the cap
  q p2 p3^2 < 2x (dropped branches: beta <= p3 forces beta = p3 and
  n = 2x, parity-impossible, or beta = 1 and n = q p2 p3 <=
  (2x)^(34/38) < x for x >= 363, size-impossible), [q prime] equals
  psi(q, sqrt(2x/(beta p2 p3))): the cut exceeds sqrt(q) >= spf of any
  composite q, a square q = a^2 at the cut forces n = 2x (parity), and
  a prime q always clears the cut since q >= 2 > 2x/n.  One Buchstab
  step down from that cut to z, with p4 < cut realized as
  p4^2 beta p2 p3 < 2x, yields S_B2 and S_B3; the cut stays above z
  because q^38 > (2x)^13 on B-pairs.

rho drops the whole C-bucket and the chain terms whose exponent subsets
fit no grouping window; rho <= 1_p holds termwise and rho vanishes
whenever spf(n) < z because every surviving weight requires a cofactor
free of primes below z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .interval import SoundnessError

__all__ = [
    "SieveContext",
    "DecompositionRecord",
    "build_context",
    "psi",
    "decompose",
    "harness_report",
    "window_term",
]

X_MIN = 10**4
X_MAX = 10**6

_INF = 1 << 62  # sentinel spf for 1: larger than any threshold in range
SPF_CAP = np.iinfo(np.uint16).max  # spf table entries saturate here

# A window term exceeding this in absolute value is rejected, as a
# SoundnessError, before it is added, so that an int8 sum of at most five
# terms cannot wrap.
TERM_LIMIT = 25

# Signed terms whose sum is each identity's residual, per n
# (identity_residuals) and over the window (harness_report).
_IDENTITY_FOLDS = {
    "prime_split": (("one_p", 1), ("s1", -1), ("s2", 1), ("s3", 1), ("s4", -1)),
    "bucket_partition": (("s4", 1), ("s_a", -1), ("s_type2", -1), ("s_b", -1), ("s_c", -1)),
    "low_chain": (("s_a", 1), ("s_a1", -1), ("s_a2", 1), ("s_a3", -1)),
    "reversal_chain": (("s_b", 1), ("s_b1", -1), ("s_b2", 1), ("s_b3", -1)),
}
# Signed terms whose sum is rho.
_RHO = (("one_p", 1), ("s_c", -1), ("dropped_a3", -1), ("dropped_b3", -1))

IDENTITY_NAMES = tuple(_IDENTITY_FOLDS)


def _build_spf(limit: int) -> np.ndarray:
    root = math.isqrt(limit)
    prime = np.ones(root + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    spf = np.zeros(limit + 1, dtype=np.uint16)
    # Primes in descending order, so the smallest one is written last.
    for p in np.flatnonzero(prime)[::-1].tolist():
        spf[p * p :: p] = p
    idx = np.flatnonzero(spf == 0)
    spf[idx] = np.minimum(idx, SPF_CAP)
    spf[0] = 0
    spf[1] = SPF_CAP  # spf(1) is infinite; the cap clears every threshold
    return spf


class SieveContext:
    """Precomputed integer thresholds and a smallest-prime-factor table.

    Covers the window (x, 2x].  The spf table is uint16 and costs
    2(2x + 1) bytes, so the largest admissible x = 10^6 needs about
    4 MB.  Entries are min(spf(m), SPF_CAP); spf_of restores the exact
    value, and every threshold compared against the table directly is
    at most ceil(sqrt(2x)) < SPF_CAP.  The prime tuples of the window terms
    are enumerated on first use by window_term and kept with the
    context.
    """

    def __init__(self, x: int):
        if not isinstance(x, int):
            raise TypeError("x must be an integer")
        if not X_MIN <= x <= X_MAX:
            raise ValueError(f"x must lie in [{X_MIN}, {X_MAX}]")
        self.x = x
        self.twox = 2 * x
        self.spf = _build_spf(self.twox)
        self.cut = _min_root_geq(x**3, 19)
        self.pow8 = self.twox**8
        self.pow9 = self.twox**9
        self.pow11 = self.twox**11
        self.root2 = math.isqrt(self.twox - 1) + 1  # min{v : v^2 >= 2x}
        self.top8 = _min_root_geq(self.pow8 + 1, 19) - 1  # max{v : v^19 <= (2x)^8}
        self.top11 = _min_root_geq(self.pow11 + 1, 19) - 1  # max{v : v^19 <= (2x)^11}
        self.group_lo = _min_root_geq(x**8, 19)  # min{v : v^19 >= x^8}
        self.group_hi = _min_root_geq(x**11 + 1, 19) - 1  # max{v : v^19 <= x^11}
        self._tuples: dict[str, list[tuple]] | None = None

    @property
    def z(self) -> float:
        return self.x ** (3.0 / 19.0)

    def spf_of(self, m: int) -> int:
        if m == 1:
            return _INF
        if not 2 <= m <= self.twox:
            raise ValueError(f"m = {m} outside spf table range [1, {self.twox}]")
        p = int(self.spf[m])
        # A capped entry is a prime above the cap: m <= 2x < SPF_CAP^2.
        return m if p == SPF_CAP else p


def _min_root_geq(value: int, k: int) -> int:
    """Smallest integer v with v^k >= value."""
    v = round(value ** (1.0 / k))
    while v**k >= value:
        v -= 1
    while (v + 1) ** k < value:
        v += 1
    return v + 1


def build_context(x: int) -> SieveContext:
    """Sieve the window (x, 2x] and freeze all integer thresholds."""
    return SieveContext(x)


def psi(ctx: SieveContext, m: int, threshold) -> int:
    """[spf(m) >= threshold], with psi(1, anything) = 1."""
    if m < 1:
        raise ValueError("psi is defined for positive integers")
    return 1 if ctx.spf_of(m) >= threshold else 0


def _factorize(ctx: SieveContext, n: int) -> list[list[int]]:
    out: list[list[int]] = []
    m = n
    while m > 1:
        p = ctx.spf_of(m)
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append([p, e])
    return out


@dataclass(frozen=True, slots=True)
class DecompositionRecord:
    """All decomposition terms of a single integer n."""

    n: int
    one_p: int
    s1: int
    s2: int
    s3: int
    s4: int
    s_a: int
    s_type2: int
    s_b: int
    s_c: int
    s_a1: int
    s_a2: int
    s_a3: int
    s_b1: int
    s_b2: int
    s_b3: int
    dropped_a3: int
    dropped_b3: int
    rho: int

    def identity_residuals(self) -> dict[str, int]:
        return {
            name: sum(sign * getattr(self, term) for term, sign in signed)
            for name, signed in _IDENTITY_FOLDS.items()
        }


TERM_NAMES = tuple(f.name for f in fields(DecompositionRecord) if f.name not in ("n", "rho"))


def _groupable(ctx: SieveContext, parts: tuple[int, ...]) -> bool:
    """True when some nonempty sub-product lands in [group_lo, group_hi], the grouping window."""
    n_parts = len(parts)
    for mask in range(1, 1 << n_parts):
        prod = 1
        for i in range(n_parts):
            if mask >> i & 1:
                prod *= parts[i]
        if ctx.group_lo <= prod <= ctx.group_hi:
            return True
    return False


def _pair_bucket(ctx: SieveContext, p1: int, p2: int) -> str:
    """The bucket term of the prime pair p2 < p1: s_a, s_type2, s_b or s_c."""
    pair_pow = (p1 * p2) ** 19
    if pair_pow < ctx.pow8:
        return "s_a"
    if pair_pow <= ctx.pow11:
        return "s_type2"
    p2_split = p2**38
    if p2_split == ctx.pow9:
        # Then 2x = t^38 and p2 = t^9 for an integer t, which no prime p2 is.
        raise SoundnessError("impossible equality p2^38 = (2x)^9")
    return "s_b" if p2_split < ctx.pow9 else "s_c"


def _divisors(ctx: SieveContext, m: int) -> list[int]:
    """Every divisor of m, 1 and m included."""
    divs = [1]
    for p, e in _factorize(ctx, m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def decompose(ctx: SieveContext, n: int) -> DecompositionRecord:
    """Evaluate every decomposition term for one integer, exactly.

    Each term counts the prime tuples d of n that pass its caps and
    bucket tests, weighted by psi(n/d, w) with w the term's threshold.
    The reversed B chain runs over (p2, p3), over the divisors beta of
    n/(p2 p3) with psi(beta, p3), and over the primes p4 of
    q = n/(beta p2 p3): the module docstring's sum of psi(beta, p3).
    """
    if not ctx.x < n <= ctx.twox:
        raise ValueError(f"n = {n} outside the window ({ctx.x}, {ctx.twox}]")
    twox, cz = ctx.twox, ctx.cut
    qual = [p for p, _ in _factorize(ctx, n) if p >= cz]  # ascending

    terms = dict.fromkeys(TERM_NAMES, 0)
    terms["one_p"] = psi(ctx, n, ctx.root2)
    terms["s1"] = psi(ctx, n, cz)
    for p in qual:
        if p**19 <= ctx.pow8:
            terms["s2"] += psi(ctx, n // p, cz)
        elif p * p < twox:
            terms["s3"] += psi(ctx, n // p, p)

    for p1 in qual:
        if p1**19 > ctx.pow8:
            break
        for p2 in qual:
            if p2 >= p1 or p1 * p2 * p2 >= twox:
                break
            d = p1 * p2
            bucket = _pair_bucket(ctx, p1, p2)
            weight = psi(ctx, n // d, p2)
            terms["s4"] += weight
            terms[bucket] += weight
            if bucket == "s_b":
                terms["s_b1"] += psi(ctx, n // d, cz)
            if bucket != "s_a":
                continue
            # A-side chain: two further Buchstab steps over the pair.
            terms["s_a1"] += psi(ctx, n // d, cz)
            for p3 in qual:
                if p3 >= p2 or d * p3 * p3 >= twox:
                    break
                terms["s_a2"] += psi(ctx, n // (d * p3), cz)
                for p4 in qual:
                    if p4 >= p3 or d * p3 * p4 * p4 >= twox:
                        break
                    if psi(ctx, n // (d * p3 * p4), p4):
                        terms["s_a3"] += 1
                        if not _groupable(ctx, (p1, p2, p3)) and not _groupable(ctx, (p1, p2, p3, p4)):
                            terms["dropped_a3"] += 1

    # Reversed B-side chain: the forward pair prime p1 reappears as q.
    for p2 in qual:
        if p2**38 >= ctx.pow9:
            break
        for p3 in qual:
            if p3 >= p2:
                break
            for beta in _divisors(ctx, n // (p2 * p3)):
                if not psi(ctx, beta, p3):
                    continue
                q = n // (beta * p2 * p3)
                if q <= p2 or q**19 > ctx.pow8 or (q * p2) ** 19 <= ctx.pow11:
                    continue
                if q * p2 * p2 >= twox or q * p2 * p3 * p3 >= twox:
                    continue
                terms["s_b2"] += psi(ctx, q, cz)
                for p4, _ in _factorize(ctx, q):
                    if p4 < cz or p4 * p4 * beta * p2 * p3 >= twox:
                        continue
                    if psi(ctx, q // p4, p4):
                        terms["s_b3"] += 1
                        if not _groupable(ctx, (q, p2, p3)) and not _groupable(ctx, (beta, p2, p3, p4)):
                            terms["dropped_b3"] += 1

    rho = sum(sign * terms[name] for name, sign in _RHO)
    return DecompositionRecord(n=n, **terms, rho=rho)


# ------------------------------------------------------------ window terms


def _groupable_cofactors(ctx: SieveContext, beta: np.ndarray, parts: tuple[int, ...]) -> np.ndarray:
    """_groupable((b,) + parts) for every b in the int64 array beta."""
    if _groupable(ctx, parts):
        return np.ones(beta.shape, dtype=bool)
    out = np.zeros(beta.shape, dtype=bool)
    for mask in range(1 << len(parts)):
        sub = math.prod(parts[i] for i in range(len(parts)) if mask >> i & 1)
        prod = beta * sub
        out |= (prod >= ctx.group_lo) & (prod <= ctx.group_hi)
    return out


def _sieve_primes(ctx: SieveContext) -> list[int]:
    """Primes p with CZ <= p < sqrt(2x): every prime a tuple can hold."""
    head = ctx.spf[: ctx.root2]
    return [int(p) for p in np.flatnonzero(head == np.arange(ctx.root2)) if p >= ctx.cut]


# A tuple item (term, d, threshold, cap, parts) stands for the weights
# [spf(m) >= threshold] at n = d m, over the cofactors x/d < m <= 2x/d
# with m <= cap, minus the m for which (m,) + parts is groupable when
# parts is given.


def _single_chain(ctx: SieveContext, primes: list[int]) -> Iterator[tuple]:
    yield "one_p", 1, ctx.root2, None, None
    yield "s1", 1, ctx.cut, None, None
    for p in primes:  # each p^2 < 2x
        if p**19 <= ctx.pow8:
            yield "s2", p, ctx.cut, None, None
        else:
            yield "s3", p, p, None, None


def _pair_chain(ctx: SieveContext, primes: list[int]) -> Iterator[tuple]:
    twox, cz = ctx.twox, ctx.cut
    for p1 in primes:
        if p1**19 > ctx.pow8:
            break
        for p2 in primes:
            if p2 >= p1 or p1 * p2 * p2 >= twox:
                break
            d = p1 * p2
            bucket = _pair_bucket(ctx, p1, p2)
            yield "s4", d, p2, None, None
            yield bucket, d, p2, None, None
            if bucket == "s_b":
                yield "s_b1", d, cz, None, None
            if bucket != "s_a":
                continue
            yield "s_a1", d, cz, None, None
            for p3 in primes:
                if p3 >= p2 or d * p3 * p3 >= twox:
                    break
                yield "s_a2", d * p3, cz, None, None
                for p4 in primes:
                    if p4 >= p3 or d * p3 * p4 * p4 >= twox:
                        break
                    yield "s_a3", d * p3 * p4, p4, None, None
                    if not _groupable(ctx, (p1, p2, p3)) and not _groupable(ctx, (p1, p2, p3, p4)):
                        yield "dropped_a3", d * p3 * p4, p4, None, None


def _reversal_chain(ctx: SieveContext, primes: list[int]) -> Iterator[tuple]:
    """The reversed B chain's tuples, for p2 ascending, then p3, then q.

    q runs over p2 < q <= TOP8 with (q p2)^19 > (2x)^11, that is
    q > TOP11 // p2, and q p2^2 < 2x; each q's test [spf(q) >= CZ] and
    its primes p4 (CZ <= p4, spf(q / p4) >= p4) are computed once per
    call, which `_term_tuples` makes once per context.
    """
    twox, cz = ctx.twox, ctx.cut
    factors: dict[int, tuple[bool, list[int]]] = {}
    for p2 in primes:
        if p2**38 >= ctx.pow9:
            break
        qs = []
        for q in range(max(p2 + 1, ctx.top11 // p2 + 1), ctx.top8 + 1):
            if q * p2 * p2 >= twox:
                break
            if q not in factors:
                p4s = [p4 for p4, _ in _factorize(ctx, q) if p4 >= cz and ctx.spf_of(q // p4) >= p4]
                factors[q] = ctx.spf_of(q) >= cz, p4s
            qs.append((q, *factors[q]))
        for p3 in primes:
            if p3 >= p2:
                break
            for q, rough, p4s in qs:
                if q * p2 * p3 * p3 >= twox:
                    break
                d = q * p2 * p3
                if rough:
                    yield "s_b2", d, p3, None, None
                if not p4s:
                    continue
                ungroupable = not _groupable(ctx, (q, p2, p3))
                for p4 in p4s:
                    cap = (twox - 1) // (p4 * p4 * p2 * p3)
                    yield "s_b3", d, p3, cap, None
                    if ungroupable:
                        yield "dropped_b3", d, p3, cap, (p2, p3, p4)


def _term_tuples(ctx: SieveContext) -> dict[str, list[tuple]]:
    """Each term's tuple items (d, threshold, cap, parts), built once per context."""
    if ctx._tuples is None:
        primes = _sieve_primes(ctx)
        tuples: dict[str, list[tuple]] = {name: [] for name in TERM_NAMES}
        for chain in (_single_chain, _pair_chain, _reversal_chain):
            for name, *item in chain(ctx, primes):
                tuples[name].append(item)
        ctx._tuples = tuples
    return ctx._tuples


def window_term(ctx: SieveContext, name: str) -> np.ndarray:
    """One DecompositionRecord term over the window, as int8 indexed by n - x - 1.

    Every tuple test runs once per prime tuple in exact integers; the
    cofactors m of a tuple's d form a contiguous range whose multiples
    d m are the strided slice term[d lo - x - 1 :: d].  A term counts
    the tuples of one n, at most 14 anywhere in the x = 10^6 window, far
    inside int8; harness_report still bounds each term by TERM_LIMIT.
    """
    if name not in TERM_NAMES:
        raise ValueError(f"unknown window term {name!r}")
    x, twox = ctx.x, ctx.twox
    term = np.zeros(x, dtype=np.int8)
    for d, threshold, cap, parts in _term_tuples(ctx)[name]:
        lo = x // d + 1
        hi = twox // d if cap is None else min(cap, twox // d)
        if hi < lo:
            continue
        hit = ctx.spf[lo : hi + 1] >= threshold
        if parts is not None:
            hit &= ~_groupable_cofactors(ctx, np.arange(lo, hi + 1, dtype=np.int64), parts)
        term[d * lo - x - 1 : d * hi - x : d] += hit
    return term


# Window term -> report key, for the window totals besides rho.
_TOTALS = {
    "one_p": "primes",
    "s_c": "S_C",
    "dropped_a3": "dropped_A3",
    "dropped_b3": "dropped_B3",
}

# Window term -> (identity name or "rho", sign) for every sum it enters.
_SIGNS = {
    term: [
        (target, sign)
        for target, signed in (*_IDENTITY_FOLDS.items(), ("rho", _RHO))
        for t, sign in signed
        if t == term
    ]
    for term in TERM_NAMES
}


def harness_report(ctx: SieveContext) -> dict:
    """Scan the window (x, 2x] once and return a JSON-ready summary.

    Each window term is built once and added with its sign into every
    identity residual and into rho that it enters.  Violations are
    counted per n and expected to be zero: each identity with a nonzero
    residual, the minorant rho > 1_p (which covers rho > 1, since
    1_p <= 1), and the support rho != 0 with spf(n) < z.  The ratios
    divide sum(rho) by the window length after multiplying by log of
    the representative size: the window midpoint scale 1.5x, and the
    base scale x for comparison.
    """
    totals = dict.fromkeys(("rho", *_TOTALS.values()), 0)
    sums = {name: np.zeros(ctx.x, dtype=np.int8) for name in (*IDENTITY_NAMES, "rho")}
    for name in TERM_NAMES:
        term = window_term(ctx, name)
        if term.max() > TERM_LIMIT or term.min() < -TERM_LIMIT:
            raise SoundnessError(f"window term {name} leaves [-{TERM_LIMIT}, {TERM_LIMIT}]")
        if name in _TOTALS:
            totals[_TOTALS[name]] = int(term.sum(dtype=np.int64))
        if name == "one_p":
            one_p = term
        for target, sign in _SIGNS[name]:
            if sign > 0:
                sums[target] += term
            else:
                sums[target] -= term
    rho = sums.pop("rho")
    # Popped, so that each residual is freed once it is counted.
    identity = {name: int(np.count_nonzero(sums.pop(name))) for name in IDENTITY_NAMES}
    minorant = int(np.count_nonzero(rho > one_p))
    support = int(np.count_nonzero((rho != 0) & (ctx.spf[ctx.x + 1 :] < ctx.cut)))
    sum_rho = totals["rho"] = int(rho.sum(dtype=np.int64))
    min_rho = int(rho.min())
    identity_total = sum(identity.values())
    return {
        "x": ctx.x,
        "checked": ctx.x,
        "violations": {
            "identity": identity_total,
            "identity_detail": identity,
            "minorant": minorant,
            "support": support,
        },
        "totals": totals,
        "min_rho": min_rho,
        "ratios": {
            "window_log": sum_rho * math.log(1.5 * ctx.x) / ctx.x,
            "base_log": sum_rho * math.log(ctx.x) / ctx.x,
        },
        "clean": identity_total == 0 and minorant == 0 and support == 0,
    }
