"""Tests for the exact integer window scan.

Every oracle here is independent of the decomposition code: trial
division for factorizations and primality, an in-test prime sieve for
pair enumeration, and closed-form threshold arithmetic.  Window totals
frozen from a full scan at x = 10^4 (sum rho = 875, S_C = 158) and at
x = 10^6 act as regression anchors after their components have been
verified against the independent routes.  The per-n decompose is in
turn the oracle for the window terms that harness_report folds.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from sievebound import sieve_harness as sh
from sievebound.interval import SoundnessError
from sievebound.regions import REGION_A, REGION_B, REGION_C, TYPE_II_STRIP

_BIG = 1 << 62


def trial_spf(m: int) -> int:
    if m == 1:
        return _BIG
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def trial_factor(m: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def primes_upto(lim: int) -> list[int]:
    sieve = bytearray([1]) * (lim + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(lim) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, lim + 1) if sieve[i]]


@pytest.fixture(scope="module")
def ctx(harness_1e4):
    return harness_1e4


@pytest.fixture(scope="module")
def ctx_1e5():
    return sh.build_context(10**5)


@pytest.fixture(scope="module")
def ctx_1e6():
    return sh.build_context(10**6)


class TestContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            sh.build_context(9999)
        with pytest.raises(ValueError):
            sh.build_context(10**6 + 1)
        with pytest.raises(ValueError):
            sh.build_context(10**8 + 1)
        with pytest.raises(TypeError):
            sh.build_context(1e5)

    def test_thresholds(self, ctx):
        assert ctx.cut == 5
        assert ctx.cut**19 >= ctx.x**3 > (ctx.cut - 1) ** 19
        assert abs(ctx.z - (10**4) ** (3.0 / 19.0)) < 1e-12

    def test_cut_at_exact_power(self):
        # 524288 = 2^19, so x^(3/19) = 8 exactly and the cut includes it.
        ctx = sh.build_context(524288)
        assert ctx.cut == 8

    def test_spf_table(self, ctx):
        assert ctx.spf_of(4) == 2
        assert ctx.spf_of(77) == 7
        assert ctx.spf_of(97) == 97
        assert ctx.spf_of(1) == _BIG
        with pytest.raises(ValueError):
            ctx.spf_of(0)
        with pytest.raises(ValueError):
            ctx.spf_of(2 * 10**4 + 1)
        rng = random.Random(20240801)
        for _ in range(300):
            m = rng.randint(2, 2 * 10**4)
            assert ctx.spf_of(m) == trial_spf(m)
        assert ctx.spf.dtype == np.uint16
        assert ctx.spf[1] == sh.SPF_CAP  # psi(1, t) = 1 read from the table
        assert ctx.spf.nbytes == 2 * (2 * 10**4 + 1)

    def test_spf_above_cap(self, ctx_1e5, ctx_1e6):
        """Table entries saturate at SPF_CAP; spf_of and _factorize stay exact."""
        assert sh.SPF_CAP == 65535
        for m, ctx in ((65537, ctx_1e5), (3 * 65537, ctx_1e5), (1999993, ctx_1e6)):
            assert ctx.spf_of(m) == trial_spf(m)
            assert sh._factorize(ctx, m) == [list(pe) for pe in trial_factor(m)]
        assert ctx_1e5.spf[65537] == sh.SPF_CAP
        assert ctx_1e6.spf[1999993] == sh.SPF_CAP
        assert ctx_1e5.spf_of(65537) == 65537
        assert ctx_1e6.spf_of(1999993) == 1999993
        assert sh._factorize(ctx_1e5, 3 * 65537) == [[3, 1], [65537, 1]]

    @pytest.mark.parametrize("x", [10**4, 10**5, 10**6])
    def test_spf_matches_masked_sieve(self, x):
        """The table equals a masked sieve that writes each entry once, smallest prime first."""
        limit = 2 * x
        oracle = np.zeros(limit + 1, dtype=np.uint16)
        for p in range(2, math.isqrt(limit) + 1):
            if oracle[p] == 0:
                sl = oracle[p * p :: p]
                sl[sl == 0] = p
        idx = np.flatnonzero(oracle == 0)
        oracle[idx] = np.minimum(idx, sh.SPF_CAP)
        oracle[0] = 0
        oracle[1] = sh.SPF_CAP
        table = sh._build_spf(limit)
        assert table.dtype == oracle.dtype
        assert np.array_equal(table, oracle)

    def test_psi(self, ctx):
        assert sh.psi(ctx, 77, 7) == 1
        assert sh.psi(ctx, 30, 3) == 0
        assert sh.psi(ctx, 1, 10**9) == 1
        with pytest.raises(ValueError):
            sh.psi(ctx, 0, 2)


class TestDecompose:
    def test_window_bounds(self, ctx):
        with pytest.raises(ValueError):
            sh.decompose(ctx, ctx.x)
        with pytest.raises(ValueError):
            sh.decompose(ctx, 2 * ctx.x + 1)

    def test_identities_on_sample(self, ctx):
        rng = random.Random(20240801)
        for n in rng.sample(range(ctx.x + 1, 2 * ctx.x + 1), 400):
            rec = sh.decompose(ctx, n)
            assert all(v == 0 for v in rec.identity_residuals().values()), n

    def test_prime_indicator_oracle(self, ctx):
        rng = random.Random(31)
        for n in rng.sample(range(ctx.x + 1, 2 * ctx.x + 1), 400):
            rec = sh.decompose(ctx, n)
            s = trial_spf(n)
            assert rec.one_p == (1 if s * s >= 2 * ctx.x else 0)
            assert rec.s1 == (1 if s >= ctx.cut else 0)

    def test_pair_terms_oracle(self, ctx):
        """Pair sums recomputed from scratch with trial division."""
        twox = 2 * ctx.x
        rng = random.Random(47)
        for n in rng.sample(range(ctx.x + 1, twox + 1), 250):
            fac = trial_factor(n)
            qual = [p for p, _ in fac if p >= ctx.cut]
            s4 = sa = st = sb = sc = 0
            for p1 in qual:
                if p1**19 > ctx.pow8:
                    continue
                for p2 in qual:
                    if p2 >= p1 or p1 * p2 * p2 >= twox:
                        continue
                    if trial_spf(n // (p1 * p2)) < p2:
                        continue
                    s4 += 1
                    v = (p1 * p2) ** 19
                    if v < ctx.pow8:
                        sa += 1
                    elif v <= ctx.pow11:
                        st += 1
                    elif p2**38 < ctx.pow9:
                        sb += 1
                    else:
                        sc += 1
            rec = sh.decompose(ctx, n)
            assert (rec.s4, rec.s_a, rec.s_type2, rec.s_b, rec.s_c) == (
                s4,
                sa,
                st,
                sb,
                sc,
            ), n

    @pytest.mark.parametrize("window", ["ctx", "ctx_1e6"])
    def test_reversal_against_forward_route(self, window, request):
        """s_b2 - s_b3 equals the forward middle sum over (p1, p2, p3).

        The reversed enumeration indexes the same terms by the cofactor
        decomposition n = q beta p2 p3; computing the middle Buchstab
        sum forwards, with psi weights on beta, must give the identical
        per-n difference.  The x = 10^6 window is where S_B3 and
        dropped_B3 are richest.

        Besides 400 seeded n, every n of the S_B1 support is checked: an
        n with a term of either sum factors as p1 p2 p3 beta over an S_B
        pair (p1, p2) with n/(p1 p2) free of primes below cz, and so does
        every n where a weaker weight on beta (psi(beta, cz) in place of
        psi(beta, p3)) would add one.  That support holds 5,835 n at 10^6.
        """
        ctx = request.getfixturevalue(window)
        twox = 2 * ctx.x
        rng = random.Random(53)
        support = (np.flatnonzero(sh.window_term(ctx, "s_b1")) + ctx.x + 1).tolist()
        for n in sorted(set(support).union(rng.sample(range(ctx.x + 1, twox + 1), 400))):
            fac = trial_factor(n)
            qual = [p for p, _ in fac if p >= ctx.cut]
            forward = 0
            for p1 in qual:
                if p1**19 > ctx.pow8:
                    continue
                for p2 in qual:
                    if p2 >= p1 or p1 * p2 * p2 >= twox:
                        continue
                    v = (p1 * p2) ** 19
                    if not (v > ctx.pow11 and p2**38 < ctx.pow9):
                        continue
                    for p3 in qual:
                        if p3 >= p2 or p1 * p2 * p3 * p3 >= twox:
                            continue
                        beta = n // (p1 * p2 * p3)
                        if trial_spf(beta) >= p3:
                            forward += 1
            rec = sh.decompose(ctx, n)
            assert rec.s_b2 - rec.s_b3 == forward, n

    def test_groupable_thresholds(self, ctx):
        assert sh._groupable(ctx, (50,))
        assert not sh._groupable(ctx, (48,))
        assert sh._groupable(ctx, (48, 3))
        assert not sh._groupable(ctx, (2, 3))
        x8, x11 = ctx.x**8, ctx.x**11
        assert 48**19 < x8 <= 50**19 <= x11
        # group_lo and group_hi are the exact integer 19th-root bounds of the window.
        assert (ctx.group_lo - 1) ** 19 < x8 <= ctx.group_lo**19
        assert ctx.group_hi**19 <= x11 < (ctx.group_hi + 1) ** 19


@pytest.fixture(scope="module")
def report(ctx):
    return sh.harness_report(ctx)


class TestWindowScan:
    def test_identity_report_clean(self, report):
        assert report["clean"]
        assert report["violations"]["identity"] == 0
        assert report["violations"]["identity_detail"] == {name: 0 for name in sh.IDENTITY_NAMES}

    def test_minorant_report_clean(self, report):
        assert report["violations"]["minorant"] == 0
        assert report["violations"]["support"] == 0
        assert -2 <= report["min_rho"] <= 0

    def test_prime_count_oracle(self, ctx, report):
        """Window prime count from an independent byte sieve."""
        ps = primes_upto(2 * ctx.x)
        expected = sum(1 for p in ps if p > ctx.x)
        assert report["totals"]["primes"] == expected == 1033

    def test_sc_total_oracle(self, ctx, report):
        """Sum-driven S_C total: enumerate pairs, count their multiples."""
        twox = 2 * ctx.x
        total = 0
        ps = [p for p in primes_upto(math.isqrt(twox) * 40) if p >= ctx.cut]
        for p1 in ps:
            if p1**19 > ctx.pow8:
                continue
            for p2 in ps:
                if p2 >= p1 or p1 * p2 * p2 >= twox:
                    continue
                v = (p1 * p2) ** 19
                if v <= ctx.pow11 or p2**38 < ctx.pow9:
                    continue
                pq = p1 * p2
                for k in range(ctx.x // pq + 1, twox // pq + 1):
                    if sh.psi(ctx, k, p2):
                        total += 1
        assert total == report["totals"]["S_C"] == 158

    def test_frozen_window_totals(self, report):
        assert report["clean"]
        assert report["checked"] == 10**4
        assert report["totals"]["rho"] == 875
        assert report["totals"]["primes"] == 1033
        assert report["totals"]["dropped_A3"] == 0
        assert report["totals"]["dropped_B3"] == 0
        assert report["ratios"]["window_log"] == pytest.approx(
            875 * math.log(1.5 * 10**4) / 10**4, rel=1e-12
        )

    def test_offbeat_window(self):
        """A non-round window base exercises the same exactness paths."""
        ctx = sh.build_context(12345)
        report = sh.harness_report(ctx)
        assert report["clean"]

    def test_faults_counted_once(self, ctx, monkeypatch):
        """The report sees faults through the module-level window_term.

        One prime gets rho = 2 (dropped_B3 = -1), which breaks both
        rho <= 1_p and rho <= 1 and must count as a single minorant
        violation; another n gets a nonzero low_chain residual.
        """
        bad_rho, bad_chain = 10007, 10008
        inject = {"dropped_b3": (bad_rho, -1), "s_a1": (bad_chain, 1)}
        monkeypatch.setattr(sh, "window_term", _faulty_window_term(inject))
        assert sh.decompose(ctx, bad_rho).one_p == 1
        report = sh.harness_report(ctx)
        violations = report["violations"]
        assert violations["minorant"] == 1
        assert violations["support"] == 0
        assert violations["identity_detail"] == {
            "prime_split": 0,
            "bucket_partition": 0,
            "low_chain": 1,
            "reversal_chain": 0,
        }
        assert violations["identity"] == 1
        assert report["clean"] is False
        assert report["totals"]["rho"] == 875 - sh.decompose(ctx, bad_rho).rho + 2

    def test_support_fault_counted(self, ctx, monkeypatch):
        """rho = -1 at an n with spf(n) < z is one support violation and nothing else.

        Adding 1 to dropped_a3 at the even n = 10010 lowers its rho from
        0 to -1: below 1_p, so no minorant violation, and in no identity
        fold, so every identity residual stays 0.
        """
        bad = 10010
        assert ctx.spf[bad] < ctx.cut and sh.decompose(ctx, bad).rho == 0
        monkeypatch.setattr(sh, "window_term", _faulty_window_term({"dropped_a3": (bad, 1)}))
        report = sh.harness_report(ctx)
        violations = report["violations"]
        assert violations["support"] == 1
        assert violations["minorant"] == 0
        assert violations["identity"] == 0
        assert report["clean"] is False
        assert report["totals"]["rho"] == 875 - 1

    def test_impossible_pair_split_is_soundness_failure(self):
        """p2^38 = (2x)^9 holds for no prime p2; forced on a reached pair, both routes raise SoundnessError."""
        ctx = sh.build_context(10**4)
        p1, p2, n = 61, 7, 61 * 7 * 24
        assert (p1 * p2) ** 19 > ctx.pow11 and p1**19 <= ctx.pow8 and p1 * p2 * p2 < ctx.twox
        assert [p for p, _ in trial_factor(n) if p >= ctx.cut] == [p2, p1] and ctx.x < n <= ctx.twox
        ctx.pow9 = p2**38
        with pytest.raises(SoundnessError, match="impossible equality"):
            sh.decompose(ctx, n)
        with pytest.raises(SoundnessError, match="impossible equality"):
            sh.harness_report(ctx)

    def test_fold_rejects_wide_term(self, ctx, monkeypatch):
        """A term above TERM_LIMIT could wrap the int8 residual; the fold refuses it."""
        monkeypatch.setattr(sh, "window_term", _faulty_window_term({"s3": (10009, sh.TERM_LIMIT + 1)}))
        with pytest.raises(ValueError, match="s3"):
            sh.harness_report(ctx)

    def test_frozen_1e6_totals(self, harness_1e6):
        """Anchors of the largest window, frozen from a per-n decompose scan."""
        assert harness_1e6["clean"]
        assert harness_1e6["checked"] == 10**6
        assert harness_1e6["totals"] == {
            "rho": 58831,
            "primes": 70435,
            "S_C": 11587,
            "dropped_A3": 0,
            "dropped_B3": 17,
        }
        assert harness_1e6["min_rho"] == -3


def _faulty_window_term(inject):
    """window_term with term[n - x - 1] += delta for each name -> (n, delta)."""
    real = sh.window_term

    def faulty(ctx, name):
        term = real(ctx, name)
        if name in inject:
            n, delta = inject[name]
            term[n - ctx.x - 1] += delta
        return term

    return faulty


def _assert_terms_match_decompose(ctx, ns):
    records = [sh.decompose(ctx, n) for n in ns]
    index = np.array(ns) - ctx.x - 1
    for name in sh.TERM_NAMES:
        term = sh.window_term(ctx, name)
        assert term.dtype == np.int8 and term.shape == (ctx.x,)
        expected = np.array([getattr(rec, name) for rec in records])
        mismatch = np.flatnonzero(term[index] != expected)
        assert mismatch.size == 0, (name, [ns[i] for i in mismatch[:5]])


class TestWindowTerms:
    def test_term_names(self):
        names = [f.name for f in dataclasses.fields(sh.DecompositionRecord)]
        assert list(sh.TERM_NAMES) == names[1:-1]
        assert len(sh.TERM_NAMES) == 17

    @pytest.mark.parametrize("x", [10**4, 12345])
    def test_every_n_matches_decompose(self, x, ctx):
        window = ctx if x == ctx.x else sh.build_context(x)
        _assert_terms_match_decompose(window, list(range(x + 1, 2 * x + 1)))

    def test_sampled_n_match_decompose(self, ctx_1e5, ctx_1e6):
        for window, seed in ((ctx_1e5, 61), (ctx_1e6, 67)):
            sample = random.Random(seed).sample(range(window.x + 1, window.twox + 1), 2000)
            _assert_terms_match_decompose(window, sample)

    def test_dropped_b3_whole_1e6_window(self, ctx_1e6):
        """dropped_B3 is sparse, so samples rarely see it: check the whole window.

        The window route agrees with decompose on its support, and both
        sum to the frozen per-n total 17, so decompose has no mass
        elsewhere.
        """
        term = sh.window_term(ctx_1e6, "dropped_b3")
        support = np.flatnonzero(term) + ctx_1e6.x + 1
        assert [sh.decompose(ctx_1e6, int(n)).dropped_b3 for n in support] == term[support - ctx_1e6.x - 1].tolist()
        assert int(term.sum()) == 17

    def test_groupable_cofactors_match_groupable(self, ctx_1e6):
        rng = random.Random(71)
        beta = np.arange(1, 3000, dtype=np.int64)
        ungroupable = 0
        for _ in range(40):
            parts = tuple(sorted(rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31], rng.randint(1, 3))))
            ungroupable += not sh._groupable(ctx_1e6, parts)
            mask = sh._groupable_cofactors(ctx_1e6, beta, parts)
            assert mask.tolist() == [sh._groupable(ctx_1e6, (int(b),) + parts) for b in beta], parts
        assert ungroupable >= 10

    def test_unknown_term(self, ctx):
        with pytest.raises(ValueError):
            sh.window_term(ctx, "rho")


def reference_reversal_chain(ctx, primes):
    """The reversed B chain as first written: every q from p2 + 1 with a 19th-power test, factored per (p2, p3, q)."""
    twox, cz = ctx.twox, ctx.cut
    for p2 in primes:
        if p2**38 >= ctx.pow9:
            break
        for p3 in primes:
            if p3 >= p2:
                break
            for q in range(p2 + 1, ctx.top8 + 1):
                if (q * p2) ** 19 <= ctx.pow11:
                    continue
                if q * p2 * p2 >= twox or q * p2 * p3 * p3 >= twox:
                    break
                d = q * p2 * p3
                if ctx.spf_of(q) >= cz:
                    yield "s_b2", d, p3, None, None
                p4s = [p4 for p4, _ in sh._factorize(ctx, q) if p4 >= cz and ctx.spf_of(q // p4) >= p4]
                if not p4s:
                    continue
                ungroupable = not sh._groupable(ctx, (q, p2, p3))
                for p4 in p4s:
                    cap = (twox - 1) // (p4 * p4 * p2 * p3)
                    yield "s_b3", d, p3, cap, None
                    if ungroupable:
                        yield "dropped_b3", d, p3, cap, (p2, p3, p4)


class TestReversalChain:
    def test_top11_is_the_largest_19th_root(self, ctx, ctx_1e5, ctx_1e6):
        for window in (ctx, ctx_1e5, ctx_1e6):
            assert window.top11**19 <= window.pow11 < (window.top11 + 1) ** 19

    def test_matches_reference_generator(self, ctx, ctx_1e5, ctx_1e6):
        """The tuples equal the reference generator's, in order, at x = 10^4, 10^5 and 10^6."""
        for window in (ctx, ctx_1e5, ctx_1e6):
            primes = sh._sieve_primes(window)
            tuples = list(sh._reversal_chain(window, primes))
            assert tuples == list(reference_reversal_chain(window, primes))
            assert {name for name, *_ in tuples} == {"s_b2", "s_b3", "dropped_b3"}


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def conjunct_at_primes(con, primes, base: int) -> bool:
    """A region constraint at t_i = log p_i / log base, decided exactly in integers.

    sum(a_i t_i) REL b is sum(A_i log p_i) REL B log(base) with A_i and
    B the coefficients and bound times the lcm of their denominators,
    that is prod p_i^A_i REL base^B, with each negative power moved to
    the other side.
    """
    den = math.lcm(*(Fraction(c).denominator for c in con.coeffs), con.bound.denominator)
    left = right = 1
    for c, p in zip(con.coeffs, primes, strict=True):
        power = int(c * den)
        if power > 0:
            left *= p**power
        else:
            right *= p**-power
    power = int(con.bound * den)
    if power > 0:
        right *= base**power
    else:
        left *= base**-power
    return _RELATIONS[con.rel](left, right)


class TestPairBucketsMatchRegions:
    @pytest.mark.parametrize("x", [10**4, 10**5])
    def test_every_chain_pair_lies_in_its_bucket_region(self, monkeypatch, x):
        """`_pair_bucket` puts each prime pair the pair chain reaches in the region whose conjuncts it meets at log base 2x.

        Every top-level conjunct of REGION_A, TYPE_II_STRIP, REGION_B and
        REGION_C is decided exactly at t_i = log p_i / log 2x, and the
        pair must meet every conjunct of its bucket's region and fail at
        least one of each other region's.
        """
        regions = {"s_a": REGION_A, "s_type2": TYPE_II_STRIP, "s_b": REGION_B, "s_c": REGION_C}
        ctx = sh.build_context(x)
        pairs = []
        bucket_of = sh._pair_bucket

        def recording_bucket(ctx, p1, p2):
            pairs.append((p1, p2, bucket_of(ctx, p1, p2)))
            return pairs[-1][2]

        monkeypatch.setattr(sh, "_pair_bucket", recording_bucket)
        tuples = list(sh._pair_chain(ctx, sh._sieve_primes(ctx)))
        assert len(pairs) == sum(1 for name, *_ in tuples if name == "s4")
        for p1, p2, bucket in pairs:
            inside = {
                name: all(conjunct_at_primes(con, (p1, p2), ctx.twox) for con in region.tree.children)
                for name, region in regions.items()
            }
            assert inside == {name: name == bucket for name in regions}, (p1, p2, bucket)
        assert {bucket for *_, bucket in pairs} == set(regions)
