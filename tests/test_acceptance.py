"""Acceptance suite: one test per certified claim, one verdict line each.

Every test registers a [PASS]/[FAIL] line through the `acceptance`
fixture before asserting, so the terminal summary always shows the full
scoreboard even when a criterion fails.  The heavy artifacts (certified
loss runs, Monte Carlo batches, Buchstab table, window scans) come from
session fixtures in conftest.py and are shared with the unit tests.

Criteria covered, with their pinned tolerances:

  1. loss_a3 certified upper bound <= 0.000829 within 1e7 boxes.
  2. loss_b3 certified upper bound <= 0.013062 within 1e7 boxes.
  3. loss_c enclosure of width <= 5e-5 with upper < 0.235134 and
     lower > 0.2.
  4. Combined ledger: total_upper < 0.25 and retained_lower >= 0.75.
  5. Buchstab table: omega(2) enclosure contains 1/2 with width <= 1e-8;
     agreement with the closed form (1 + log(u-1))/u on [2, 3] to 1e-6;
     the [3, 4) branch range sits inside [0.5607, 0.5644]; the [4, 8]
     table sits inside [0.5612 - 1e-4, 0.5617 + 1e-4].
  6. Region suite: the four pair buckets partition the base region on
     1e6 sampled points with zero violations, the quadruple regions are
     disjoint, and type-II feasibility is monotone under adjoining an
     exponent on 1e5 random sets.
  7. Monte Carlo sandwich: each loss estimate from 1e7 samples lies in
     the certified interval widened by four standard errors.
  8. Window exactness at x = 1e5, 2e5 and 1e6: zero identity, minorant
     and support violations over the full windows.
  9. Window density sanity: sum(rho) * log(1.5 x) / x lies in (0, 1].
 10. Determinism: repeated runs with identical configuration and seed
     reproduce bit-identical certified bounds and Monte Carlo output.
"""

from __future__ import annotations

import math
import random

import numpy as np

import conftest
from sievebound import buchstab, losses, regions
from sievebound.interval import Enclosure

_SEED = 20240801


def test_loss_a3_certified(acceptance, verified_a3):
    est, escalations = verified_a3
    target = losses.TARGETS["a3"]
    margin = target - est.upper
    ok = (
        est.upper <= target
        and est.boxes_used <= 10**7
        and conftest.FIXTURE_SECONDS["loss_a3"] <= 600.0
    )
    detail = (
        f"upper {est.upper:.9e} vs target {target:.6e}, margin {margin:.3e}, "
        f"{est.boxes_used} boxes, {escalations} escalations, "
        f"{conftest.FIXTURE_SECONDS['loss_a3']:.1f}s"
    )
    assert acceptance.record("loss a3 bound", ok, detail)


def test_loss_b3_certified(acceptance, verified_b3):
    est, escalations = verified_b3
    target = losses.TARGETS["b3"]
    margin = target - est.upper
    ok = (
        est.upper <= target
        and est.boxes_used <= 10**7
        and conftest.FIXTURE_SECONDS["loss_b3"] <= 600.0
    )
    detail = (
        f"upper {est.upper:.9e} vs target {target:.6e}, margin {margin:.3e}, "
        f"{est.boxes_used} boxes, {escalations} escalations, "
        f"{conftest.FIXTURE_SECONDS['loss_b3']:.1f}s"
    )
    assert acceptance.record("loss b3 bound", ok, detail)


def test_loss_c_enclosure(acceptance, verified_c):
    est, escalations = verified_c
    target = losses.TARGETS["c"]
    width = est.upper - est.lower
    ok = est.upper < target and est.lower > 0.2 and width <= 5e-5
    detail = (
        f"[{est.lower:.10f}, {est.upper:.10f}], width {width:.3e}, "
        f"target {target}, {est.boxes_used} boxes, {escalations} escalations"
    )
    assert acceptance.record("loss c enclosure", ok, detail)


def test_combined_budget(acceptance, ledger):
    ok = ledger.total_upper < 0.25 and ledger.retained_lower >= 0.75
    detail = (
        f"total upper {ledger.total_upper:.9f} < 0.25, "
        f"retained lower {ledger.retained_lower:.9f} >= 0.75, "
        f"all margins nonnegative: {ledger.all_within()}"
    )
    assert acceptance.record("combined budget", ok, detail)


def test_buchstab_table(acceptance, table):
    m = table.grid_den
    at_two = Enclosure(table.lo[m], table.hi[m])
    ok_two = at_two.contains(0.5) and at_two.width <= 1e-8

    worst_dev = 0.0
    ok_closed = True
    for k in range(m, 2 * m + 1):
        u = 1.0 + k / m
        closed = (1.0 + math.log(u - 1.0)) / u
        enc = Enclosure(table.lo[k], table.hi[k])
        worst_dev = max(worst_dev, abs(enc.mid - closed))
        if not enc.contains(closed) or abs(enc.mid - closed) > 1e-6:
            ok_closed = False

    branch = buchstab.branch_expression_range()
    ok_branch = branch.lo >= 0.5607 and branch.hi <= 0.5644

    tail_lo = min(table.lo[3 * m :])
    tail_hi = max(table.hi[3 * m :])
    ok_tail = tail_lo >= 0.5612 - 1e-4 and tail_hi <= 0.5617 + 1e-4

    ok = ok_two and ok_closed and ok_branch and ok_tail
    detail = (
        f"omega(2) width {at_two.width:.2e}, closed-form max dev {worst_dev:.2e}, "
        f"branch range [{branch.lo:.6f}, {branch.hi:.6f}], "
        f"tail range [{tail_lo:.6f}, {tail_hi:.6f}]"
    )
    assert acceptance.record("buchstab table", ok, detail)


def test_region_suite(acceptance):
    rng = np.random.default_rng(_SEED)
    lo = float(regions.SIEVE_FLOOR)
    hi = float(regions.WINDOW_LO)

    pts = rng.uniform(lo, hi, size=(10**6, 2))
    base = regions.PAIR_BASE.mask(pts).astype(np.int64)
    parts = sum(
        r.mask(pts).astype(np.int64)
        for r in (regions.REGION_A, regions.TYPE_II_STRIP, regions.REGION_B, regions.REGION_C)
    )
    partition_violations = int(np.count_nonzero(parts != base))

    quad = rng.uniform(lo, hi, size=(10**6, 4))
    overlap = int(
        np.count_nonzero(regions.REGION_U_A3.mask(quad) & regions.REGION_U_B3.mask(quad))
    )

    prng = random.Random(_SEED)
    mono_violations = 0
    feasible_cases = 0
    for _ in range(10**5):
        size = prng.randint(1, 7)
        base_set = [prng.random() for _ in range(size)]
        if regions.type_ii_feasible(base_set):
            feasible_cases += 1
            if not regions.type_ii_feasible(base_set + [prng.random()]):
                mono_violations += 1

    ok = partition_violations == 0 and overlap == 0 and mono_violations == 0
    detail = (
        f"partition violations {partition_violations}/1e6, "
        f"quadruple overlaps {overlap}/1e6, monotonicity violations "
        f"{mono_violations}/{feasible_cases} feasible sets"
    )
    assert acceptance.record("region suite", ok, detail)


def test_monte_carlo_sandwich(acceptance, verified_a3, verified_b3, verified_c, mc_estimates):
    certified = {"a3": verified_a3[0], "b3": verified_b3[0], "c": verified_c[0]}
    ok = True
    notes = []
    for name in losses.LOSS_NAMES:
        mc = mc_estimates[name]
        est = certified[name]
        inside = est.lower - 4.0 * mc.stderr <= mc.lower <= est.upper + 4.0 * mc.stderr
        ok = ok and inside
        notes.append(f"{name}: {mc.lower:.6e} +- {mc.stderr:.1e} {'in' if inside else 'OUT OF'} sandwich")
    assert acceptance.record("monte carlo sandwich", ok, "; ".join(notes))


def test_window_exactness(acceptance, harness_1e5, harness_2e5, harness_1e6):
    ok = True
    notes = []
    seconds = 0.0
    windows = ((harness_1e5, "harness_1e5"), (harness_2e5, "harness_2e5"), (harness_1e6, "harness_1e6"))
    for report, key in windows:
        v = report["violations"]
        clean = v["identity"] == 0 and v["minorant"] == 0 and v["support"] == 0
        ok = ok and clean and report["clean"]
        seconds += conftest.FIXTURE_SECONDS[key]
        notes.append(
            f"x={report['x']}: identity {v['identity']}, minorant {v['minorant']}, "
            f"support {v['support']} over {report['checked']} n"
        )
    ok = ok and seconds <= 900.0
    notes.append(f"scan time {seconds:.1f}s")
    assert acceptance.record("window exactness", ok, "; ".join(notes))


def test_window_density_sanity(acceptance, harness_1e5, harness_2e5, harness_1e6):
    ok = True
    notes = []
    for report in (harness_1e5, harness_2e5, harness_1e6):
        ratio = report["ratios"]["window_log"]
        ok = ok and 0.0 < ratio <= 1.0
        notes.append(f"x={report['x']}: ratio {ratio:.6f}")
    assert acceptance.record("window density sanity", ok, "; ".join(notes))


def test_determinism(acceptance, verified_a3):
    fresh_a3 = losses.verified_loss("a3")
    same_a3 = fresh_a3[0] == verified_a3[0] and fresh_a3[1] == verified_a3[1]

    c_first = losses.verified_loss("c", budget=2000, tol=1e-9)
    c_second = losses.verified_loss("c", budget=2000, tol=1e-9)
    same_c = c_first == c_second and repr(c_first[0]) == repr(c_second[0])

    mc_first = losses.loss_mc("b3", samples=10**5, seed=123)
    mc_second = losses.loss_mc("b3", samples=10**5, seed=123)
    same_mc = mc_first == mc_second and repr(mc_first) == repr(mc_second)

    ok = same_a3 and same_c and same_mc
    detail = (
        f"rigorous a3 rerun identical: {same_a3}; "
        f"rigorous c rerun identical: {same_c}; "
        f"monte carlo rerun identical: {same_mc}"
    )
    assert acceptance.record("determinism", ok, detail)
