#!/usr/bin/env python3
"""Exercise the exact integer harness for the prime-indicator minorant.

For every n in the window (x, 2x] the harness expands the prime
indicator through four combinatorial identities: a four-term inclusion
exclusion over small prime factors, a partition of the leading double
sum into exponent buckets, a two-step Buchstab chain on the low bucket,
and a role-reversed chain on the high bucket.  Dropping the two
ungroupable tails and the hopeless bucket leaves a function rho that is

  * exact on the identities (every residual is zero),
  * a minorant of the prime indicator (rho(n) <= 1 when n is prime and
    rho(n) <= 0 when n is composite),
  * supported away from integers with a tiny prime factor.

Everything here is integer arithmetic on one window; there is no
floating point anywhere in the verdicts.

Run with --x to change the window base (default 10000).  The exit
status is 1 when any verdict fails, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from sievebound import sieve_harness
from sievebound.cli import exit_status


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", type=int, default=10**4, help="window base; window is (x, 2x]")
    parser.add_argument("--show", type=int, default=3, help="how many sample decompositions to print")
    return exit_status(run, parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    ctx = sieve_harness.build_context(args.x)

    banner("1. Window and thresholds")
    print(f"window: ({ctx.x}, {ctx.twox}], smallest-prime-factor table up to {ctx.twox}")
    print(f"sieve floor: primes below {ctx.cut} are 'tiny' ({ctx.cut}^19 >= x^3 > {ctx.cut - 1}^19)")
    print(f"float value of the floor x^(3/19): {ctx.z:.6f}")
    print("bucket thresholds compare p^19 against (2x)^8 and (2x)^11, all in exact integers")

    banner("2. Sample decompositions")
    shown = 0
    for n in range(ctx.x + 1, ctx.twox + 1):
        record = sieve_harness.decompose(ctx, n)
        if record.s4 == 0:
            continue
        residuals = record.identity_residuals()
        print(f"  n = {record.n}: prime indicator {record.one_p}, rho {record.rho}")
        print(
            f"    S1 {record.s1}, S2 {record.s2}, S3 {record.s3}, S4 {record.s4}; "
            f"buckets A {record.s_a}, type2 {record.s_type2}, B {record.s_b}, C {record.s_c}"
        )
        print(f"    identity residuals: {residuals}")
        shown += 1
        if shown >= args.show:
            break

    banner("3. Full-window verdicts")
    report = sieve_harness.harness_report(ctx)
    v = report["violations"]
    checks = [
        ("four identities hold pointwise", v["identity"] == 0),
        ("rho never exceeds the prime indicator", v["minorant"] == 0),
        ("rho vanishes on tiny-factor integers", v["support"] == 0),
    ]
    for label, ok in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    totals = report["totals"]
    print(
        f"  totals over {report['checked']} integers: sum(rho) {totals['rho']}, "
        f"primes {totals['primes']}, discarded bucket {totals['S_C']}, "
        f"dropped tails {totals['dropped_A3']} + {totals['dropped_B3']}"
    )
    ratio = report["ratios"]["window_log"]
    ratio_ok = 0.0 < ratio <= 1.0
    print(f"  [{'PASS' if ratio_ok else 'FAIL'}] retained density proxy sum(rho) log(1.5x)/x = {ratio:.6f} in (0, 1]")

    banner("4. JSON report")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ratio_ok and all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
