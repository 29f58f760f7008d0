#!/usr/bin/env python3
"""Walk through the certified Buchstab machinery step by step.

The Buchstab function omega(u) solves the delay differential equation
(u omega(u))' = omega(u - 1) with omega(u) = 1/u on [1, 2].  This demo

  1. builds a certified table of omega on a uniform grid, where every
     entry is a closed interval guaranteed to contain the exact value,
  2. cross-checks the table against the independent closed forms on
     [2, 3] and [3, 4],
  3. evaluates the flat piecewise bounds used downstream and shows that
     they bracket exp(-euler_gamma), the limit of omega at infinity.

Run with --step to change the grid resolution (default 1e-4).  The
exit status is 1 when any verdict fails, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from sievebound import buchstab
from sievebound.buchstab import OMEGA_LOWER, OMEGA_UPPER
from sievebound.cli import exit_status, high_text, low_text
from sievebound.interval import Enclosure


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=1e-4, help="grid step of the table")
    parser.add_argument("--u-max", type=float, default=8.0, help="right end of the table")
    parser.add_argument(
        "--tol",
        type=float,
        default=5e-8,
        help="largest tolerated enclosure width; coarser steps need a looser tol",
    )
    return exit_status(run, parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    banner("1. Certified table of omega")
    table = buchstab.build_table(u_max=args.u_max, step=args.step)
    print(f"grid: u_k = 1 + k/{table.grid_den}, {len(table.lo)} entries up to u = {table.u_max}")
    narrow = table.max_width <= args.tol
    print(f"[{'PASS' if narrow else 'FAIL'}] widest enclosure in the table: {table.max_width:.3e} <= {args.tol:g}")
    for u in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 6.0, 8.0):
        if u > table.u_max:
            continue
        enc = buchstab.omega_enclosure(table, u)
        print(f"  omega({u:3.1f}) in [{low_text(enc.lo, '.12f')}, {high_text(enc.hi, '.12f')}]  width {enc.width:.1e}")

    banner("2. Independent closed forms")
    print("On [2, 3] integration of the delay equation gives")
    print("  omega(u) = (1 + log(u - 1)) / u")
    print("and on [3, 4] one more integration adds J(u)/u with")
    print("  J(u) = integral of log(t - 1)/t over [2, u - 1],")
    print("which is closed form through the dilogarithm Li2(v) = sum v^k/k^2:")
    print("  J(u) = log(u - 1)^2 / 2 + Li2(1/(u - 1)) - pi^2/12.")
    worst = 0.0
    last = min(2 * table.grid_den, len(table.lo) - 1)
    for k in range(table.grid_den, last + 1, max(1, table.grid_den // 50)):
        u = 1.0 + k / table.grid_den
        closed = (1.0 + math.log(u - 1.0)) / u
        enc = Enclosure(table.lo[k], table.hi[k])
        worst = max(worst, abs(enc.mid - closed))
        if not enc.contains(closed):
            print(f"  [FAIL] closed form escapes the enclosure at u = {u}")
            return 1
    print(f"  [PASS] closed form inside every sampled enclosure on [2, {min(table.u_max, 3.0):g}]; max deviation {worst:.2e}")
    ok = True
    if table.u_max >= 4.0:
        closed4 = 0.5614582414068379
        ok = buchstab.omega_enclosure(table, 4.0).contains(closed4)
        print(f"  [{'PASS' if ok else 'FAIL'}] omega(4) enclosure contains the closed-form value {closed4}")

    banner("3. Piecewise bounds and the plateau")
    print("Downstream integrals replace omega by flat bounds past u = 4:")
    print(f"  lower bound plateau {OMEGA_LOWER.plateau}, upper bound plateau {OMEGA_UPPER.plateau}")
    limit = math.exp(-0.5772156649015329)
    print(f"  asymptotic value exp(-euler_gamma) = {limit:.12f}")
    bracket = OMEGA_LOWER.plateau < limit < OMEGA_UPPER.plateau
    ok = ok and bracket
    print(f"  [{'PASS' if bracket else 'FAIL'}] plateau constants bracket exp(-euler_gamma)")
    branch = buchstab.branch_expression_range()
    print(f"  certified range of the [3, 4) branch: [{low_text(branch.lo, '.6f')}, {high_text(branch.hi, '.6f')}]")
    for u in (2.0, 3.0, 3.7, 4.0, 25.0):
        lo = buchstab.omega_bound(OMEGA_LOWER, u)
        hi = buchstab.omega_bound(OMEGA_UPPER, u)
        print(f"  bounds at u = {u:4.1f}: lower >= {low_text(lo.lo, '.9f')}, upper <= {high_text(hi.hi, '.9f')}")
    return 0 if ok and narrow else 1


if __name__ == "__main__":
    sys.exit(main())
