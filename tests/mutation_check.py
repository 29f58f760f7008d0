"""Mutation check: every catalogued unsound edit of the certified path must fail a test.

Run from the repository root:

    python tests/mutation_check.py            # every mutant
    python tests/mutation_check.py M1 M9      # the named ones

Each mutant is a (file, old, new) replacement that drops one outward
rounding, combines one bound wrongly, weakens one soundness check,
reports a soundness failure as a usage error, drops one pre-check of an
output path, puts wrong integers into exact moments, drops or doubles
one term of the clipped mean-value form, or (H mutants) breaks the
sieve harness: blinds its support check, flips a sign in an identity
or in rho, drops the term bound, weakens a reversal-chain weight or
corrupts the spf entry of 1.  For each, the script
copies `src/`, `tests/` and `pyproject.toml` to a temporary directory
outside the tree, replaces `old` by `new` there, and runs only the
tests that should catch the mutant, with the bit pins deselected: a
test that pins exact output bits, or the harness's frozen window
totals, fails on any change, sound or not, so it shows nothing about
soundness.  The unmutated copy runs the same
selections first and must pass them.

Exit status 1 if an `old` text is missing or not unique, if the
unmutated copy fails, or if a mutant survives (its tests pass).  The
file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BIT_PINS = (
    "tests/test_losses.py::TestCertifiedRuns::test_quadruple_sandwiches_pinned",
    "tests/test_losses.py::TestCertifiedRuns::test_default_sandwiches_pinned",
    "tests/test_losses.py::TestMeanValueRigor::test_inside_leaf_asks_integrand_once",
    "tests/test_harness.py::TestWindowScan::test_frozen_window_totals",
    "tests/test_harness.py::TestWindowScan::test_frozen_1e6_totals",
)

REPLAY = ("tests/test_exact_replay.py",)
CLIPPED_MPMATH = "tests/test_losses.py::TestClippedAverage::test_c_contribution_contains_mpmath_integral"
HARNESS = ("tests/test_harness.py",)

# name: (file, old, new, test selections that must fail)
MUTANTS = {
    "M1": (
        "src/sievebound/quadrature.py",
        "hi = nextafter(hi * max(enc.hi, 0.0), _UP)",
        "hi = hi * max(enc.hi, 0.0)",
        REPLAY,
    ),
    "M2": (
        "src/sievebound/quadrature.py",
        "upper = _up(high_sum) if high_sum != 0.0 else 0.0",
        "upper = high_sum",
        REPLAY,
    ),
    "M3": (
        "src/sievebound/quadrature.py",
        "lower = max(_down(math.fsum(lows)), 0.0)",
        "lower = max(math.fsum(lows), 0.0)",
        REPLAY,
    ),
    "M4": (
        "src/sievebound/losses.py",
        "return nextafter(1.0 / p_hi, _DOWN), nextafter(1.0 / p_lo, _UP)",
        "return 1.0 / p_hi, 1.0 / p_lo",
        REPLAY,
    ),
    "M5": (
        "src/sievebound/losses.py",
        "total_upper = _up(_up(a3.upper + b3.upper) + c.upper)",
        "total_upper = a3.upper + b3.upper + c.upper",
        ("tests/test_losses.py::TestLedger",),
    ),
    "M9": (
        "src/sievebound/regions.py",
        "lo = nextafter(1.0 - missing, _DOWN) if missing != 0.0 else 1.0",
        "lo = 1.0 - missing if missing != 0.0 else 1.0",
        REPLAY,
    ),
    "M10": (
        "src/sievebound/regions.py",
        "hi = nextafter(hi + c_hi, _UP)",
        "hi = max(hi, c_hi)",
        ("tests/test_regions.py::TestRegionMembership",),
    ),
    "M11": (
        "src/sievebound/losses.py",
        "if not lo > 0.0:",
        "if False:",
        ("tests/test_losses.py::TestMeanValueRigor::test_nonpositive_factor_is_a_soundness_failure",),
    ),
    "M12": (
        "src/sievebound/interval.py",
        'raise SoundnessError(f"disjoint enclosures',
        'raise ValueError(f"disjoint enclosures',
        ("tests/test_losses.py::TestMeanValueRigor::test_average_rejects_disjoint_enclosures",),
    ),
    "M13": (
        "src/sievebound/losses.py",
        "if volume.upper != 0.0:",
        "if volume.lower != 0.0:",
        ("tests/test_losses.py::TestArgumentRange",),
    ),
    "M14": (
        "src/sievebound/regions.py",
        "b * den - (b - a) * num if c < 0",
        "a * den - (b - a) * num if c < 0",
        REPLAY,
    ),
    "M15": (
        "src/sievebound/buchstab.py",
        'raise SoundnessError(f"table entry',
        'raise ValueError(f"table entry',
        (
            "tests/test_buchstab.py::TestTable::test_inverted_entry_raises",
            "tests/test_buchstab.py::TestTable::test_nonpositive_entry_raises",
        ),
    ),
    "M16": (
        "src/sievebound/cli.py",
        'for what, path in (("report", args.out), ',
        'for what, path in (("report", None), ',
        (
            "tests/test_cli.py::TestVerify::test_missing_out_dir_fails_before_any_work",
            "tests/test_cli.py::TestHarness::test_missing_out_dir_fails_before_the_scan",
        ),
    ),
    "M17": (
        "src/sievebound/losses.py",
        "cube_pad = nextafter(square_pad * spread, _UP)",
        "cube_pad = 0.0",
        (CLIPPED_MPMATH,),
    ),
    "M18": (
        "src/sievebound/losses.py",
        "curv_lo, curv_hi = nextafter(0.5 * total_lo, _DOWN), nextafter(0.5 * total_hi, _UP)",
        "curv_lo, curv_hi = total_lo, total_hi",
        (CLIPPED_MPMATH,),
    ),
    "M19": (
        "src/sievebound/regions.py",
        'complement = self.rel in (">", ">=")',
        "complement = False",
        REPLAY,
    ),
    "H2": (
        "src/sievebound/sieve_harness.py",
        "(ctx.spf[ctx.x + 1 :] < ctx.cut)",
        "(ctx.spf[ctx.x + 1 :] < 2)",
        HARNESS,
    ),
    "H3": (
        "src/sievebound/sieve_harness.py",
        '"clean": identity_total == 0 and minorant == 0 and support == 0,',
        '"clean": identity_total == 0 and minorant == 0,',
        HARNESS,
    ),
    "H7": (
        "src/sievebound/sieve_harness.py",
        '("s1", -1), ("s2", 1), ("s3", 1)',
        '("s1", -1), ("s2", -1), ("s3", 1)',
        HARNESS,
    ),
    "H8": (
        "src/sievebound/sieve_harness.py",
        '_RHO = (("one_p", 1), ("s_c", -1),',
        '_RHO = (("one_p", 1), ("s_c", 1),',
        HARNESS,
    ),
    "H9": (
        "src/sievebound/sieve_harness.py",
        "if term.max() > TERM_LIMIT or term.min() < -TERM_LIMIT:",
        "if False:",
        HARNESS,
    ),
    "H10": (
        "src/sievebound/sieve_harness.py",
        "if not psi(ctx, beta, p3):",
        "if not psi(ctx, beta, cz):",
        HARNESS,
    ),
    "H11": (
        "src/sievebound/sieve_harness.py",
        "spf[1] = SPF_CAP",
        "spf[1] = 1",
        HARNESS,
    ),
}


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(copy: Path, selections) -> tuple[int, float]:
    """(pytest exit status, seconds) of the selections in the copy, bit pins deselected, stopping at the first failure."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selections]
    for pin in BIT_PINS:
        command += ["--deselect", pin]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    names = args.names or list(MUTANTS)

    failed = False
    for name in names:
        path, old, _, _ = MUTANTS[name]
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"{name}: `{old}` occurs {count} times in {path}, expected once")
            failed = True
    if failed:
        return 1

    with tempfile.TemporaryDirectory(prefix="sievebound-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        selections = sorted({s for n in names for s in MUTANTS[n][3]})
        status, seconds = run_tests(base, selections)
        print(f"unmutated: {'pass' if status == 0 else f'FAIL (pytest status {status})'} in {seconds:.1f} s")
        if status != 0:
            return 1
        for name in names:
            path, old, new, tests = MUTANTS[name]
            copy = Path(tmp) / name
            copy_tree(copy)
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
            status, seconds = run_tests(copy, tests)
            # Status 1 is a failing test; any other nonzero status is a
            # collection or usage error, which shows nothing.
            verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else f"ERROR (pytest status {status})"
            print(f"{name} {verdict} in {seconds:.1f} s: {path}: {new}")
            failed |= status != 1
            shutil.rmtree(copy)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
