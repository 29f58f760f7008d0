"""Command line interface.

Subcommands:

    verify    certify the loss integrals against the budget targets
    harness   exact integer scan of a dyadic window
    omega     build the Buchstab table and evaluate enclosures
    regions   inspect the exponent-region catalog

Exit codes: 0 all requested verdicts pass, 1 at least one verdict
fails or a certified computation hits a soundness failure, 2 usage or
configuration error.

Every setting comes from its flag on the subcommand that reads it.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import platform
import sys
from fractions import Fraction

from . import __version__
# The certified path only: numpy, buchstab and the sieve harness load in
# the subcommands and Monte Carlo code that use them.
from . import interval, losses, quadrature, regions

class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


# Significant digits of every float in a JSON report.
_DIGITS = 12


def _low(value: float) -> float:
    """A certified lower endpoint rounded down to the report's digits.

    Round to nearest is monotone, so the float nearest the rounded-down
    decimal is still <= value, and `_round_floats` leaves it unchanged.
    """
    return float(_directed_text(value, f".{_DIGITS - 1}e", decimal.ROUND_FLOOR))


def _high(value: float) -> float:
    """A certified upper endpoint rounded up to the report's digits (see `_low`)."""
    return float(_directed_text(value, f".{_DIGITS - 1}e", decimal.ROUND_CEILING))


def _directed_text(value: float, spec: str, rounding: str) -> str:
    """format(value, spec) for a spec ending ".<p>e" or ".<p>f", rounded toward `rounding` at the last printed digit.

    The rounding is exact in `decimal`; the float nearest the rounded
    decimal prints back as the same digits, since every spec used here
    prints at most 15 significant digits.
    """
    places = int(spec[spec.index(".") + 1 : -1])
    exact = decimal.Decimal(value)
    if spec.endswith("e"):
        rounded = decimal.Context(prec=places + 1, rounding=rounding).plus(exact)
    else:
        rounded = exact.quantize(decimal.Decimal(1).scaleb(-places), rounding=rounding)
    return format(float(rounded), spec)


def low_text(value: float, spec: str) -> str:
    """A certified lower endpoint printed with spec, rounded down (never above the value)."""
    return _directed_text(value, spec, decimal.ROUND_FLOOR)


def high_text(value: float, spec: str) -> str:
    """A certified upper endpoint printed with spec, rounded up (never below the value)."""
    return _directed_text(value, spec, decimal.ROUND_CEILING)


def _round_floats(obj, digits: int = _DIGITS):
    """obj with every float rounded to nearest at `digits` significant digits.

    Certified endpoints go through `_low` or `_high` first, so the
    report never moves them inward.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return repr(obj)
        if obj == 0.0:
            return 0.0
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _environment() -> dict:
    """The interpreter and platform; numpy's version only if this process loaded it, else None."""
    return {
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "platform": platform.platform(),
    }


def _emit_report(results: dict, config: dict, out_path: str | None) -> None:
    """Print or write the JSON report; config holds only what the command read."""
    report = {
        "version": __version__,
        "config": config,
        "results": results,
        "environment": _environment(),
    }
    text = json.dumps(_round_floats(report), indent=2, sort_keys=True)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write report {out_path}: {exc}") from exc
    else:
        print(text)


def _verdict(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


# ----------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    # Repeated targets run once, in first-seen order.
    wanted = list(dict.fromkeys(t.strip() for t in args.targets.split(",") if t.strip()))
    if not wanted:
        raise CliError("no verification targets given")
    if wanted == ["all"]:
        wanted = list(losses.LOSS_NAMES) + ["total"]
    known = set(losses.LOSS_NAMES) | {"total"}
    unknown = [t for t in wanted if t not in known]
    if unknown:
        raise CliError(f"unknown verification targets: {', '.join(unknown)}")

    loss_names = [t for t in wanted if t in losses.LOSS_NAMES]
    if "total" in wanted:
        loss_names = list(losses.LOSS_NAMES)

    results: dict = {"mode": args.mode, "losses": {}}
    all_ok = True
    estimates: dict[str, quadrature.IntegralEstimate] = {}

    for name in loss_names:
        target = losses.TARGETS[name]
        if args.mode == quadrature.RIGOROUS:
            est, escalations = losses.verified_loss(name, budget=args.budget, tol=args.tol)
            ok = est.upper <= target
            all_ok &= _verdict(
                ok,
                f"loss {name}",
                f"certified [{low_text(est.lower, '.9e')}, {high_text(est.upper, '.9e')}] "
                f"target {target:g} boxes {est.boxes_used}",
            )
            results["losses"][name] = {
                "lower": _low(est.lower),
                "upper": _high(est.upper),
                "target": target,
                "boxes_used": est.boxes_used,
                "exhausted": est.exhausted,
                "escalations": escalations,
                "pass": ok,
                "leaves": dict(zip(quadrature.LEAF_CLASSES, est.leaves)),
                "gaps": {k: _high(g) for k, g in zip(quadrature.LEAF_CLASSES, est.gaps)},
            }
            estimates[name] = est
        else:
            est = losses.loss_mc(name, samples=args.samples, seed=args.seed)
            print(
                f"[INFO] loss {name}: estimate {est.midpoint:.9e} "
                f"stderr {est.stderr:.3e} target {target:g} (not a certificate)"
            )
            results["losses"][name] = {
                "estimate": est.midpoint,
                "stderr": est.stderr,
                "target": target,
                "samples": est.boxes_used,
            }

    if "total" in wanted:
        if args.mode == quadrature.RIGOROUS:
            ledger = losses.assemble_ledger(*(estimates[n] for n in losses.LOSS_NAMES))
            all_ok &= _verdict(
                ledger.all_within("total"),
                "total loss",
                f"upper {high_text(ledger.total_upper, '.9f')} < {losses.TARGETS['total']}",
            )
            all_ok &= _verdict(
                ledger.all_within("retained"),
                "retained fraction",
                f"lower {low_text(ledger.retained_lower, '.9f')} >= {losses.TARGETS['retained']}",
            )
            results["total"] = {
                "total_upper": _high(ledger.total_upper),
                "retained_lower": _low(ledger.retained_lower),
                "margins": {k: _low(v) for k, v in ledger.margins().items()},
                "pass": ledger.all_within("total", "retained"),
            }
        else:
            total = sum(results["losses"][n]["estimate"] for n in losses.LOSS_NAMES)
            print(f"[INFO] total loss estimate {total:.9f} (not a certificate)")
            results["total"] = {"estimate": total}

    monte_carlo = args.mode == quadrature.MONTE_CARLO
    cfg = {
        "command": "verify",
        "seed": args.seed if monte_carlo else None,
        "mode": args.mode,
        "targets": wanted,
        "budget": args.budget,
        "tol": args.tol,
        "samples": args.samples if monte_carlo else None,
    }
    _emit_report(results, cfg, args.out)
    return 0 if (all_ok or monte_carlo) else 1


# ----------------------------------------------------------------- harness


def _cmd_harness(args) -> int:
    from . import sieve_harness

    ctx = sieve_harness.build_context(args.x)
    report = sieve_harness.harness_report(ctx)
    ok_id = report["violations"]["identity"] == 0
    ok_min = report["violations"]["minorant"] == 0
    ok_sup = report["violations"]["support"] == 0
    all_ok = True
    all_ok &= _verdict(ok_id, "harness identities", f"x={args.x} violations {report['violations']['identity_detail']}")
    all_ok &= _verdict(ok_min, "harness minorant", f"x={args.x} violations {report['violations']['minorant']}")
    all_ok &= _verdict(ok_sup, "harness support", f"x={args.x} violations {report['violations']['support']}")
    print(
        f"[INFO] window ({args.x}, {2 * args.x}]: sum rho {report['totals']['rho']}, "
        f"primes {report['totals']['primes']}, scaled ratio {report['ratios']['window_log']:.6f}"
    )
    _emit_report(report, {"command": "harness", "x": args.x}, args.out)
    return 0 if all_ok else 1


# ----------------------------------------------------------------- omega


def _cmd_omega(args) -> int:
    from . import buchstab

    if not args.tol > 0.0:
        raise CliError("tol must be positive")
    for u in args.at or []:
        if not 1.0 <= u <= args.u_max:
            raise CliError(f"u = {u} outside table domain [1, {args.u_max}]")
    table = buchstab.build_table(u_max=args.u_max, step=args.step)
    all_ok = _verdict(
        table.max_width <= args.tol,
        "table enclosure width",
        f"max width {table.max_width:.3e} <= {args.tol:g} over [2, {args.u_max:g}]",
    )
    results: dict = {
        "u_max": args.u_max,
        "step": args.step,
        "tol": args.tol,
        "rows": len(table.lo),
        "max_width": table.max_width,
        "evaluations": [],
    }
    for u in args.at or []:
        enc = buchstab.omega_enclosure(table, u)
        low = buchstab.omega_bound(buchstab.OMEGA_LOWER, u)
        high = buchstab.omega_bound(buchstab.OMEGA_UPPER, u)
        print(
            f"[INFO] omega({u:g}) in [{low_text(enc.lo, '.12f')}, {high_text(enc.hi, '.12f')}] "
            f"width {enc.width:.3e}; piecewise bounds "
            f"[{low_text(low.lo, '.7f')}, {high_text(high.hi, '.7f')}]"
        )
        results["evaluations"].append(
            {
                "u": u,
                "lower": _low(enc.lo),
                "upper": _high(enc.hi),
                "width": enc.width,
                "bound_low": _low(low.lo),
                "bound_high": _high(high.hi),
            }
        )
    if args.csv:
        try:
            buchstab.dump_table_csv(table, args.csv)
        except OSError as exc:
            raise CliError(f"cannot write table {args.csv}: {exc}") from exc
        print(f"[INFO] wrote {len(table.lo)} rows to {args.csv}")
    _emit_report(results, {"command": "omega", "u_max": args.u_max, "step": args.step, "tol": args.tol}, args.out)
    return 0 if all_ok else 1


# ----------------------------------------------------------------- regions


def _parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse point {text!r}: {exc}") from exc


def _cmd_regions(args) -> int:
    catalog = regions.region_catalog()
    results: dict = {"regions": {name: reg.arity for name, reg in catalog.items()}}
    if args.catalog:
        results["catalog"] = regions.catalog_json()
    if args.point:
        point = _parse_point(args.point)
        membership = {}
        for name, reg in catalog.items():
            if reg.arity == len(point):
                inside = reg.contains(point)
                membership[name] = inside
                print(f"[INFO] {name}: {'inside' if inside else 'outside'}")
        if not membership:
            raise CliError(
                f"point has {len(point)} coordinates; no region with that arity"
            )
        results["membership"] = membership
    _emit_report(results, {"command": "regions"}, args.out)
    return 0


# ----------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievebound",
        description="Certified bounds for a prime-indicator minorant construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify loss integrals against targets")
    p_verify.add_argument("--targets", default="all", help="comma list from a3,b3,c,total or 'all'")
    p_verify.add_argument("--mode", choices=[quadrature.RIGOROUS, quadrature.MONTE_CARLO], default=quadrature.RIGOROUS)
    p_verify.add_argument("--budget", type=int, help="box budget override")
    p_verify.add_argument("--tol", type=float, help="gap tolerance override")
    p_verify.add_argument("--samples", type=int, default=10**6, help="Monte Carlo sample count")
    p_verify.add_argument("--seed", type=int, default=losses.MC_SEED, help="Monte Carlo seed")
    p_verify.add_argument("--out", help="write the JSON report to this path")
    p_verify.set_defaults(func=_cmd_verify)

    p_harness = sub.add_parser("harness", help="exact integer scan of (x, 2x]")
    p_harness.add_argument("--x", type=int, default=10**5, help="window base (default 100000)")
    p_harness.add_argument("--out", help="write the JSON report to this path")
    p_harness.set_defaults(func=_cmd_harness)

    p_omega = sub.add_parser("omega", help="build the Buchstab table")
    p_omega.add_argument("--u-max", dest="u_max", type=float, default=8.0, help="table endpoint")
    p_omega.add_argument("--step", type=float, default=1e-4, help="grid spacing")
    p_omega.add_argument("--tol", type=float, default=5e-8, help="enclosure width tolerance")
    p_omega.add_argument(
        "--at", type=float, action="append", help="evaluate an enclosure at u (repeatable)"
    )
    p_omega.add_argument("--csv", help="dump the table to this CSV path")
    p_omega.add_argument("--out", help="write the JSON report to this path")
    p_omega.set_defaults(func=_cmd_omega)

    p_regions = sub.add_parser("regions", help="inspect the region catalog")
    p_regions.add_argument("--catalog", action="store_true", help="include full JSON catalog")
    p_regions.add_argument("--point", help="comma separated exponents, e.g. 0.21,0.205")
    p_regions.add_argument("--out", help="write the JSON report to this path")
    p_regions.set_defaults(func=_cmd_regions)
    return parser


def exit_status(run, *args) -> int:
    """run(*args) as an exit status: its own result, 1 on a soundness failure, 2 on a usage error.

    Usage and soundness errors print one `error:` line on stderr
    instead of a traceback.  The demos share this mapping.
    """
    try:
        return run(*args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except interval.SoundnessError as exc:
        print(f"error: soundness failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_command(args) -> int:
    # Checked before any work, so no verdict line precedes a bad path; the final writes keep their own checks.
    for what, path in (("report", args.out), ("table", getattr(args, "csv", None))):
        parent = os.path.dirname(os.path.abspath(path or "."))
        if path and not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise CliError(f"cannot write {what} {path}: {parent} is not a writable directory")
    return args.func(args)


def main(argv: list[str] | None = None) -> int:
    return exit_status(_run_command, _build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
