"""Command line interface.

Subcommands:

    verify    certify the loss integrals against the budget targets
    harness   exact integer scan of a dyadic window
    omega     build the Buchstab table and evaluate enclosures
    regions   inspect the exponent-region catalog

Exit codes: 0 all requested verdicts pass, 1 at least one verdict
fails or a certified computation hits a soundness failure, 2 usage or
configuration error.

Parameter precedence, highest first: command line flag, config file
entry (--config, "key = value" lines, # comments), environment
(SIEVEBOUND_WORKERS), built-in default.  A config key that no command
reads (see _CONFIG_KEYS) is a configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from . import buchstab, losses, quadrature, regions, sieve_harness

_ENV_WORKERS = "SIEVEBOUND_WORKERS"
_DEFAULT_SEED = 20240801
# Every key some command resolves from a config file.
_CONFIG_KEYS = frozenset({"seed", "workers", "mode", "samples", "budget", "tol", "targets", "x", "u_max", "step"})


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
                out[key] = value
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return out


def _resolve(
    name: str,
    flag_value,
    config: dict[str, str],
    caster,
    default,
    env_var: str | None = None,
):
    if flag_value is not None:
        return flag_value
    if name in config:
        try:
            return caster(config[name])
        except ValueError as exc:
            raise CliError(f"config key {name}: {exc}") from exc
    if env_var and env_var in os.environ:
        try:
            return caster(os.environ[env_var])
        except ValueError as exc:
            raise CliError(f"environment {env_var}: {exc}") from exc
    return default


def _round_floats(obj, digits: int = 12):
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
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
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
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _verdict(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


# ----------------------------------------------------------------- verify


def _cmd_verify(args, config: dict[str, str]) -> int:
    seed = _resolve("seed", args.seed, config, int, _DEFAULT_SEED)
    workers = _resolve("workers", args.workers, config, int, 1, _ENV_WORKERS)
    mode = _resolve("mode", args.mode, config, str, quadrature.RIGOROUS)
    if mode not in (quadrature.RIGOROUS, quadrature.MONTE_CARLO):
        raise CliError(f"unknown mode {mode!r}")
    samples = _resolve("samples", args.samples, config, int, 10**6)
    budget = _resolve("budget", args.budget, config, int, None)
    tol = _resolve("tol", args.tol, config, float, None)
    raw_targets = _resolve("targets", args.targets, config, str, "all")
    wanted = [t.strip() for t in raw_targets.split(",") if t.strip()]
    if wanted == ["all"]:
        wanted = list(losses.LOSS_NAMES) + ["total"]
    known = set(losses.LOSS_NAMES) | {"total"}
    unknown = [t for t in wanted if t not in known]
    if unknown:
        raise CliError(f"unknown verification targets: {', '.join(unknown)}")

    loss_names = [t for t in wanted if t in losses.LOSS_NAMES]
    if "total" in wanted:
        loss_names = list(losses.LOSS_NAMES)

    results: dict = {"mode": mode, "losses": {}}
    all_ok = True
    estimates: dict[str, quadrature.IntegralEstimate] = {}

    for name in loss_names:
        target = losses.TARGETS[name]
        if mode == quadrature.RIGOROUS:
            est, escalations = losses.verified_loss(name, budget=budget, tol=tol)
            ok = est.upper <= target
            all_ok &= _verdict(
                ok,
                f"loss {name}",
                f"certified [{est.lower:.9e}, {est.upper:.9e}] "
                f"target {target:g} boxes {est.boxes_used}",
            )
            results["losses"][name] = {
                "lower": est.lower,
                "upper": est.upper,
                "target": target,
                "boxes_used": est.boxes_used,
                "exhausted": est.exhausted,
                "escalations": escalations,
                "pass": ok,
            }
            estimates[name] = est
        else:
            est = losses.loss_mc(name, samples=samples, seed=seed, workers=workers)
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
        if mode == quadrature.RIGOROUS:
            ledger = losses.assemble_ledger(
                estimates["a3"], estimates["b3"], estimates["c"]
            )
            ok_total = ledger.total_upper < losses.TARGETS["total"]
            ok_kept = ledger.retained_lower > losses.TARGETS["retained"]
            all_ok &= _verdict(
                ok_total,
                "total loss",
                f"upper {ledger.total_upper:.9f} < {losses.TARGETS['total']}",
            )
            all_ok &= _verdict(
                ok_kept,
                "retained fraction",
                f"lower {ledger.retained_lower:.9f} > {losses.TARGETS['retained']}",
            )
            results["total"] = {
                "total_upper": ledger.total_upper,
                "retained_lower": ledger.retained_lower,
                "margins": ledger.margins(),
                "pass": ok_total and ok_kept,
            }
        else:
            total = sum(results["losses"][n]["estimate"] for n in losses.LOSS_NAMES)
            print(f"[INFO] total loss estimate {total:.9f} (not a certificate)")
            results["total"] = {"estimate": total}

    cfg = {
        "command": "verify",
        "seed": seed,
        "workers": workers,
        "mode": mode,
        "targets": wanted,
        "budget": budget,
        "tol": tol,
        "samples": samples if mode == quadrature.MONTE_CARLO else None,
    }
    _emit_report(results, cfg, args.out)
    return 0 if (all_ok or mode == quadrature.MONTE_CARLO) else 1


# ----------------------------------------------------------------- harness


def _cmd_harness(args, config: dict[str, str]) -> int:
    x = _resolve("x", args.x, config, int, 10**5)
    ctx = sieve_harness.build_context(x)
    report = sieve_harness.harness_report(ctx)
    ok_id = report["violations"]["identity"] == 0
    ok_min = report["violations"]["minorant"] == 0
    ok_sup = report["violations"]["support"] == 0
    all_ok = True
    all_ok &= _verdict(ok_id, "harness identities", f"x={x} violations {report['violations']['identity_detail']}")
    all_ok &= _verdict(ok_min, "harness minorant", f"x={x} violations {report['violations']['minorant']}")
    all_ok &= _verdict(ok_sup, "harness support", f"x={x} violations {report['violations']['support']}")
    print(
        f"[INFO] window ({x}, {2*x}]: sum rho {report['totals']['rho']}, "
        f"primes {report['totals']['primes']}, scaled ratio {report['ratios']['window_log']:.6f}"
    )
    _emit_report(report, {"command": "harness", "x": x}, args.out)
    return 0 if all_ok else 1


# ----------------------------------------------------------------- omega


def _cmd_omega(args, config: dict[str, str]) -> int:
    u_max = _resolve("u_max", args.u_max, config, float, 8.0)
    step = _resolve("step", args.step, config, float, 1e-4)
    tol = _resolve("tol", args.tol, config, float, 5e-8)
    if tol <= 0.0:
        raise CliError("tol must be positive")
    table = buchstab.build_table(u_max=u_max, step=step)
    all_ok = _verdict(
        table.max_width <= tol,
        "table enclosure width",
        f"max width {table.max_width:.3e} <= {tol:g} over [2, {u_max:g}]",
    )
    results: dict = {
        "u_max": u_max,
        "step": step,
        "tol": tol,
        "rows": len(table.values),
        "max_width": table.max_width,
        "evaluations": [],
    }
    for u in args.at or []:
        enc = buchstab.omega_enclosure(table, u)
        low = buchstab.omega_bound(buchstab.OMEGA_LOWER, u)
        high = buchstab.omega_bound(buchstab.OMEGA_UPPER, u)
        print(
            f"[INFO] omega({u:g}) in [{enc.lo:.12f}, {enc.hi:.12f}] "
            f"width {enc.width:.3e}; piecewise bounds "
            f"[{low.lo:.7f}, {high.hi:.7f}]"
        )
        results["evaluations"].append(
            {
                "u": u,
                "lower": enc.lo,
                "upper": enc.hi,
                "width": enc.width,
                "bound_low": low.lo,
                "bound_high": high.hi,
            }
        )
    if args.csv:
        buchstab.dump_table_csv(table, args.csv)
        print(f"[INFO] wrote {len(table.values)} rows to {args.csv}")
    _emit_report(results, {"command": "omega", "u_max": u_max, "step": step, "tol": tol}, args.out)
    return 0 if all_ok else 1


# ----------------------------------------------------------------- regions


def _parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse point {text!r}: {exc}") from exc


def _cmd_regions(args, config: dict[str, str]) -> int:
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


def _add_common(parser: argparse.ArgumentParser, root: bool) -> None:
    # The common flags live on the root parser and on every subparser so
    # they may appear on either side of the subcommand.  The subparser
    # copies default to SUPPRESS: argparse subparsers share the root
    # namespace, and a plain default would clobber a value parsed before
    # the subcommand.
    default = None if root else argparse.SUPPRESS
    parser.add_argument("--config", default=default, help="key = value configuration file")
    parser.add_argument("--seed", type=int, default=default, help="base random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=default,
        help="Monte Carlo RNG stream count; the streams run one after another",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievebound",
        description="Certified bounds for a prime-indicator minorant construction.",
    )
    _add_common(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify loss integrals against targets")
    _add_common(p_verify, root=False)
    p_verify.add_argument("--targets", help="comma list from a3,b3,c,total or 'all'")
    p_verify.add_argument("--mode", choices=[quadrature.RIGOROUS, quadrature.MONTE_CARLO])
    p_verify.add_argument("--budget", type=int, help="box budget override")
    p_verify.add_argument("--tol", type=float, help="gap tolerance override")
    p_verify.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p_verify.add_argument("--out", help="write the JSON report to this path")
    p_verify.set_defaults(func=_cmd_verify)

    p_harness = sub.add_parser("harness", help="exact integer scan of (x, 2x]")
    _add_common(p_harness, root=False)
    p_harness.add_argument("--x", type=int, help="window base (default 100000)")
    p_harness.add_argument("--out", help="write the JSON report to this path")
    p_harness.set_defaults(func=_cmd_harness)

    p_omega = sub.add_parser("omega", help="build the Buchstab table")
    _add_common(p_omega, root=False)
    p_omega.add_argument("--u-max", dest="u_max", type=float, help="table endpoint")
    p_omega.add_argument("--step", type=float, help="grid spacing")
    p_omega.add_argument("--tol", type=float, help="enclosure width tolerance")
    p_omega.add_argument(
        "--at", type=float, action="append", help="evaluate an enclosure at u (repeatable)"
    )
    p_omega.add_argument("--csv", help="dump the table to this CSV path")
    p_omega.add_argument("--out", help="write the JSON report to this path")
    p_omega.set_defaults(func=_cmd_omega)

    p_regions = sub.add_parser("regions", help="inspect the region catalog")
    _add_common(p_regions, root=False)
    p_regions.add_argument("--catalog", action="store_true", help="include full JSON catalog")
    p_regions.add_argument("--point", help="comma separated exponents, e.g. 0.21,0.205")
    p_regions.add_argument("--out", help="write the JSON report to this path")
    p_regions.set_defaults(func=_cmd_regions)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if args.config else {}
        return args.func(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except buchstab.SoundnessError as exc:
        print(f"error: soundness failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
