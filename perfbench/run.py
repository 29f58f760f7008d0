"""sievebound benchmark: time to a verified result, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload planar_c --seed 1 --seconds 15 --trace 0

Workloads, each run single-threaded in its own process:

  planar_c      `verify --targets c` at the default budget and tol through
                cli.main: the headline term, 2-D, time spread over the
                region, enclosure, mean-value and heap layers.
  quadruple_ab  `verify --targets a3,b3 --tol 2e-4` through cli.main: 4-D,
                dominated by region fractions over the window-avoidance
                trees; the mean-value average barely shows.  The tol is
                looser than the defaults so that a unit of work fits a run.
  window_scan   build_context(10**6) and harness_report: exact integer work
                that bypasses every interval layer.
  crosscheck    build_table, branch_expression_range and loss_mc for a3, b3
                and c through the `workers` path, seeded by --seed: the
                float region mask and Monte Carlo instead of exact
                fractions and refinement.

Times are reported in reference seconds (see speed.py): the measured wall
time rescaled by calibration snippets sampled while the work runs, so
that the speed swings of a shared machine cancel.  Raw wall times go to
stderr.

--trace 0 repeats the workload's unit of work for --seconds (at least
once) and reports the median time per verified result, the set-up time
(median over fresh interpreters importing the package) and the peak
resident memory.

--trace 1 runs one unit untraced and one traced, with spans recorded
around package calls from outside the package.  It checks that the two
results are bit-identical and that span self times account for the traced
wall time, times seed-chosen leaves and integers through single layers,
reports per-layer metrics and writes the spans to .bench_out/.  A metric
of a layer the workload does not use is reported as 0.

Every unit's result is checked; `attempted` and `failed` count the checks.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --smoke shrinks every workload
(tiny budget and tol, x = 1e4, minimum Monte Carlo samples) for the
benchmark's own tests.
"""

from __future__ import annotations

import os

# _tree_mask and value_many multiply with `@`: pin BLAS to one thread
# before numpy is imported, so every workload stays single-threaded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import dataclasses
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from speed import SpeedProbe
from tracing import Reservoir, SpanTotals, Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = json.loads((HERE / "reference.json").read_text())
FROZEN = REFERENCE["frozen"]
LOSS_NAMES = ("a3", "b3", "c")

SETUP_REPEATS = 9
SETUP_SNIPPETS = 20
MICRO_REPEATS = 5
LEAF_SAMPLE = 200
DECOMPOSE_SAMPLE = 2000
MC_STDERRS = 4.0
MC_WORKERS = 2

# Units of every metric the benchmark emits; BENCHMARK.json lists the same.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "regions.fraction_calls": "count",
    "regions.fraction_s": "s",
    "regions.fraction_us": "us",
    "regions.inside_ratio": "ratio",
    "regions.mixed_ratio": "ratio",
    "regions.outside_ratio": "ratio",
    "regions.mask_s": "s",
    "regions.mask_hit_ratio": "ratio",
    "losses.enclosure_calls": "count",
    "losses.enclosure_s": "s",
    "losses.enclosure_us": "us",
    "losses.average_calls": "count",
    "losses.average_s": "s",
    "losses.average_us": "us",
    "losses.average_tighten_ratio": "ratio",
    "losses.verified_s.a3": "s",
    "losses.verified_s.b3": "s",
    "losses.verified_s.c": "s",
    "losses.value_many_s": "s",
    "quadrature.rigorous_s": "s",
    "quadrature.self_s": "s",
    "quadrature.boxes": "count",
    "quadrature.boxes_per_s": "1/s",
    "quadrature.escalations": "count",
    "quadrature.mc_s": "s",
    "quadrature.mc_samples_per_s": "1/s",
    "buchstab.build_table_s": "s",
    "buchstab.branch_range_s": "s",
    "buchstab.omega_bound_range_s": "s",
    "buchstab.omega_bound_range_us": "us",
    "sieve_harness.build_context_s": "s",
    "sieve_harness.spf_bytes": "bytes",
    "sieve_harness.scan_s": "s",
    "sieve_harness.decompose_s": "s",
    "sieve_harness.decompose_us": "us",
    "sieve_harness.decompose_sample_us": "us",
    "sieve_harness.aggregate_s": "s",
    "sieve_harness.primes": "count",
    "cli.verify_s": "s",
    "cli.overhead_s": "s",
    **{f"{layer}_us.{loss}": "us" for layer in ("regions.fraction", "losses.enclosure", "losses.average")
       for loss in LOSS_NAMES},
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "n_per_s": "1/s",
    "samples_per_s": "1/s",
    "cert_upper": "density",
    "cert_width": "density",
    "fail_ratio": "ratio",
}

_NO_SPAN = SpanTotals(0, 0.0, 0.0)

buchstab = cli = losses = quadrature = sieve_harness = None


def _import_package() -> None:
    global buchstab, cli, losses, quadrature, sieve_harness
    sys.path.insert(0, str(SRC))
    from sievebound import buchstab, cli, losses, quadrature, sieve_harness


class Gate:
    """Counts correctness checks; a failed one is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[FAIL] {label}", file=sys.stderr)
        return bool(ok)


def _micro_us(fn, items) -> float:
    """Median over repeats of the reference microseconds per call of fn over items."""
    if not items:
        return 0.0
    per_call = []
    for _ in range(MICRO_REPEATS):
        with SpeedProbe() as probe:
            for item in items:
                fn(item)
        per_call.append(probe.reference_s / len(items))
    return statistics.median(per_call) * 1e6


# ------------------------------------------------------------ rigorous


def _call_cli(main, argv: list[str]) -> tuple[int, dict | None]:
    """Run the CLI with stdout captured; return its exit code and parsed JSON report."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    lines = buf.getvalue().splitlines()
    report = json.loads("\n".join(lines[lines.index("{"):])) if "{" in lines else None
    return code, report


class Rigorous:
    """planar_c and quadruple_ab: one `verify` through cli.main per unit."""

    calibration = ("python",)

    def __init__(self, argv: list[str], names: tuple[str, ...], passes: bool, tol: float | None, seed: int) -> None:
        self.argv = argv
        self.names = names
        self.passes = passes
        # The widest certified width a run may report: its tol, or the seed default tol.
        self.max_width = {n: REFERENCE["seed_default"][n]["tol"] if tol is None else tol for n in names}
        self.rng = random.Random(seed)
        self.classes = {"inside": 0, "mixed": 0, "outside": 0}
        self.tightened = 0
        self.last_enclosure_width = math.inf
        self.samples: dict[tuple[str, str], Reservoir] = {}
        self.u_args = Reservoir(LEAF_SAMPLE, self.rng)
        self.estimates: list = []

    def _sample(self, loss: str, layer: str) -> Reservoir:
        if (loss, layer) not in self.samples:
            self.samples[loss, layer] = Reservoir(LEAF_SAMPLE, self.rng)
        return self.samples[loss, layer]

    def unit(self, record: bool = False) -> dict:
        """One `verify`; with record, also keep each verified_loss result at full precision."""
        if not record:
            code, report = _call_cli(cli.main, self.argv)
            return {"code": code, "report": report}
        verified = {}
        real = losses.verified_loss

        def recording(name, budget=None, tol=None):
            verified[name] = real(name, budget=budget, tol=tol)
            return verified[name]

        with patched((losses, "verified_loss", recording)):
            code, report = _call_cli(cli.main, self.argv)
        return {"code": code, "report": report, "verified": verified}

    def traced(self, tracer: Tracer) -> dict:
        """The same `verify`, with spans around the CLI, verified_loss and each layer callable."""
        loss_of_region = {losses.integration_domain(n)[2].name: n for n in LOSS_NAMES}
        integrate = tracer.wrap("quadrature.rigorous", quadrature.integrate_rigorous)
        real_verified = losses.verified_loss
        verified = {}

        def traced_verified(name, budget=None, tol=None):
            verified[name] = tracer.wrap(f"losses.verified.{name}", real_verified)(name, budget=budget, tol=tol)
            return verified[name]

        def traced_integrate(f, region, box, budget, tol):
            loss = loss_of_region[region.name]
            fractions = self._sample(loss, "fraction")
            enclosures = self._sample(loss, "enclosure")
            averages = self._sample(loss, "average")

            def on_fraction(args, result):
                lo, hi = result
                self.classes["inside" if lo == 1 else "outside" if hi == 0 else "mixed"] += 1
                fractions.add(args[0])

            def on_enclosure(args, result):
                self.last_enclosure_width = max(result.hi, 0.0) - max(result.lo, 0.0)
                enclosures.add(args[0])

            def on_average(args, result):
                self.tightened += result.width < self.last_enclosure_width
                averages.add(args[0])

            traced_f = dataclasses.replace(
                f,
                enclosure=tracer.wrap("losses.enclosure", f.enclosure, on_enclosure),
                average=tracer.wrap("losses.average", f.average, on_average),
            )
            traced_region = SimpleNamespace(arity=region.arity,
                                            fraction=tracer.wrap("regions.fraction", region.fraction, on_fraction))
            est = integrate(traced_f, traced_region, box, budget=budget, tol=tol)
            self.estimates.append(est)
            return est

        omega = tracer.wrap("buchstab.omega_bound_range", losses.omega_bound_range,
                            lambda args, result: self.u_args.add(args))
        with patched((losses, "verified_loss", traced_verified), (losses, "integrate_rigorous", traced_integrate),
                     (losses, "omega_bound_range", omega)):
            code, report = _call_cli(tracer.wrap("cli.verify", cli.main), self.argv)
        return {"code": code, "report": report, "verified": verified}

    def check(self, gate: Gate, out: dict) -> None:
        gate.check("cli exit code", out["code"] == (0 if self.passes else 1))
        if not gate.check("cli JSON report", out["report"] is not None):
            return
        results = out["report"]["results"]["losses"]
        for name in self.names:
            r = results.get(name)
            if not gate.check(f"loss {name} reported", r is not None):
                continue
            gate.check(f"loss {name} verdict", r["pass"] is self.passes)
            gate.check(f"loss {name} sandwich contains the frozen reference", r["lower"] <= FROZEN[name] <= r["upper"])
            gate.check(f"loss {name} certified width within tol", r["upper"] - r["lower"] <= self.max_width[name])

    def same(self, a: dict, b: dict) -> bool:
        return a["verified"] == b["verified"] and a["report"] == b["report"]

    def layers(self, tracer: Tracer, gate: Gate) -> dict:
        spans = tracer.totals()

        def get(name: str) -> SpanTotals:
            return spans.get(name, _NO_SPAN)

        frac, enc, avg = get("regions.fraction"), get("losses.enclosure"), get("losses.average")
        omega, rig, main = get("buchstab.omega_bound_range"), get("quadrature.rigorous"), get("cli.verify")
        under = frac.self_s + enc.self_s + avg.self_s + omega.self_s + rig.self_s
        gate.check("layer self times and quadrature.self_s account for quadrature.rigorous",
                   abs(under - rig.total_s) <= 1e-6 * rig.total_s + 1e-9)
        calls = max(frac.calls, 1)
        boxes = sum(est.boxes_used for est in self.estimates)
        m = {
            "regions.fraction_calls": frac.calls,
            "regions.fraction_s": frac.total_s,
            "regions.fraction_us": frac.total_s / calls * 1e6,
            "regions.inside_ratio": self.classes["inside"] / calls,
            "regions.mixed_ratio": self.classes["mixed"] / calls,
            "regions.outside_ratio": self.classes["outside"] / calls,
            "losses.enclosure_calls": enc.calls,
            "losses.enclosure_s": enc.total_s,
            "losses.enclosure_us": enc.total_s / max(enc.calls, 1) * 1e6,
            "losses.average_calls": avg.calls,
            "losses.average_s": avg.total_s,
            "losses.average_us": avg.total_s / max(avg.calls, 1) * 1e6,
            "losses.average_tighten_ratio": self.tightened / max(avg.calls, 1),
            "quadrature.rigorous_s": rig.total_s,
            "quadrature.self_s": rig.self_s,
            "quadrature.boxes": boxes,
            "quadrature.boxes_per_s": boxes / rig.total_s if rig.total_s else 0.0,
            "buchstab.omega_bound_range_s": omega.total_s,
            "cli.verify_s": main.total_s,
            "cli.overhead_s": main.self_s,
        }
        for name in self.names:
            m[f"losses.verified_s.{name}"] = get(f"losses.verified.{name}").total_s
        return m

    def untraced_metrics(self, out: dict, probe: SpeedProbe) -> dict:
        verified = out["verified"].values()
        return {
            "quadrature.escalations": sum(esc for _, esc in verified),
            "cert_upper": sum(est.upper for est, _ in verified),
            "cert_width": sum(est.upper - est.lower for est, _ in verified),
        }

    def micro(self, traced: dict, seed: int) -> dict:
        m = {}
        for name in self.names:
            general, _, region, _ = losses.integration_domain(name)
            m[f"regions.fraction_us.{name}"] = _micro_us(region.fraction, self._sample(name, "fraction").items)
            m[f"losses.enclosure_us.{name}"] = _micro_us(general.enclosure, self._sample(name, "enclosure").items)
            m[f"losses.average_us.{name}"] = _micro_us(general.average, self._sample(name, "average").items)
        m["buchstab.omega_bound_range_us"] = _micro_us(lambda args: buchstab.omega_bound_range(*args),
                                                       self.u_args.items)
        return m


# ------------------------------------------------------------ window scan


def count_primes_window(x: int) -> int:
    """Primes in (x, 2x] by a plain sieve of Eratosthenes, independent of the package."""
    limit = 2 * x
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return int(is_prime[x + 1 :].sum())


class WindowScan:
    """window_scan: build_context(x) and harness_report per unit."""

    calibration = ("python",)

    def __init__(self, x: int) -> None:
        self.x = x
        self.primes: int | None = None

    def unit(self, record: bool = False) -> dict:
        ctx = sieve_harness.build_context(self.x)
        return {"ctx": ctx, "report": sieve_harness.harness_report(ctx)}

    def traced(self, tracer: Tracer) -> dict:
        build = tracer.wrap("sieve_harness.build_context", sieve_harness.build_context)
        scan = tracer.wrap("sieve_harness.scan", sieve_harness.harness_report)
        with patched((sieve_harness, "decompose", tracer.wrap("sieve_harness.decompose", sieve_harness.decompose))):
            ctx = build(self.x)
            return {"ctx": ctx, "report": scan(ctx)}

    def check(self, gate: Gate, out: dict) -> None:
        if self.primes is None:
            self.primes = count_primes_window(self.x)
            expected = REFERENCE["window_primes"].get(str(self.x))
            gate.check("independent prime count matches the reference", expected in (None, self.primes))
        report = out["report"]
        violations = report["violations"]
        gate.check("window identity violations", violations["identity"] == 0)
        gate.check("window minorant violations", violations["minorant"] == 0)
        gate.check("window support violations", violations["support"] == 0)
        gate.check("window report clean", report["clean"] is True)
        gate.check("window fully scanned", report["checked"] == self.x)
        gate.check("window primes match an independent sieve", report["totals"]["primes"] == self.primes)

    def same(self, a: dict, b: dict) -> bool:
        return a["report"] == b["report"]

    def layers(self, tracer: Tracer, gate: Gate) -> dict:
        spans = tracer.totals()
        build, scan = spans["sieve_harness.build_context"], spans["sieve_harness.scan"]
        dec = spans.get("sieve_harness.decompose", _NO_SPAN)
        gate.check("decompose_s plus aggregate_s account for scan_s",
                   scan.self_s >= 0.0 and abs(dec.total_s + scan.self_s - scan.total_s) <= 1e-6 * scan.total_s + 1e-9)
        return {
            "sieve_harness.build_context_s": build.total_s,
            "sieve_harness.scan_s": scan.total_s,
            "sieve_harness.decompose_s": dec.total_s,
            "sieve_harness.decompose_us": dec.total_s / max(dec.calls, 1) * 1e6,
            "sieve_harness.aggregate_s": scan.self_s,
        }

    def untraced_metrics(self, out: dict, probe: SpeedProbe) -> dict:
        return {
            "sieve_harness.spf_bytes": out["ctx"].spf.nbytes,
            "sieve_harness.primes": out["report"]["totals"]["primes"],
            "n_per_s": self.x / probe.reference_s,
        }

    def micro(self, traced: dict, seed: int) -> dict:
        ctx = traced["ctx"]
        sample = random.Random(seed).sample(range(self.x + 1, 2 * self.x + 1), min(DECOMPOSE_SAMPLE, self.x))
        return {"sieve_harness.decompose_sample_us": _micro_us(lambda n: sieve_harness.decompose(ctx, n), sample)}


# ------------------------------------------------------------ crosscheck


class Crosscheck:
    """crosscheck: build_table, branch_expression_range and loss_mc for every loss per unit."""

    calibration = ("python", "numpy")

    def __init__(self, samples: int, table: dict, branch_step: float, seed: int) -> None:
        self.samples = samples
        self.table = table
        self.branch_step = branch_step
        self.seed = seed
        self.hits = 0
        self.points = 0

    def _monte_carlo(self) -> dict:
        return {n: losses.loss_mc(n, samples=self.samples, seed=self.seed, workers=MC_WORKERS) for n in LOSS_NAMES}

    def unit(self, record: bool = False) -> dict:
        out = {"table": buchstab.build_table(**self.table),
               "branch": buchstab.branch_expression_range(self.branch_step)}
        start = time.perf_counter()
        out["mc"] = self._monte_carlo()
        out["mc_raw_s"] = time.perf_counter() - start
        return out

    def traced(self, tracer: Tracer) -> dict:
        integrate = tracer.wrap("quadrature.mc", quadrature.integrate_mc)

        def on_mask(args, result):
            self.hits += int(result.sum())
            self.points += len(result)

        def traced_mc(f, region, box, samples, seed, workers=1):
            traced_f = dataclasses.replace(f, value_many=tracer.wrap("losses.value_many", f.value_many))
            traced_region = SimpleNamespace(arity=region.arity, mask=tracer.wrap("regions.mask", region.mask, on_mask))
            return integrate(traced_f, traced_region, box, samples=samples, seed=seed, workers=workers)

        out = {"table": tracer.wrap("buchstab.build_table", buchstab.build_table)(**self.table),
               "branch": tracer.wrap("buchstab.branch_range", buchstab.branch_expression_range)(self.branch_step)}
        with patched((losses, "integrate_mc", traced_mc)):
            out["mc"] = self._monte_carlo()
        return out

    def check(self, gate: Gate, out: dict) -> None:
        gate.check("table max_width", out["table"].max_width <= REFERENCE["table_max_width"])
        floor, ceiling = REFERENCE["branch_window"]
        gate.check("branch expression range inside its window", floor <= out["branch"].lo <= out["branch"].hi <= ceiling)
        for name, est in out["mc"].items():
            certified = REFERENCE["seed_default"][name]
            pad = MC_STDERRS * est.stderr
            gate.check(f"monte carlo {name} sample count", est.boxes_used == self.samples)
            gate.check(f"monte carlo {name} inside the certified sandwich",
                       certified["lower"] - pad <= est.midpoint <= certified["upper"] + pad)

    def same(self, a: dict, b: dict) -> bool:
        return all(a[k] == b[k] for k in ("table", "branch", "mc"))

    def layers(self, tracer: Tracer, gate: Gate) -> dict:
        spans = tracer.totals()
        mc, mask, value_many = spans["quadrature.mc"], spans["regions.mask"], spans["losses.value_many"]
        return {
            "regions.mask_s": mask.total_s,
            "regions.mask_hit_ratio": self.hits / max(self.points, 1),
            "losses.value_many_s": value_many.total_s,
            "quadrature.mc_s": mc.total_s,
            "quadrature.mc_samples_per_s": self.samples * len(LOSS_NAMES) / mc.total_s,
            "buchstab.build_table_s": spans["buchstab.build_table"].total_s,
            "buchstab.branch_range_s": spans["buchstab.branch_range"].total_s,
        }

    def untraced_metrics(self, out: dict, probe: SpeedProbe) -> dict:
        return {"samples_per_s": self.samples * len(LOSS_NAMES) / (out["mc_raw_s"] * probe.factor)}

    def micro(self, traced: dict, seed: int) -> dict:
        return {}


def make_workload(name: str, seed: int, smoke: bool):
    if name == "planar_c":
        if smoke:
            return Rigorous(["verify", "--targets", "c", "--budget", "200", "--tol", "1e-3"], ("c",), False, 1e-3, seed)
        return Rigorous(["verify", "--targets", "c"], ("c",), True, None, seed)
    if name == "quadruple_ab":
        tol = 5e-4 if smoke else 2e-4
        return Rigorous(["verify", "--targets", "a3,b3", "--tol", repr(tol)], ("a3", "b3"), True, tol, seed)
    if name == "window_scan":
        return WindowScan(10**4 if smoke else 10**6)
    if smoke:
        return Crosscheck(10_000, {"u_max": 3.0}, 1e-3, seed)
    return Crosscheck(10**7, {}, 2e-4, seed)


WORKLOADS = ("planar_c", "quadruple_ab", "window_scan", "crosscheck")


# ------------------------------------------------------------ runs


def measure_setup() -> float:
    """Median reference seconds for a fresh interpreter to import the package and its CLI."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import sievebound.cli\n"
        "elapsed = time.perf_counter() - start\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import speed\n"
        f"print(elapsed, sum(speed.speed_sample(('python',)) for _ in range({SETUP_SNIPPETS})) / {SETUP_SNIPPETS})\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
        elapsed, factor = map(float, proc.stdout.split())
        times.append(elapsed * factor)
    return statistics.median(times)


def run_timed(workload, seconds: float, gate: Gate, label: str) -> dict:
    setup_s = measure_setup()
    walls, raws = [], []
    # Stop once the next unit would likely overrun --seconds by more than half a unit.
    while not raws or sum(raws) + 0.5 * raws[-1] < seconds:
        with SpeedProbe(workload.calibration) as probe:
            out = workload.unit()
        workload.check(gate, out)
        walls.append(probe.reference_s)
        raws.append(probe.raw_s)
    print(f"[INFO] {label}: {len(walls)} unit(s), reference s {[round(w, 3) for w in walls]}, "
          f"raw s {[round(r, 3) for r in raws]}", file=sys.stderr)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _rescale(value, unit: str, factor: float):
    """Raw span-derived value to reference units."""
    if unit in ("s", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def run_traced(workload, seed: int, gate: Gate, label: str) -> dict:
    with SpeedProbe(workload.calibration) as untraced_probe:
        untraced = workload.unit(record=True)
    workload.check(gate, untraced)
    tracer = Tracer()
    with SpeedProbe(workload.calibration) as traced_probe:
        traced = workload.traced(tracer)
    workload.check(gate, traced)
    gate.check("traced result bit-identical to the untraced run", workload.same(untraced, traced))
    roots = tracer.root_seconds()
    gate.check("spans nest inside their parents", tracer.min_self() >= -1e-6)
    gate.check("span self times account for the traced wall time",
               roots <= traced_probe.raw_s and traced_probe.raw_s - roots <= 0.02 * traced_probe.raw_s + 0.01)

    m: dict = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER.items()}
    for name, value in workload.layers(tracer, gate).items():
        m[name] = _rescale(value, PER_LAYER[name], traced_probe.factor)
    m.update(workload.untraced_metrics(untraced, untraced_probe))
    m.update(workload.micro(traced, seed))
    overhead = traced_probe.reference_s - untraced_probe.reference_s
    m["trace.overhead_s"] = overhead
    m["trace.overhead_ratio"] = overhead / untraced_probe.reference_s
    print(f"[INFO] {label}: untraced {untraced_probe.reference_s:.3f} reference s ({untraced_probe.raw_s:.3f} raw), "
          f"traced {traced_probe.reference_s:.3f} ({traced_probe.raw_s:.3f} raw), {len(tracer.start)} spans",
          file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"trace-{label}-seed{seed}.npz"))
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import sievebound from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed, args.smoke)
    gate = Gate()
    if args.trace:
        values = run_traced(workload, args.seed, gate, args.workload)
        values["fail_ratio"] = gate.failed / gate.attempted
        units = PER_LAYER
    else:
        values = run_timed(workload, args.seconds, gate, args.workload)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
