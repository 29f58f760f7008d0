"""Run the benchmark on several seeds and report the spread of each end-to-end metric.

Run from the repository root, for example:

    python3 perfbench/spread.py --workloads planar_c,window_scan --seeds 1-10

Every run is a separate `perfbench/run.py` process with --trace 0 and the
run_seconds of BENCHMARK.json; runs go one after another.  For each
workload and end-to-end metric it prints the median, the quartile spread
(q3 - q1 from statistics.quantiles(values, n=4), as a share of the
median) and the metric's bound, and marks a spread at or above a third of
the bound.  The raw results go to .bench_out/spread-<first seed>-<last seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            info = [line for line in proc.stderr.splitlines() if line.startswith(("[INFO]", "[FAIL]"))]
            runs[workload].append({"seed": seed, "returncode": proc.returncode, "result": result, "log": info,
                                  "elapsed_s": elapsed})
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status} in {elapsed:.1f} s", flush=True)

    print(f"\n{'workload':14} {'metric':12} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, entries in runs.items():
        results = [e["result"] for e in entries if e["result"]]
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if metric["name"] == "setup_s" or spread < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:14} {metric['name']:12} {median:12.6g} {spread:8.2%} {metric['bound']:6.2f}{flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{seeds[0]}-{seeds[-1]}.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
