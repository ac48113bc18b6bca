"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Runs ``perfbench/run.py --trace 0`` once per seed on every chosen workload,
interleaving the workloads round-robin so that slow phases of a shared host
fall on all of them alike.  For each workload and end-to-end metric it
prints the median of the per-run values and their interquartile distance as
a share of that median, next to the metric's bound in ``BENCHMARK.json``.
Exits non-zero if any run fails, reports incorrect output, or any spread
other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {n: {m: [] for m in bounds} for n in names}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                ok = False
                print(f"seed {seed} {name}: FAILED rc={proc.returncode} {proc.stderr[-500:]}", flush=True)
                continue
            row = {m: result["metrics"][m]["value"] for m in bounds}
            for m, v in row.items():
                values[name][m].append(v)
            print(f"seed {seed} {name}: " + " ".join(f"{m}={v:.4g}" for m, v in row.items()), flush=True)

    print(f"\n{'workload':18} {'metric':14} {'median':>10} {'spread':>8} {'bound':>6}")
    for name in names:
        for m, bound in bounds.items():
            vals = values[name][m]
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bound / 3 else (" > bound/3" if spread <= bound else " > BOUND")
            if spread > bound and m != "setup_s":
                ok = False
            print(f"{name:18} {m:14} {median:10.4f} {spread:8.3f} {bound:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
