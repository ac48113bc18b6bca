"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Shows that:
- the metric names ``run.py`` emits are exactly those ``BENCHMARK.json`` lists;
- a job whose output disagrees with a deliberately wrong expectation is
  counted as failed, so it raises ``ops_failed_frac``, while the true
  expectation passes;
- ``run.py`` exits non-zero, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and the benchmark's own files.
Exits non-zero if any of these does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from tracer import _COUNTERS

sys.path.insert(0, str(run.SRC))

from workloads import setup  # noqa: E402


def check_metric_names() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    emitted = set(run.layer_metrics(run.Pass(counters=dict.fromkeys(_COUNTERS, 0))))
    emitted |= {"trace.coverage_frac", "trace.overhead_frac"}
    listed = {m["name"] for m in spec["per_layer"]}
    errors = [f"per_layer metric {n} is not emitted" for n in sorted(listed - emitted)]
    errors += [f"emitted metric {n} is not in per_layer" for n in sorted(emitted - listed)]
    if {m["name"] for m in spec["end_to_end"]} != {"wall_s", "cpu_s", "peak_rss_mib", "setup_s"}:
        errors.append("end_to_end metrics differ from those run.py emits")
    return errors


def check_wrong_expectation(work) -> list[str]:
    jobs = setup("iterate-diverge", 0, work)
    iterate, decide = jobs
    wrong_iterate = dataclasses.replace(
        iterate, expect={**iterate.expect, "vertices": [16] * len(iterate.expect["vertices"])}
    )
    wrong_decide = dataclasses.replace(decide, expect={"verdict": "convergent"})
    errors = []
    right = run.run_pass(jobs, work)
    if right.failed:
        errors.append(f"true expectations failed: {right.problems}")
    for job in (wrong_iterate, wrong_decide):
        wrong = run.run_pass([job], work)
        if wrong.failed / wrong.attempted != 1.0:
            errors.append(f"wrong expectation on {job.args[0]} was not counted as a failure")
    return errors


def check_bare_directory(work) -> list[str]:
    bare = work / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "geo-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory run exited {proc.returncode} with output {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    work = run.ROOT / ".bench_work" / "selftest"
    try:
        errors = check_metric_names() + check_wrong_expectation(work) + check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
