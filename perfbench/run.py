"""The cliquedyn benchmark: the CLI pipelines timed cold, job by job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` with no build step.  The benchmark writes its seeded inputs under
``.bench_work/`` (removed on exit), then repeats passes over the workload's
jobs for about ``--seconds`` seconds.  Every job is a fresh
``python3 -m cliquedyn.cli`` process, run one at a time, as a user runs the
CLI: a warm in-process loop would hit the library's per-graph caches, which
no CLI run ever does.  Every job's exit code and output are checked.

``--trace 0`` reports the end-to-end metrics, medians over passes:
``wall_s`` (the pass's summed job wall time), ``cpu_s`` (user+sys of the
jobs), ``peak_rss_mib`` (largest job) and ``setup_s`` (generate, relabel and
write the inputs; median of the set-ups timed between passes).  ``--trace 1`` alternates
untraced passes with passes whose jobs run under ``perfbench/tracer.py`` and
reports per-layer self times and counters.

The last stdout line is the result object; the line before it holds the
quartiles, sample counts, failures and provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_BATCH_S = 0.25
JOB_TIMEOUT_S = 30  # each job takes a few seconds; a hung one is killed and fails


@dataclass
class Pass:
    """Totals of one pass over a workload's jobs."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    startup_s: float = 0.0
    spans: dict[str, list] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)


def run_pass(jobs, work: Path, traced: bool = False) -> Pass:
    """Run every job once, each in a fresh interpreter, and check its output."""
    from workloads import check

    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CLIQUE_BUDGET_VERTICES", None)
    out_path, err_path, spans_path = work / "stdout.txt", work / "stderr.txt", work / "spans.json"
    result = Pass()
    for job in jobs:
        if traced:
            spans_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), repr(time.time()), "--"]
            else:
                argv = [sys.executable, "-m", "cliquedyn.cli"]
            argv += job.args
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            watchdog = threading.Timer(JOB_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result.wall_s += wall
        result.cpu_s += usage.ru_utime + usage.ru_stime
        result.peak_rss_mib = max(result.peak_rss_mib, usage.ru_maxrss / 1024)
        result.attempted += 1
        problems = check(job, proc.returncode, out_path.read_text())
        if traced:
            problems += _merge_spans(result, spans_path)
        if problems:
            result.failed += 1
            stderr_tail = err_path.read_text()[-300:].strip()
            result.problems.append(f"{' '.join(job.args[:2])}: {'; '.join(problems)} {stderr_tail}".strip())
    return result


def _merge_spans(result: Pass, spans_path: Path) -> list[str]:
    try:
        with open(spans_path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no span file: {exc}"]
    result.startup_s += data["startup_s"]
    for name, (calls, self_s) in data["spans"].items():
        entry = result.spans.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s
    for name, value in data["counters"].items():
        result.counters[name] = result.counters.get(name, 0) + value
    return []


# -- metrics ------------------------------------------------------------------


def _calls(p: Pass, span: str) -> int:
    return p.spans.get(span, [0, 0.0])[0]


def _self(p: Pass, span: str) -> float:
    return p.spans.get(span, [0, 0.0])[1]


def _layer_self(p: Pass, layer: str) -> float:
    return sum(s for name, (_, s) in p.spans.items() if name.startswith(layer + "."))


def _per_million(seconds: float, count: int) -> float:
    return seconds * 1e6 / count if count else 0.0


def layer_metrics(p: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    c = p.counters
    m: dict[str, tuple[float, str]] = {}
    for k in range(1, 6):
        m[f"charts.find_standard_charts.m{k}.self_s"] = (_self(p, f"charts.find_standard_charts.m{k}"), "s")
    m["charts.charts_found"] = (c["charts.charts_found"], "count")
    m["geometric.build.self_s"] = (_self(p, "geometric.build"), "s")
    m["geometric.c_map.self_s"] = (_self(p, "geometric.c_map"), "s")
    m["geometric.verify.self_s"] = (_self(p, "geometric.verify"), "s")
    m["geometric.level_vertices"] = (c["geometric.level_vertices"], "count")
    m["geometric.level_edges"] = (c["geometric.level_edges"], "count")
    m["cliques.max_cliques.self_s"] = (_self(p, "cliques.max_cliques"), "s")
    m["cliques.max_cliques.calls"] = (_calls(p, "cliques.max_cliques"), "count")
    m["cliques.cliques_found"] = (c["cliques.cliques_found"], "count")
    m["cliques.clique_graph.self_s"] = (_self(p, "cliques.clique_graph"), "s")
    m["cliques.iterate_k.self_s"] = (_self(p, "cliques.iterate_k"), "s")
    m["cliques.iterate_vertices"] = (c["cliques.iterate_vertices"], "count")
    canon_s = _self(p, "isomorphism.canonical_order")
    m["isomorphism.canonical_order.self_s"] = (canon_s, "s")
    m["isomorphism.canonical_order.calls"] = (_calls(p, "isomorphism.canonical_order"), "count")
    m["isomorphism.canonical_hash.self_s"] = (_self(p, "isomorphism.canonical_hash"), "s")
    m["isomorphism.labelled_vertices"] = (c["isomorphism.labelled_vertices"], "count")
    m["isomorphism.us_per_labelled_vertex"] = (_per_million(canon_s, c["isomorphism.labelled_vertices"]), "us")
    m["isomorphism.find_isomorphism.calls"] = (_calls(p, "isomorphism.find_isomorphism"), "count")
    cover_s = _self(p, "covers.universal_cover_ball")
    m["covers.universal_cover_ball.self_s"] = (cover_s, "s")
    m["covers.lifts"] = (c["covers.lifts"], "count")
    m["covers.us_per_lift"] = (_per_million(cover_s, c["covers.lifts"]), "us")
    m["covers.validate_covering_map.self_s"] = (_self(p, "covers.validate_covering_map"), "s")
    m["covers.decide_finite.self_s"] = (_self(p, "covers.decide_finite"), "s")
    m["surface.self_s"] = (_layer_self(p, "surface"), "s")
    m["surface.validate_surface.calls"] = (_calls(p, "surface.validate_surface"), "count")
    m["surface.classify_vertex.calls"] = (_calls(p, "surface.classify_vertex"), "count")
    m["graph.induced_subgraph.self_s"] = (_self(p, "graph.induced_subgraph"), "s")
    m["graph.induced_subgraph.calls"] = (_calls(p, "graph.induced_subgraph"), "count")
    m["io.self_s"] = (_layer_self(p, "io"), "s")
    m["io.bytes_read"] = (c["io.bytes_read"], "bytes")
    m["cli.startup_s"] = (p.startup_s, "s")
    m["cli.self_s"] = (_self(p, "cli.main"), "s")
    return m


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _medians(rows: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    return {
        name: {"value": statistics.median(row[name][0] for row in rows), "unit": unit}
        for name, (_, unit) in rows[0].items()
    }


# -- provenance ---------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout's own ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cliquedyn").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# -- running ---------------------------------------------------------------------------


def timed_setup(name: str, seed: int, draw: int, work: Path, times: list[float]):
    """Set the workload up at least once and for ``SETUP_BATCH_S``; append
    each set-up's seconds to ``times`` and return the jobs."""
    from workloads import setup

    batch_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        jobs = setup(name, seed, work, draw)
        times.append(time.perf_counter() - start)
        if time.perf_counter() - batch_start >= SETUP_BATCH_S:
            return jobs


def measure(name: str, seed: int, work: Path, seconds: float, trace: bool):
    """Repeat rounds of set-up and a pass (an untraced/traced pair with
    ``trace``) for about ``seconds``, or until a round has a failed job.
    Each round draws fresh inputs from the seed.  Set-up is timed between
    passes, not only once at the start, so that its samples span the same
    slow and fast phases of a shared host as the passes do."""
    setup_times: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    start = time.perf_counter()
    while True:
        jobs = timed_setup(name, seed, len(plain), work, setup_times)
        plain.append(run_pass(jobs, work))
        if trace:
            traced.append(run_pass(jobs, work, traced=True))
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        if plain[-1].failed or (traced and traced[-1].failed):
            return setup_times, plain, traced
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return setup_times, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cliquedyn" / "cli.py").is_file():
        print(f"error: no cliquedyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setup_times, plain, traced = measure(workload.name, args.seed, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    detail = {
        "workload": workload.name,
        "inputs": workload.inputs,
        "provenance": provenance(args.seed),
        "ops_failed_frac": failed / attempted,
        "setup_s": _summary(setup_times),
        "wall_s": _summary([p.wall_s for p in plain]),
        "cpu_s": _summary([p.cpu_s for p in plain]),
        "peak_rss_mib": _summary([p.peak_rss_mib for p in plain]),
        "problems": problems[:10],
    }
    correct = failed == 0
    if traced:
        rows = []
        for p in traced:
            row = layer_metrics(p)
            row["trace.coverage_frac"] = (sum(s for _, s in p.spans.values()) / p.wall_s, "frac")
            rows.append(row)
        metrics = _medians(rows)
        overhead = statistics.median(p.wall_s for p in traced) / detail["wall_s"]["median"] - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        missing = [s for s in workload.required_spans if min(_calls(p, s) for p in traced) == 0]
        if missing:
            correct = False
            detail["missing_spans"] = missing
            print(f"error: entry points never called on {workload.name}: {missing}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": detail["wall_s"]["median"], "unit": "s"},
            "cpu_s": {"value": detail["cpu_s"]["median"], "unit": "s"},
            "peak_rss_mib": {"value": detail["peak_rss_mib"]["median"], "unit": "MiB"},
            "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
        }
    for msg in problems[:10]:
        print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
