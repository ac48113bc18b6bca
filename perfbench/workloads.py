"""Benchmark workloads: seeded input files, the CLI jobs run on them, and the
checks each job's output must pass.

Every input graph is relabelled by a vertex permutation drawn from the seed
before it is written, and cover base vertices are drawn from the seed too.
The recorded expectations are invariants of the inputs (verdicts, periods,
vertex counts, lift counts), so they hold for every seed.  Digests are not
checked: a change to canonical labeling may change them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from cliquedyn import io as gio
from cliquedyn.generators import hex_torus
from cliquedyn.graph import Graph
from cliquedyn.hexgrid import gen_hex_patch
from cliquedyn.surface import classify_vertex


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``args`` follow ``python3 -m cliquedyn.cli``."""

    args: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str
    required_spans: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "geo-verify",
            "radius-16 hex patch (817 v), n=4, margin 7",
            tuple(f"charts.find_standard_charts.m{m}" for m in range(1, 6))
            + (
                "geometric.build",
                "geometric.c_map",
                "geometric.verify",
                "cliques.max_cliques",
                "surface.validate_surface",
                "io.load_graph",
                "cli.main",
            ),
        ),
        Workload(
            "iterate-converge",
            "genus-2 surface (98 v, 14 steps) and 7-regular surface (84 v, 6 steps)",
            (
                "cliques.iterate_k",
                "cliques.clique_graph",
                "cliques.max_cliques",
                "isomorphism.canonical_hash",
                "isomorphism.canonical_order",
                "isomorphism.find_isomorphism",
                "cli.main",
            ),
        ),
        Workload(
            "iterate-diverge",
            "4x4 torus (16 v), 20 steps up to 336 v, then decide",
            (
                "cliques.iterate_k",
                "cliques.clique_graph",
                "cliques.max_cliques",
                "isomorphism.canonical_hash",
                "isomorphism.canonical_order",
                "covers.decide_finite",
                "surface.validate_surface",
                "cli.main",
            ),
        ),
        Workload(
            "cover-decide",
            "genus-2 r=16 (20388 lifts), 7-regular r=8 (11173 lifts), decide on a 140x140 torus (19600 v)",
            (
                "covers.universal_cover_ball",
                "covers.validate_covering_map",
                "covers.decide_finite",
                "surface.validate_surface",
                "surface.classify_vertex",
                "graph.induced_subgraph",
                "io.load_graph",
                "io.graph_from_dict",
                "cli.main",
            ),
        ),
    )
}


# -- input graphs -------------------------------------------------------------


def _star_cut_antiprism(t: Graph, pairs: list[tuple[int, int]], name: str) -> Graph:
    """Remove both centres of every pair and join their rim hexagons by an
    antiprism band: the surgery behind the genus-2 test fixture and the
    7-regular surface of the test helpers."""
    centres = {c for pair in pairs for c in pair}
    keep = [v for v in t.vertices if v not in centres]
    edges = [(a, b) for a, b in t.edges() if a not in centres and b not in centres]
    for c1, c2 in pairs:
        r1, r2 = classify_vertex(t, c1).order, classify_vertex(t, c2).order
        for i in range(6):
            edges.append((r1[i], r2[i]))
            edges.append((r1[(i + 1) % 6], r2[i]))
    return Graph(keep, edges, name=name)


def genus2_surface() -> Graph:
    """Genus 2, minimum degree 6, not regular (98 v): converges."""
    return _star_cut_antiprism(hex_torus(10, 10), [(0, 55)], "genus2_delta6")


def degree_seven_surface() -> Graph:
    """7-regular surface (84 v) from the 7x14 torus: converges."""
    centres = [a * 14 + b for a in range(7) for b in range(7) if (a - 2 * b) % 7 == 0]
    return _star_cut_antiprism(
        hex_torus(7, 14), [(c, c + 7) for c in centres], "septic_surface"
    )


# Original ids of genus2_surface() whose radius-16 cover ball has 20388
# lifts; drawing the base among them keeps the work the same for every seed.
GENUS2_BASES = (19, 46, 64, 91)


def relabel(g: Graph, rng: random.Random) -> tuple[Graph, dict[int, int]]:
    """``g`` under a random bijection of its vertex ids onto 0..n-1."""
    new_ids = list(range(g.n))
    rng.shuffle(new_ids)
    perm = dict(zip(g.vertices, new_ids))
    labels = {perm[v]: lab for v, lab in g.labels.items()} if g.labels else None
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return Graph(new_ids, edges, name=g.name, labels=labels), perm


def _write(g: Graph, rng: random.Random, path: Path) -> dict[int, int]:
    h, perm = relabel(g, rng)
    path.write_text(gio.graph_to_json(h))
    return perm


# -- jobs -------------------------------------------------------------------


def _iterate(path: Path, steps: int, **expect) -> Job:
    return Job(("iterate", str(path), "--steps", str(steps)), "iterate", expect)


def _decide(path: Path, verdict: str) -> Job:
    return Job(("decide", str(path)), "decide", {"verdict": verdict})


def _cover(graph: Path, ball: Path, radius: int, base: int, lifts: int, checked: int):
    return [
        Job(
            ("cover", "build", str(graph), "--radius", str(radius), "--base", str(base), "--out", str(ball)),
            "cover-build",
            {"ball": str(ball), "lifts": lifts},
        ),
        Job(
            ("cover", "validate", str(ball), "--target", str(graph)),
            "cover-validate",
            {"checked_vertices": checked},
        ),
    ]


def setup(name: str, seed: int, work: Path, draw: int = 0) -> list[Job]:
    """Generate, relabel and write the inputs of workload ``name`` under
    ``work``; return its jobs in run order.

    ``draw`` picks one relabeling from the seed's sequence.  Canonical
    labeling cost depends on the vertex order (by up to a third on the
    genus-2 iterates), so a run draws a fresh relabeling for every pass
    rather than timing one order throughout."""
    rng = random.Random(f"{name}:{seed}:{draw}")
    work.mkdir(parents=True, exist_ok=True)
    if name == "geo-verify":
        patch = work / "patch.json"
        _write(gen_hex_patch(16).graph, rng, patch)
        return [
            Job(
                ("geometric", "verify", str(patch), "--n", "4", "--margin", "7"),
                "geometric-verify",
                {"n": 4, "margin": 7, "next_vertices": 1148, "deep_cliques": 902},
            )
        ]
    if name == "iterate-converge":
        g2, d7 = work / "genus2.json", work / "septic.json"
        _write(genus2_surface(), rng, g2)
        _write(degree_seven_surface(), rng, d7)
        return [
            _iterate(
                g2,
                14,
                verdict="converged",
                n=11,
                period=2,
                vertices=[98, 200, 298, 372, 450, 500, 554, 584, 618, 628, 642, 640, 646, 640],
            ),
            _iterate(d7, 6, verdict="converged", n=1, period=2, vertices=[84, 196, 280, 196]),
        ]
    if name == "iterate-diverge":
        torus = work / "torus4x4.json"
        _write(hex_torus(4, 4), rng, torus)
        return [
            _iterate(
                torus,
                20,
                verdict="diverging_evidence",
                vertices=[16 * (n + 1) for n in range(21)],
            ),
            _decide(torus, "divergent"),
        ]
    if name == "cover-decide":
        g2, d7, torus = work / "genus2.json", work / "septic.json", work / "torus140.json"
        perm = _write(genus2_surface(), rng, g2)
        g2_base = perm[rng.choice(GENUS2_BASES)]
        _write(degree_seven_surface(), rng, d7)
        d7_base = rng.randrange(84)
        _write(hex_torus(140, 140), rng, torus)
        return [
            *_cover(g2, work / "ball_genus2.json", 16, g2_base, 20388, 13567),
            *_cover(d7, work / "ball_septic.json", 8, d7_base, 11173, 4264),
            _decide(torus, "divergent"),
        ]
    raise KeyError(name)


# -- output checks --------------------------------------------------------------


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def _compare(got: dict, expect: dict) -> list[str]:
    return [
        f"{key}: expected {want!r}, got {got.get(key)!r}"
        for key, want in expect.items()
        if got.get(key) != want
    ]


def check(job: Job, returncode: int, stdout: str) -> list[str]:
    """Problems with one finished job; empty when its output is right."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        lines = _json_lines(stdout)
        if job.kind == "cover-build":
            with open(job.expect["ball"]) as fh:
                ball = json.load(fh)
            return _compare({"lifts": len(ball["graph"]["vertices"])}, {"lifts": job.expect["lifts"]})
        if not lines:
            return ["no JSON output"]
        last = lines[-1]
        if job.kind in ("geometric-verify", "cover-validate"):
            return _compare(last, {"ok": True, **job.expect})
        if job.kind == "decide":
            return _compare(last, job.expect)
        if job.kind == "iterate":
            return _compare(dict(last, vertices=[step["vertices"] for step in lines[:-1]]), job.expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [f"unknown job kind {job.kind}"]
