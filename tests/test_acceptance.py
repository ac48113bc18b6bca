"""Acceptance surface: one test per criterion, each printing a PASS line
with its measured runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import time

import pytest

from cliquedyn.charts import (
    find_standard_charts,
    min_boundary_distance,
    neighbour_triangles,
)
from cliquedyn.cliques import iterate_k
from cliquedyn.covers import decide_finite, universal_cover_ball, validate_covering_map
from cliquedyn.generators import hex_torus, icosahedron, octahedron
from cliquedyn.geometric import GeoBuilder, verify_geometric_equivalence
from cliquedyn.graph import Graph, induced_subgraph
from cliquedyn.hexgrid import (
    BASIS,
    build_lhg,
    classify_delta_inclusions,
    gen_delta,
    gen_hex_patch,
    lhg_expected_cliques,
)
from cliquedyn.io import load_graph
from cliquedyn.isomorphism import is_isomorphic
from cliquedyn.lemmas import discharge_suite, expected_straight_walks
from cliquedyn.surface import maximal_straight_paths
from helpers import complete_graph, cycle_graph


class Timer:
    def __init__(self, budget: float):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"criterion exceeded its time budget: {self.elapsed:.1f}s"
            )
        return False


def report(n: int, message: str, timer: Timer) -> None:
    print(f"PASS criterion {n}: {message} ({timer.elapsed:.2f}s)")


def test_criterion_1_lhg_clique_classification():
    with Timer(1.0) as t:
        from cliquedyn.cliques import max_cliques

        lhg = build_lhg()
        found = sorted(
            (lhg.label_set(c) for c in max_cliques(lhg.graph) if lhg.origin in c),
            key=sorted,
        )
        expected = sorted(lhg_expected_cliques().values(), key=sorted)
        assert len(found) == 7
        assert found == expected
    report(1, "7 template cliques match the labelled families exactly", t)


def test_criterion_2_triangle_inclusion_oracles():
    with Timer(10.0) as t:
        for m in range(1, 9):
            labels = classify_delta_inclusions(m, 1)
            ups = sum(1 for _, lab in labels if lab[0] == "translate")
            downs = sorted(lab for _, lab in labels if lab[0] != "translate")
            assert ups == 3
            assert downs == ([("nabla1",)] if m == 2 else [])
            if m >= 2:
                labels = classify_delta_inclusions(m, 2)
                ups = sum(1 for _, lab in labels if lab[0] == "translate")
                downs = sorted(lab for _, lab in labels if lab[0] != "translate")
                assert ups == 6
                if m == 3:
                    assert downs == sorted(("nabla1e", e) for e in BASIS)
                elif m == 4:
                    assert downs == [("nabla2",)]
                else:
                    assert downs == []
    report(2, "inclusion classification exact for sides 1..8", t)


def test_criterion_3_straight_path_classification():
    with Timer(10.0) as t:
        for m in range(4, 9):
            region = gen_delta(m)
            walks = maximal_straight_paths(region.graph, m - 2)
            assert len(walks) == 9
            found = {
                min(w, w[::-1])
                for w in (
                    tuple(region.coord_of[v] for v in walk) for walk in walks
                )
            }
            assert found == expected_straight_walks(m)
    report(3, "nine maximal straight walks with the expected coordinates", t)


def test_criterion_4_geometric_equivalence():
    with Timer(300.0) as t:
        patch = gen_hex_patch(14)
        for n in range(4):
            rep = verify_geometric_equivalence(patch.graph, n)
            assert rep.ok, f"n={n}: {rep.failures}"
            assert rep.next_vertices > 0 and rep.deep_cliques > 0
    report(4, "clique correspondence is an isomorphism for n in 0..3 at radius 14", t)


def test_criterion_5_neighbour_count_tightness():
    with Timer(30.0) as t:
        patch = gen_hex_patch(10)
        g = patch.graph
        for m, expected in ((3, 7), (4, 6), (5, 6), (6, 6)):
            images = {ch.image for ch in find_standard_charts(g, m, 0)}
            deep = [img for img in images if min_boundary_distance(g, img) >= 3]
            support = sorted(deep, key=sorted)[0]
            assert len(neighbour_triangles(g, support)) == expected
    report(5, "same-size neighbour counts are 7 (side 3) and 6 (sides 4..6)", t)


def test_criterion_6_level_profile_of_the_side4_patch():
    with Timer(1.0) as t:
        d4 = gen_delta(4)
        gg = GeoBuilder(d4.graph).build(4)
        top = gg.gid(d4.graph.vertex_set)
        by_level: dict[int, int] = {}
        for j in gg.graph.neighbors(top):
            by_level[gg.charts[j].m] = by_level.get(gg.charts[j].m, 0) + 1
        assert by_level == {0: 3, 2: 7}
    report(6, "side-4 patch sees 3 level-0 and 7 level-2 neighbours", t)


def test_criterion_7_divergence_evidence_on_tori():
    with Timer(600.0) as t:
        for p, expected_start in ((4, [16, 32]), (5, [25, 50])):
            torus = hex_torus(p, p)
            trace = iterate_k(torus, 3)
            counts = [s.vertices for s in trace.steps]
            assert counts[:2] == expected_start
            assert len(counts) == 4
            assert all(a < b for a, b in zip(counts, counts[1:]))
            assert trace.verdict == "diverging_evidence"
    report(7, "three iterations grow strictly on the 4x4 and 5x5 tori", t)


def test_criterion_8_cover_ball_identity():
    with Timer(30.0) as t:
        torus = hex_torus(4, 4)
        ball = universal_cover_ball(torus, base=0, r=5)
        patch = gen_hex_patch(5)
        ball_interior = ball.interior_graph()
        patch_interior = induced_subgraph(patch.graph, patch.interior_ids())
        assert is_isomorphic(ball_interior, patch_interior)
        assert validate_covering_map(ball.projection, ball.graph, torus).ok
    report(8, "radius-5 cover ball of the 4x4 torus is the grid ball", t)


def test_criterion_9_discharge_identity():
    with Timer(10.0) as t:
        result = discharge_suite(radius=8, count=100, seed=2024)
        assert result.ok and result.detail["residuals"] == [0]
    report(9, "100 seeded random disc boundaries all discharge to residual 0", t)


def test_criterion_10_decision_procedure(fixtures_dir):
    with Timer(10.0) as t:
        assert decide_finite(hex_torus(4, 4)).kind == "divergent"
        assert decide_finite(hex_torus(5, 5)).kind == "divergent"
        octa = decide_finite(octahedron())
        assert octa.kind == "unsupported" and "minimum degree 4" in octa.reason
        icosa = decide_finite(icosahedron())
        assert icosa.kind == "unsupported" and "minimum degree 5" in icosa.reason

        genus2 = decide_finite(load_graph(fixtures_dir / "genus2_delta6.json"))
        assert genus2.kind == "convergent"
        assert genus2.gates == {
            "connected": True,
            "locally_cyclic": True,
            "min_degree": 6,
            "max_degree": 7,
            "regular": False,
        }

        k4 = decide_finite(complete_graph(4))
        assert k4.kind == "unsupported" and "not locally cyclic" in k4.reason
        c6 = decide_finite(cycle_graph(6))
        assert c6.kind == "unsupported" and "not locally cyclic" in c6.reason
        disconnected = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert decide_finite(disconnected).reason == "input is disconnected"
    report(10, "verdict gates match on tori, spheres, and the genus-2 instance", t)
