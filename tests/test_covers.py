from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from functools import partial

import networkx as nx
import pytest

from cliquedyn.covers import (
    CoverError,
    _Unfolding,
    decide_finite,
    delta_embedding_bound,
    universal_cover_ball,
    validate_covering_map,
)
from cliquedyn.cli import main
from cliquedyn.generators import hex_torus, icosahedron, octahedron
from cliquedyn.graph import Graph, induced_subgraph
from cliquedyn.hexgrid import UNIT_STEPS, gen_hex_patch
from cliquedyn.io import graph_to_json
from cliquedyn.isomorphism import is_isomorphic
from cliquedyn.surface import validate_surface
from helpers import (
    capped_antiprism,
    complete_graph,
    cycle_graph,
    degree_seven_surface,
    genus2_surface,
    random_surgery_surface,
    to_networkx,
)


@pytest.fixture(scope="module")
def t44_ball5(t44):
    return universal_cover_ball(t44, base=0, r=5)


def test_cover_ball_of_torus_is_grid_ball(t44, t44_ball5):
    patch = gen_hex_patch(5)
    assert t44_ball5.graph.n == patch.graph.n
    assert is_isomorphic(t44_ball5.graph, patch.graph)
    ball_interior = t44_ball5.interior_graph()
    patch_interior = induced_subgraph(patch.graph, patch.interior_ids())
    assert is_isomorphic(ball_interior, patch_interior)


def test_cover_ball_projection_is_covering(t44, t44_ball5):
    report = validate_covering_map(t44_ball5.projection, t44_ball5.graph, t44)
    assert report.ok
    assert report.checked_vertices == len(t44_ball5.interior_ids())


def test_cover_ball_degree_preservation(t44, t44_ball5):
    for v in t44_ball5.interior_ids():
        assert t44_ball5.graph.degree(v) == t44.degree(t44_ball5.projection[v])


def test_cover_ball_radius_zero(t44):
    ball = universal_cover_ball(t44, base=3, r=0)
    assert ball.graph.n == 1
    assert ball.projection[ball.base_lift] == 3


def test_cover_rejects_minimum_degree_below_six(tmp_path, capsys):
    """Below degree 6 the cover is not systolic, and the fans closed inside
    the radius can miss a rim edge: on the n = 4 capped antiprism a ring
    vertex's radius-2 ball would lose one of its 24 edges.  These spheres
    are valid surfaces, so the error names the degree, not the surface."""
    spheres = [(octahedron(), 4), (icosahedron(), 5), (capped_antiprism(4), 4)]
    spheres += [(capped_antiprism(n), 5) for n in range(5, 9)]
    for g, degree in spheres:
        message = f"cover unfolding needs minimum degree 6, got {degree}"
        with pytest.raises(CoverError) as exc:
            universal_cover_ball(g, 0, 2)
        assert str(exc.value) == message
        path = tmp_path / f"{g.name}.json"
        path.write_text(graph_to_json(g))
        code = main(["cover", "build", str(path), "--radius", "2", "--base", "0"])
        assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))


def test_genus2_cover_is_locally_faithful(genus2):
    ball = universal_cover_ball(genus2, base=genus2.vertices[0], r=4)
    report = validate_covering_map(ball.projection, ball.graph, genus2)
    assert report.ok
    # lifted fans copy base degrees on the interior
    for v in ball.interior_ids():
        assert ball.graph.degree(v) == genus2.degree(ball.projection[v])


def test_cover_rejects_bad_inputs(octa):
    with pytest.raises(CoverError):
        universal_cover_ball(complete_graph(4), 0, 2)
    with pytest.raises(CoverError):
        universal_cover_ball(octa, 77, 2)
    with pytest.raises(CoverError):
        universal_cover_ball(octa, 0, -1)


def test_validate_covering_map_identity(octa):
    report = validate_covering_map({v: v for v in octa.vertices}, octa, octa)
    assert report.ok


def test_validate_covering_map_coordinate_reduction(t44):
    patch = gen_hex_patch(4)
    proj = {
        v: (patch.coord_of[v][0] % 4) * 4 + (patch.coord_of[v][1] % 4)
        for v in patch.graph.vertices
    }
    report = validate_covering_map(proj, patch.graph, t44)
    assert report.ok


def test_validate_covering_map_rejects_edge_collapse():
    k3 = complete_graph(3)
    with pytest.raises(CoverError):
        validate_covering_map({0: 0, 1: 0, 2: 1}, k3, k3)


def test_validate_covering_map_flags_folding(octa):
    # fold antipodal pairs onto one triangle: a homomorphism, not a covering
    fold = {0: 0, 1: 0, 2: 2, 3: 2, 4: 4, 5: 4}
    report = validate_covering_map(fold, octa, octa)
    assert report.is_homomorphism and not report.ok
    assert any("edge lifting" in v for v in report.violations)


def test_validate_covering_map_rejects_a_source_with_no_inner_vertex(t44):
    ball = universal_cover_ball(t44, base=0, r=0)
    k3 = complete_graph(3)
    cases = [(ball.projection, ball.graph, t44), ({v: v for v in k3.vertices}, k3, k3)]
    for p, source, target in cases:
        with pytest.raises(CoverError, match="^source graph has no inner vertex to check$"):
            validate_covering_map(p, source, target)


def _hex_quotient_3x3() -> Graph:
    """The hexagonal grid modulo 3 in both lattice directions: 6-regular, but
    each neighbourhood has chords, so it is not locally cyclic."""
    edges = {
        tuple(sorted(((a % 3) * 3 + b % 3, ((a + d[0]) % 3) * 3 + (b + d[1]) % 3)))
        for a in range(3)
        for b in range(3)
        for d in UNIT_STEPS
    }
    return Graph(range(9), edges)


def test_validate_covering_map_names_every_triangle_lifting_failure():
    """Reducing the radius-2 patch mod 3 maps every neighbourhood onto its
    image's bijectively, but opposite neighbours land on adjacent vertices.
    The list was recorded with the pairwise check over all neighbour pairs."""
    patch = gen_hex_patch(2)
    proj = {v: (c[0] % 3) * 3 + c[1] % 3 for v, c in patch.coord_of.items()}
    report = validate_covering_map(proj, patch.graph, _hex_quotient_3x3())
    assert report.is_homomorphism and report.checked_vertices == 7
    pairs = {
        4: "(0,9) (1,8) (3,5)",
        5: "(1,10) (2,9) (4,6)",
        8: "(3,13) (4,12) (7,9)",
        9: "(4,14) (5,13) (8,10)",
        10: "(5,15) (6,14) (9,11)",
        13: "(8,17) (9,16) (12,14)",
        14: "(9,18) (10,17) (13,15)",
    }
    assert report.violations == [
        f"triangle lifting fails at {v} on {pair}" for v, ps in pairs.items() for pair in ps.split()
    ]


def test_decide_finite_verdicts(octa, icosa, t44, genus2):
    assert decide_finite(t44).kind == "divergent"
    assert decide_finite(hex_torus(5, 5)).kind == "divergent"
    assert decide_finite(genus2).kind == "convergent"
    octa_v = decide_finite(octa)
    assert octa_v.kind == "unsupported" and "4" in octa_v.reason
    icosa_v = decide_finite(icosa)
    assert icosa_v.kind == "unsupported" and "5" in icosa_v.reason
    k4_v = decide_finite(complete_graph(4))
    assert k4_v.kind == "unsupported" and "locally cyclic" in k4_v.reason
    c6_v = decide_finite(cycle_graph(6))
    assert c6_v.kind == "unsupported"
    disconnected = Graph(range(4), [(0, 1), (2, 3)])
    assert decide_finite(disconnected).kind == "unsupported"


def test_decide_divergent_matches_growth_evidence(t44):
    from cliquedyn.cliques import iterate_k

    assert decide_finite(t44).kind == "divergent"
    counts = [s.vertices for s in iterate_k(t44, 3).steps]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_degree_seven_surface_converges_with_period_two():
    """A 7-regular surface: the verdict says convergent, and iteration
    confirms it with a period-2 repeat rather than a fixed point."""
    from cliquedyn.cliques import iterate_k
    from cliquedyn.surface import validate_surface
    from helpers import degree_seven_surface

    g = degree_seven_surface()
    rep = validate_surface(g)
    assert rep.is_locally_cyclic and rep.min_degree == 7 and rep.max_degree == 7
    verdict = decide_finite(g)
    assert verdict.kind == "convergent" and "7" in verdict.reason
    trace = iterate_k(g, 4, vertex_budget=100_000)
    assert trace.verdict == "converged"
    assert (trace.converged_at, trace.period) == (1, 2)
    assert [s.vertices for s in trace.steps[:4]] == [84, 196, 280, 196]


def test_delta_embedding_bound_on_grid_cover(t44):
    ball = universal_cover_ball(t44, base=0, r=8)
    assert delta_embedding_bound(ball, 6) == 7  # everything embeds: no bound
    assert delta_embedding_bound(ball, 0) == 1
    with pytest.raises(CoverError):
        delta_embedding_bound(ball, 9)


def test_embedding_bound_reports_observation_only(genus2):
    # this instance keeps flat regions wide enough that no bound is visible
    # at radius 6; the sentinel m_max + 1 reports exactly that
    ball = universal_cover_ball(genus2, base=genus2.vertices[0], r=6)
    assert delta_embedding_bound(ball, 5) == 6


GENERATED_SEEDS = (0, 1, 2, 3, 4)


def _first_rim(g: Graph) -> int:
    return min(v for v in g.vertices if g.degree(v) == 7)


SURFACES = {
    "genus2": (genus2_surface, lambda g: g.vertices[0]),
    "septic": (degree_seven_surface, lambda g: g.vertices[0]),
    "t44": (lambda: hex_torus(4, 4), lambda g: 0),
    **{f"surgery{s}": (partial(random_surgery_surface, s), _first_rim) for s in GENERATED_SEEDS},
}


def _ball(name: str, r: int):
    make, pick_base = SURFACES[name]
    g = make()
    return universal_cover_ball(g, pick_base(g), r)


@pytest.mark.parametrize(
    "name, r, digest",
    [
        ("genus2", 0, "03ab850d9969ccfedcfa40ddd1143dbdbfda83324b19f27b950c7c06cb291130"),
        ("genus2", 3, "72fc6fc6710dda744cecc0e1647d80c43b0686b95dcfa70eaa05098fde92b935"),
        ("genus2", 9, "f58e9b82f1eac80f788ab2c7377c8b70794241846eb02e9e54693851dbb297c6"),
        ("septic", 6, "b7e0af005c381692c8c0026ea0c7c9d7fa4ac9408ccd62a6b5ae3c9f3b77fb61"),
        ("t44", 5, "1a9631511e2dbb12853cf383294a8efde98b11082ff84f245e5772d3b739b0ae"),
    ],
)
def test_cover_ball_output_is_pinned(name, r, digest):
    """Lift ids, edge order and projection are part of the `cover build`
    output: the unfolding must create and glue lifts in the same order."""
    ball = _ball(name, r)
    text = json.dumps(ball.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _bfs_distances(neighbours, start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in neighbours(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _projection_layers(ball) -> dict[int, Counter]:
    dist = _bfs_distances(ball.graph.neighbors, ball.base_lift)
    assert len(dist) == ball.graph.n
    layers: dict[int, Counter] = {}
    for v, d in dist.items():
        layers.setdefault(d, Counter())[ball.projection[v]] += 1
    return layers


def _labelled(ball, lifts) -> nx.Graph:
    """The ball's subgraph on ``lifts``, each node labelled by its
    projection and by whether it is the base lift."""
    g = to_networkx(induced_subgraph(ball.graph, lifts))
    labels = {v: (ball.projection[v], v == ball.base_lift) for v in lifts}
    nx.set_node_attributes(g, labels, "label")
    return g


@pytest.mark.parametrize("name, r", [("genus2", 6), ("septic", 4), ("t44", 5)])
def test_nested_balls_agree_layer_by_layer(name, r):
    """A shortest path to a lift stays inside any ball that holds the lift,
    so BFS in the ball graph measures the development's distances.  Every
    lift then lies within the radius, and each layer up to r projects onto
    the same multiset of base vertices in ball(r) as in ball(r + 2): a lift
    kept or dropped on a stale distance breaks one or the other.  An edge
    dropped between two rim lifts keeps every layer, so ball(r) must also
    be the subgraph of ball(r + 2) on the lifts within r, under a map that
    keeps projections and the base lift."""
    small, big = _ball(name, r), _ball(name, r + 2)
    small_layers, big_layers = _projection_layers(small), _projection_layers(big)
    assert max(small_layers) <= r and max(big_layers) <= r + 2
    for d in range(r + 1):
        assert small_layers[d] == big_layers[d], d
    dist = _bfs_distances(big.graph.neighbors, big.base_lift)
    inner = [v for v, d in dist.items() if d <= r]
    assert nx.vf2pp_is_isomorphic(
        _labelled(small, small.graph.vertices), _labelled(big, inner), node_label="label"
    )


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_surfaces_converge_and_layer(seed):
    """A generated surface keeps its degree-7 rims, so it is not 6-regular
    and converges; its cover balls, based at a rim lift, pass the
    nested-ball check above."""
    assert decide_finite(random_surgery_surface(seed)).kind == "convergent"
    test_nested_balls_agree_layer_by_layer(f"surgery{seed}", 6)


def test_set_slot_refuses_an_edge_that_skips_a_layer():
    """A lift's distance is fixed at birth, so an edge joining lifts two
    layers apart would leave a distance above the graph distance.  That is
    a fault of the unfolding, not of the input: AssertionError, not
    CoverError."""
    unf = _Unfolding(Graph([0]))
    for d in range(3):
        unf.new_lift(d, d)
    unf.set_slot(0, 1, 1)
    unf.set_slot(1, 2, 2)
    with pytest.raises(
        AssertionError, match="^unfolding joined lift 0 at distance 0 to lift 2 at distance 2$"
    ):
        unf.set_slot(0, 2, 2)
    assert unf.arc[0] == {1: 1}
