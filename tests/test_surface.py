from __future__ import annotations

import dataclasses
import hashlib

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from cliquedyn.graph import Graph, closed_neighbourhood, induced_subgraph
from cliquedyn.hexgrid import add, delta_coords, gen_delta, gen_hex_patch
from cliquedyn.surface import (
    BOUNDARY,
    INNER,
    INVALID,
    DiscError,
    SurfaceError,
    boundary_distance,
    classify_vertex,
    disc_discharge_check,
    facets,
    is_straight,
    maximal_straight_paths,
    path_degree,
    umbrella,
    validate_surface,
)
from helpers import (
    complete_graph,
    cycle_graph,
    degree_seven_surface,
    genus2_surface,
    to_networkx,
)


def wheel(k: int) -> Graph:
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, i % k + 1) for i in range(1, k + 1)]
    return Graph(range(k + 1), edges)


def test_classify_interior_hex_vertex():
    patch = gen_hex_patch(2)
    cls = classify_vertex(patch.graph, patch.id_of[(0, 0, 0)])
    assert cls.kind == INNER and len(cls.order) == 6


def test_classify_corner_of_standalone_triangle():
    d4 = gen_delta(4)
    cls = classify_vertex(d4.graph, d4.id_of[(4, 0, 0)])
    assert cls.kind == BOUNDARY
    assert {d4.coord_of[v] for v in cls.order} == {(3, 1, 0), (3, 0, 1)}


def test_classify_mid_side_of_standalone_triangle():
    d4 = gen_delta(4)
    cls = classify_vertex(d4.graph, d4.id_of[(2, 2, 0)])
    assert cls.kind == BOUNDARY and len(cls.order) == 4  # path with 3 edges


def test_classify_wheel_apex():
    cls = classify_vertex(wheel(7), 0)
    assert cls.kind == INNER and len(cls.order) == 7


def test_classify_invalid_cases():
    assert classify_vertex(complete_graph(4), 0).kind == INVALID  # 3-cycle hood
    assert classify_vertex(cycle_graph(6), 0).kind == INVALID  # disconnected hood
    assert classify_vertex(Graph([0, 1], [(0, 1)]), 0).kind == BOUNDARY


def test_validate_surface_octahedron(octa):
    rep = validate_surface(octa)
    assert rep.is_locally_cyclic and rep.boundary.n == 0 and rep.min_degree == 4


def test_validate_surface_triangle_patch_boundary():
    d4 = gen_delta(4)
    rep = validate_surface(d4.graph)
    assert not rep.is_locally_cyclic
    rim = rep.boundary
    assert rim.n == 12 and rim.edge_count == 12
    assert all(rim.degree(v) == 2 for v in rim.vertices) and rim.is_connected()


def test_validate_surface_torus(t44):
    rep = validate_surface(t44)
    assert rep.is_locally_cyclic and rep.min_degree == 6 and rep.max_degree == 6


def test_surface_report_is_computed_once_and_frozen():
    g = gen_delta(4).graph
    rep = validate_surface(g)
    assert validate_surface(g) is rep
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.min_degree = 0


def test_boundary_distance_is_computed_once():
    g = gen_hex_patch(3).graph
    dist = boundary_distance(g)
    assert boundary_distance(g) is dist
    assert max(dist.values()) == 3 and min(dist.values()) == 0


def test_validate_surface_rejects_disconnected():
    g = Graph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(SurfaceError):
        validate_surface(g)
    with pytest.raises(SurfaceError):
        maximal_straight_paths(g, 1)


def test_empty_graph_is_not_locally_cyclic():
    rep = validate_surface(Graph([], []))
    assert not rep.is_locally_cyclic
    assert rep.boundary.n == 0 and not rep.invalid_vertices


def test_facet_counts(octa, t44):
    assert len(facets(octa)) == 8
    assert len(facets(t44)) == 32
    assert facets(cycle_graph(6)) == []


def _patch_walk(patch, coords):
    return tuple(patch.id_of[c] for c in coords)


def test_path_degree_straight_through_interior():
    patch = gen_hex_patch(3)
    walk = _patch_walk(patch, [(-1, 1, 0), (0, 0, 0), (1, -1, 0)])
    assert path_degree(patch.graph, walk, 1) == frozenset({3})


def test_path_degree_sixty_degree_turn():
    patch = gen_hex_patch(3)
    walk = _patch_walk(patch, [(-1, 1, 0), (0, 0, 0), (-1, 0, 1)])
    assert path_degree(patch.graph, walk, 1) == frozenset({1, 5})


def test_path_degree_splits_seven_cycle(genus2):
    rep = validate_surface(genus2)
    v = next(u for u in genus2.vertices if genus2.degree(u) == 7)
    cycle = rep.classes[v].order
    walk = (cycle[0], v, cycle[3])
    assert path_degree(genus2, walk, 1) == frozenset({3, 4})


def test_path_degree_boundary_vertex():
    d4 = gen_delta(4)
    walk = _patch_walk(d4, [(3, 1, 0), (2, 2, 0), (1, 3, 0)])
    assert path_degree(d4.graph, walk, 1) == frozenset({3})


def test_path_degree_rejects_backtracking():
    patch = gen_hex_patch(2)
    a, b = patch.id_of[(0, 0, 0)], patch.id_of[(1, -1, 0)]
    with pytest.raises(SurfaceError):
        path_degree(patch.graph, (a, b, a), 1)


def test_path_degree_arcs_sum_to_degree(genus2):
    """For an inner vertex the two arc lengths add up to its degree."""
    import random

    rng = random.Random(5)
    for g in (gen_hex_patch(3).graph, genus2):
        for _ in range(25):
            v = rng.choice(g.vertices)
            cls = classify_vertex(g, v)
            if not cls.is_inner:
                continue
            prev, nxt = rng.sample(sorted(g.neighbors(v)), 2)
            arcs = path_degree(g, (prev, v, nxt), 1)
            if len(arcs) == 2:
                assert sum(arcs) == g.degree(v)
            else:
                (arc,) = arcs
                assert 2 * arc == g.degree(v)


def test_straightness():
    patch = gen_hex_patch(4)
    line = _patch_walk(patch, [(-2, 2, 0), (-1, 1, 0), (0, 0, 0), (1, -1, 0)])
    assert is_straight(patch.graph, line)
    bent = _patch_walk(patch, [(-1, 1, 0), (0, 0, 0), (1, 0, -1)])
    assert not is_straight(patch.graph, bent)  # interior degree {2, 4}


def test_maximal_straight_paths_in_triangle_patch():
    d5 = gen_delta(5)
    walks = maximal_straight_paths(d5.graph, 3)
    lengths = sorted(len(w) - 1 for w in walks)
    assert lengths == [3, 3, 3, 4, 4, 4, 5, 5, 5]


def test_maximal_straight_paths_torus_wraps(t44):
    walks = maximal_straight_paths(t44, 4)
    assert len(walks) == 12
    for w in walks:
        assert w[0] == w[-1] and len(w) - 1 == 4


def test_maximal_straight_paths_triangle_free():
    assert maximal_straight_paths(cycle_graph(6), 1) == []


@pytest.mark.parametrize(
    "surface, count, digest",
    [(genus2_surface, 17, "ecef6580967ac61e"), (degree_seven_surface, 1, "39e46071b4775568")],
)
def test_maximal_straight_paths_are_pinned_on_branching_surfaces(surface, count, digest):
    # degree-7 vertices have two straight successors, so the walks branch
    walks = maximal_straight_paths(surface(), 3)
    assert len(walks) == count
    assert hashlib.sha256(repr(walks).encode()).hexdigest()[:16] == digest


def test_umbrella_sizes(icosa, genus2):
    patch = gen_hex_patch(2)
    centre = patch.id_of[(0, 0, 0)]
    fans = umbrella(patch.graph, centre)
    assert len(fans) == 6
    assert len(umbrella(icosa, 0)) == 5
    v7 = next(u for u in genus2.vertices if genus2.degree(u) == 7)
    assert len(umbrella(genus2, v7)) == 7
    d2 = gen_delta(2)
    with pytest.raises(SurfaceError):
        umbrella(d2.graph, d2.id_of[(2, 0, 0)])


def test_umbrella_consecutive_facets_share_an_edge():
    patch = gen_hex_patch(3)
    for coord in [(0, 0, 0), (1, -1, 0)]:
        v = patch.id_of[coord]
        fans = umbrella(patch.graph, v)
        assert len(fans) == patch.graph.degree(v)
        for i, f in enumerate(fans):
            nxt = fans[(i + 1) % len(fans)]
            shared = set(f) & set(nxt)
            assert v in shared and len(shared) == 2


def test_discharge_triangle_region():
    patch = gen_hex_patch(6)
    rim = []
    for t in range(3):
        rim.append((3 - t, t, -3))
    for t in range(3):
        rim.append((0, 3 - t, t - 3))
    for t in range(3):
        rim.append((t, 0, -t))
    rim.append(rim[0])
    shifted = [add(c, (-1, -1, 2)) for c in rim]
    walk = tuple(patch.id_of[c] for c in shifted)
    assert disc_discharge_check(patch.graph, walk) == 0


def test_discharge_hexagon_region():
    patch = gen_hex_patch(4)
    ring = [(1, -1, 0), (1, 0, -1), (0, 1, -1), (-1, 1, 0), (-1, 0, 1), (0, -1, 1)]
    walk = tuple(patch.id_of[c] for c in ring + [ring[0]])
    assert disc_discharge_check(patch.graph, walk) == 0


def test_discharge_rhombus_region():
    patch = gen_hex_patch(4)
    loop = [(0, 0, 0), (1, -1, 0), (2, -1, -1), (2, 0, -2), (1, 1, -2), (0, 1, -1)]
    walk = tuple(patch.id_of[c] for c in loop + [loop[0]])
    assert disc_discharge_check(patch.graph, walk) == 0


def test_discharge_rejects_non_disc_walks():
    patch = gen_hex_patch(4)
    a, b = patch.id_of[(0, 0, 0)], patch.id_of[(1, -1, 0)]
    with pytest.raises(DiscError):
        disc_discharge_check(patch.graph, (a, b, a))  # too short
    figure8 = [
        (0, 0, 0),
        (1, -1, 0),
        (1, 0, -1),
        (0, 0, 0),
        (-1, 1, 0),
        (-1, 0, 1),
    ]
    walk = tuple(patch.id_of[c] for c in figure8 + [figure8[0]])
    with pytest.raises(DiscError):
        disc_discharge_check(patch.graph, walk)


def test_neighbourhood_ring_of_triangle_is_cycle():
    for m in range(0, 7):
        patch = gen_hex_patch(m + 3)
        k1, rem = divmod(m, 3)
        offset = (-(k1 + (1 if rem > 0 else 0)), -(k1 + (1 if rem > 1 else 0)), -k1)
        support = patch.ids(add(c, offset) for c in delta_coords(m))
        ring = closed_neighbourhood(patch.graph, support) - support
        sub = induced_subgraph(patch.graph, ring)
        assert sub.n == 3 * (m + 2)
        assert sub.is_connected() and all(sub.degree(v) == 2 for v in sub.vertices)


# -- differential checks against networkx -------------------------------------


def reference_class(g: Graph, v: int) -> tuple[str, tuple[int, ...]]:
    """``classify_vertex``'s kind and order, read off ``nx.subgraph`` on N(v)."""
    nbrs = sorted(g.neighbors(v))
    link = nx.subgraph(to_networkx(g), nbrs)
    if not nbrs or not nx.is_connected(link) or max(d for _, d in link.degree()) > 2:
        return INVALID, ()
    if len(nbrs) == 1:
        return BOUNDARY, tuple(nbrs)
    ends = sorted(w for w, d in link.degree() if d == 1)
    if ends:
        return BOUNDARY, tuple(nx.shortest_path(link, ends[0], ends[1]))
    if len(nbrs) < 4:
        return INVALID, ()
    cycle = [a for a, _ in nx.find_cycle(link, nbrs[0])]
    if cycle[1] != min(link[nbrs[0]]):
        cycle = cycle[:1] + cycle[:0:-1]
    return INNER, tuple(cycle)


def assert_classes_match_reference(g: Graph) -> None:
    for v in g.vertices:
        cls = classify_vertex(g, v)
        assert (cls.kind, cls.order) == reference_class(g, v), v


def cone(link_edges: list[tuple[int, int]], k: int) -> Graph:
    """Apex 0 joined to link vertices 1..k, which carry ``link_edges``."""
    return Graph(range(k + 1), [(0, i) for i in range(1, k + 1)] + link_edges)


HOSTILE_LINKS = {
    "two disjoint cycles": cone([(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5)], 8),
    "cycle plus path": cone([(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7)], 7),
    "path plus isolated vertex": cone([(1, 2), (2, 3)], 4),
    "triangle": cone([(1, 2), (2, 3), (3, 1)], 3),
    "single neighbour": cone([], 1),
    "degree-3 link vertex": cone([(1, 2), (2, 3), (3, 4), (4, 1), (1, 5)], 5),
    "empty neighbourhood": Graph([0, 1, 2], [(1, 2)]),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_LINKS))
def test_classify_vertex_matches_networkx_on_hostile_links(name):
    g = HOSTILE_LINKS[name]
    expected = BOUNDARY if name == "single neighbour" else INVALID
    assert classify_vertex(g, 0).kind == expected
    assert_classes_match_reference(g)


@st.composite
def perturbed_cones(draw):
    """A cone over a cycle or path on up to 9 link vertices, with a few link
    edges toggled, so that valid and barely invalid links both occur."""
    k = draw(st.integers(min_value=1, max_value=9))
    closed = draw(st.booleans())
    edges = {(i, i + 1) for i in range(1, k)} | ({(1, k)} if closed and k > 2 else set())
    pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    if pairs:
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            edges ^= {pair}
    edges |= {(0, i) for i in range(1, k + 1)}
    ids = draw(st.permutations(range(k + 1)))
    return Graph(range(k + 1), [(ids[a], ids[b]) for a, b in sorted(edges)])


@given(perturbed_cones())
@settings(max_examples=150, deadline=None)
def test_classify_vertex_matches_networkx_on_random_cones(g):
    assert_classes_match_reference(g)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_classify_vertex_matches_networkx_on_random_graphs(data):
    n = data.draw(st.integers(min_value=2, max_value=9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    g = Graph(range(n), data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    assert_classes_match_reference(g)


def brute_force_boundary(g: Graph) -> Graph:
    """Boundary vertices plus every edge with fewer than two common
    neighbours, tested on all edges, with the edges' endpoints."""
    edges = [(u, v) for u, v in g.edges() if len(g.neighbors(u) & g.neighbors(v)) < 2]
    vertices = {v for v in g.vertices if classify_vertex(g, v).kind == BOUNDARY}
    return Graph(vertices | {x for e in edges for x in e}, edges)


def test_boundary_matches_the_all_edges_rule(genus2):
    cut = genus2.vertices[0]
    star_cut = induced_subgraph(genus2, set(genus2.vertices) - {cut})
    malformed = [
        complete_graph(4),
        cycle_graph(6),
        Graph(range(5), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),  # bowtie
        HOSTILE_LINKS["two disjoint cycles"],
        HOSTILE_LINKS["degree-3 link vertex"],
    ]
    graphs = [gen_hex_patch(r).graph for r in (1, 2, 5)] + [gen_delta(4).graph, star_cut]
    graphs += malformed
    for g in graphs:
        assert validate_surface(g).boundary == brute_force_boundary(g)
    rim = validate_surface(star_cut).boundary
    assert rim.vertex_set == genus2.neighbors(cut) and rim.edge_count == genus2.degree(cut)
    assert all(validate_surface(g).invalid_vertices for g in malformed)
