from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cliquedyn import charts
from cliquedyn.charts import find_standard_charts
from cliquedyn.graph import (
    Graph,
    GraphError,
    UnknownVertexError,
    closed_neighbourhood,
    common_neighbourhood,
    induced_subgraph,
)
from cliquedyn.hexgrid import gen_delta, gen_hex_patch
from cliquedyn.isomorphism import canonical_order
from cliquedyn.surface import SurfaceError, boundary_distance, facets, validate_surface
from helpers import complete_graph, cycle_graph

# memo keys: the deriving functions that ``memoised`` wraps
CONNECTED = Graph.is_connected.__wrapped__
SURFACE = validate_surface.__wrapped__


def small_graphs():
    """Random simple graphs on up to 7 vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=7))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(range(n), [p for p, keep in zip(pairs, mask) if keep])

    return build()


def test_graph_rejects_self_loops_and_unknown_endpoints():
    with pytest.raises(GraphError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(UnknownVertexError):
        Graph([0, 1], [(0, 2)])


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([0, 1.5], [(0, 1.5)], "vertices[1] = 1.5 is not an integer id"),
        (["0", "1"], [("0", 1)], "vertices[0] = '0' is not an integer id"),
        ([True, 2], [(True, 2)], "vertices[0] = True is not an integer id"),
        ([0, 1], [(0, 1.0)], "edges[0] = (0, 1.0) is not a pair of integer ids"),
        ([1, 2], [(True, 2)], "edges[0] = (True, 2) is not a pair of integer ids"),
    ],
)
def test_graph_rejects_ids_that_are_not_ints(vertices, edges, message):
    # 1.0 and True hash like 1, so a membership test alone would accept them
    with pytest.raises(GraphError) as info:
        Graph(vertices, edges)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([1], [(1,)], "edges[0] = (1,) is not a pair of integer ids"),
        ([1, 2], [(1, 2, 3)], "edges[0] = (1, 2, 3) is not a pair of integer ids"),
        ([1], [1], "edges[0] = 1 is not a pair of integer ids"),
    ],
)
def test_graph_names_a_malformed_edge(vertices, edges, message):
    with pytest.raises(GraphError) as info:
        Graph(vertices, edges)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edges, labels, message",
    [
        ([(0, 1), (1, 1)], None, "edges[1] = (1, 1) is a self-loop"),
        ([(0, 1), (2, 0)], None, "edges[1] = (2, 0) uses an unknown vertex"),
        ([(0, 1)], {0: "a", 2: "b"}, "labels key '2' names no vertex"),
        ([(0, 1)], {"0": "a"}, "labels key '0' names no vertex"),
        ([(0, 1)], {True: "a"}, "labels key 'True' names no vertex"),
    ],
)
def test_graph_names_a_bad_edge_or_label_key(edges, labels, message):
    with pytest.raises(GraphError) as info:
        Graph([0, 1], edges, labels=labels)
    assert str(info.value) == message


def test_duplicate_edges_collapse():
    g = Graph([0, 1], [(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_induced_subgraph_of_octahedron_face(octa):
    face = facets(octa)[0]
    sub = induced_subgraph(octa, face)
    assert sub.n == 3 and sub.edge_count == 3


def test_induced_subgraph_empty():
    g = complete_graph(4)
    sub = induced_subgraph(g, ())
    assert sub.n == 0 and sub.edge_count == 0


def test_induced_subgraph_hex_basis_triple_is_triangle():
    d1 = gen_delta(1)
    sub = induced_subgraph(d1.graph, d1.graph.vertices)
    assert sub.edge_count == 3


def test_induced_subgraph_unknown_vertex(octa):
    with pytest.raises(UnknownVertexError):
        induced_subgraph(octa, [99])


def _regular_induced(g: Graph, s) -> Graph:
    ss = set(s)
    edges = [(u, v) for u, v in g.edges() if u in ss and v in ss]
    return Graph(ss, edges, g.name)


@given(small_graphs(), st.data())
def test_induced_subgraph_equals_a_regular_build(g, data):
    g = Graph(g.vertices, g.edges(), "g", {v: (v, -v) for v in g.vertices[::2]})
    s = data.draw(st.lists(st.sampled_from(g.vertices), max_size=g.n))
    h, ref = induced_subgraph(g, s), _regular_induced(g, s)
    assert h == ref and hash(h) == hash(ref)
    assert (h.vertices, h.edge_count, h.name, h.labels) == (
        ref.vertices, ref.edge_count, ref.name, ref.labels
    )
    assert sorted(h.edges()) == sorted(ref.edges())


def test_induced_subgraph_keeps_labels_and_memo_apart():
    patch = gen_hex_patch(3)
    g = patch.graph
    validate_surface(g)
    hood = closed_neighbourhood(g, [patch.id_of[(0, 0, 0)]])
    h = induced_subgraph(g, hood)
    assert h == _regular_induced(g, hood) and h.labels is None
    assert h._memo == {} and h._memo is not g._memo
    before = dict(g._memo)
    assert validate_surface(h) is not before[SURFACE]
    assert g._memo == before and set(h._memo) == {CONNECTED, SURFACE}
    with pytest.raises(UnknownVertexError):
        induced_subgraph(g, [*hood, 10_000])


def test_connectivity_is_computed_once_per_graph():
    """``decide_finite`` gates on connectivity and ``validate_surface``
    checks it again; both read the graph's one memoised answer."""
    g = gen_hex_patch(2).graph
    assert CONNECTED not in g._memo
    assert g.is_connected() and g._memo[CONNECTED] is True
    g._memo[CONNECTED] = False  # a stale answer shows that it is read back
    assert not g.is_connected()
    with pytest.raises(SurfaceError, match="disconnected input"):
        validate_surface(g)
    split = Graph(range(4), [(0, 1), (2, 3)])
    assert not split.is_connected() and split._memo[CONNECTED] is False
    assert Graph([]).is_connected()


def test_a_memoised_derivation_runs_once_per_graph_and_argument(monkeypatch):
    """Each side length m has its own chart list; every call after the first
    reads it back.  Each run with m >= 1 reads the facets once."""
    runs = []
    real = charts.facets
    monkeypatch.setattr(charts, "facets", lambda g: runs.append(g) or real(g))
    g = gen_hex_patch(3).graph
    twos, threes = find_standard_charts(g, 2, 0), find_standard_charts(g, 3, 0)
    assert find_standard_charts(g, 2, 0) is twos and find_standard_charts(g, 3, 0) is threes
    assert len(twos) != len(threes) and len(runs) == 2
    derive = find_standard_charts.__wrapped__
    assert g._memo[derive, 2, 0] is twos and g._memo[derive, 3, 0] is threes
    fresh = gen_hex_patch(3).graph
    assert [ch.key() for ch in find_standard_charts(fresh, 2, 0)] == [ch.key() for ch in twos]
    assert len(runs) == 3


def test_a_raising_derivation_stores_nothing():
    split = Graph(range(4), [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(SurfaceError, match="disconnected input"):
            validate_surface(split)
    assert set(split._memo) == {CONNECTED}


def test_value_parameters_cannot_leave_the_memo_key():
    """A stored value depends on the graph and its positional arguments
    alone, so a keyword argument, the graph's included, raises and stores
    nothing."""
    g = gen_hex_patch(3).graph
    calls = [
        lambda: find_standard_charts(g, m=3),
        lambda: canonical_order(g, 10),
        lambda: canonical_order(g, budget=1),
        lambda: validate_surface(g=g),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert g._memo == {}


def test_closed_neighbourhood_interior_hex_vertex():
    patch = gen_hex_patch(2)
    centre = patch.id_of[(0, 0, 0)]
    assert len(closed_neighbourhood(patch.graph, [centre])) == 7


def test_closed_neighbourhood_whole_k3():
    g = complete_graph(3)
    assert closed_neighbourhood(g, g.vertices) == g.vertex_set


def test_closed_neighbourhood_of_central_facet_is_twelve():
    patch = gen_hex_patch(3)
    facet = frozenset(patch.id_of[c] for c in [(0, 0, 0), (1, -1, 0), (1, 0, -1)])
    assert len(closed_neighbourhood(patch.graph, facet)) == 12


def test_common_neighbourhood_k4_pair():
    g = complete_graph(4)
    assert common_neighbourhood(g, [0, 1]) == g.vertex_set


def test_common_neighbourhood_antipodal_octahedron(octa):
    v = octa.vertices[0]
    antipode = next(w for w in octa.vertices if w != v and not octa.has_edge(v, w))
    assert len(common_neighbourhood(octa, [v, antipode])) == 6


def test_common_neighbourhood_triangle_free_pair():
    g = cycle_graph(6)
    assert common_neighbourhood(g, [0, 1]) == frozenset({0, 1})


def test_common_neighbourhood_rejects_empty():
    with pytest.raises(GraphError):
        common_neighbourhood(complete_graph(3), [])


def test_delta3_minus_boundary_is_single_centre_vertex():
    d3 = gen_delta(3)
    dist = boundary_distance(d3.graph)
    interior = [v for v in d3.graph.vertices if dist[v] >= 1]
    assert [d3.coord_of[v] for v in interior] == [(1, 1, 1)]


@given(small_graphs(), st.data())
def test_common_is_inside_closed_neighbourhood(g, data):
    k = data.draw(st.integers(min_value=1, max_value=g.n))
    s = data.draw(st.permutations(list(g.vertices)))[:k]
    assert common_neighbourhood(g, s) <= closed_neighbourhood(g, s)
