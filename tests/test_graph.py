from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cliquedyn.graph import (
    Graph,
    GraphError,
    UnknownVertexError,
    closed_neighbourhood,
    common_neighbourhood,
    induced_subgraph,
)
from cliquedyn.hexgrid import gen_delta, gen_hex_patch
from cliquedyn.surface import SurfaceError, boundary_distance, facets, validate_surface
from helpers import complete_graph, cycle_graph


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
        ([0, 1.5], [(0, 1.5)], "vertex id 1.5 is not an integer"),
        (["0", "1"], [("0", 1)], "vertex id '0' is not an integer"),
        ([True, 2], [(True, 2)], "vertex id True is not an integer"),
        ([0, 1], [(0, 1.0)], "edge (0,1.0) has an endpoint that is not an integer id"),
        ([1, 2], [(True, 2)], "edge (True,2) has an endpoint that is not an integer id"),
    ],
)
def test_graph_rejects_ids_that_are_not_ints(vertices, edges, message):
    # 1.0 and True hash like 1, so a membership test alone would accept them
    with pytest.raises(GraphError) as info:
        Graph(vertices, edges)
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
    labels = {v: g.labels[v] for v in ss if v in g.labels} if g.labels else None
    return Graph(ss, edges, g.name, labels)


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
    assert h == _regular_induced(g, hood) and h.labels == {v: g.labels[v] for v in hood}
    assert h._memo == {} and h._memo is not g._memo
    before = dict(g._memo)
    assert validate_surface(h) is not before["surface"]
    assert g._memo == before and set(h._memo) == {"connected", "surface"}
    assert induced_subgraph(complete_graph(3), [0, 1]).labels is None
    unlabelled = induced_subgraph(Graph(range(3), [(0, 1)], labels={2: "x"}), [0, 1])
    assert unlabelled.labels is None and unlabelled == Graph([0, 1], [(0, 1)])
    with pytest.raises(UnknownVertexError):
        induced_subgraph(g, [*hood, 10_000])


def test_connectivity_is_computed_once_per_graph():
    """``decide_finite`` gates on connectivity and ``validate_surface``
    checks it again; both read the graph's one memoised answer."""
    g = gen_hex_patch(2).graph
    assert "connected" not in g._memo
    assert g.is_connected() and g._memo["connected"] is True
    g._memo["connected"] = False  # a stale answer shows that it is read back
    assert not g.is_connected()
    with pytest.raises(SurfaceError, match="disconnected input"):
        validate_surface(g)
    split = Graph(range(4), [(0, 1), (2, 3)])
    assert not split.is_connected() and split._memo["connected"] is False
    assert Graph([]).is_connected()


def test_closed_neighbourhood_interior_hex_vertex():
    patch = gen_hex_patch(2)
    centre = patch.id_of[(0, 0, 0)]
    assert len(closed_neighbourhood(patch.graph, [centre])) == 7


def test_closed_neighbourhood_whole_k3():
    g = complete_graph(3)
    assert closed_neighbourhood(g, g.vertices) == g.vertex_set


def test_closed_neighbourhood_of_central_facet_is_twelve():
    patch = gen_hex_patch(3)
    facet = patch.ids([(0, 0, 0), (1, -1, 0), (1, 0, -1)])
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
