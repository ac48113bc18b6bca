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
from cliquedyn.surface import boundary_distance, facets
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
