from __future__ import annotations

from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from cliquedyn import cliques
from cliquedyn.cliques import (
    FRAME_BITS,
    BudgetError,
    clique_graph,
    intersection_edges,
    iterate_k,
    max_cliques,
)
from cliquedyn.graph import Graph, GraphError
from cliquedyn.hexgrid import gen_hex_patch
from cliquedyn.isomorphism import is_isomorphic
from cliquedyn.generators import hex_torus
from helpers import (
    complete_graph,
    cycle_graph,
    degree_seven_surface,
    genus2_surface,
    reference_max_cliques,
    to_networkx,
)


def test_k4_single_clique():
    assert max_cliques(complete_graph(4)) == [frozenset(range(4))]


def test_octahedron_cliques_are_faces(octa):
    cliques = max_cliques(octa)
    assert len(cliques) == 8 and all(len(c) == 3 for c in cliques)


def test_cycle_cliques_are_edges():
    cliques = max_cliques(cycle_graph(6))
    assert len(cliques) == 6 and all(len(c) == 2 for c in cliques)


def test_every_clique_is_maximal_on_corpus(octa, icosa, t44):
    corpus = [octa, icosa, t44, gen_hex_patch(3).graph, cycle_graph(9)]
    for g in corpus:
        for clique in max_cliques(g):
            members = sorted(clique)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    assert g.has_edge(a, b)
            for outside in set(g.vertices) - clique:
                assert not clique <= g.neighbors(outside)


def test_clique_graph_of_k4_is_point():
    kg = clique_graph(complete_graph(4))
    assert kg.n == 1 and kg.edge_count == 0


def test_clique_graph_of_octahedron(octa):
    kg = clique_graph(octa)
    assert kg.n == 8 and kg.edge_count == 24
    # antipodal faces are the only non-adjacent pairs: K8 minus a matching
    matching = [(0, 1), (2, 3), (4, 5), (6, 7)]
    k8_minus = Graph(
        range(8),
        [
            (a, b)
            for a in range(8)
            for b in range(a + 1, 8)
            if (a, b) not in matching
        ],
    )
    assert is_isomorphic(kg, k8_minus)


def test_clique_graph_edges_match_pairwise_intersections(octa, t44):
    for g in (octa, t44):
        kg = clique_graph(g)
        members = {i: frozenset(kg.labels[i]) for i in kg.vertices}
        for i in kg.vertices:
            for j in kg.vertices:
                if i < j:
                    assert kg.has_edge(i, j) == bool(members[i] & members[j])


def test_clique_graph_labels_trace_members(t44):
    kg = clique_graph(t44)
    assert kg.n == 32
    for i in kg.vertices:
        assert len(kg.labels[i]) == 3


def test_iterate_complete_graphs_converge_to_a_point():
    for n in range(1, 6):
        trace = iterate_k(complete_graph(n), 4)
        assert trace.verdict == "converged"
        assert trace.period == 1
        assert trace.steps[-1].vertices == 1
        if n >= 2:
            assert trace.converged_at == 1


def test_iterate_torus_growth(t44):
    trace = iterate_k(t44, 3)
    counts = [s.vertices for s in trace.steps]
    assert counts[0] == 16 and counts[1] == 32
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert trace.verdict == "diverging_evidence"


def test_iterate_octahedron_growth(octa):
    trace = iterate_k(octa, 3)
    counts = [s.vertices for s in trace.steps]
    assert counts == [6, 8, 16, 256]
    assert trace.verdict == "diverging_evidence"


def test_iterate_octahedron_hits_clique_cap(octa):
    trace = iterate_k(octa, 4, vertex_budget=1000)
    assert trace.verdict == "budget_exceeded"
    assert trace.detail.startswith("iterate 4: more than 1000 maximal cliques")


def test_converged_verdict_is_budget_stable():
    g = complete_graph(4)
    with patch.object(cliques, "NODE_BUDGET", 10_000):
        small = iterate_k(g, 5, vertex_budget=50)
    large = iterate_k(g, 5)
    assert (small.verdict, small.converged_at, small.period) == (
        large.verdict,
        large.converged_at,
        large.period,
    )


def test_iterate_respects_vertex_budget(octa):
    trace = iterate_k(octa, 6, vertex_budget=10)
    assert trace.verdict == "budget_exceeded"
    assert trace.detail
    assert all(s.vertices <= 10 for s in trace.steps)


def test_iterate_rejects_negative_steps_and_budgets(octa):
    with pytest.raises(GraphError, match="number of steps must be non-negative, got -1"):
        iterate_k(octa, -1)
    with pytest.raises(GraphError, match="vertex budget must be non-negative, got -1"):
        iterate_k(octa, 2, vertex_budget=-1)


def test_empty_graph_is_a_fixed_point():
    empty = Graph([], [])
    assert max_cliques(empty) == []
    assert clique_graph(empty).n == 0
    trace = iterate_k(empty, 3)
    assert (trace.verdict, trace.converged_at, trace.period) == ("converged", 0, 1)


def test_max_cliques_node_budget(t44):
    with patch.object(cliques, "NODE_BUDGET", 3), pytest.raises(BudgetError):
        max_cliques(t44)


def test_clique_search_deeper_than_the_recursion_limit(low_recursion_limit):
    """The search recurses once per clique member: on K_n it is the root and
    a chain of n nodes, whatever the recursion limit."""
    n = low_recursion_limit + 100
    k = complete_graph(n)
    with patch.object(cliques, "NODE_BUDGET", n + 1):
        assert max_cliques(k) == [frozenset(range(n))]
    with patch.object(cliques, "NODE_BUDGET", n), pytest.raises(BudgetError):
        max_cliques(k)


def test_iterate_path_collapses_to_a_point():
    p4 = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    trace = iterate_k(p4, 6)
    assert trace.verdict == "converged"
    repeat = trace.graphs[trace.converged_at + trace.period]
    assert is_isomorphic(trace.graphs[trace.converged_at], repeat)


def test_intersection_edges_pair_the_sets_that_meet():
    sets = [{0, 1}, {1, 2}, {3}, {0, 3}, set()]
    assert intersection_edges(sets) == {(0, 1), (0, 3), (2, 3)}


def _assert_cliques_match_networkx(g: Graph) -> None:
    ours = max_cliques(g)
    assert len(set(ours)) == len(ours)
    assert set(ours) == {frozenset(c) for c in nx.find_cliques(to_networkx(g))}


def test_max_cliques_matches_networkx_on_surfaces(octa, icosa, t44, genus2):
    for g in (octa, icosa, t44, genus2, clique_graph(degree_seven_surface())):
        _assert_cliques_match_networkx(g)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(n), [p for p, keep in zip(pairs, mask) if keep])


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_max_cliques_matches_networkx_on_random_graphs(g):
    _assert_cliques_match_networkx(g)


# -- the bit-mask search against the set-based reference ----------------------


def _budgeted_max_cliques(g: Graph, node_budget: int, clique_cap: int | None = None):
    """``max_cliques`` with its node budget set to ``node_budget``."""
    with patch.object(cliques, "NODE_BUDGET", node_budget):
        return max_cliques(g, clique_cap)


def _outcome(search, g: Graph, node_budget: int, clique_cap: int | None = None):
    """The clique list, or which budget stopped the search."""
    try:
        return search(g, node_budget, clique_cap)
    except BudgetError as exc:
        return "cap" if "maximal cliques" in str(exc) else "nodes"


def _least_node_budget(g: Graph, clique_cap: int | None = None) -> int:
    """The least node budget under which ``max_cliques`` is not stopped by
    the node budget: its node count, or the node where ``clique_cap`` trips."""
    def enough(b):
        return _outcome(_budgeted_max_cliques, g, b, clique_cap) != "nodes"

    lo, hi = -1, 1  # invariant: lo is too small; -1 lies below every budget asked
    while not enough(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def _assert_matches_reference(g: Graph, cap_fraction: float = 0.5) -> None:
    """Same cliques, same node count and the same trip point of
    ``clique_cap``: at the least budget that lets the bit-mask search pass
    a point, the reference passes it too, and one node less stops both."""
    cliques = reference_max_cliques(g)
    count = _least_node_budget(g)
    for search in (_budgeted_max_cliques, reference_max_cliques):
        assert _outcome(search, g, count) == cliques
        assert _outcome(search, g, count, len(cliques)) == cliques
        if count:
            assert _outcome(search, g, count - 1) == "nodes"
    if cliques:
        cap = int(cap_fraction * (len(cliques) - 1))
        trip = _least_node_budget(g, cap)
        for search in (_budgeted_max_cliques, reference_max_cliques):
            assert _outcome(search, g, trip, cap) == "cap"
            assert _outcome(search, g, trip - 1, cap) == "nodes"


@st.composite
def sparse_id_graphs(draw):
    """Up to 40 vertices with ids that need not be contiguous or positive,
    at a drawn edge density, complete and empty graphs included."""
    ids = draw(st.lists(st.integers(-50, 10**6), max_size=40, unique=True))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    return Graph(ids, [p for p in pairs if rnd.random() < density])


# frame widths from one closed neighbourhood per frame to one frame for all
FRAMES = [0, 1, 5, FRAME_BITS]


@settings(max_examples=150, deadline=None)
@given(sparse_id_graphs(), st.floats(0, 1), st.sampled_from(FRAMES))
def test_max_cliques_matches_reference_on_random_graphs(g, cap_fraction, frame_bits):
    with patch.object(cliques, "FRAME_BITS", frame_bits):
        _assert_matches_reference(g, cap_fraction)


@pytest.mark.parametrize("frame_bits", FRAMES)
def test_max_cliques_matches_reference_on_special_graphs(frame_bits):
    with patch.object(cliques, "FRAME_BITS", frame_bits):
        _assert_matches_reference(Graph([], []))
        _assert_matches_reference(Graph([7, -3, 1000], [(7, -3), (-3, 1000), (7, 1000)]))
        _assert_matches_reference(complete_graph(12))
        _assert_matches_reference(Graph(range(9), [(0, i) for i in range(1, 9)]))


def _iterates(g: Graph, steps: int) -> list[Graph]:
    out = [g]
    for _ in range(steps):
        out.append(clique_graph(out[-1]))
    return out


@pytest.mark.parametrize(
    "surface, steps",
    [(genus2_surface, 4), (degree_seven_surface, 3), (lambda: hex_torus(4, 4), 8)],
    ids=["genus2", "degree_seven", "torus4x4"],
)
def test_max_cliques_matches_reference_on_iterates(surface, steps):
    for g in _iterates(surface(), steps):
        _assert_matches_reference(g)
        with patch.object(cliques, "FRAME_BITS", 20):
            assert max_cliques(g) == reference_max_cliques(g)
