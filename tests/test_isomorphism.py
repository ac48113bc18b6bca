from __future__ import annotations

import random
from collections import Counter
from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from cliquedyn import cliques, isomorphism
from cliquedyn.cliques import clique_graph, iterate_k
from cliquedyn.generators import hex_torus, octahedron
from cliquedyn.graph import Graph
from cliquedyn.hexgrid import gen_delta
from cliquedyn.isomorphism import (
    BudgetError,
    _CanonSearch,
    _Partition,
    canonical_hash,
    canonical_key,
    canonical_order,
    find_isomorphism,
    induced_embeddings,
    induced_images,
    is_isomorphic,
)
from helpers import (
    NoJumpSearch,
    brute_force_isomorphic,
    complete_graph,
    cycle_graph,
    degree_seven_surface,
    genus2_surface,
    reference_canonical_key,
    reference_queue_refine,
    reference_refine,
    to_networkx,
)


def relabel(g: Graph, perm: dict[int, int]) -> Graph:
    return Graph(perm.values(), [(perm[a], perm[b]) for a, b in g.edges()])


def test_k3_matches_lattice_triangle():
    assert is_isomorphic(complete_graph(3), gen_delta(1).graph)


def test_cycles_of_different_order():
    assert not is_isomorphic(cycle_graph(6), cycle_graph(7))


def test_same_order_different_structure():
    p3 = Graph(range(3), [(0, 1), (1, 2)])
    assert not is_isomorphic(complete_graph(3), p3)
    assert canonical_hash(complete_graph(3)) != canonical_hash(p3)


def test_octahedron_is_complete_tripartite(octa):
    parts = [(0, 3), (1, 4), (2, 5)]
    edges = [
        (u, v)
        for u in range(6)
        for v in range(u + 1, 6)
        if not any({u, v} == set(p) for p in parts)
    ]
    k222 = Graph(range(6), edges)
    assert brute_force_isomorphic(octa, k222)
    mapping = find_isomorphism(octa, k222)
    assert mapping is not None
    for a, b in octa.edges():
        assert k222.has_edge(mapping[a], mapping[b])


def test_torus_coordinate_shift_has_equal_hash(t44):
    shift = {a * 4 + b: ((a + 1) % 4) * 4 + (b + 2) % 4 for a in range(4) for b in range(4)}
    assert canonical_hash(t44) == canonical_hash(relabel(t44, shift))
    assert find_isomorphism(t44, relabel(t44, shift)) is not None


def test_equivalence_relation_spot_checks(octa, t44):
    samples = [octa, t44, gen_delta(3).graph, cycle_graph(9)]
    for g in samples:
        assert is_isomorphic(g, g)
    for g in samples:
        for h in samples:
            assert is_isomorphic(g, h) == is_isomorphic(h, g)
    # transitivity through a relabelled middle graph
    mid = relabel(octa, {v: v + 50 for v in octa.vertices})
    assert is_isomorphic(octa, mid) and is_isomorphic(mid, octa)


def test_one_budget_exception():
    assert cliques.BudgetError is isomorphism.BudgetError


def test_budget_signal_is_distinct():
    with patch.object(isomorphism, "LABELING_BUDGET", 10), pytest.raises(BudgetError):
        canonical_hash(cycle_graph(40))


def test_labeling_deeper_than_the_recursion_limit(low_recursion_limit):
    """On an edgeless graph the search individualises one vertex per level,
    a chain n deep charged n + 1 per node, whatever the recursion limit."""
    n = low_recursion_limit + 100
    with patch.object(isomorphism, "LABELING_BUDGET", n * (n + 1)):
        assert sorted(canonical_order(Graph(range(n), []))) == list(range(n))
    with patch.object(isomorphism, "LABELING_BUDGET", n * (n + 1) - 1):
        with pytest.raises(BudgetError):
            canonical_order(Graph(range(n), []))


def test_labeling_budget_verdict_names_budget_and_graph_size():
    with patch.object(isomorphism, "LABELING_BUDGET", 100), pytest.raises(
        BudgetError, match="^canonical labeling exceeded its budget of 100 on a 40-vertex graph$"
    ):
        canonical_order(cycle_graph(40))


@st.composite
def graph_and_permutation(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(range(n), [p for p, keep in zip(pairs, mask) if keep])
    perm = draw(st.permutations(range(n)))
    return g, {v: perm[v] + 100 for v in range(n)}


@settings(max_examples=60, deadline=None)
@given(graph_and_permutation())
def test_relabelling_preserves_hash_and_witness(gp):
    g, perm = gp
    h = relabel(g, perm)
    assert canonical_hash(g) == canonical_hash(h)
    mapping = find_isomorphism(g, h)
    assert mapping is not None
    for a, b in g.edges():
        assert h.has_edge(mapping[a], mapping[b])
    assert sorted(mapping.values()) == sorted(h.vertices)


@settings(max_examples=40, deadline=None)
@given(graph_and_permutation())
def test_exactness_against_brute_force(gp):
    g, perm = gp
    # flip one pair to usually break isomorphism, then compare verdicts
    h = relabel(g, perm)
    vs = list(h.vertices)
    if len(vs) >= 2:
        a, b = vs[0], vs[1]
        edges = set(h.edges())
        key = (min(a, b), max(a, b))
        edges = edges - {key} if key in edges else edges | {key}
        h = Graph(vs, edges)
    assert is_isomorphic(g, h) == brute_force_isomorphic(g, h)


def test_induced_embeddings_count_triangles(octa):
    images = induced_images(gen_delta(1).graph, octa)
    assert len(images) == 8
    embeddings = list(induced_embeddings(gen_delta(1).graph, octa))
    assert len(embeddings) == 48  # six embeddings per facet


def test_induced_embeddings_require_induced():
    # the 4-cycle contains paths of length 2 but no induced triangle
    assert induced_images(gen_delta(1).graph, cycle_graph(4)) == []


def test_empty_pattern_embeds_once(octa):
    assert list(induced_embeddings(Graph([]), octa)) == [{}]


def test_canonical_order_is_computed_once():
    g = hex_torus(4, 4)
    assert canonical_order(g) is canonical_order(g)


@pytest.mark.parametrize(
    "make, steps, runs",
    [(degree_seven_surface, 6, 4), (genus2_surface, 14, 14)],
)
def test_each_iterate_is_labeled_once(monkeypatch, make, steps, runs):
    # fresh graphs: a shared fixture may already carry a memoised order
    calls = []
    run = _CanonSearch.run

    def counted(self):
        calls.append(self)
        return run(self)

    monkeypatch.setattr(_CanonSearch, "run", counted)
    trace = iterate_k(make(), steps)
    assert (trace.verdict, trace.period) == ("converged", 2)
    assert len(calls) == len(trace.steps) == runs


def test_canonical_key_is_the_sorted_edge_list_between_canonical_positions(t44):
    graphs = [
        Graph([]),
        Graph(range(5)),
        Graph([3, 9, 4], [(9, 3)]),
        complete_graph(6),
        t44,
        clique_graph(clique_graph(t44)),
        _shuffled(genus2_surface(), random.Random(3)),
    ]
    for g in graphs:
        assert canonical_key(g) == reference_canonical_key(g)


def test_hash_of_the_degree_seven_second_iterate_ignores_vertex_ids():
    # |Aut| = 2 leaves orbit pruning little to do, so trace pruning decides
    # the search; a pruning rule that depends on vertex ids differs here
    k2 = clique_graph(clique_graph(degree_seven_surface()))
    assert k2.n == 280
    hashes = {canonical_hash(_shuffled(k2, random.Random(seed))) for seed in range(5)}
    assert len(hashes) == 1


def _counted_leaves(monkeypatch) -> list[int]:
    """A list that grows by one per leaf any later labeling reaches."""
    leaves: list[int] = []
    code = isomorphism._code_from_discrete

    def counted(*args):
        leaves.append(1)
        return code(*args)

    monkeypatch.setattr(isomorphism, "_code_from_discrete", counted)
    return leaves


def test_trace_pruning_keeps_the_degree_seven_search_small(monkeypatch):
    leaves = _counted_leaves(monkeypatch)
    canonical_order(clique_graph(degree_seven_surface()))
    assert 1 <= len(leaves) <= 16


def test_the_jump_back_keeps_the_diverging_torus_search_small(monkeypatch):
    # the 4x4 torus iterates keep every automorphism of the torus; a search
    # that walks on below an automorphism leaf reached 214 leaves here
    graphs = _iterates(lambda: hex_torus(4, 4), 20)
    leaves = _counted_leaves(monkeypatch)
    for g in graphs:
        canonical_order(g)
    assert len(leaves) <= 100


# -- splitter-queue refinement against the round-based and queue references ---


def _adjacency(g: Graph) -> list[list[int]]:
    idx = {v: i for i, v in enumerate(g.vertices)}
    return [[idx[w] for w in g.neighbors(v)] for v in g.vertices]


def _cells(colors: list[int]) -> set[frozenset[int]]:
    cells: dict[int, set[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return {frozenset(c) for c in cells.values()}


def _same_partition(a: _Partition, b: _Partition) -> bool:
    return (a.order, a.cell, a.size) == (b.order, b.cell, b.size)


def _check_refinement(adj: list[list[int]], v: int | None = None) -> None:
    """Refine from one cell, then from v individualised in the result when
    v is given and not already a singleton, and compare the cells with the
    round-based reference's, and the trace and every view of the partition
    with the queue reference's."""
    n = len(adj)
    part, queue_ref = _Partition.unit(n), _Partition.unit(n)
    assert part.refine(adj, [0]) == reference_queue_refine(queue_ref, adj, [0])
    assert _same_partition(part, queue_ref)
    colors = reference_refine(adj, [0] * n)
    if v is not None and part.size[part.cell[v]] > 1:
        s = part.cell[v]
        part, queue_ref = part.individualised(v), queue_ref.individualised(v)
        assert part.refine(adj, [s]) == reference_queue_refine(queue_ref, adj, [s])
        assert _same_partition(part, queue_ref)
        colors[v] = max(colors) + 1
        colors = reference_refine(adj, colors)
    assert _cells(part.cell) == _cells(colors)
    # the three views of the partition agree
    assert sorted(part.order) == list(range(n))
    for s in set(part.cell):
        assert {part.cell[u] for u in part.order[s : s + part.size[s]]} == {s}
    # equitable: members of a cell see the same number of each cell
    profiles = [Counter(part.cell[w] for w in adj[u]) for u in range(n)]
    for u in range(n):
        assert profiles[u] == profiles[part.order[part.cell[u]]]


@st.composite
def graph_and_vertex(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(range(n), [p for p, keep in zip(pairs, mask) if keep])
    return g, draw(st.none() | st.integers(min_value=0, max_value=n - 1))


@settings(max_examples=200, deadline=None)
@given(graph_and_vertex())
def test_refinement_matches_the_round_based_reference(gv):
    g, v = gv
    _check_refinement(_adjacency(g), v)


def _iterates(make, steps):
    g = make()
    out = [g]
    for _ in range(steps):
        g = clique_graph(g)
        out.append(g)
    return out


@pytest.mark.parametrize(
    "g",
    [hex_torus(4, 4), hex_torus(5, 6)]
    + _iterates(genus2_surface, 2)
    + _iterates(degree_seven_surface, 2),
    ids=lambda g: f"{g.n}v",
)
def test_refinement_matches_the_reference_on_surfaces(g):
    adj = _adjacency(g)
    _check_refinement(adj)
    _check_refinement(adj, random.Random(g.n).randrange(g.n))


# -- differential check against networkx --------------------------------------

DIFFERENTIAL_BASES = [
    hex_torus(4, 4),
    hex_torus(5, 6),
    genus2_surface(),
    clique_graph(clique_graph(octahedron())),
    degree_seven_surface(),
    clique_graph(degree_seven_surface()),
]


def _nx_isomorphic(g: Graph, h: Graph) -> bool:
    # VF2++ rather than nx.is_isomorphic's VF2, which took minutes on some
    # double-edge-swap near misses of the genus-2 surface; could_be_isomorphic
    # compares degree, triangle and clique sequences, a necessary condition
    # that settles the near misses of the 7-regular iterate, where VF2++
    # takes seconds
    a, b = to_networkx(g), to_networkx(h)
    return nx.could_be_isomorphic(a, b) and nx.vf2pp_is_isomorphic(a, b)


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    ids = [v + 1000 for v in g.vertices]
    rng.shuffle(ids)
    perm = dict(zip(g.vertices, ids))
    return Graph(ids, [(perm[a], perm[b]) for a, b in g.edges()])


def _double_edge_swap(g: Graph, rng: random.Random) -> Graph | None:
    """Replace edges ab, cd by ad, cb (degrees are kept), or None when the
    graph admits no such swap."""
    edges = list(g.edges())
    rng.shuffle(edges)
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
                kept = set(edges) - {(a, b), (c, d)}
                return Graph(g.vertices, kept | {(a, d), (c, b)})
    return None


def _assert_witness(mapping: dict[int, int], g: Graph, h: Graph) -> None:
    assert sorted(mapping) == list(g.vertices)
    assert sorted(mapping.values()) == list(h.vertices)
    assert all(h.has_edge(mapping[a], mapping[b]) for a, b in g.edges())
    assert g.edge_count == h.edge_count


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(range(len(DIFFERENTIAL_BASES))), st.randoms(use_true_random=False))
def test_find_isomorphism_agrees_with_networkx(index, rng):
    g = DIFFERENTIAL_BASES[index]
    h = _shuffled(g, rng)
    mapping = find_isomorphism(g, h)
    assert mapping is not None and _nx_isomorphic(g, h)
    _assert_witness(mapping, g, h)

    near = _double_edge_swap(h, rng)
    if near is None:
        return
    mapping = find_isomorphism(g, near)
    assert (mapping is not None) == _nx_isomorphic(g, near)
    if mapping is not None:
        _assert_witness(mapping, g, near)


# -- the jump back and the one-step split against the parent's search ---------


@pytest.mark.parametrize(
    "make, steps, shuffle",
    [
        (lambda: hex_torus(4, 4), 6, True),
        (lambda: hex_torus(5, 6), 6, True),
        (genus2_surface, 4, False),
        (degree_seven_surface, 2, False),
        (octahedron, 2, False),
    ],
    ids=["torus4x4", "torus5x6", "genus2", "septic", "octahedron"],
)
def test_the_jump_back_keeps_every_canonical_order(make, steps, shuffle):
    for i, g in enumerate(_iterates(make, steps)):
        if shuffle:
            g = _shuffled(g, random.Random(i))
        adj = _adjacency(g)
        reference = NoJumpSearch(adj)
        expected = tuple(g.vertices[v] for v in reference.run())
        search = _CanonSearch(adj)
        assert tuple(g.vertices[v] for v in search.run()) == expected
        assert canonical_order(g) == expected
        assert search.spent <= reference.spent


def test_the_jump_back_keeps_the_order_of_every_relabelled_torus():
    # a jump to a shallower depth than the two leaves' common prefix skips
    # branches that hold the least leaf on about a third of these
    g = hex_torus(4, 4)
    for seed in range(20):
        adj = _adjacency(_shuffled(g, random.Random(seed)))
        assert _CanonSearch(adj).run() == NoJumpSearch(adj).run()


def test_refinement_replays_the_queue_reference_call_for_call(monkeypatch):
    graphs = _iterates(lambda: hex_torus(4, 4), 4) + [
        _shuffled(g, random.Random(i)) for i, g in enumerate(_iterates(genus2_surface, 3))
    ]
    calls = []
    refine = _Partition.refine

    def recorded(part, adj, splitters, bound=None):
        before = _Partition(part.order[:], part.cell[:], part.size[:])
        calls.append((adj, before, list(splitters), bound))
        return refine(part, adj, splitters, bound)

    monkeypatch.setattr(_Partition, "refine", recorded)
    for g in graphs:
        canonical_order(g)
    monkeypatch.undo()
    assert any(bound is not None for *_, bound in calls)
    for adj, before, splitters, bound in calls:
        part, ref = (
            _Partition(before.order[:], before.cell[:], before.size[:]) for _ in range(2)
        )
        assert part.refine(adj, splitters, bound) == reference_queue_refine(
            ref, adj, splitters, bound
        )
        assert _same_partition(part, ref)


# -- orbit pruning by the generators alone ------------------------------------


@pytest.mark.parametrize(
    "graph, leaves, nodes, digest",
    [
        *zip(
            _iterates(lambda: hex_torus(4, 4), 8),
            [6, 4, 4, 5, 4, 4, 5, 4, 4],
            [17, 10, 10, 13, 7, 10, 13, 7, 10],
            [
                "efe4b6536f26", "caf124637bdd", "1771d16b5170", "b989c0608729",
                "33adffddfbae", "eab24d39ccfa", "11ba2430ef6b", "a6f5d0c235b6",
                "f59129fb3167",
            ],
        ),
        (_iterates(octahedron, 3)[3], 1, 129, "996ac9df8cec"),
    ],
    ids=[f"torus4x4-k{i}" for i in range(9)] + ["octahedron-k3"],
)
def test_orbit_pruning_keeps_the_search_of_inverse_closed_generators(
    monkeypatch, graph, leaves, nodes, digest
):
    # the counts and digests a search whose generators also held their
    # inverses gave: an orbit is closed under the generators alone
    counted = _counted_leaves(monkeypatch)
    adj = _adjacency(graph)
    search = _CanonSearch(adj)
    search.run()
    assert (len(counted), search.spent // (len(adj) + 1)) == (leaves, nodes)
    assert canonical_hash(graph)[:12] == digest
