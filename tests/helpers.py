"""Shared test helpers: small oracles kept independent of the library paths
they check, and the surgery that produced the genus-2 fixture."""

from __future__ import annotations

from itertools import permutations

import networkx as nx

from cliquedyn.cliques import DEFAULT_NODE_BUDGET
from cliquedyn.generators import hex_torus
from cliquedyn.graph import Graph
from cliquedyn.isomorphism import BudgetError
from cliquedyn.surface import classify_vertex


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Permutation search, usable up to ~8 vertices."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    v1, v2 = list(g1.vertices), list(g2.vertices)
    e1 = {frozenset(e) for e in g1.edges()}
    for perm in permutations(v2):
        mapping = dict(zip(v1, perm))
        if {frozenset((mapping[a], mapping[b])) for a, b in e1} == {
            frozenset(e) for e in g2.edges()
        }:
            return True
    return False


def reference_refine(adj: list[list[int]], colors: list[int]) -> list[int]:
    """Round-based colour refinement to a stable (equitable) partition: every
    round re-sorts each vertex's neighbour colours.  The reference for the
    splitter-queue refinement of the labeling layer."""
    n = len(adj)
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v])))
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[sig[v]] for v in range(n)]
        if new == colors:
            return new
        colors = new


def reference_max_cliques(
    g: Graph,
    node_budget: int = DEFAULT_NODE_BUDGET,
    clique_cap: int | None = None,
) -> list[frozenset[int]]:
    """All maximal cliques, duplicate-free, sorted by their member lists:
    the set-based Bron-Kerbosch search that the bit-mask search of
    ``cliques.max_cliques`` replaced, kept as its reference.

    ``clique_cap`` bounds the number of cliques collected, so enumerations
    whose output alone would exhaust memory fail fast with a budget signal.
    """
    adj = {v: g.neighbors(v) for v in g.vertices}
    out: list[frozenset[int]] = []
    spent = 0

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise BudgetError(f"clique search exceeded {node_budget} nodes")
        if not p and not x:
            out.append(frozenset(r))
            if clique_cap is not None and len(out) > clique_cap:
                raise BudgetError(f"more than {clique_cap} maximal cliques")
            return
        pivot = max(p | x, key=lambda u: (len(p & adj[u]), -u))
        for v in sorted(p - adj[pivot]):
            expand(r + [v], p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    if g.n:  # k of the empty graph is empty: report no clique, not the empty set
        expand([], set(g.vertices), set())
    out.sort(key=sorted)
    return out


def genus2_surface() -> Graph:
    """Genus-2, minimum degree 6, not 6-regular: cut two vertex stars out of
    a 10x10 torus and bridge the rims with an antiprism band.

    The rim vertices end with degree 7; everything else keeps degree 6.
    The result is validated locally cyclic by its tests."""
    t = hex_torus(10, 10)
    v1, v2 = 0, 55
    rim1 = classify_vertex(t, v1).order
    rim2 = classify_vertex(t, v2).order
    keep = [v for v in t.vertices if v not in (v1, v2)]
    edges = [(a, b) for a, b in t.edges() if v1 not in (a, b) and v2 not in (a, b)]
    for i in range(6):
        edges.append((rim1[i], rim2[i]))
        edges.append((rim1[(i + 1) % 6], rim2[i]))
    return Graph(keep, edges, name="genus2_delta6")


def degree_seven_surface() -> Graph:
    """A 7-regular locally cyclic surface: the star-cut plus antiprism
    surgery applied at every centre of a perfect 1-code on the 7x14 torus,
    code centres paired across the long direction.

    Every surviving vertex is the rim of exactly one surgery, so all
    degrees are 7; the result has 84 vertices and Euler characteristic -14.
    """
    t = hex_torus(7, 14)
    centers = [(a, b) for a in range(7) for b in range(14) if (a - 2 * b) % 7 == 0]

    def vid(ab):
        return ab[0] * 14 + ab[1]

    center_ids = {vid(c) for c in centers}
    rims = {vid(c): classify_vertex(t, vid(c)).order for c in centers}
    keep = [v for v in t.vertices if v not in center_ids]
    edges = [(x, y) for x, y in t.edges() if x not in center_ids and y not in center_ids]
    done = set()
    for c in centers:
        if c in done:
            continue
        partner = (c[0], (c[1] + 7) % 14)
        done.add(c)
        done.add(partner)
        r1, r2 = rims[vid(c)], rims[vid(partner)]
        for i in range(6):
            edges.append((r1[i], r2[i]))
            edges.append((r1[(i + 1) % 6], r2[i]))
    return Graph(keep, edges, name="septic_surface")


def capped_antiprism(n: int) -> Graph:
    """The sphere of an n-antiprism band with a cone on each rim cycle.

    Ring vertices 0..2n-1 have degree 5, the apexes 2n and 2n+1 degree n;
    n = 5 gives the icosahedron."""
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(i, j), (n + i, n + j), (i, n + i), (j, n + i), (2 * n, i), (2 * n + 1, n + i)]
    return Graph(range(2 * n + 2), edges, name=f"capped_antiprism_{n}")


def complete_graph(n: int) -> Graph:
    return Graph(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph(list(g.edges()))
    out.add_nodes_from(g.vertices)
    return out
