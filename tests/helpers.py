"""Shared test helpers: small oracles kept independent of the library paths
they check (among them path degrees, straight walks, umbrellas and lattice
adjacency, which the package itself does not need), and the star-cut
antiprism surgery behind the surface fixtures."""

from __future__ import annotations

import random
from collections import Counter, deque
from itertools import chain, permutations

import networkx as nx

from cliquedyn import geometric
from cliquedyn.charts import Chart, _fill_plan
from cliquedyn.cliques import NODE_BUDGET
from cliquedyn.covers import CoverError, CoveringMapReport
from cliquedyn.generators import hex_torus
from cliquedyn.graph import Graph, closed_neighbourhood
from cliquedyn.hexgrid import UNIT_STEPS, Coord, sub
from cliquedyn.isomorphism import BudgetError, _CanonSearch, _Partition, canonical_order
from cliquedyn.surface import (
    INNER,
    INVALID,
    SurfaceError,
    check_walk,
    classify_vertex,
    validate_surface,
)


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


def reference_canonical_key(g: Graph) -> bytes:
    """``isomorphism.canonical_key`` from the whole edge list, relabelled by
    canonical position and sorted, kept as the reference for its payload."""
    pos = {v: i for i, v in enumerate(canonical_order(g))}
    edges = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges())
    return (f"{g.n};" + ",".join(f"{u}-{v}" for u, v in edges)).encode()


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


def reference_queue_refine(
    part: _Partition, adj: list[list[int]], splitters: list[int], bound: list[tuple] | None = None
) -> list[tuple] | None:
    """The call-for-call reference for ``_Partition.refine``, without its
    one-step split for a one-vertex splitter: every split, whatever the
    splitter, groups the hit cell's members by neighbour count (a one-vertex
    splitter through a counts dict of ones) and places the groups in count
    order."""
    order, cell, size = part.order, part.cell, part.size
    trace: list[tuple] = []
    queue = deque(splitters)
    queued = set(splitters)
    while queue:
        s = queue.popleft()
        queued.discard(s)
        if size[s] == 1:
            counts = dict.fromkeys(adj[order[s]], 1)
        else:
            counts = Counter(chain.from_iterable(adj[w] for w in order[s : s + size[s]]))
        hit: dict[int, list[int]] = {}
        for u in counts:
            c = cell[u]
            if size[c] > 1:
                hit.setdefault(c, []).append(u)
        for c in sorted(hit):
            touched = hit[c]
            k = size[c]
            groups: dict[int, list[int]] = {}
            for u in touched:
                groups.setdefault(counts[u], []).append(u)
            if len(touched) < k:
                groups[0] = [u for u in order[c : c + k] if u not in counts]
            if len(groups) == 1:
                continue
            event = [c]
            starts = []
            f = c
            for key in sorted(groups):
                frag = groups[key]
                m = len(frag)
                order[f : f + m] = frag
                size[f] = m
                if f != c:
                    for u in frag:
                        cell[u] = f
                event += (key, m)
                starts.append(f)
                f += m
            if c in queued:
                fresh = starts[1:]
            else:
                largest = max(starts, key=size.__getitem__)
                fresh = [f for f in starts if f != largest]
            queue.extend(fresh)
            queued.update(fresh)
            event = tuple(event)
            trace.append(event)
            if bound is not None:
                i = len(trace) - 1
                if i >= len(bound) or event > bound[i]:
                    return None
                if event < bound[i]:
                    bound = None
    return trace


class NoJumpSearch(_CanonSearch):
    """The canonical search without the jump back after an automorphism
    leaf: every leaf lets the search go on at its own depth, so each subtree
    is walked to its end.  The reference for the jump's exactness."""

    def _leaf(self, part: _Partition, fixed: tuple[int, ...]) -> int:
        super()._leaf(part, fixed)
        return len(fixed)


def reference_max_cliques(
    g: Graph,
    node_budget: int = NODE_BUDGET,
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


def reference_develop(g: Graph, assign: dict, m: int) -> dict | None:
    """The intersection-based chart development that the ``edge_links``
    lookup of ``charts._develop`` replaced, kept as its reference: each new
    vertex is the one member of (N(b1) & N(b2)) - {far}, whether or not the
    base pair is an edge."""
    mapping = dict(assign)
    used = set(mapping.values())
    if len(used) != len(mapping):
        return None
    for new, b1, b2, far in _fill_plan(m):
        cand = (g.neighbors(mapping[b1]) & g.neighbors(mapping[b2])) - {mapping[far]}
        if len(cand) != 1:
            return None
        (x,) = cand
        if x in used:
            return None
        mapping[new] = x
        used.add(x)
    return mapping


def reference_level_edges(host: Graph, charts: list[Chart]) -> list[tuple[int, int]]:
    """The edge list of the level graph on ``charts`` (in ``GeoBuilder.build``
    order), from the scan that the least-vertex index replaced, kept as its
    reference: the candidates for a region are all the charts of the lower
    level that hold any vertex of it."""
    membership: dict[tuple[int, int], list[int]] = {}
    for i, chart in enumerate(charts):
        for v in chart.image:
            membership.setdefault((chart.m, v), []).append(i)
    edges = []
    for i, chart in enumerate(charts):
        for gap in (6, 4, 2, 0):
            if gap:
                depth = gap // 2 - 1
                region = frozenset(v for c, v in chart.mapping.items() if min(c) >= depth)
            else:
                region = closed_neighbourhood(host, chart.image)
            candidates: set[int] = set()
            for v in region:
                candidates.update(membership.get((chart.m - gap, v), ()))
            candidates.discard(i)
            for j in sorted(candidates):
                if charts[j].image <= region:
                    edges.append((i, j))
    return edges


def reference_verify(host: Graph, n: int, margin: int, level_margin: int = 0) -> dict | None:
    """``verify_geometric_equivalence(host, n, margin).to_dict()`` with the
    level-n graph built on every chart at boundary distance ``level_margin``
    or more, all of them by default: the verification before that graph
    was cut to the charts ``c_map`` reads, kept as its reference.  None
    where no level-(n+1) vertex is deep enough, where verify raises; the
    input gates are left out.  ``c_map`` and ``intersection_edges`` are
    read from ``geometric``, so a test that replaces them replaces both."""
    builder = geometric.GeoBuilder(host)
    gg_next = builder.build(n + 1, margin=margin)
    if not len(gg_next):
        return None
    gg_n = builder.build(n, margin=level_margin)
    try:
        cmr = geometric.c_map(gg_n, gg_next)
    except geometric.GeoError as exc:
        return geometric.EquivalenceReport(False, n, margin, len(gg_next), 0, [str(exc)]).to_dict()
    failures = []
    if cmr.collisions:
        failures.append(f"clique map not injective: {cmr.collisions[:3]}")
    if cmr.missing_cliques:
        failures.append(
            f"{len(cmr.missing_cliques)} deep cliques not hit, first: "
            f"{[gg_n.label(i) for i in sorted(cmr.missing_cliques[0])][:4]}"
        )
    intersecting = geometric.intersection_edges(list(cmr.mapping.values()))
    edges_next = set(gg_next.graph.edges())
    extra = intersecting - edges_next
    lost = edges_next - intersecting
    if extra:
        failures.append(f"cliques intersect for non-adjacent pair {list(min(extra))}")
    if lost:
        failures.append(f"adjacent pair {list(min(lost))} has disjoint cliques")
    return geometric.EquivalenceReport(
        not failures, n, margin, len(gg_next), cmr.deep_clique_count, failures
    ).to_dict()


def reference_validate_covering_map(
    p: dict[int, int], source: Graph, target: Graph
) -> CoveringMapReport:
    """``covers.validate_covering_map`` as it was before the counting pass:
    every source vertex is classified, and every inner one is checked pair
    by pair.  The reference for its report, violations and errors."""
    for v in source.vertices:
        if v not in p or p[v] not in target:
            raise CoverError(f"map does not cover vertex {v}")
    stray = next((k for k in p if k not in source), None)
    if stray is not None:
        raise CoverError(f"projection key {stray} is not a vertex of the source graph")
    for u, v in source.edges():
        if p[v] not in target.neighbors(p[u]):
            raise CoverError(f"not a homomorphism on edge ({u},{v})")

    violations = []
    checked = 0
    for v in source.vertices:
        if not classify_vertex(source, v).is_inner:
            continue
        checked += 1
        nbrs = source.neighbors(v)
        images = {p[w] for w in nbrs}
        if len(images) != len(nbrs):
            violations.append(f"edge lifting fails at {v}: neighbour images collide")
            continue
        if images != target.neighbors(p[v]):
            violations.append(f"degree mismatch at {v}")
            continue
        for a in nbrs:
            # p is injective on nbrs, so equal sets mean no pair (a, b) fails
            if {p[b] for b in source.neighbors(a) & nbrs} != target.neighbors(p[a]) & images:
                for b in nbrs:
                    if a < b and source.has_edge(a, b) != target.has_edge(p[a], p[b]):
                        violations.append(f"triangle lifting fails at {v} on ({a},{b})")
    if not checked:
        raise CoverError("source graph has no inner vertex to check")
    return CoveringMapReport(checked, violations)


def path_degree(g: Graph, walk: tuple[int, ...], i: int) -> frozenset[int]:
    """Arc lengths cut by the walk in the neighbourhood of its i-th vertex.

    Inner vertex: the two arc lengths of the neighbourhood cycle between
    the walk's predecessor and successor.  Boundary vertex: the length of
    the unique path between them inside the neighbourhood path.
    """
    check_walk(g, walk)
    if not (0 < i < len(walk) - 1):
        raise SurfaceError(f"index {i} is an endpoint of the walk")
    return _bend_degree(g, walk[i - 1], walk[i], walk[i + 1])


def _bend_degree(g: Graph, prev: int, cur: int, nxt: int) -> frozenset[int]:
    """``path_degree`` at the bend prev, cur, nxt of a checked walk."""
    if prev == nxt:
        raise SurfaceError("walk backtracks immediately; path degree undefined")
    cls = classify_vertex(g, cur)
    if cls.kind == INVALID:
        raise SurfaceError(f"vertex {cur} has no cyclic or path neighbourhood")
    # a valid link orders every neighbour, the walk's two among them
    order = cls.order
    a, b = order.index(prev), order.index(nxt)
    if cls.is_inner:
        l1 = (b - a) % len(order)
        return frozenset({l1, len(order) - l1})
    return frozenset({abs(b - a)})


def is_straight(g: Graph, walk: tuple[int, ...]) -> bool:
    """True iff every interior path degree along the walk contains 3: the
    reference for the link-position rule of
    ``surface.maximal_straight_paths``."""
    check_walk(g, walk)
    if len(walk) < 3:
        raise SurfaceError("straightness needs a walk of length at least 2")
    return all(3 in _bend_degree(g, *bend) for bend in zip(walk, walk[1:], walk[2:]))


def umbrella(g: Graph, v: int) -> tuple[tuple[int, int, int], ...]:
    """The facets around an inner vertex, in cyclic order: the reference
    for the fan that ``geometric.clique_from_vertex`` reads from the level-1
    membership."""
    cls = classify_vertex(g, v)
    if cls.kind != INNER:
        raise SurfaceError(f"vertex {v} is not an inner vertex")
    cycle = cls.order
    n = len(cycle)
    fans = [tuple(sorted((v, cycle[i], cycle[(i + 1) % n]))) for i in range(n)]
    k = fans.index(min(fans))
    rotated = fans[k:] + fans[:k]
    if rotated[1:] and rotated[-1] < rotated[1]:
        rotated = (rotated[0],) + tuple(reversed(rotated[1:]))
    return tuple(rotated)


_UNIT_STEP_SET = frozenset(UNIT_STEPS)


def are_adjacent(a: Coord, b: Coord) -> bool:
    """Lattice adjacency: the coordinates differ by one unit step."""
    return sub(a, b) in _UNIT_STEP_SET


def star_cut_antiprism(torus: Graph, pairs: list[tuple[int, int]], name: str) -> Graph:
    """Cut the vertex stars of both centres of every pair out of ``torus``
    and bridge their rim hexagons by an antiprism band, adding a handle.

    The rim vertices end with degree 7; everything else keeps its degree.
    Whether the result is locally cyclic is for the caller to check."""
    centres = {c for pair in pairs for c in pair}
    keep = [v for v in torus.vertices if v not in centres]
    edges = [(a, b) for a, b in torus.edges() if a not in centres and b not in centres]
    for c1, c2 in pairs:
        r1, r2 = classify_vertex(torus, c1).order, classify_vertex(torus, c2).order
        for i in range(6):
            edges.append((r1[i], r2[i]))
            edges.append((r1[(i + 1) % 6], r2[i]))
    return Graph(keep, edges, name=name)


def genus2_surface() -> Graph:
    """Named "genus 2", but non-orientable, χ = −2; minimum degree 6, not
    6-regular: one star-cut antiprism pair on a 10x10 torus.  The result is
    validated locally cyclic by its tests."""
    return star_cut_antiprism(hex_torus(10, 10), [(0, 55)], "genus2_delta6")


def degree_seven_surface() -> Graph:
    """A 7-regular locally cyclic surface: the star-cut antiprism surgery at
    every centre of a perfect 1-code on the 7x14 torus, code centres paired
    across the long direction.

    Every surviving vertex is the rim of exactly one surgery, so all
    degrees are 7; the result has 84 vertices and is non-orientable,
    χ = −14.
    """
    centres = [a * 14 + b for a in range(7) for b in range(7) if (a - 2 * b) % 7 == 0]
    return star_cut_antiprism(
        hex_torus(7, 14), [(c, c + 7) for c in centres], "septic_surface"
    )


def random_surgery_surface(seed: int) -> Graph:
    """A seeded random surface with minimum degree 6: the star-cut antiprism
    surgery at 1-3 centre pairs of a random p x q torus (9 <= p, q <= 14),
    every centre more than 3 from the others.  Draws that are not locally
    cyclic with minimum degree 6 are redrawn.  The rims have degree 7, so no
    result is 6-regular."""
    rng = random.Random(seed)
    while True:
        torus = hex_torus(rng.randint(9, 14), rng.randint(9, 14))
        k = rng.randint(1, 3)
        centres: list[int] = []
        near: frozenset[int] = frozenset()
        for v in rng.sample(torus.vertices, torus.n):
            if len(centres) == 2 * k:
                break
            if v not in near:
                centres.append(v)
                ball = frozenset([v])
                for _ in range(3):
                    ball = closed_neighbourhood(torus, ball)
                near |= ball
        if len(centres) < 2 * k:
            continue
        g = star_cut_antiprism(torus, list(zip(centres[::2], centres[1::2])), f"surgery_{seed}")
        report = validate_surface(g)
        if report.is_locally_cyclic and report.min_degree >= 6:
            return g


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
