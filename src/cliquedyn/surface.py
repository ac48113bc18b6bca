"""Surface structure of a graph: neighbourhood classification, facets,
straight walks and the disc discharging identity.  Path degrees and
umbrellas serve only as test oracles, in ``tests/helpers.py``.

A vertex is *inner* when its open neighbourhood induces a cycle of length
at least 4, *boundary* when it induces a path, and *invalid* otherwise.
Walks are stored with an orientation; enumeration outputs are deduplicated
up to reversal.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Collection, Mapping, NamedTuple, Sequence

from .graph import Graph, GraphError, UnknownVertexError, induced_subgraph, memoised

INNER = "inner"
BOUNDARY = "boundary"
INVALID = "invalid"


class SurfaceError(GraphError):
    pass


class DiscError(SurfaceError):
    """The supplied walk does not bound a combinatorial disc."""


class VertexClass(NamedTuple):
    kind: str
    order: tuple[int, ...] = ()

    @property
    def is_inner(self) -> bool:
        return self.kind == INNER


def classify_vertex(g: Graph, v: int) -> VertexClass:
    """Classify ``v`` by the induced shape of its open neighbourhood.

    ``order`` lists the neighbours along the cycle or path, canonically
    oriented (cycles start at the smallest id and turn toward its smaller
    cycle-neighbour; paths run from their smaller endpoint).
    """
    nbrs = g.neighbors(v)
    if not nbrs:
        return VertexClass(INVALID)
    link = induced_subgraph(g, nbrs)._adj
    if len(nbrs) == 1:
        return VertexClass(BOUNDARY, tuple(nbrs))
    ends = [w for w, ws in link.items() if len(ws) != 2]
    if len(ends) not in (0, 2) or any(len(link[w]) != 1 for w in ends):
        return VertexClass(INVALID)
    # with every degree 1 or 2 the link is one cycle (no ends) or one path
    # (two ends) exactly when the walk from its least end or vertex covers it
    order = link_walk(link, min(ends or nbrs))
    if len(order) != len(nbrs) or (not ends and len(order) < 4):
        return VertexClass(INVALID)
    return VertexClass(BOUNDARY if ends else INNER, order)


def link_walk(link: Mapping[int, Collection[int]], start: int) -> tuple[int, ...]:
    """Walk a graph of maximum degree 2, given as an adjacency mapping, from
    ``start`` toward its smaller neighbour, until the walk closes or reaches
    an end."""
    order = [start]
    prev, cur = start, min(link[start])
    while cur != start:
        order.append(cur)
        if len(link[cur]) == 1:
            break
        a, b = link[cur]
        prev, cur = cur, b if a == prev else a
    return tuple(order)


def facet_edges(f: tuple[int, int, int]) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The three edges of the facet ``f``, as vertex pairs."""
    a, b, c = f
    return (frozenset((a, b)), frozenset((a, c)), frozenset((b, c)))


def edge_facets(fs: Sequence[tuple[int, int, int]]) -> dict[frozenset[int], list[int]]:
    """Each edge of the facets ``fs``, mapped to the indices of the facets
    that hold it."""
    held: dict[frozenset[int], list[int]] = {}
    for i, f in enumerate(fs):
        for e in facet_edges(f):
            held.setdefault(e, []).append(i)
    return held


@memoised
def edge_links(g: Graph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Each edge, in both directions (u, v) and (v, u), mapped to the common
    neighbours of its ends: a pair is a key exactly when it is an edge."""
    links: dict[tuple[int, int], tuple[int, ...]] = {}
    for u, v in g.edges():
        links[u, v] = links[v, u] = tuple(g.neighbors(u) & g.neighbors(v))
    return links


@memoised
def facets(g: Graph) -> list[tuple[int, int, int]]:
    """All vertex triples inducing a 3-circle, each once, sorted, read from
    ``edge_links``."""
    return sorted(
        (u, v, w) for (u, v), ws in edge_links(g).items() if u < v for w in ws if w > v
    )


@dataclass(frozen=True)
class SurfaceReport:
    is_locally_cyclic: bool
    boundary: Graph
    min_degree: int
    max_degree: int
    invalid_vertices: tuple[int, ...]
    classes: dict[int, VertexClass] = field(repr=False, default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "is_locally_cyclic": self.is_locally_cyclic,
            "boundary_vertices": list(self.boundary.vertices),
            "boundary_edges": [list(e) for e in self.boundary.edges()],
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "invalid_vertices": list(self.invalid_vertices),
        }


@memoised
def validate_surface(g: Graph) -> SurfaceReport:
    """Classify every vertex and assemble the boundary graph.

    The boundary graph consists of the boundary vertices plus the edges
    whose endpoints have fewer than two common neighbours.  The graph is
    locally cyclic iff it is not empty, the boundary is empty and no vertex
    is invalid.
    """
    if not g.is_connected():
        raise SurfaceError("disconnected input")
    classes = {v: classify_vertex(g, v) for v in g.vertices}
    boundary_vertices = {v for v, c in classes.items() if c.kind == BOUNDARY}
    invalid = tuple(v for v, c in classes.items() if c.kind == INVALID)
    # an inner endpoint's link is a cycle through the other end, so such an
    # edge has exactly two common neighbours
    boundary_edges = [
        (u, v)
        for u, v in g.edges()
        if not (classes[u].is_inner or classes[v].is_inner)
        and len(g.neighbors(u) & g.neighbors(v)) < 2
    ]
    # on a valid surface every boundary edge joins boundary vertices; keep
    # stray endpoints of malformed inputs so the report stays constructible
    for u, v in boundary_edges:
        boundary_vertices.update((u, v))
    boundary = Graph(boundary_vertices, boundary_edges)
    locally_cyclic = g.n > 0 and not invalid and boundary.n == 0 and not boundary_edges
    return SurfaceReport(
        is_locally_cyclic=locally_cyclic,
        boundary=boundary,
        min_degree=g.min_degree(),
        max_degree=g.max_degree(),
        invalid_vertices=invalid,
        classes=classes,
    )


@memoised
def boundary_distance(g: Graph) -> dict[int, float]:
    """Graph distance to the nearest boundary vertex (inf when boundary empty)."""
    dist: dict[int, float] = {v: float("inf") for v in g.vertices}
    queue: deque[int] = deque()
    for v in validate_surface(g).boundary.vertices:
        dist[v] = 0
        queue.append(v)
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] == float("inf"):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


# -- walks -------------------------------------------------------------------


def check_walk(g: Graph, walk: tuple[int, ...]) -> None:
    if len(walk) < 1:
        raise SurfaceError("empty walk")
    for v in walk:
        if v not in g:
            raise UnknownVertexError(f"unknown vertex {v}")
    for a, b in zip(walk, walk[1:]):
        if not g.has_edge(a, b):
            raise SurfaceError(f"walk step ({a},{b}) is not an edge")


def maximal_straight_paths(g: Graph, min_len: int) -> list[tuple[int, ...]]:
    """All maximal straight walks of length >= min_len, deduplicated up to
    reversal.  Closed straight lines are returned with the start vertex
    repeated at the end.

    A bend u, v, w is straight when w lies three link positions from u
    around v, wrapping round a cycle and dropped past the ends of a path.
    Walks are enumerated only where every pair (u, v) has at most one
    straight successor: every inner vertex has degree 6 and every boundary
    vertex at most 6 neighbours (positions i - 3 and i + 3 coincide round
    a cycle of length n only when n divides 6, and both lie on a path only
    when it has at least 7 vertices).  Otherwise this raises SurfaceError
    naming the least pair with two successors.  Also raises SurfaceError on
    a disconnected graph.

    "Three positions apart" is symmetric, so u, v, w is straight exactly
    when w, v, u is.  The successor map is therefore injective, and (u, v)
    has a predecessor exactly when (v, u) has a successor; its orbits are
    paths from a free end and cycles.  Walking the free ends and then the
    remaining pairs in sorted order, and marking both orientations of each
    walk done, finds every walk once, from its least start pair."""
    succ: dict[tuple[int, int], int] = {}
    branching: dict[tuple[int, int], list[int]] = {}
    for v, cls in validate_surface(g).classes.items():
        order, n = cls.order, len(cls.order)
        for i, u in enumerate(order):
            if cls.is_inner:
                outs = {order[(i - 3) % n], order[(i + 3) % n]}
            else:
                outs = {order[j] for j in (i - 3, i + 3) if 0 <= j < n}
            if len(outs) > 1:
                branching[(u, v)] = sorted(outs)
            elif outs:
                (succ[(u, v)],) = outs
    if branching:
        (u, v), (a, b) = min(branching.items())
        raise SurfaceError(
            f"straight walks branch: pair ({u},{v}) has successors {a} and {b}; "
            "branching walks are not enumerated"
        )

    pairs = sorted(succ)
    free = [p for p in pairs if p[::-1] not in succ]
    done: set[tuple[int, int]] = set()
    walks = []
    for start in free + pairs:
        if start in done:
            continue
        walk, pair = list(start), start
        while pair in succ:
            pair = (pair[1], succ[pair])
            if pair == start:
                break
            walk.append(pair[1])
        done.update(zip(walk, walk[1:]))
        done.update(zip(walk[1:], walk))
        if len(walk) > min_len:
            walks.append(tuple(walk))
    return sorted(walks)


# -- disc discharging --------------------------------------------------------


def disc_discharge_check(g: Graph, walk: tuple[int, ...]) -> int:
    """Residual of the discharging identity over the disc bounded by ``walk``.

    The walk must be a simple closed walk inside a planar patch.  The
    enclosed facet region is recovered combinatorially: cut the facet
    adjacency along the walk edges and keep the components that cannot
    reach the patch rim.  Returns
    ``6 - sum_inner(6 - deg) - sum_j(3 - beta_j)``; 0 means the identity holds.
    """
    check_walk(g, walk)
    if walk[0] != walk[-1] or len(walk) < 4:
        raise DiscError("walk must be closed with at least 3 edges")
    body = walk[:-1]
    if len(set(body)) != len(body):
        raise DiscError("walk must be simple")
    walk_edges = {frozenset(e) for e in zip(walk, walk[1:])}

    all_facets = facets(g)
    incidence = edge_facets(all_facets)
    if not walk_edges <= incidence.keys():
        raise DiscError("walk uses an edge without facets")

    # facet components after cutting along the walk: join the facets of
    # every uncut edge; a component with an uncut edge of a single facet
    # touches the patch rim
    root = list(range(len(all_facets)))

    def find(fi: int) -> int:
        while root[fi] != fi:
            root[fi] = root[root[fi]]
            fi = root[fi]
        return fi

    uncut = [held for e, held in incidence.items() if e not in walk_edges]
    for held in uncut:
        for fj in held[1:]:
            root[find(fj)] = find(held[0])
    outside = {find(held[0]) for held in uncut if len(held) == 1}
    inside = [fi for fi in range(len(all_facets)) if find(fi) not in outside]
    if not inside:
        raise DiscError("walk does not enclose any facet")
    if len({find(fi) for fi in inside}) != 1:
        raise DiscError("enclosed region is not a single disc")

    enclosed = [all_facets[fi] for fi in inside]
    in_incidence = edge_facets(enclosed)
    held_by = Counter(v for f in enclosed for v in f)
    if len(held_by) - len(in_incidence) + len(enclosed) != 1:
        raise DiscError("enclosed region is not a disc (Euler characteristic)")
    rim = {e for e, held in in_incidence.items() if len(held) == 1}
    if rim != walk_edges:
        raise DiscError("walk does not match the rim of the enclosed region")

    classes = validate_surface(g).classes
    inner = held_by.keys() - set(body)
    if not all(classes[v].is_inner for v in inner):
        raise DiscError("disc interior touches the patch boundary")
    inner_sum = sum(6 - g.degree(v) for v in inner)
    beta_sum = sum(3 - held_by[v] for v in body)
    return 6 - inner_sum - beta_sum
