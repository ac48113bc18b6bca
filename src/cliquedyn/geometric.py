"""The level graph of triangular subgraphs and its clique structure.

Vertices are the induced triangular subgraphs of the host whose side
length has the parity of ``n`` and is at most ``n``.  Edges follow one
containment rule: a vertex ``gap`` levels below vertex i, for gap in
{0, 2, 4, 6}, is adjacent to it when its support lies in the region
R_gap(i).  R_0 is the closed neighbourhood of i's support and R_gap is
``charts[i].core(gap // 2 - 1)`` otherwise.

These are the paper's four rules: same-size triangles are adjacent when
one lies in the closed neighbourhood of the other; a triangle two sizes
smaller must be contained; four sizes smaller must additionally avoid the
boundary of the larger; six sizes smaller must avoid even the closed
neighbourhood of that boundary.  The boundary is the image of the domain
coordinates whose least entry is 0, so the support without it is
``core(1)``.  Every chart image is induced, so its host edges are lattice
edges, and a lattice step changes the least coordinate by at most 1.  So
no vertex of ``core(2)`` is adjacent to the boundary, while every other
vertex off the boundary has a lattice neighbour on it, and the support
without the closed neighbourhood of its boundary is ``core(2)``.

The candidates for a region are read from an index of each level's
vertices by the least host vertex of their support: a support inside the
region has its least vertex in the region, so walking the region's own
vertices finds every such support exactly once.  This holds on every host,
flat or curved, and for every gap.

Cliques of this graph arrive in exactly two shapes, one anchored at a
triangle one size up, one anchored at a host vertex; the resulting
correspondence with the next level graph is what the verification entry
point certifies on deep interiors of patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .charts import Chart, find_standard_charts, min_boundary_distance
from .cliques import intersection_edges, max_cliques
from .graph import (
    Graph,
    GraphError,
    closed_neighbourhood,
    common_neighbourhood,
    induced_subgraph,
)
from .hexgrid import BASIS
from .surface import facets, validate_surface


class GeoError(GraphError):
    pass


class GeoMarginError(GeoError):
    pass


class GeoGraph:
    """Immutable level graph over a fixed host: ``graph`` on the ids
    0..len-1, with the chart of every vertex.  A vertex's level is
    ``chart.m`` and its support ``chart.image``; a host vertex is its
    side-0 chart."""

    def __init__(self, host, n, margin, charts, graph, membership):
        self.host: Graph = host
        self.n: int = n
        self.margin: int = margin
        self.charts: list[Chart] = charts
        self.graph: Graph = graph
        # (level, host vertex) -> ids of that level whose support holds it
        self.membership: dict[tuple[int, int], list[int]] = membership
        self.support_index: dict[frozenset[int], int] = {
            ch.image: i for i, ch in enumerate(charts)
        }

    def __len__(self) -> int:
        return len(self.charts)

    def gid(self, support) -> int:
        try:
            return self.support_index[frozenset(support)]
        except KeyError:
            raise GeoError(f"no vertex with support {sorted(support)}") from None

    def label(self, i: int) -> tuple[int, list[int]]:
        """Vertex ``i`` as (level, sorted support), for messages."""
        return (self.charts[i].m, sorted(self.charts[i].image))

    def edge_count(self) -> int:
        return self.graph.edge_count

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "margin": self.margin,
            "vertices": [
                {"level": ch.m, "support": sorted(ch.image)} for ch in self.charts
            ],
            "edges": [list(e) for e in self.graph.edges()],
        }


class GeoBuilder:
    """Builds level graphs over one host.  Chart lists are memoised on the
    host itself, so level graphs over the same host share that work."""

    def __init__(self, host: Graph):
        self.host = host
        invalid = validate_surface(host).invalid_vertices
        if invalid:
            raise GeoError(f"host vertex {invalid[0]} has no cyclic or path neighbourhood")

    def build(self, n: int, margin: int = 0) -> GeoGraph:
        """The level-n graph on the charts whose images keep boundary
        distance at least ``margin``, found by ``find_standard_charts`` at
        that margin.  An edge depends only on its two charts, and ids follow
        (level, sorted support), so this is the margin-0 graph induced on
        those charts, with its ids renumbered in the same order."""
        if n < 0 or margin < 0:
            raise GeoError("n and margin must be non-negative")
        charts = sorted(
            (
                chart
                for m in range(n % 2, n + 1, 2)
                for chart in find_standard_charts(self.host, m, margin)
            ),
            key=lambda ch: (ch.m, sorted(ch.image)),
        )
        membership: dict[tuple[int, int], list[int]] = {}
        # (level, host vertex) -> ids of that level whose least vertex it is
        least: dict[tuple[int, int], list[int]] = {}
        for i, chart in enumerate(charts):
            for v in chart.image:
                membership.setdefault((chart.m, v), []).append(i)
            least.setdefault((chart.m, min(chart.image)), []).append(i)

        # ids ascend with the level, so walking the gaps downwards and the
        # ids upwards fixes the edge order of to_dict; a same-size pair found
        # from both sides counts once
        edges: list[tuple[int, int]] = []
        for i, chart in enumerate(charts):
            for gap in (6, 4, 2, 0):
                if gap:
                    region = chart.core(gap // 2 - 1)
                else:
                    region = closed_neighbourhood(self.host, chart.image)
                level = chart.m - gap
                inside = [
                    j
                    for v in region
                    for j in least.get((level, v), ())
                    if j != i and charts[j].image <= region
                ]
                inside.sort()
                edges.extend((i, j) for j in inside)
        graph = Graph(range(len(charts)), edges, name=f"levels<=({n})")
        return GeoGraph(self.host, n, margin, charts, graph, membership)


# -- clique constructions ----------------------------------------------------


def _clique_around(gg: GeoGraph, gids, context: str) -> frozenset[int]:
    """The common neighbourhood of ``gids``, checked to be a clique.  It is
    then maximal: a vertex adjacent to all of it is adjacent to all of
    ``gids``, so it is already a member."""
    members = common_neighbourhood(gg.graph, gids)
    ms = sorted(members)
    for a, u in enumerate(ms):
        for w in ms[a + 1 :]:
            if not gg.graph.has_edge(u, w):
                raise GeoError(
                    f"{context}: members {gg.label(u)} and {gg.label(w)} are not adjacent"
                )
    return members


def clique_from_triangle(gg: GeoGraph, chart: Chart) -> frozenset[int]:
    """The clique anchored at a triangle one size above its corner children:
    the common neighbourhood of the three corner children of the chart."""
    m = chart.m - 1
    if m > gg.n or (m - gg.n) % 2 != 0:
        raise GeoError(f"children of level {m} do not exist at n={gg.n}")
    children = [gg.gid(chart.sub_support(e, m)) for e in BASIS]
    return _clique_around(gg, children, "triangle clique")


def clique_from_vertex(gg: GeoGraph, v: int) -> frozenset[int]:
    """For odd n: the common neighbourhood of all facets through a vertex."""
    if gg.n % 2 != 1:
        raise GeoError("vertex cliques need an odd n")
    cls = validate_surface(gg.host).classes.get(v)
    if cls is None or not cls.is_inner:
        raise GeoError(f"vertex {v} is not an inner vertex")
    fan = gg.membership.get((1, v), ())
    if len(fan) != gg.host.degree(v):
        raise GeoMarginError(
            f"umbrella of vertex {v} is not fully inside the margin"
        )
    return _clique_around(gg, fan, "vertex clique")


def clique_summary(gg: GeoGraph, chart: Chart) -> frozenset[int]:
    """Closed-form member list of the clique attached to a next-level vertex.

    ``chart`` is the chart of the next-level vertex, a side-m triangle T; a
    side-0 chart stands for its host vertex.  The clique is the union of
    T's three corner children (m >= 1), every level-(m+1) triangle holding
    T, every level-(m+3) triangle whose ``core(1)`` is T, and T's centre:
    the inverted facet at m = 2, ``core(1)`` at m >= 3.  The result is
    compared against the constructive common-neighbourhood computation.
    """
    m, support = chart.m, chart.image
    members = set(_supersets(gg, support, m + 1))
    members.update(i for i in _supersets(gg, support, m + 3) if gg.charts[i].core(1) == support)
    if m >= 1:
        members.update(gg.gid(chart.sub_support(e, m - 1)) for e in BASIS)
    if m == 2:
        members.add(gg.gid(frozenset(chart[c] for c in ((1, 1, 0), (0, 1, 1), (1, 0, 1)))))
    elif m >= 3:
        members.add(gg.gid(chart.core(1)))
    if m == 0:
        built = clique_from_vertex(gg, chart[(0, 0, 0)])
    else:
        built = clique_from_triangle(gg, chart)
    if built != members:
        raise GeoError("summary and construction disagree")
    return frozenset(members)


def _supersets(gg: GeoGraph, support: frozenset[int], level: int) -> list[int]:
    return [
        i for i in gg.membership.get((level, min(support)), ()) if support <= gg.charts[i].image
    ]


# -- correspondence with the next level graph --------------------------------


@dataclass
class CMapResult:
    mapping: dict[int, frozenset[int]]
    collisions: list[tuple[int, int]]
    missing_cliques: list[frozenset[int]]
    deep_clique_count: int


def c_map(gg_n: GeoGraph, gg_next: GeoGraph) -> CMapResult:
    """The clique attached to every next-level vertex, with injectivity and
    deep-interior surjectivity certificates.  A clique that cannot be
    certified raises its ``GeoError`` prefixed with the vertex's label.

    Surjectivity is checked against brute-force maximal clique enumeration
    of gg_n, restricted to the deep cliques: those all of whose members
    sit at least ``gg_next.margin`` away from the host boundary.  The
    search runs only on G[N[deep]], the level graph induced on the closed
    neighbourhood of the deep vertices.  A vertex adjacent to every member
    of a non-empty clique inside ``deep`` is adjacent to a deep vertex, so
    it lies in N[deep]; so such a clique is maximal in G exactly when it
    is maximal in G[N[deep]], and both searches list the same deep cliques
    in the same sorted order."""
    if gg_next.host is not gg_n.host and gg_next.host != gg_n.host:
        raise GeoError("level graphs must share a host")
    if gg_next.n != gg_n.n + 1:
        raise GeoError("second argument must be one level above the first")
    mapping: dict[int, frozenset[int]] = {}
    seen: dict[frozenset[int], int] = {}
    collisions: list[tuple[int, int]] = []
    for i, chart in enumerate(gg_next.charts):
        try:
            clique = clique_summary(gg_n, chart)
        except GeoError as exc:
            raise type(exc)(f"next-level vertex {gg_next.label(i)}: {exc}") from exc
        mapping[i] = clique
        if clique in seen:
            collisions.append((seen[clique], i))
        else:
            seen[clique] = i

    margin = gg_next.margin
    deep_ids = {
        i
        for i, ch in enumerate(gg_n.charts)
        if min_boundary_distance(gg_n.host, ch.image) >= margin
    }
    deep = 0
    missing = []
    region = induced_subgraph(gg_n.graph, closed_neighbourhood(gg_n.graph, deep_ids))
    for clique in max_cliques(region):
        if clique <= deep_ids:
            deep += 1
            if clique not in seen:
                missing.append(clique)
    return CMapResult(mapping, collisions, missing, deep)


@dataclass
class EquivalenceReport:
    ok: bool
    n: int
    margin: int
    next_vertices: int
    deep_cliques: int
    failures: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n": self.n,
            "margin": self.margin,
            "next_vertices": self.next_vertices,
            "deep_cliques": self.deep_cliques,
            "failures": self.failures[:10],
        }


def verify_geometric_equivalence(
    host: Graph, n: int, margin: int | None = None
) -> EquivalenceReport:
    """Certify on the deep interior that the clique correspondence is a
    graph isomorphism between the level-(n+1) graph and the clique graph
    of the level-n graph.

    The level-(n+1) graph holds the charts at boundary distance at least
    ``margin``, the level-n graph only those at distance at least
    ``margin - 4``: every chart ``c_map`` reads is among them.  A chart
    maps lattice edges to host edges, so within its domain boundary
    distance changes by at most the lattice distance.
    - Deep charts, and the corner children and centre of a next-level
      triangle T, lie inside T or the deep region: distance >= margin.
    - T's supersets one level up lie within 1 of T, those three up whose
      ``core(1)`` is T within 2, and a vertex's umbrella facets within 1.
    - A neighbour of a chart ``gap`` levels up or down lies within lattice
      distance gap/2 + 1 of it (the smaller support sits in the larger's
      ``core(gap/2 - 1)``), at most 4 for the gaps <= 6 that ``build``
      links.  Of two adjacent same-size supports, one lies in the closed
      neighbourhood of the other; on the grid and on every curved host
      tested each lies in the other's, so a neighbour lies within 1.
      This covers N[deep] and the members of a triangle clique, the
      common neighbours of T's children.
    - A member of a vertex clique is a facet within 2 of the vertex, or a
      side-3 or side-5 triangle with the vertex in its image or
      ``core(1)``, within 4 of it; a side-7 triangle's ``core(2)`` is one
      facet, so it is adjacent to one facet of the umbrella only.
    ``build`` yields the induced subgraph on the kept charts with ids
    renumbered in order, so each set read is the same up to that
    renumbering, the clique search on N[deep] runs the same tree, and
    every label, sorted list and first missing clique of the report is
    unchanged."""
    builder = GeoBuilder(host)
    if margin is None:
        margin = n + 3
    if margin < n + 3:
        raise GeoMarginError(f"margin {margin} is below the safe bound {n + 3}")
    report = validate_surface(host)
    if report.boundary.n == 0:
        raise GeoError("host must be a bounded patch")
    euler = host.n - host.edge_count + len(facets(host))
    if euler != 1:
        raise GeoError(f"host patch is not a disc (euler characteristic {euler})")
    for v in host.vertices:
        if report.classes[v].is_inner and host.degree(v) < 6:
            raise GeoError(f"interior vertex {v} has degree below 6")

    gg_n = builder.build(n, margin=max(0, margin - 4))
    gg_next = builder.build(n + 1, margin=margin)
    if not len(gg_next):
        raise GeoError(
            f"host too small: no level-{n + 1} vertex lies at least {margin} "
            "from the boundary, so nothing can be checked"
        )
    failures: list[str] = []

    try:
        cmr = c_map(gg_n, gg_next)
    except GeoError as exc:
        # the host passed every input gate above, so a clique the map cannot
        # certify is a failed certificate; no deep clique was counted
        return EquivalenceReport(False, n, margin, len(gg_next), 0, [str(exc)])
    if cmr.collisions:
        failures.append(f"clique map not injective: {cmr.collisions[:3]}")
    if cmr.missing_cliques:
        failures.append(
            f"{len(cmr.missing_cliques)} deep cliques not hit, first: "
            f"{[gg_n.label(i) for i in sorted(cmr.missing_cliques[0])][:4]}"
        )

    # adjacency in the next level graph must match clique intersection
    intersecting = intersection_edges(list(cmr.mapping.values()))
    edges_next = set(gg_next.graph.edges())
    extra = intersecting - edges_next
    lost = edges_next - intersecting
    if extra:
        failures.append(f"cliques intersect for non-adjacent pair {list(min(extra))}")
    if lost:
        failures.append(f"adjacent pair {list(min(lost))} has disjoint cliques")

    return EquivalenceReport(
        ok=not failures,
        n=n,
        margin=margin,
        next_vertices=len(gg_next),
        deep_cliques=cmr.deep_clique_count,
        failures=failures,
    )
