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

Cliques of this graph arrive in exactly two shapes, one anchored at a
triangle one size up, one anchored at a host vertex; the resulting
correspondence with the next level graph is what the verification entry
point certifies on deep interiors of patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .charts import Chart, find_standard_charts, min_boundary_distance
from .cliques import intersection_edges, max_cliques
from .graph import Graph, GraphError, closed_neighbourhood, common_neighbourhood
from .hexgrid import BASIS, classify_triangle_coords
from .surface import SurfaceReport, facets, validate_surface


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
        self.report: SurfaceReport = validate_surface(host)
        if self.report.invalid_vertices:
            raise GeoError(
                f"host vertex {self.report.invalid_vertices[0]} has no cyclic or path neighbourhood"
            )

    def build(self, n: int, margin: int = 0) -> GeoGraph:
        if n < 0 or margin < 0:
            raise GeoError("n and margin must be non-negative")
        charts = sorted(
            (
                chart
                for m in range(n % 2, n + 1, 2)
                for chart in find_standard_charts(self.host, m)
                if min_boundary_distance(self.host, chart.image) >= margin
            ),
            key=lambda ch: (ch.m, sorted(ch.image)),
        )
        membership: dict[tuple[int, int], list[int]] = {}
        for i, chart in enumerate(charts):
            for v in chart.image:
                membership.setdefault((chart.m, v), []).append(i)

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
                candidates: set[int] = set()
                for v in region:
                    candidates.update(membership.get((chart.m - gap, v), ()))
                candidates.discard(i)
                for j in sorted(candidates):
                    if charts[j].image <= region:
                        edges.append((i, j))
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

    ``chart`` is the chart of the next-level vertex; a side-0 chart stands
    for its host vertex.  The result is compared against the constructive
    common-neighbourhood computation.
    """
    if chart.m == 0:
        v = chart[(0, 0, 0)]
        members = frozenset(gg.membership.get((1, v), ())) | {
            i for i in gg.membership.get((3, v), ()) if gg.charts[i][(1, 1, 1)] == v
        }
        built = clique_from_vertex(gg, v)
    else:
        members = _summary_from_chart(gg, chart)
        built = clique_from_triangle(gg, chart)
    if built != members:
        raise GeoError("summary and construction disagree")
    return members


def _summary_from_chart(gg: GeoGraph, chart: Chart) -> frozenset[int]:
    level = chart.m  # level of the next-graph vertex the clique belongs to
    support = chart.image
    members: set[int] = set()
    for e in BASIS:
        members.add(gg.gid(chart.sub_support(e, level - 1)))

    down_parent = None
    for i in _supersets(gg, support, level + 1):
        shape = _preimage_shape(gg, i, support)
        if shape == "up":
            members.add(i)
        elif shape == "down":
            down_parent = i
    for i in _supersets(gg, support, level + 3):
        if gg.charts[i].core(1) == support:
            members.add(i)

    if level == 1 and down_parent is not None:
        members.add(down_parent)
    elif level == 2:
        inner = frozenset(chart[c] for c in ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
        members.add(gg.gid(inner))
    elif level >= 3:
        members.add(gg.gid(chart.core(1)))
    return frozenset(members)


def _supersets(gg: GeoGraph, support: frozenset[int], level: int) -> list[int]:
    return [
        i for i in gg.membership.get((level, min(support)), ()) if support <= gg.charts[i].image
    ]


def _preimage_shape(gg: GeoGraph, i: int, support: frozenset[int]) -> str | None:
    inv = gg.charts[i].inverse
    coords = frozenset(inv[v] for v in support)
    shape = classify_triangle_coords(coords)
    return shape[0] if shape else None


# -- correspondence with the next level graph --------------------------------


@dataclass
class CMapResult:
    mapping: dict[int, frozenset[int]]
    collisions: list[tuple[int, int]]
    missing_cliques: list[frozenset[int]]
    deep_clique_count: int

    @property
    def injective(self) -> bool:
        return not self.collisions

    @property
    def surjective_on_deep(self) -> bool:
        return not self.missing_cliques


def c_map(gg_n: GeoGraph, gg_next: GeoGraph) -> CMapResult:
    """The clique attached to every next-level vertex, with injectivity and
    deep-interior surjectivity certificates.

    Surjectivity is checked against brute-force maximal clique enumeration
    of gg_n, restricted to cliques all of whose members sit at least
    ``gg_next.margin`` away from the host boundary."""
    if gg_next.host is not gg_n.host and gg_next.host != gg_n.host:
        raise GeoError("level graphs must share a host")
    if gg_next.n != gg_n.n + 1:
        raise GeoError("second argument must be one level above the first")
    mapping: dict[int, frozenset[int]] = {}
    seen: dict[frozenset[int], int] = {}
    collisions: list[tuple[int, int]] = []
    for i, chart in enumerate(gg_next.charts):
        clique = clique_summary(gg_n, chart)
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
    for clique in max_cliques(gg_n.graph):
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
    of the level-n graph."""
    builder = GeoBuilder(host)
    if margin is None:
        margin = n + 3
    if margin < n + 3:
        raise GeoMarginError(f"margin {margin} is below the safe bound {n + 3}")
    report = builder.report
    if report.boundary.n == 0:
        raise GeoError("host must be a bounded patch")
    euler = host.n - host.edge_count + len(facets(host))
    if euler != 1:
        raise GeoError(f"host patch is not a disc (euler characteristic {euler})")
    for v in host.vertices:
        if report.classes[v].is_inner and host.degree(v) < 6:
            raise GeoError(f"interior vertex {v} has degree below 6")

    gg_n = builder.build(n, margin=0)
    gg_next = builder.build(n + 1, margin=margin)
    if not len(gg_next):
        raise GeoError(
            f"host too small: no level-{n + 1} vertex lies at least {margin} "
            "from the boundary, so nothing can be checked"
        )
    failures: list[str] = []

    cmr = c_map(gg_n, gg_next)
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
