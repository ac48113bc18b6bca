"""The level graph of triangular subgraphs and its clique structure.

Vertices are the induced triangular subgraphs of the host whose side
length has the parity of ``n`` and is at most ``n``.  Edges follow four
containment rules: same-size triangles are adjacent when one lies in the
closed neighbourhood of the other; a triangle two sizes smaller must be
contained; four sizes smaller must additionally avoid the boundary of the
larger; six sizes smaller must avoid even the closed neighbourhood of
that boundary.

Cliques of this graph arrive in exactly two shapes, one anchored at a
triangle one size up, one anchored at a host vertex; the resulting
correspondence with the next level graph is what the verification entry
point certifies on deep interiors of patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .charts import Chart, charts_by_image, find_standard_charts
from .cliques import intersection_edges, max_cliques
from .graph import Graph, GraphError, closed_neighbourhood, common_neighbourhood
from .hexgrid import BASIS, classify_triangle_coords
from .surface import SurfaceReport, boundary_distance, facets, validate_surface


class GeoError(GraphError):
    pass


class GeoMarginError(GeoError):
    pass


@dataclass(frozen=True)
class GeoVertex:
    level: int
    support: frozenset[int]

    def key(self) -> tuple:
        return (self.level, tuple(sorted(self.support)))


class GeoGraph:
    """Immutable level graph over a fixed host: ``graph`` on the ids
    0..len-1, with the level, support and chart of every vertex."""

    def __init__(self, host, n, margin, verts, charts, graph, membership, bdist):
        self.host: Graph = host
        self.n: int = n
        self.margin: int = margin
        self.verts: list[GeoVertex] = verts
        self.charts: list[Chart | None] = charts
        self.graph: Graph = graph
        self.membership: dict[int, list[int]] = membership  # host vertex -> ids
        self.bdist: dict[int, float] = bdist
        self.support_index: dict[frozenset[int], int] = {
            v.support: i for i, v in enumerate(verts)
        }
        self.by_level: dict[int, list[int]] = {}
        for i, v in enumerate(verts):
            self.by_level.setdefault(v.level, []).append(i)

    def __len__(self) -> int:
        return len(self.verts)

    def gid(self, support) -> int:
        try:
            return self.support_index[frozenset(support)]
        except KeyError:
            raise GeoError(f"no vertex with support {sorted(support)}") from None

    def edge_count(self) -> int:
        return self.graph.edge_count

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "margin": self.margin,
            "vertices": [
                {"level": v.level, "support": sorted(v.support)} for v in self.verts
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
        self.bdist = boundary_distance(host)

    def images(self, m: int) -> dict[frozenset[int], Chart]:
        """The side-m images, each with its first chart."""
        groups = charts_by_image(find_standard_charts(self.host, m))
        return {image: charts[0] for image, charts in groups.items()}

    def support_margin(self, support) -> float:
        return min(self.bdist[v] for v in support)

    def build(self, n: int, margin: int = 0) -> GeoGraph:
        if n < 0 or margin < 0:
            raise GeoError("n and margin must be non-negative")
        levels = list(range(n % 2, n + 1, 2))
        verts: list[GeoVertex] = []
        charts: list[Chart | None] = []
        for m in levels:
            if m == 0:
                for v in self.host.vertices:
                    if self.bdist[v] >= margin:
                        verts.append(GeoVertex(0, frozenset((v,))))
                        charts.append(None)
            else:
                for image, chart in sorted(self.images(m).items(), key=lambda kv: sorted(kv[0])):
                    if self.support_margin(image) >= margin:
                        verts.append(GeoVertex(m, image))
                        charts.append(chart)
        order = sorted(range(len(verts)), key=lambda i: verts[i].key())
        verts = [verts[i] for i in order]
        charts = [charts[i] for i in order]

        membership: dict[int, list[int]] = {}
        for i, gv in enumerate(verts):
            for v in gv.support:
                membership.setdefault(v, []).append(i)

        # edges in the order the rules find them, which fixes the edge order
        # of to_dict; a same-size pair found from both sides counts once
        edges: list[tuple[int, int]] = []

        @cache
        def support_boundary(i: int) -> frozenset[int]:
            return frozenset(v for c, v in charts[i].mapping.items() if min(c) == 0)

        @cache
        def support_boundary_hood(i: int) -> frozenset[int]:
            return closed_neighbourhood(self.host, support_boundary(i))

        for i, gv in enumerate(verts):
            hood = closed_neighbourhood(self.host, gv.support)
            candidates: set[int] = set()
            for v in hood:
                candidates.update(membership.get(v, ()))
            candidates.discard(i)
            for j in sorted(candidates):
                other = verts[j]
                if other.level == gv.level:
                    # same size: containment of one in the other's neighbourhood
                    if other.support <= hood:
                        edges.append((i, j))
                elif other.level < gv.level and other.support <= gv.support:
                    gap = gv.level - other.level
                    if (
                        gap == 2
                        or (gap == 4 and not other.support & support_boundary(i))
                        or (gap == 6 and not other.support & support_boundary_hood(i))
                    ):
                        edges.append((i, j))
        graph = Graph(range(len(verts)), edges, name=f"levels<=({n})")
        return GeoGraph(self.host, n, margin, verts, charts, graph, membership, self.bdist)


def build_geo(host: Graph, n: int, interior_margin: int = 0) -> GeoGraph:
    return GeoBuilder(host).build(n, interior_margin)


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
                    f"{context}: members {gg.verts[u]} and {gg.verts[w]} are not adjacent"
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
    fan = [i for i in gg.membership.get(v, ()) if gg.verts[i].level == 1]
    if len(fan) != gg.host.degree(v):
        raise GeoMarginError(
            f"umbrella of vertex {v} is not fully inside the margin"
        )
    return _clique_around(gg, fan, "vertex clique")


def clique_summary(gg: GeoGraph, source) -> frozenset[int]:
    """Closed-form member list of the clique attached to a next-level vertex.

    ``source`` is a host vertex id for level 0, otherwise a chart of the
    next-level triangle.  The result is compared against the constructive
    common-neighbourhood computation.
    """
    if isinstance(source, Chart):
        members = _summary_from_chart(gg, source)
        built = clique_from_triangle(gg, source)
    else:
        v = int(source)
        members = frozenset(
            i
            for i in gg.membership.get(v, ())
            if gg.verts[i].level == 1
            or (gg.verts[i].level == 3 and gg.charts[i][(1, 1, 1)] == v)
        )
        built = clique_from_vertex(gg, v)
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
        ch = gg.charts[i]
        interior = frozenset(ch[c] for c in ch.mapping if min(c) >= 1)
        if interior == support:
            members.add(i)

    if level == 1 and down_parent is not None:
        members.add(down_parent)
    elif level == 2:
        inner = frozenset(chart[c] for c in ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
        members.add(gg.gid(inner))
    elif level >= 3:
        inner = frozenset(chart[c] for c in chart.mapping if min(c) >= 1)
        members.add(gg.gid(inner))
    return frozenset(members)


def _supersets(gg: GeoGraph, support: frozenset[int], level: int) -> list[int]:
    if level not in gg.by_level:
        return []
    v0 = min(support)
    out = []
    for i in gg.membership.get(v0, ()):
        if gg.verts[i].level == level and support <= gg.verts[i].support:
            out.append(i)
    return out


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
    for i, gv in enumerate(gg_next.verts):
        if gv.level == 0:
            clique = clique_summary(gg_n, next(iter(gv.support)))
        else:
            clique = clique_summary(gg_n, gg_next.charts[i])
        mapping[i] = clique
        if clique in seen:
            collisions.append((seen[clique], i))
        else:
            seen[clique] = i

    bdist = gg_n.bdist
    margin = gg_next.margin
    deep = 0
    missing = []
    for clique in max_cliques(gg_n.graph):
        if all(
            min(bdist[v] for v in gg_n.verts[i].support) >= margin for i in clique
        ):
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
            f"{[gg_n.verts[i] for i in sorted(cmr.missing_cliques[0])][:4]}"
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
