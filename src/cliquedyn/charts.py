"""Hexagonal charts: finding triangular patches inside a graph and
extending them across their neighbourhoods.

A chart maps lattice coordinates injectively into the host.  Standard
charts, whose images are induced triangles, are found by anchoring an
ordered facet at a triangle corner and developing the rest of the domain
facet by facet: on a host whose neighbourhoods are cycles or paths, an
edge has at most two common neighbours, so each new vertex is forced once
the facet on the far side of its base edge is known.  Each step is one
lookup in the host's memoised common-neighbour table
(``surface.edge_links``), which has an entry exactly for each edge.  A base
pair that is no edge stops the development: the lattice joins it, so the
map would miss a lattice edge and the final inducedness test would reject
it anyway.  That test reads lattice edges as table entries too.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph, GraphError, closed_neighbourhood, memoised
from .hexgrid import (
    UNIT_STEPS,
    Coord,
    add,
    delta_coords,
    gen_delta,
    side_of,
)
from .surface import SurfaceReport, boundary_distance, edge_links, facets, validate_surface


class ChartError(GraphError):
    pass


class MarginError(ChartError):
    """An operation needs more room between the image and the host boundary."""


class ChartConflictError(ChartError):
    """The host is not grid-like around a chart's image."""


class Chart:
    """Injective map from lattice coordinates into the host; ``m`` is the
    side it was built on.  A standard chart's domain is Δ_m and its image an
    induced side-m triangle; an extension's (see ``extend_chart``) is the
    side-(m+3) triangle at (-1, -1, -1) minus its corners."""

    __slots__ = ("m", "mapping", "image")

    def __init__(self, m: int, mapping: dict[Coord, int]):
        self.m = m
        self.mapping = mapping
        self.image = frozenset(mapping.values())

    def __getitem__(self, c: Coord) -> int:
        return self.mapping[c]

    def __contains__(self, c: Coord) -> bool:
        return c in self.mapping

    def core(self, depth: int) -> frozenset[int]:
        """Image of the domain coordinates at least ``depth`` from every
        side of the triangle; ``core(0)`` is the image."""
        if depth == 0:
            return self.image
        return frozenset(self.mapping[c] for c in _core_coords(self.m, depth))

    def sub_support(self, offset: Coord, size: int) -> frozenset[int]:
        """Image of the translated side-``size`` triangle inside the domain."""
        return frozenset(self.mapping[add(c, offset)] for c in delta_coords(size))

    def key(self) -> tuple:
        return tuple(sorted(self.mapping.items()))

    def __repr__(self) -> str:
        return f"<Chart m={self.m} image={sorted(self.image)[:4]}...>"


def _require_patch_surface(g: Graph) -> SurfaceReport:
    report = validate_surface(g)
    if report.invalid_vertices:
        raise ChartError(
            f"host is not locally cyclic with boundary (vertex {report.invalid_vertices[0]})"
        )
    return report


def min_boundary_distance(g: Graph, support) -> float:
    dist = boundary_distance(g)
    return min(dist[v] for v in support)


@lru_cache(maxsize=64)
def _fill_plan(m: int) -> tuple[tuple[Coord, Coord, Coord, Coord], ...]:
    """Development order after the corner anchors at (0, 0, m),
    (0, 1, m-1) and (1, 0, m-1): each entry is (new, base1, base2, far)
    where {new, base1, base2} is a facet and far is the other lattice
    facet over the edge (base1, base2)."""
    plan: list[tuple[Coord, Coord, Coord, Coord]] = []
    for r in range(m - 2, -1, -1):
        width = m - r
        for s in range(1, width):
            t = width - s
            plan.append(
                ((t, s, r), (t, s - 1, r + 1), (t - 1, s, r + 1), (t - 1, s - 1, r + 2))
            )
        plan.append(
            ((width, 0, r), (width - 1, 0, r + 1), (width - 1, 1, r), (width - 2, 1, r + 1))
        )
        plan.append(
            ((0, width, r), (0, width - 1, r + 1), (1, width - 1, r), (1, width - 2, r + 1))
        )
    return tuple(plan)


@lru_cache(maxsize=64)
def _core_coords(m: int, depth: int) -> tuple[Coord, ...]:
    """The coordinates of Δ_m whose least entry is at least ``depth``; for
    depth >= 1 these are also all such coordinates of an extension's domain,
    whose other coordinates have an entry -1."""
    return tuple(c for c in delta_coords(m) if min(c) >= depth)


def _develop(g: Graph, assign: dict[Coord, int], m: int) -> dict[Coord, int] | None:
    """Develop the domain from the anchors in ``assign`` along ``_fill_plan``,
    or None where a new vertex is not forced, repeats one, or sits on a base
    pair that is no edge (see the module docstring)."""
    links = edge_links(g)
    mapping = dict(assign)
    used = set(mapping.values())
    if len(used) != len(mapping):
        return None
    for new, b1, b2, far in _fill_plan(m):
        common = links.get((mapping[b1], mapping[b2]), ())
        f = mapping[far]
        # exactly one common neighbour besides f
        if len(common) - (f in common) != 1:
            return None
        x = common[0] if common[0] != f else common[1]
        if x in used:
            return None
        mapping[new] = x
        used.add(x)
    return mapping


@lru_cache(maxsize=64)
def _lattice_edges(m: int) -> tuple[tuple[Coord, Coord], ...]:
    region = gen_delta(m)
    return tuple((region.coord_of[u], region.coord_of[v]) for u, v in region.graph.edges())


def _is_induced_triangle(g: Graph, mapping: dict[Coord, int], m: int) -> bool:
    """Every lattice edge is present and the image spans no other edge:
    with all 3m(m+1)/2 lattice edges in place, the induced edge count
    (half the degree sum inside the image) equals that number exactly
    when there is no extra edge."""
    links = edge_links(g)
    if not all((mapping[a], mapping[b]) in links for a, b in _lattice_edges(m)):
        return False
    image = frozenset(mapping.values())
    return sum(len(g.neighbors(v) & image) for v in image) == 3 * m * (m + 1)


@memoised
def find_standard_charts(g: Graph, m: int, margin: int, /) -> list[Chart]:
    """One chart per induced side-m triangle of g at boundary distance at
    least ``margin``, sorted by ``Chart.key``; margin 0 lists them all.

    Each triangle's chart is the least of its charts in key order: the
    least corner sits at (0, 0, m) and its smaller triangle neighbour at
    (0, 1, m-1).  The triangle's other charts are this one recomposed
    with the coordinate permutations of the domain.  The margin is read
    while searching: an anchor facet with a vertex nearer the boundary is
    not developed, nor is a developed map with such a vertex tested for
    inducedness, so the result is exactly the full list filtered by
    ``min_boundary_distance``."""
    dist = boundary_distance(g) if margin else {}
    shallow = {v for v, d in dist.items() if d < margin}
    if m == 0:
        return [Chart(0, {(0, 0, 0): v}) for v in g.vertices if v not in shallow]
    _require_patch_surface(g)
    charts = []
    corner, c1, c2 = (0, 0, m), (0, 1, m - 1), (1, 0, m - 1)
    far1, far2 = (m, 0, 0), (0, m, 0)
    for a, b, c in facets(g):
        if a in shallow or b in shallow or c in shallow:
            continue
        # the orderings of the sorted facet with c1's vertex below c2's
        for u, v, w in ((a, b, c), (b, a, c), (c, a, b)):
            anchor = {corner: u, c1: v, c2: w}
            # _develop keeps the mapping injective; a facet's corners are distinct
            mapping = _develop(g, anchor, m) if m >= 2 else anchor
            if mapping is None or u > mapping[far1] or u > mapping[far2]:
                continue
            if shallow.isdisjoint(mapping.values()) and _is_induced_triangle(g, mapping, m):
                charts.append(Chart(m, mapping))
    charts.sort(key=Chart.key)
    return charts


def chart_of_support(g: Graph, support) -> Chart:
    """The chart whose image is exactly ``support`` (raises if none)."""
    support = frozenset(support)
    m = side_of(len(support))
    if m is None:
        raise ChartError(f"{len(support)} vertices cannot form a triangular patch")
    for chart in find_standard_charts(g, m, 0):
        if chart.image == support:
            return chart
    raise ChartError(f"support of size {len(support)} is not a side-{m} triangle")


def extend_chart(g: Graph, chart: Chart) -> Chart:
    """Extend a standard chart across the neighbourhood of its image.

    Each rim vertex of the image (at a domain coordinate with a zero entry)
    has its link cycle read around its coordinate: two consecutive unit
    steps that land in the chart fix the cycle's rotation and direction.
    The extension exists exactly when every rim vertex has degree 6 and the
    map read is injective, else ``ChartConflictError`` is raised (also if
    two rim vertices read different vertices at one coordinate, which a
    standard chart rules out).  The result is a side-m ``Chart`` whose
    domain is the side-(m+3) triangle at offset (-1, -1, -1) minus its
    corners: the union of the six unit translates of Δ_m, the translate
    by d read as ``sub_support(d, m)``; at m = 3 it also holds the twisted
    copy.

    On grid-like neighbourhoods the translates' images are exactly the
    same-size triangles in the closed neighbourhood of the image.
    Elsewhere they may miss some of them or be no triangles, so
    ``neighbour_triangles`` is the definition of those neighbours.  The
    image must keep distance at least 2 from the host boundary, if any."""
    m = chart.m
    if m < 3:
        raise ChartError("chart extension needs side length at least 3")
    report = _require_patch_surface(g)
    if min_boundary_distance(g, chart.image) < 2:
        raise MarginError("chart image is within distance 2 of the host boundary")
    mapping = dict(chart.mapping)
    for c, p in chart.mapping.items():
        if min(c):
            continue
        cycle = report.classes[p].order
        if len(cycle) != 6:
            raise ChartConflictError(
                f"rim vertex {p} at offset {c} has degree {len(cycle)}, not 6"
            )
        # the chart holds two or four of the six steps, consecutively; list
        # the steps from the first of two such
        steps = [add(c, d) for d in UNIT_STEPS]
        i = next(i for i in range(6) if steps[i - 1] in chart and steps[i] in chart)
        steps = steps[i - 1 :] + steps[: i - 1]
        j = cycle.index(chart[steps[0]])
        turn = 1 if cycle[(j + 1) % 6] == chart[steps[1]] else -1
        for k, s in enumerate(steps):
            x = cycle[(j + turn * k) % 6]
            if mapping.setdefault(s, x) != x:
                raise ChartConflictError(f"rim vertices disagree at offset {s}")
    ext = Chart(m, mapping)
    if len(ext.image) != len(mapping):
        raise ChartConflictError("extension is not injective")
    return ext


def neighbour_triangles(g: Graph, support) -> list[frozenset[int]]:
    """All same-size triangles inside the closed neighbourhood of the given
    triangular support, excluding the support itself.

    The support must keep distance 1 from a host boundary for sides 1 and
    2, and distance 2 for larger sides, the margin ``extend_chart`` needs
    to realise the same triangles constructively."""
    support = frozenset(support)
    m = side_of(len(support))
    if m is None or m < 1:
        raise ChartError("neighbour enumeration needs a triangle of side at least 1")
    _require_patch_surface(g)
    margin = 1 if m <= 2 else 2
    if min_boundary_distance(g, support) < margin:
        raise MarginError(f"support is within distance {margin} of the host boundary")
    hood = closed_neighbourhood(g, support)
    images = {ch.image for ch in find_standard_charts(g, m, 0) if ch.image <= hood}
    if support not in images:
        raise ChartError(f"support of size {len(support)} is not a side-{m} triangle")
    images.discard(support)
    return sorted(images, key=sorted)
