"""Hexagonal charts: finding triangular patches inside a graph and
extending them across their neighbourhoods.

A chart maps lattice coordinates injectively onto an induced subgraph.
Charts are found by anchoring an ordered facet at a triangle corner and
developing the rest of the domain facet by facet: on a host whose
neighbourhoods are cycles or paths, an edge has at most two common
neighbours, so each new vertex is forced once the facet on the far side
of its base edge is known.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph, GraphError, closed_neighbourhood
from .hexgrid import (
    UNIT_STEPS,
    Coord,
    add,
    are_adjacent,
    delta_coords,
    flipped_delta_coords,
    gen_delta,
    side_of,
)
from .surface import SurfaceReport, boundary_distance, facets, validate_surface


class ChartError(GraphError):
    pass


class MarginError(ChartError):
    """An operation needs more room between the image and the host boundary."""


class ChartConflictError(ChartError):
    """Facet-path developments collided; the host is not locally grid-like."""


class Chart:
    """Injective coordinate map onto an induced triangular subgraph."""

    __slots__ = ("m", "mapping", "_image", "_inverse")

    def __init__(self, m: int, mapping: dict[Coord, int]):
        self.m = m
        self.mapping = mapping
        self._image: frozenset[int] | None = None
        self._inverse: dict[int, Coord] | None = None

    def __getitem__(self, c: Coord) -> int:
        return self.mapping[c]

    def __contains__(self, c: Coord) -> bool:
        return c in self.mapping

    @property
    def image(self) -> frozenset[int]:
        if self._image is None:
            self._image = frozenset(self.mapping.values())
        return self._image

    @property
    def inverse(self) -> dict[int, Coord]:
        if self._inverse is None:
            self._inverse = {v: c for c, v in self.mapping.items()}
        return self._inverse

    def core(self, depth: int) -> frozenset[int]:
        """Image of the domain coordinates at least ``depth`` from every
        side of the triangle; ``core(0)`` is the image."""
        if depth == 0:
            return self.image
        return frozenset(v for c, v in self.mapping.items() if min(c) >= depth)

    def sub_support(self, offset: Coord, size: int) -> frozenset[int]:
        """Image of the translated side-``size`` triangle inside the domain."""
        return frozenset(self.mapping[add(c, offset)] for c in delta_coords(size))

    def key(self) -> tuple:
        return tuple(sorted(self.mapping.items()))

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "map": {",".join(map(str, c)): v for c, v in sorted(self.mapping.items())},
        }

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


def _develop(g: Graph, assign: dict[Coord, int], m: int) -> dict[Coord, int] | None:
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


@lru_cache(maxsize=64)
def _lattice_edges(m: int) -> tuple[tuple[Coord, Coord], ...]:
    region = gen_delta(m)
    return tuple((region.coord_of[u], region.coord_of[v]) for u, v in region.graph.edges())


def _is_induced_triangle(g: Graph, mapping: dict[Coord, int], m: int) -> bool:
    """Every lattice edge is present and the image spans no other edge:
    with all 3m(m+1)/2 lattice edges in place, the induced edge count
    (half the degree sum inside the image) equals that number exactly
    when there is no extra edge."""
    if not all(g.has_edge(mapping[a], mapping[b]) for a, b in _lattice_edges(m)):
        return False
    image = frozenset(mapping.values())
    return sum(len(g.neighbors(v) & image) for v in image) == 3 * m * (m + 1)


def find_standard_charts(g: Graph, m: int) -> list[Chart]:
    """One chart per induced side-m triangle of g, sorted by ``Chart.key``.

    Each triangle's chart is the least of its charts in key order: the
    least corner sits at (0, 0, m) and its smaller triangle neighbour at
    (0, 1, m-1).  The triangle's other charts are this one recomposed
    with the coordinate permutations of the domain.

    Computed once per graph and side length; the returned list is shared,
    so callers must not modify it."""
    key = f"charts:{m}"
    if key in g._memo:
        return g._memo[key]
    if m == 0:
        charts = [Chart(0, {(0, 0, 0): v}) for v in g.vertices]
        g._memo[key] = charts
        return charts
    _require_patch_surface(g)
    charts = []
    corner, c1, c2 = (0, 0, m), (0, 1, m - 1), (1, 0, m - 1)
    far1, far2 = (m, 0, 0), (0, m, 0)
    for a, b, c in facets(g):
        # the orderings of the sorted facet with c1's vertex below c2's
        for u, v, w in ((a, b, c), (b, a, c), (c, a, b)):
            anchor = {corner: u, c1: v, c2: w}
            # _develop keeps the mapping injective; a facet's corners are distinct
            mapping = _develop(g, anchor, m) if m >= 2 else anchor
            if mapping is None or u > mapping[far1] or u > mapping[far2]:
                continue
            if _is_induced_triangle(g, mapping, m):
                charts.append(Chart(m, mapping))
    charts.sort(key=Chart.key)
    g._memo[key] = charts
    return charts


def chart_of_support(g: Graph, support) -> Chart:
    """The chart whose image is exactly ``support`` (raises if none)."""
    support = frozenset(support)
    m = side_of(len(support))
    if m is None:
        raise ChartError(f"{len(support)} vertices cannot form a triangular patch")
    for chart in find_standard_charts(g, m):
        if chart.image == support:
            return chart
    raise ChartError(f"support of size {len(support)} is not a side-{m} triangle")


class ExtendedChart:
    """A chart on the side-m triangle extended across its neighbourhood."""

    __slots__ = ("base", "mapping")

    def __init__(self, base: Chart, mapping: dict[Coord, int]):
        self.base = base
        self.mapping = mapping

    def __getitem__(self, c: Coord) -> int:
        return self.mapping[c]

    def __contains__(self, c: Coord) -> bool:
        return c in self.mapping

    def translate_image(self, d: Coord) -> frozenset[int] | None:
        coords = [add(c, d) for c in delta_coords(self.base.m)]
        if any(c not in self.mapping for c in coords):
            return None
        return frozenset(self.mapping[c] for c in coords)

    def twisted_image(self) -> frozenset[int] | None:
        if self.base.m != 3:
            return None
        coords = flipped_delta_coords(3, (2, 2, 2))
        if any(c not in self.mapping for c in coords):
            return None
        return frozenset(self.mapping[c] for c in coords)


def _extension_domain(m: int) -> list[Coord]:
    coords = set(delta_coords(m))
    for d in UNIT_STEPS:
        coords.update(add(c, d) for c in delta_coords(m))
    if m == 3:
        coords.update(flipped_delta_coords(3, (2, 2, 2)))
    return sorted(coords)


def _lattice_facet_thirds(a: Coord, b: Coord) -> tuple[Coord, Coord]:
    """The two lattice coordinates completing edge (a, b) to a facet."""
    thirds = []
    for d in UNIT_STEPS:
        c = add(a, d)
        if are_adjacent(c, b):
            thirds.append(c)
    assert len(thirds) == 2
    return thirds[0], thirds[1]


def extend_chart(g: Graph, chart: Chart) -> ExtendedChart:
    """Extend a standard chart across the neighbourhood of its image.

    On grid-like neighbourhoods every same-size triangle inside the closed
    neighbourhood of the image becomes the image of a unit translate of the
    domain (plus the twisted copy when m = 3).  Elsewhere the extension may
    miss some of them or realise images that are no triangles, so
    ``neighbour_triangles`` is the definition of those neighbours.  On
    hosts with a boundary, the image must keep distance at least 2 from
    it."""
    m = chart.m
    if m < 3:
        raise ChartError("chart extension needs side length at least 3")
    report = _require_patch_surface(g)
    if report.boundary.n and min_boundary_distance(g, chart.image) < 2:
        raise MarginError("chart image is within distance 2 of the host boundary")

    mapping = dict(chart.mapping)
    used = set(mapping.values())
    base_coords = set(chart.mapping)
    pending = set(_extension_domain(m)) - base_coords

    progress = True
    while progress:
        progress = False
        for c in sorted(pending):
            candidates: set[int] = set()
            determined = False
            for d in UNIT_STEPS:
                b1 = add(c, d)
                if b1 not in mapping:
                    continue
                for b2 in _lattice_facet_thirds(c, b1):
                    if b2 <= b1 or b2 not in mapping:
                        continue
                    far1, far2 = _lattice_facet_thirds(b1, b2)
                    far = far1 if far2 == c else far2
                    if far not in mapping:
                        continue
                    determined = True
                    cand = (
                        g.neighbors(mapping[b1]) & g.neighbors(mapping[b2])
                    ) - {mapping[far]}
                    candidates |= cand
            if not determined:
                continue
            if len(candidates) > 1:
                raise ChartConflictError(
                    f"facet-path developments disagree at offset {c}"
                )
            if not candidates:
                pending.discard(c)
                progress = True
                continue
            (x,) = candidates
            if x in used:
                raise ChartConflictError(
                    f"extension is not injective at offset {c} (vertex {x})"
                )
            mapping[c] = x
            used.add(x)
            pending.discard(c)
            progress = True
    return ExtendedChart(chart, mapping)


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
    report = _require_patch_surface(g)
    margin = 1 if m <= 2 else 2
    if report.boundary.n and min_boundary_distance(g, support) < margin:
        raise MarginError(f"support is within distance {margin} of the host boundary")
    hood = closed_neighbourhood(g, support)
    images = {ch.image for ch in find_standard_charts(g, m) if ch.image <= hood}
    if support not in images:
        raise ChartError(f"support of size {len(support)} is not a side-{m} triangle")
    images.discard(support)
    return sorted(images, key=sorted)
