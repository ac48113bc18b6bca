from __future__ import annotations

from collections import Counter
from functools import partial

import pytest

from cliquedyn import charts as charts_mod
from cliquedyn import lemmas
from cliquedyn.charts import (
    Chart,
    ChartConflictError,
    ChartError,
    MarginError,
    chart_of_support,
    extend_chart,
    find_standard_charts,
    min_boundary_distance,
    neighbour_triangles,
)
from cliquedyn.hexgrid import (
    COORD_PERMUTATIONS,
    UNIT_STEPS,
    add,
    apply_permutation,
    delta_coords,
    flipped_delta_coords,
    gen_delta,
    gen_hex_patch,
)
from cliquedyn.covers import universal_cover_ball
from cliquedyn.generators import hex_torus
from cliquedyn.geometric import GeoBuilder
from cliquedyn.graph import Graph, GraphError, closed_neighbourhood, induced_subgraph
from cliquedyn.isomorphism import induced_images
from cliquedyn.surface import edge_links, facets
from helpers import (
    are_adjacent,
    degree_seven_surface,
    genus2_surface,
    random_surgery_surface,
    reference_develop,
)


def interior_support(g, m, depth):
    images = {ch.image for ch in find_standard_charts(g, m, 0)}
    deep = [img for img in images if min_boundary_distance(g, img) >= depth]
    assert deep, f"no side-{m} triangle at depth {depth}"
    return sorted(deep, key=sorted)[0]


def recompositions(chart):
    """The charts of ``chart.image``: the stored chart recomposed with each
    coordinate permutation of the domain."""
    return [
        Chart(chart.m, {apply_permutation(perm, c): v for c, v in chart.mapping.items()})
        for perm in COORD_PERMUTATIONS
    ]


def test_six_charts_per_image(patch6):
    charts = find_standard_charts(patch6.graph, 2, 0)
    assert charts
    for chart in charts:
        keys = {twisted.key() for twisted in recompositions(chart)}
        assert len(keys) == 6
        assert chart.key() == min(keys)


def test_no_triangles_of_side_two_in_octahedron(octa):
    assert find_standard_charts(octa, 2, 0) == []


def test_charts_are_induced_isomorphisms(patch6):
    for chart in find_standard_charts(patch6.graph, 3, 0)[:12]:
        coords = sorted(chart.mapping)
        for i, a in enumerate(coords):
            for b in coords[i + 1 :]:
                assert are_adjacent(a, b) == patch6.graph.has_edge(chart[a], chart[b])


def test_torus_facet_charts(t44):
    charts = find_standard_charts(t44, 1, 0)
    assert len({ch.image for ch in charts}) == 32
    assert len(charts) == 32
    assert len({twisted.key() for ch in charts for twisted in recompositions(ch)}) == 192


def test_chart_symmetry_equivariance(patch6):
    sample = find_standard_charts(patch6.graph, 2, 0)[0]
    # every recomposition of a stored chart has that chart as its least recomposition
    for twisted in recompositions(sample):
        assert twisted.image == sample.image
        assert min(t.key() for t in recompositions(twisted)) == sample.key()


def test_one_least_chart_per_triangle(octa, icosa, t44, genus2, patch6):
    """Each triangle has one chart, and it is the least in key order: its
    six recompositions with the coordinate permutations are induced charts
    of the same image, none with a smaller key."""
    hosts = [octa, icosa, t44, genus2, degree_seven_surface(), patch6.graph]
    for host in hosts:
        for m in (1, 2, 3, 4):
            charts = find_standard_charts(host, m, 0)
            assert len({ch.image for ch in charts}) == len(charts)
            for chart in charts:
                for twisted in recompositions(chart):
                    assert twisted.image == chart.image
                    assert twisted.key() >= chart.key()
                    coords = sorted(twisted.mapping)
                    for i, a in enumerate(coords):
                        for b in coords[i + 1 :]:
                            assert are_adjacent(a, b) == host.has_edge(twisted[a], twisted[b])


def test_m0_charts_are_vertices(octa):
    charts = find_standard_charts(octa, 0, 0)
    assert sorted(ch[(0, 0, 0)] for ch in charts) == list(octa.vertices)


def test_extension_realises_all_directions(patch8):
    """Each unit translate of the extended domain is a side-4 triangle."""
    g = patch8.graph
    support = interior_support(g, 4, 3)
    ext = extend_chart(g, chart_of_support(g, support))
    images = {ch.image for ch in find_standard_charts(g, 4, 0)}
    translates = {ext.sub_support(d, 4) for d in UNIT_STEPS}
    assert len(translates) == 6 and translates <= images


def test_extension_restriction_matches_base(patch8):
    g = patch8.graph
    support = interior_support(g, 3, 3)
    chart = chart_of_support(g, support)
    ext = extend_chart(g, chart)
    assert isinstance(ext, Chart) and ext.m == 3
    for c, v in chart.mapping.items():
        assert ext[c] == v
    assert all(c in ext for c in flipped_delta_coords(3, (2, 2, 2)))


def test_non_triangular_support_is_rejected():
    g = gen_hex_patch(6).graph
    support = sorted(interior_support(g, 2, 3))[:4]
    with pytest.raises(ChartError):
        chart_of_support(g, support)
    with pytest.raises(ChartError):
        neighbour_triangles(g, support)


def test_chart_errors_are_input_errors():
    assert issubclass(ChartError, GraphError)


def test_extension_needs_side_three():
    g = gen_hex_patch(6).graph
    support = interior_support(g, 2, 3)
    with pytest.raises(ChartError):
        extend_chart(g, chart_of_support(g, support))


def test_extension_margin_error():
    patch = gen_hex_patch(6)
    g = patch.graph
    shallow = [
        img
        for img in {ch.image for ch in find_standard_charts(g, 5, 0)}
        if min_boundary_distance(g, img) < 2
    ]
    with pytest.raises(MarginError):
        extend_chart(g, chart_of_support(g, sorted(shallow, key=sorted)[0]))


@pytest.mark.parametrize("m,expected", [(1, 12), (2, 9), (3, 7), (4, 6), (5, 6)])
def test_neighbour_triangle_counts(m, expected):
    patch = gen_hex_patch(m + 4)
    support = interior_support(patch.graph, m, 3)
    assert len(neighbour_triangles(patch.graph, support)) == expected


def test_neighbour_triangles_live_in_neighbourhood(patch6):
    g = patch6.graph
    support = interior_support(g, 2, 3)
    hood = closed_neighbourhood(g, support)
    for t in neighbour_triangles(g, support):
        assert t <= hood and t != support


def test_single_direction_developments_agree(patch8):
    """Each unit translate of the extension, read as a chart of its own,
    is the neighbour's standard chart up to a coordinate permutation."""
    g = patch8.graph
    support = interior_support(g, 4, 3)
    ext = extend_chart(g, chart_of_support(g, support))
    for d in UNIT_STEPS:
        lone = chart_of_support(g, ext.sub_support(d, 4))
        assert any(
            all(lone[apply_permutation(p, c)] == ext[add(c, d)] for c in delta_coords(4))
            for p in COORD_PERMUTATIONS
        )


class CountingLinks(dict):
    """A common-neighbour table that counts the lookups of pairs that are no
    edge of the host."""

    misses = 0

    def get(self, pair, default=None):
        self.misses += pair not in self
        return super().get(pair, default)


def test_table_development_matches_intersections(octa, icosa, t44, genus2, patch6, monkeypatch):
    """Developing from the common-neighbour table accepts what the set
    intersections accept, except across a base pair that is no edge: there
    it stops, and the intersections' map, if any, is no induced triangle.
    Such pairs arise on the curved hosts, genus 2 and the 7-regular surface;
    on the octahedron and the icosahedron every development stops before it
    meets one.  The chart lists agree."""
    hosts = [octa, icosa, t44, genus2, degree_seven_surface(), patch6.graph]
    misses = []
    for host in hosts:
        links = CountingLinks(edge_links(host))
        monkeypatch.setattr(charts_mod, "edge_links", lambda g: links)
        for m in (2, 3, 4):
            corner, c1, c2 = (0, 0, m), (0, 1, m - 1), (1, 0, m - 1)
            for a, b, c in facets(host):
                for u, v, w in ((a, b, c), (b, a, c), (c, a, b)):
                    anchor = {corner: u, c1: v, c2: w}
                    got = charts_mod._develop(host, anchor, m)
                    expected = reference_develop(host, anchor, m)
                    if got != expected:
                        assert got is None
                        assert not charts_mod._is_induced_triangle(host, expected, m)
        misses.append(links.misses)
    monkeypatch.undo()
    assert misses[3] and misses[4]
    keys = [[ch.key() for ch in find_standard_charts(h, m, 0)] for h in hosts for m in range(5)]
    monkeypatch.setattr(charts_mod, "_develop", reference_develop)
    fresh = [Graph(h.vertices, h.edges()) for h in hosts]
    assert keys == [[ch.key() for ch in find_standard_charts(h, m, 0)] for h in fresh for m in range(5)]


def test_chart_core_matches_the_coordinate_filter(patch8, genus2):
    """``core(d)`` reads a cached coordinate list of Δ_m; it is the image of
    the domain coordinates whose least entry is at least d, on standard
    charts and on their extensions."""
    extended = 0
    for host in (patch8.graph, genus2):
        for m in (3, 4, 5):
            for chart in find_standard_charts(host, m, 0):
                cases = [chart]
                try:
                    cases.append(extend_chart(host, chart))
                except ChartError:
                    pass
                extended += len(cases) - 1
                for case in cases:
                    for d in (1, 2, 3):
                        expected = frozenset(v for c, v in case.mapping.items() if min(c) >= d)
                        assert case.core(d) == expected
    assert extended > 0


def test_chart_finder_matches_embedding_oracle(octa, icosa, t44, genus2):
    """The facet-anchored development and the generic backtracking search
    enumerate the same triangle images on every host family."""
    hosts = [octa, icosa, t44, genus2, gen_hex_patch(4).graph, gen_delta(5).graph]
    for host in hosts:
        for m in (1, 2, 3):
            charts = find_standard_charts(host, m, 0)
            slow = set(induced_images(gen_delta(m).graph, host))
            assert {ch.image for ch in charts} == slow
            assert len(charts) == len(slow)


def test_chart_lists_are_computed_once_per_side():
    g = gen_hex_patch(4).graph
    charts = find_standard_charts(g, 2, 0)
    assert find_standard_charts(g, 2, 0) is charts
    assert find_standard_charts(g, 3, 0) is not charts


def test_callers_share_one_chart_list_per_side(monkeypatch):
    """``chart_of_support``, ``neighbour_triangles``, the chart-extension
    suite and a margin-0 level graph all read the margin-0 list of each
    side, so on one host each side is developed once, and the memo holds
    one entry per side."""
    developed = Counter()
    real = charts_mod._develop

    def counted(g, assign, m):
        developed[m] += 1
        return real(g, assign, m)

    monkeypatch.setattr(charts_mod, "_develop", counted)
    patch = gen_hex_patch(8)
    g = patch.graph
    monkeypatch.setattr(lemmas.hexgrid, "gen_hex_patch", lambda radius: patch)
    assert lemmas.chart_extension_suite(radius=8).ok
    support = interior_support(g, 2, 2)
    assert chart_of_support(g, support).image == support
    assert neighbour_triangles(g, interior_support(g, 1, 1))
    builder = GeoBuilder(g)
    builder.build(4, 0)
    builder.build(5, 0)
    shared = developed.copy()
    developed.clear()
    fresh = gen_hex_patch(8).graph
    for m in range(6):
        find_standard_charts(fresh, m, 0)
    # every ordering of every facet is developed once, for each side from 2
    assert shared == developed == Counter({m: 3 * len(facets(g)) for m in range(2, 6)})
    derive = find_standard_charts.__wrapped__
    assert sorted(k[1:] for k in g._memo if type(k) is tuple and k[0] is derive) == [
        (m, 0) for m in range(6)
    ]


@pytest.mark.parametrize(
    "host",
    [
        lambda: gen_hex_patch(5).graph,
        lambda: gen_hex_patch(9).graph,
        lambda: hex_torus(6, 7),
        lambda: universal_cover_ball(genus2_surface(), genus2_surface().vertices[0], 6).graph,
    ],
    ids=["hex_patch_5", "hex_patch_9", "torus6x7", "genus2_ball_6"],
)
def test_charts_at_a_margin_are_the_filtered_full_list(host):
    """Searching at margin d, side 0 included, gives exactly the charts of
    the margin-0 list whose images keep boundary distance d; on the torus
    every distance is infinite, so every margin keeps them all."""
    g = host()
    for m in range(7):
        full = [ch.key() for ch in find_standard_charts(g, m, 0)]
        for d in range(9):
            got = [ch.key() for ch in find_standard_charts(g, m, d)]
            assert got == [
                key for key in full if min_boundary_distance(g, [v for _, v in key]) >= d
            ], (m, d)


def extension_images(g, support):
    """The triangle images the chart extension of ``support`` realises."""
    ext = extend_chart(g, chart_of_support(g, support))
    images = {ext.sub_support(d, ext.m) for d in UNIT_STEPS}
    if ext.m == 3:
        images.add(frozenset(ext[c] for c in flipped_delta_coords(3, (2, 2, 2))))
    return images


def brute_force_neighbours(g, support, m):
    hood = closed_neighbourhood(g, support)
    return set(induced_images(gen_delta(m).graph, induced_subgraph(g, hood))) - {support}


@pytest.mark.parametrize("m", [3, 4, 5])
def test_extension_matches_neighbour_triangles_on_the_grid(patch8, m):
    g = patch8.graph
    supports = [
        img
        for img in {ch.image for ch in find_standard_charts(g, m, 0)}
        if min_boundary_distance(g, img) >= 3
    ]
    assert supports
    for support in supports:
        assert extension_images(g, support) == set(neighbour_triangles(g, support))


def test_neighbour_triangles_where_extension_conflicts(genus2):
    g = genus2
    for support in sorted({ch.image for ch in find_standard_charts(g, 3, 0)}, key=sorted):
        try:
            extension_images(g, support)
        except ChartConflictError:
            break
    else:
        pytest.fail("no side-3 triangle on the genus-2 surface has a conflicting extension")
    assert set(neighbour_triangles(g, support)) == brute_force_neighbours(g, support, 3)


def test_neighbour_triangles_beyond_the_unit_translates(genus2):
    """Near the surgery a side-6 triangle's neighbourhood holds a seventh
    triangle that is no unit translate of the extended chart."""
    g = genus2
    for support in sorted({ch.image for ch in find_standard_charts(g, 6, 0)}, key=sorted):
        found = set(neighbour_triangles(g, support))
        try:
            if extension_images(g, support) < found:
                break
        except ChartConflictError:
            continue
    else:
        pytest.fail("every side-6 neighbourhood on the genus-2 surface is six translates")
    assert len(found) == 7
    assert found == brute_force_neighbours(g, support, 6)


def rim_read(g, chart):
    """Oracle for ``extend_chart`` on a chart whose rim vertices have degree
    6: around each rim vertex p, start from the chart's images at two
    consecutive unit steps and walk p's neighbours, each the common
    neighbour of p and the last one other than the one before.  Returns the
    coordinate map, or None when two rim vertices read different vertices
    at one coordinate."""
    read = dict(chart.mapping)
    for c, p in chart.mapping.items():
        if min(c):
            continue
        ring = [add(c, d) for d in UNIT_STEPS]
        i = next(i for i in range(6) if ring[i] in chart and ring[(i + 1) % 6] in chart)
        prev, cur = chart[ring[i]], chart[ring[(i + 1) % 6]]
        for k in range(2, 6):
            (nxt,) = (g.neighbors(p) & g.neighbors(cur)) - {prev}
            if read.setdefault(ring[(i + k) % 6], nxt) != nxt:
                return None
            prev, cur = cur, nxt
    return read


@pytest.mark.parametrize(
    "host",
    [
        genus2_surface,
        *(partial(random_surgery_surface, seed) for seed in range(4)),
        lambda: hex_torus(6, 7),
    ],
    ids=["genus2", "surgery0", "surgery1", "surgery2", "surgery3", "torus6x7"],
)
def test_extension_on_curved_hosts(host):
    """``extend_chart`` raises exactly when a rim vertex has degree other
    than 6 or the map read from the rim links is not injective; otherwise
    its domain is the side-(m+3) triangle at offset (-1, -1, -1) minus its
    corners, and every lattice edge there maps to a host edge.  The 6x7
    torus is flat, but its side-4 extensions wrap round onto themselves."""
    g = host()
    outcomes = Counter()
    for m in range(3, 7):
        corners = {(m + 2, -1, -1), (-1, m + 2, -1), (-1, -1, m + 2)}
        domain = {add(c, (-1, -1, -1)) for c in delta_coords(m + 3)} - corners
        edges = [(a, b) for a in domain for b in domain if a < b and are_adjacent(a, b)]
        for chart in find_standard_charts(g, m, 0):
            rim = [v for c, v in chart.mapping.items() if min(c) == 0]
            if any(g.degree(v) != 6 for v in rim):
                with pytest.raises(ChartConflictError, match="has degree"):
                    extend_chart(g, chart)
                outcomes["degree"] += 1
                continue
            read = rim_read(g, chart)
            assert read is not None  # an edge lies in two facets, so rims agree
            if len(set(read.values())) != len(read):
                with pytest.raises(ChartConflictError, match="not injective"):
                    extend_chart(g, chart)
                outcomes["not injective"] += 1
                continue
            ext = extend_chart(g, chart)
            assert ext.m == m and ext.mapping == read and set(read) == domain
            assert ext.image == set(read.values())
            assert all(g.has_edge(ext[a], ext[b]) for a, b in edges)
            outcomes["extended"] += 1
    assert outcomes["extended"] and outcomes["degree"] + outcomes["not injective"]
