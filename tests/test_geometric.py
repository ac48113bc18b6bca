from __future__ import annotations

import pytest

from cliquedyn import geometric
from cliquedyn.charts import chart_of_support, charts_by_image, find_standard_charts
from cliquedyn.covers import universal_cover_ball
from cliquedyn.geometric import (
    GeoBuilder,
    GeoError,
    GeoMarginError,
    build_geo,
    c_map,
    clique_from_triangle,
    clique_from_vertex,
    clique_summary,
    verify_geometric_equivalence,
)
from cliquedyn.hexgrid import (
    OFFSETS_BY_GAP,
    add,
    delta_coords,
    gen_delta,
    gen_hex_patch,
    sub,
)
from helpers import degree_seven_surface, genus2_surface


@pytest.fixture(scope="module")
def patch9_builder():
    return GeoBuilder(gen_hex_patch(9).graph)


def test_level_zero_graph_matches_host_interior():
    patch = gen_hex_patch(5)
    gg = build_geo(patch.graph, 0, interior_margin=1)
    interior = patch.interior_ids()
    assert {next(iter(v.support)) for v in gg.verts} == set(interior)
    for i, gv in enumerate(gg.verts):
        (v,) = gv.support
        expected = {w for w in patch.graph.neighbors(v) if w in interior}
        got = {next(iter(gg.verts[j].support)) for j in gg.graph.neighbors(i)}
        assert got == expected


def test_delta4_region_adjacency_profile():
    d4 = gen_delta(4)
    gg = build_geo(d4.graph, 4)
    top = gg.gid(d4.graph.vertex_set)
    by_level = {}
    for j in gg.graph.neighbors(top):
        by_level[gg.verts[j].level] = by_level.get(gg.verts[j].level, 0) + 1
    assert by_level == {0: 3, 2: 7}


def test_octahedron_has_no_level_two_vertices(octa):
    gg = build_geo(octa, 2)
    assert sorted(set(v.level for v in gg.verts)) == [0]
    assert len(gg.verts) == 6


def test_icosahedron_does_have_level_two_vertices(icosa):
    # one induced side-2 triangle per face
    gg = build_geo(icosa, 2)
    assert len(gg.by_level.get(2, [])) == 20


def test_vertex_clique_with_six_regular_centre(patch9_builder):
    builder = patch9_builder
    gg3 = builder.build(3, margin=0)
    patch_centre = next(
        v for v in gg3.host.vertices if builder.bdist[v] >= 6
    )
    clique = clique_from_vertex(gg3, patch_centre)
    levels = sorted(gg3.verts[i].level for i in clique)
    assert levels == [1, 1, 1, 1, 1, 1, 3, 3]
    gg1 = builder.build(1, margin=0)
    clique1 = clique_from_vertex(gg1, patch_centre)
    assert sorted(gg1.verts[i].level for i in clique1) == [1] * 6


def test_vertex_clique_at_degree_seven_vertex(genus2):
    gg3 = build_geo(genus2, 3)
    v7 = next(v for v in genus2.vertices if genus2.degree(v) == 7)
    clique = clique_from_vertex(gg3, v7)
    assert sorted(gg3.verts[i].level for i in clique) == [1] * 7


def test_triangle_clique_contains_central_intersection(patch9_builder):
    builder = patch9_builder
    gg4 = builder.build(4, margin=0)
    support = sorted(
        (
            img
            for img in builder.images(5)
            if builder.support_margin(img) >= 4
        ),
        key=sorted,
    )[0]
    chart = builder.images(5)[support]
    clique = clique_from_triangle(gg4, chart)
    central = chart.sub_support((1, 1, 1), 2)
    assert gg4.gid(central) in clique


def test_summary_matches_construction_across_levels(patch9_builder):
    builder = patch9_builder
    for n in (1, 2, 3):
        gg = builder.build(n, margin=0)
        level = n + 1
        support = sorted(
            (
                img
                for img in builder.images(level)
                if builder.support_margin(img) >= n + 3
            ),
            key=sorted,
        )[0]
        chart = builder.images(level)[support]
        members = clique_summary(gg, chart)  # compares with the construction itself
        assert members == clique_from_triangle(gg, chart)


def test_summary_level_two_contains_inverted_centre(patch9_builder):
    builder = patch9_builder
    gg1 = builder.build(1, margin=0)
    support = sorted(
        (img for img in builder.images(2) if builder.support_margin(img) >= 5),
        key=sorted,
    )[0]
    chart = builder.images(2)[support]
    members = clique_summary(gg1, chart)
    inverted = frozenset(chart[c] for c in ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert gg1.gid(inverted) in members


def test_summary_level_one_contains_inverted_parent(patch9_builder):
    builder = patch9_builder
    gg2 = builder.build(2, margin=0)
    support = sorted(
        (img for img in builder.images(1) if builder.support_margin(img) >= 5),
        key=sorted,
    )[0]
    chart = builder.images(1)[support]
    members = clique_summary(gg2, chart)
    parents2 = [i for i in members if gg2.verts[i].level == 2]
    # three upright parents plus the inverted one around the facet
    assert len(parents2) == 4


def test_same_level_adjacency_is_symmetric_in_the_deep_interior(patch9_builder):
    from cliquedyn.graph import closed_neighbourhood

    builder = patch9_builder
    gg = builder.build(3, margin=4)
    host = gg.host
    for i in gg.by_level[3]:
        hood_i = closed_neighbourhood(host, gg.verts[i].support)
        for j in gg.graph.neighbors(i):
            if gg.verts[j].level != 3:
                continue
            hood_j = closed_neighbourhood(host, gg.verts[j].support)
            assert (gg.verts[j].support <= hood_i) and (
                gg.verts[i].support <= hood_j
            )


def test_offset_rule_matches_containment_adjacency():
    """Inside one chart, adjacency by the set rules coincides with the
    offset-difference rule for every pair of translated sub-triangles."""
    patch = gen_hex_patch(7)
    gg = build_geo(patch.graph, 3, interior_margin=0)
    base = chart_of_support(
        patch.graph, patch.ids(add(c, (-2, -2, -2)) for c in delta_coords(6))
    )
    coords6 = set(delta_coords(6))
    anchors3 = [t for t in coords6 if set(add(c, t) for c in delta_coords(3)) <= coords6]
    anchors1 = [t for t in coords6 if set(add(c, t) for c in delta_coords(1)) <= coords6]
    for s in anchors3:
        gid_s = gg.gid(base.sub_support(s, 3))
        for t in anchors3:
            if t == s:
                continue
            gid_t = gg.gid(base.sub_support(t, 3))
            assert gg.graph.has_edge(gid_s, gid_t) == (sub(t, s) in OFFSETS_BY_GAP[0])
        for t in anchors1:
            gid_t = gg.gid(base.sub_support(t, 1))
            assert gg.graph.has_edge(gid_s, gid_t) == (sub(t, s) in OFFSETS_BY_GAP[2])


def test_c_map_certificates(patch9_builder):
    builder = patch9_builder
    gg1 = builder.build(1, margin=0)
    gg2 = builder.build(2, margin=5)
    result = c_map(gg1, gg2)
    assert result.injective
    assert result.surjective_on_deep
    assert result.deep_clique_count > 0


def test_verify_equivalence_small_radii():
    report = verify_geometric_equivalence(gen_hex_patch(8).graph, 0)
    assert report.ok
    report = verify_geometric_equivalence(gen_hex_patch(8).graph, 1, margin=4)
    assert report.ok


def test_verify_equivalence_on_triangular_patch():
    """The correspondence holds on any simply connected patch with
    6-regular interior, not just hexagonal balls."""
    host = gen_delta(18).graph
    for n in (0, 1, 2):
        report = verify_geometric_equivalence(host, n)
        assert report.ok, report.failures
    assert report.deep_cliques >= 1


def test_verify_equivalence_rejects_an_empty_margin():
    # nothing lies 5 deep in a side-14 triangle: an input error, not a failure
    with pytest.raises(GeoError, match="no level-3 vertex lies at least 5 from the boundary"):
        verify_geometric_equivalence(gen_delta(14).graph, 2)


def test_level_graph_matches_iterated_cliques_below_wrap_threshold():
    """On a torus the containment rules reproduce the iterated clique graph
    exactly as long as the triangles' neighbourhoods stay clear of the
    quotient identifications."""
    from cliquedyn.cliques import iterate_k
    from cliquedyn.generators import hex_torus
    from cliquedyn.isomorphism import find_isomorphism

    for p, q, n_good in ((4, 4, 1), (5, 5, 2), (4, 6, 1)):
        torus = hex_torus(p, q)
        trace = iterate_k(torus, n_good)
        for n in range(1, n_good + 1):
            level = build_geo(torus, n).graph
            assert find_isomorphism(level, trace.graphs[n]) is not None


def test_level_graph_overcounts_once_neighbourhoods_wrap():
    """Past the wrap threshold the same-size rule sees extra adjacencies,
    which is exactly why equivalence claims require simply connected
    hosts."""
    from cliquedyn.cliques import iterate_k
    from cliquedyn.generators import hex_torus

    torus = hex_torus(4, 4)
    level = build_geo(torus, 2).graph
    k2 = iterate_k(torus, 2).graphs[2]
    assert level.n == k2.n == 48
    assert level.edge_count > k2.edge_count


def test_verify_equivalence_gates(octa, t44):
    with pytest.raises(GeoError):
        verify_geometric_equivalence(octa, 0)
    with pytest.raises(GeoError):
        verify_geometric_equivalence(t44, 0)
    with pytest.raises(GeoMarginError):
        verify_geometric_equivalence(gen_hex_patch(8).graph, 2, margin=2)


def test_vertex_clique_margin_guard():
    patch = gen_hex_patch(4)
    gg = build_geo(patch.graph, 1, interior_margin=2)
    rim_adjacent = next(
        v for v in patch.graph.vertices if gg.bdist[v] == 2
    )
    with pytest.raises(GeoMarginError):
        clique_from_vertex(gg, rim_adjacent)


def test_geo_graph_serialisation(patch9_builder):
    gg = patch9_builder.build(1, margin=6)
    payload = gg.to_dict()
    assert payload["n"] == 1 and payload["vertices"]
    sizes = {len(v["support"]) for v in payload["vertices"]}
    assert sizes == {3}


def test_verify_shares_charts_through_the_host_not_a_builder():
    host = gen_hex_patch(8).graph
    with pytest.raises(TypeError):
        verify_geometric_equivalence(host, 0, builder=GeoBuilder(host))
    assert verify_geometric_equivalence(host, 0).ok


@pytest.mark.parametrize(
    "surface, radius, expected",
    [
        (genus2_surface, 9, [(491, 491), (408, 331), (218, 133), (109, 30)]),
        (degree_seven_surface, 6, [(112, 112), (43, 22), (7, 0), (1, 0)]),
    ],
)
def test_verify_equivalence_on_cover_balls_of_non_grid_surfaces(surface, radius, expected):
    """Cover balls of surfaces with degree-7 vertices are patches whose
    interiors are not hexagonal grids; the correspondence still holds."""
    g = surface()
    host = universal_cover_ball(g, base=g.vertices[0], r=radius).graph
    got = []
    for n in range(4):
        report = verify_geometric_equivalence(host, n)
        assert report.ok, report.failures
        got.append((report.next_vertices, report.deep_cliques))
    assert got == expected


def test_verify_compares_adjacency_with_clique_intersection(monkeypatch):
    monkeypatch.setattr(geometric, "intersection_edges", lambda sets: set())
    report = verify_geometric_equivalence(gen_hex_patch(8).graph, 0)
    assert not report.ok
    assert any("has disjoint cliques" in f for f in report.failures)
