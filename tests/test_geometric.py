from __future__ import annotations

import copy
import functools
import hashlib
import json
import re

import pytest

from cliquedyn import geometric
from cliquedyn.charts import chart_of_support, find_standard_charts, min_boundary_distance
from cliquedyn.covers import universal_cover_ball
from cliquedyn.generators import hex_torus
from cliquedyn.geometric import (
    GeoBuilder,
    GeoError,
    GeoMarginError,
    c_map,
    clique_from_triangle,
    clique_from_vertex,
    clique_summary,
    verify_geometric_equivalence,
)
from cliquedyn.cliques import max_cliques
from cliquedyn.graph import Graph, closed_neighbourhood
from cliquedyn.hexgrid import (
    OFFSETS_BY_GAP,
    add,
    delta_coords,
    gen_delta,
    gen_hex_patch,
    sub,
)
from cliquedyn.surface import boundary_distance, validate_surface
from helpers import (
    degree_seven_surface,
    genus2_surface,
    random_surgery_surface,
    reference_level_edges,
    reference_verify,
    umbrella,
)


@functools.cache
def cover_ball(surface, radius):
    """The universal cover ball of ``surface()`` around its first vertex,
    built once so that its chart lists are found once."""
    g = surface()
    return universal_cover_ball(g, base=g.vertices[0], r=radius).graph


@pytest.fixture(scope="module")
def patch9_builder():
    return GeoBuilder(gen_hex_patch(9).graph)


def test_level_zero_graph_matches_host_interior():
    patch = gen_hex_patch(5)
    gg = GeoBuilder(patch.graph).build(0, 1)
    interior = patch.interior_ids()
    assert {ch[(0, 0, 0)] for ch in gg.charts} == set(interior)
    for i, ch in enumerate(gg.charts):
        (v,) = ch.image
        expected = {w for w in patch.graph.neighbors(v) if w in interior}
        got = {gg.charts[j][(0, 0, 0)] for j in gg.graph.neighbors(i)}
        assert got == expected


def test_delta4_region_adjacency_profile():
    d4 = gen_delta(4)
    gg = GeoBuilder(d4.graph).build(4)
    top = gg.gid(d4.graph.vertex_set)
    by_level = {}
    for j in gg.graph.neighbors(top):
        by_level[gg.charts[j].m] = by_level.get(gg.charts[j].m, 0) + 1
    assert by_level == {0: 3, 2: 7}


def test_octahedron_has_no_level_two_vertices(octa):
    gg = GeoBuilder(octa).build(2)
    assert sorted(set(ch.m for ch in gg.charts)) == [0]
    assert len(gg.charts) == 6


def test_icosahedron_does_have_level_two_vertices(icosa):
    # one induced side-2 triangle per face
    gg = GeoBuilder(icosa).build(2)
    assert sum(1 for ch in gg.charts if ch.m == 2) == 20


def test_vertex_clique_with_six_regular_centre(patch9_builder):
    builder = patch9_builder
    gg3 = builder.build(3, margin=0)
    patch_centre = next(
        v for v in gg3.host.vertices if boundary_distance(gg3.host)[v] >= 6
    )
    clique = clique_from_vertex(gg3, patch_centre)
    levels = sorted(gg3.charts[i].m for i in clique)
    assert levels == [1, 1, 1, 1, 1, 1, 3, 3]
    gg1 = builder.build(1, margin=0)
    clique1 = clique_from_vertex(gg1, patch_centre)
    assert sorted(gg1.charts[i].m for i in clique1) == [1] * 6


def test_vertex_clique_at_degree_seven_vertex(genus2):
    gg3 = GeoBuilder(genus2).build(3)
    v7 = next(v for v in genus2.vertices if genus2.degree(v) == 7)
    clique = clique_from_vertex(gg3, v7)
    assert sorted(gg3.charts[i].m for i in clique) == [1] * 7


@pytest.mark.parametrize(
    "host, inner",
    [
        (lambda: gen_hex_patch(4).graph, 37),
        (genus2_surface, 98),
        (lambda: cover_ball(genus2_surface, 5), 111),
    ],
    ids=["hex_patch_4", "genus2", "genus2_ball_5"],
)
def test_vertex_fan_matches_umbrella(host, inner):
    """The level-1 fan that ``clique_from_vertex`` reads at an inner vertex
    is the vertex's umbrella, on the flat patch and on hosts with degree-7
    vertices."""
    g = host()
    gg = GeoBuilder(g).build(1)
    classes = validate_surface(g).classes
    inner_vertices = [v for v in g.vertices if classes[v].is_inner]
    assert len(inner_vertices) == inner
    for v in inner_vertices:
        fan = {gg.charts[i].image for i in gg.membership[(1, v)]}
        assert fan == {frozenset(f) for f in umbrella(g, v)}, v


def test_triangle_clique_contains_central_intersection(patch9_builder):
    builder = patch9_builder
    gg4 = builder.build(4, margin=0)
    support = sorted(
        (
            img
            for img in {ch.image for ch in find_standard_charts(builder.host, 5, 0)}
            if min_boundary_distance(builder.host, img) >= 4
        ),
        key=sorted,
    )[0]
    chart = chart_of_support(builder.host, support)
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
                for img in {ch.image for ch in find_standard_charts(builder.host, level, 0)}
                if min_boundary_distance(builder.host, img) >= n + 3
            ),
            key=sorted,
        )[0]
        chart = chart_of_support(builder.host, support)
        members = clique_summary(gg, chart)  # compares with the construction itself
        assert members == clique_from_triangle(gg, chart)


def test_summary_level_two_contains_inverted_centre(patch9_builder):
    builder = patch9_builder
    gg1 = builder.build(1, margin=0)
    support = sorted(
        (
            img
            for img in {ch.image for ch in find_standard_charts(builder.host, 2, 0)}
            if min_boundary_distance(builder.host, img) >= 5
        ),
        key=sorted,
    )[0]
    chart = chart_of_support(builder.host, support)
    members = clique_summary(gg1, chart)
    inverted = frozenset(chart[c] for c in ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert gg1.gid(inverted) in members


def test_summary_level_one_contains_inverted_parent(patch9_builder):
    builder = patch9_builder
    gg2 = builder.build(2, margin=0)
    support = sorted(
        (
            img
            for img in {ch.image for ch in find_standard_charts(builder.host, 1, 0)}
            if min_boundary_distance(builder.host, img) >= 5
        ),
        key=sorted,
    )[0]
    chart = chart_of_support(builder.host, support)
    members = clique_summary(gg2, chart)
    parents2 = [i for i in members if gg2.charts[i].m == 2]
    # three upright parents plus the inverted one around the facet
    assert len(parents2) == 4


def test_same_level_adjacency_is_symmetric_in_the_deep_interior(patch9_builder):
    from cliquedyn.graph import closed_neighbourhood

    builder = patch9_builder
    gg = builder.build(3, margin=4)
    host = gg.host
    level3 = [i for i, ch in enumerate(gg.charts) if ch.m == 3]
    assert level3
    for i in level3:
        hood_i = closed_neighbourhood(host, gg.charts[i].image)
        for j in gg.graph.neighbors(i):
            if gg.charts[j].m != 3:
                continue
            hood_j = closed_neighbourhood(host, gg.charts[j].image)
            assert (gg.charts[j].image <= hood_i) and (
                gg.charts[i].image <= hood_j
            )


def test_offset_rule_matches_containment_adjacency():
    """Inside one chart, adjacency by the set rules coincides with the
    offset-difference rule for every pair of translated sub-triangles."""
    patch = gen_hex_patch(7)
    gg = GeoBuilder(patch.graph).build(3, 0)
    base = chart_of_support(
        patch.graph, frozenset(patch.id_of[add(c, (-2, -2, -2))] for c in delta_coords(6))
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
    assert not result.collisions
    assert not result.missing_cliques
    assert result.deep_clique_count > 0


def _assert_c_map_matches_whole_graph_search(gg_n, gg_next):
    """c_map searches only the closed neighbourhood of the deep vertices;
    its deep cliques, in order, are those of the whole level graph."""
    result = c_map(gg_n, gg_next)
    deep_ids = {
        i
        for i, ch in enumerate(gg_n.charts)
        if min_boundary_distance(gg_n.host, ch.image) >= gg_next.margin
    }
    deep = [c for c in max_cliques(gg_n.graph) if c <= deep_ids]
    hit = set(result.mapping.values())
    assert result.deep_clique_count == len(deep)
    assert result.missing_cliques == [c for c in deep if c not in hit]
    return result


@pytest.mark.parametrize("radius, n", [(8, 1), (9, 2), (10, 3), (12, 4)])
def test_c_map_searches_only_around_the_deep_region(radius, n):
    builder = GeoBuilder(gen_hex_patch(radius).graph)
    gg_n, gg_next = builder.build(n, margin=0), builder.build(n + 1, margin=n + 3)
    result = _assert_c_map_matches_whole_graph_search(gg_n, gg_next)
    assert result.deep_clique_count > 0 and not result.missing_cliques
    # Without every third next-level chart, many deep cliques go unhit, and
    # they are listed in the order of the whole-graph search.
    pruned = copy.copy(gg_next)
    pruned.charts = gg_next.charts[::3]
    result = _assert_c_map_matches_whole_graph_search(gg_n, pruned)
    assert len(result.missing_cliques) > 1


def test_c_map_searches_only_around_the_deep_region_of_a_cover_ball():
    builder = GeoBuilder(cover_ball(genus2_surface, 9))
    for n in (1, 2):
        gg_n, gg_next = builder.build(n, margin=0), builder.build(n + 1, margin=n + 3)
        result = _assert_c_map_matches_whole_graph_search(gg_n, gg_next)
        assert result.deep_clique_count > 0 and not result.missing_cliques


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
            level = GeoBuilder(torus).build(n).graph
            assert find_isomorphism(level, trace.graphs[n]) is not None


def test_level_graph_overcounts_once_neighbourhoods_wrap():
    """Past the wrap threshold the same-size rule sees extra adjacencies,
    which is exactly why equivalence claims require simply connected
    hosts."""
    from cliquedyn.cliques import iterate_k
    from cliquedyn.generators import hex_torus

    torus = hex_torus(4, 4)
    level = GeoBuilder(torus).build(2).graph
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
    gg = GeoBuilder(patch.graph).build(1, 2)
    rim_adjacent = next(
        v for v in patch.graph.vertices if boundary_distance(patch.graph)[v] == 2
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
    host = cover_ball(surface, radius)
    got = []
    for n in range(4):
        report = verify_geometric_equivalence(host, n)
        assert report.ok, report.failures
        got.append((report.next_vertices, report.deep_cliques))
    assert got == expected


CUT_HOSTS = {
    "hex_patch_6": lambda: gen_hex_patch(6).graph,
    "hex_patch_8": lambda: gen_hex_patch(8).graph,
    "hex_patch_10": lambda: gen_hex_patch(10).graph,
    "genus2_ball_8": lambda: cover_ball(genus2_surface, 8),
    "septic_ball_6": lambda: cover_ball(degree_seven_surface, 6),
}


@pytest.mark.parametrize("host", sorted(CUT_HOSTS))
def test_level_graph_neighbours_differ_in_depth_by_at_most_half_the_gap_plus_one(host):
    """The bound behind verify's cut of the level-n graph: the boundary
    distances of the supports of two adjacent vertices ``gap`` levels
    apart differ by at most gap/2 + 1.  n = 6 reaches gap 6."""
    g = CUT_HOSTS[host]()
    dist = boundary_distance(g)
    builder = GeoBuilder(g)
    for n in range(7):
        gg = builder.build(n)
        depth = [min(dist[v] for v in ch.image) for ch in gg.charts]
        for i, j in gg.graph.edges():
            gap = abs(gg.charts[i].m - gg.charts[j].m)
            assert abs(depth[i] - depth[j]) <= gap // 2 + 1, (n, gg.label(i), gg.label(j))


@pytest.mark.parametrize("host", sorted(CUT_HOSTS))
def test_verify_reports_match_the_whole_level_graph(host):
    """verify builds the level-n graph only on the charts at boundary
    distance margin - 4 or more; every report equals the one made on the
    whole level-n graph, for n = 0..6 and margins n+3..n+5."""
    g = CUT_HOSTS[host]()
    compared = 0
    for n in range(7):
        for margin in range(n + 3, n + 6):
            expected = reference_verify(g, n, margin)
            if expected is None:
                with pytest.raises(GeoError, match="host too small"):
                    verify_geometric_equivalence(g, n, margin)
                continue
            assert verify_geometric_equivalence(g, n, margin).to_dict() == expected, (n, margin)
            compared += 1
    assert compared >= 8


def test_failed_verify_reports_match_the_whole_level_graph(monkeypatch):
    """With one member dropped from every clique the map is no longer onto
    the deep cliques, and the failures, the first missing clique among
    them, are those made on the whole level-n graph."""
    real = geometric.clique_summary

    def short(gg, chart):
        return frozenset(sorted(real(gg, chart))[1:])

    monkeypatch.setattr(geometric, "clique_summary", short)
    for host, n in ((gen_hex_patch(8).graph, 2), (cover_ball(genus2_surface, 8), 1)):
        report = verify_geometric_equivalence(host, n).to_dict()
        assert not report["ok"] and any("deep cliques not hit" in f for f in report["failures"])
        assert report == reference_verify(host, n, n + 3)


def test_cutting_the_level_graph_at_the_full_margin_changes_reports():
    """The control for the cut: a level-n graph on the deep charts alone
    misses charts that ``c_map`` reads, and the reports change."""
    g = gen_hex_patch(8).graph
    for n in range(1, 4):
        for margin in (n + 3, n + 4):
            assert reference_verify(g, n, margin, margin) != reference_verify(g, n, margin)


def test_verify_compares_adjacency_with_clique_intersection(monkeypatch):
    monkeypatch.setattr(geometric, "intersection_edges", lambda sets: set())
    report = verify_geometric_equivalence(gen_hex_patch(8).graph, 0)
    assert not report.ok
    assert any("has disjoint cliques" in f for f in report.failures)


def test_failures_name_vertices_by_level_and_support(monkeypatch):
    # every next-level vertex maps to the empty clique, so no deep clique is hit
    monkeypatch.setattr(geometric, "clique_summary", lambda gg, chart: frozenset())
    report = verify_geometric_equivalence(gen_hex_patch(8).graph, 0)
    assert not report.ok
    pattern = r"deep cliques not hit, first: \[\(0, \[\d+\]\), \(0, \[\d+\]\), \(0, \[\d+\]\)\]$"
    assert any(re.search(pattern, f) for f in report.failures), report.failures


# sha256 of the sorted-key JSON of the level graphs for n = 0, 1, ..., pinning
# vertex order, edge order and the serialisation byte for byte
LEVEL_GRAPH_DIGESTS = {
    ("hex_patch_9", 0): [
        "56542674a28a14632e515d48f1579d1ff7161fdde2befe7dd779059f26ac95fc",
        "b002756ebc84a169c1ffbc0a4445218bc74b58f085fb4ead253af0306bf75126",
        "c0f889edcf379246f0332a71781f40ced751453086dffb6048ba9afc2278eebf",
        "fae648bbd28f3af956ff9377169210f0cee9f223988547836f44482b483b9dc4",
        "22925a55d4d188a681b6847f5744a17da593d2c73f25d5be58161781ccf1e2d0",
    ],
    ("hex_patch_9", 2): [
        "d1359487b25eb84e8414c25d24f47425c452988211951c0b249330726541b2f4",
        "5508a0226df7ca5846379068b08d3fcffe9530216b4c311cf05577cc0c257e2d",
        "7289c730ad6f4cd3c501649a82be0e6ba314a35fe9b2b955ae3b8be7a75cfc02",
        "29a23692dfbaa1e53f8ca85799c81ddaea16fc9af809302c92865308c6de4328",
        "80a618fec55988d3bb494140ed1ce7efe1f438235d591c8d8bd4d6f6f387dca4",
    ],
    ("delta_6", 0): [
        "edd5d54a54d93eb8c93821dd58cd017931e5b5dbf02797ee3d757002e6b42104",
        "5e4d72f23b0edf460ab6c69bfbee1bc46e88b20c10a9c730f920e84e21bd8252",
        "0c9f8bf13e8172b274bd9e3a85ae97691aa1b825ad01bd8192e1a5647ded0c4c",
        "72b671923ac1c0c5b99503477e0a200d5b2651c797fd3b7ffeb89f9367dacbed",
        "354a0dde92af9af853d2a39feacad2062d6f598ae5c7d9b54afe44cbd352e525",
    ],
    ("delta_6", 2): [
        "751437eb4f161fd3ba6e02d06cb92f792df4aa0d1e5fca6964df54e281089339",
        "fecff8921af60b8499dfc36ca64be33cf80ca36ec1bda939418c83bb38a417e7",
        "b3d1f6a40f17a4298aad41e23657f5a71df5680a2176602f81c37806283f0202",
        "1414d778a040a1b3b4915c8514027dacd34b107153ad170860676deb76d8f5ca",
        "eedf73e870831cecb0bfc873abb95f6da522872725cf7e92f0cdf867a21a3d15",
    ],
    ("torus_5_5", 0): [
        "b42cc088e0c97d7734d04731e6f5a3dec566cc133dda1cfc4e0d28515549a48a",
        "cdb602dfe60379d51a63d844102603997ba8f20d603e92567c3dfd3a08b75e9f",
        "e47db81340557045f6227fa13e0d8ddd5a6fb759ee608cf512138ffb416ea5d7",
        "38cbb4eeeee307d4e3b2031c9acc0bdec18b37ddcb39456bc66e600893247e1e",
        "4776a614027b34f217c7c085cd0dbff5c3ff1ba79670c3d0f7b740065760bc70",
    ],
    ("torus_5_5", 2): [
        "bbfe1b6815d3946c0654bd860e4d8f0ae24211f3e359199be58278f6f9cb1ac5",
        "db14ab7ffa6c88765e0f5a2cfe40488d61b08f9a15572592be043405d02a6c94",
        "a38858f42c4507b29a94ea38aa43a28354958e944ccb67a0d8c1329f79eb54a8",
        "1f40d030fae964b8488cbba92099bd278a17709f9cf2260c006d58092241a578",
        "1a89744b682cd6b5f42e1b47e05c5c04010801162ae6f4bfb9f03c985e0484df",
    ],
    # n = 0..7 on the next two hosts: from n = 6 on, the gap-6 rule joins
    # side-6 triangles to the side-0 triangles in their core(2)
    ("hex_patch_12", 0): [
        "f76f3812aab0c772bce977b3cb1c60f86cf540544469fb870342a040080cdc43",
        "423529f64f61fac638800d219ad12808aaf237d6597c4a3587172f0bac034480",
        "30d712cda782e00635a96f0494c20b59f80479aaddcaad5f4c0e76ef1309e167",
        "384be664410ebbe3603108b4a3436a2243a273155020a394a8690aeaccfca4d0",
        "f37b4de811c8fce4eba0141c17763ef2496e8cc95054d56c0fda15294d968edb",
        "6742687e2ef1d31435aff0d8898e987e6208ddbd7ef889a5feded516f7d8d7b1",
        "f2ff8785be6ee1e58d9632ebe8bbe21d903e466dc91b5f86276034a77baa4700",
        "30e7d8d313e816716545d8650a934a5a58b25d9a7a78915825c1c342136a0b50",
    ],
    ("genus2_ball_9", 0): [
        "19e506d199045144cfcf75cda06b93889a24a01d32fcd86a84f3609db927ecba",
        "31c98b33361dfc372447b11f5581a8c7921afb861729443845d2ddf5a6c148da",
        "7295655a6c15ba09e4467b73d6012bdac56c5fa97135f53d70a5244d48267664",
        "2333c55f5d098e7c1b690e00b24a829ffebd90bf811d7881c3d1615de8d214f3",
        "e8df410144e593fb18288decda30c77dac08ee8b7a4a0aacc05b6a06d31e931f",
        "30361af8b84f0312d55f02e836b6c1c738091bf2235fb30d447ae6e0ebf261f1",
        "d0e8656c9b16875d70c1e2821276cbf51da4d790c064b4591f9508449fe17eaa",
        "55909568cf0ce4732019ccb8c16c56dbe521eb792357ee1c696ecbad9315b142",
    ],
}

LEVEL_GRAPH_HOSTS = {
    "hex_patch_9": lambda: gen_hex_patch(9).graph,
    "delta_6": lambda: gen_delta(6).graph,
    "torus_5_5": lambda: hex_torus(5, 5),
    "hex_patch_12": lambda: gen_hex_patch(12).graph,
    "genus2_ball_9": lambda: cover_ball(genus2_surface, 9),
}


@pytest.mark.parametrize("host, margin", sorted(LEVEL_GRAPH_DIGESTS))
def test_level_graph_serialisation_is_pinned(host, margin):
    builder = GeoBuilder(LEVEL_GRAPH_HOSTS[host]())
    got = [
        hashlib.sha256(
            json.dumps(builder.build(n, margin).to_dict(), sort_keys=True).encode()
        ).hexdigest()
        for n in range(len(LEVEL_GRAPH_DIGESTS[host, margin]))
    ]
    assert got == LEVEL_GRAPH_DIGESTS[host, margin]


@pytest.mark.parametrize(
    "host",
    [
        lambda: gen_hex_patch(16).graph,
        lambda: cover_ball(genus2_surface, 8),
        *(
            lambda seed=seed: cover_ball(functools.partial(random_surgery_surface, seed), 7)
            for seed in range(3)
        ),
    ],
    ids=["hex_patch_16", "genus2_ball_8", "surgery0_ball_7", "surgery1_ball_7", "surgery2_ball_7"],
)
def test_least_vertex_index_matches_membership_scan(host):
    """``build`` takes the candidates for a region from the charts whose
    least vertex lies in it; the scan over every chart through a vertex of
    the region gives the same serialised edge list, on the flat patch and
    on cover balls with degree-7 vertices."""
    g = host()
    builder = GeoBuilder(g)
    for n in range(6):
        gg = builder.build(n)
        expected = Graph(range(len(gg)), reference_level_edges(g, gg.charts))
        assert list(gg.graph.edges()) == list(expected.edges())


@pytest.mark.parametrize(
    "surface, radius, count", [(genus2_surface, 9, 3888), (degree_seven_surface, 6, 1232)]
)
def test_chart_cores_avoid_the_sides_and_their_neighbourhood(surface, radius, count):
    """The lemma behind the one containment rule, on patches whose interiors
    are not hexagonal grids: a side vertex is one with fewer than six
    neighbours in the image, ``core(1)`` is the image without the sides and
    ``core(2)`` the image without the closed neighbourhood of the sides."""
    host = cover_ball(surface, radius)
    checked = 0
    for m in range(2, 8):
        for chart in find_standard_charts(host, m, 0):
            image = chart.image
            sides = {v for v in image if len(host.neighbors(v) & image) < 6}
            assert chart.core(0) == image
            assert chart.core(1) == image - sides
            assert chart.core(2) == image - closed_neighbourhood(host, sides)
            checked += 1
    assert checked == count
