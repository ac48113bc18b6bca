from __future__ import annotations

import pytest

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
    apply_permutation,
    are_adjacent,
    gen_delta,
    gen_hex_patch,
)
from cliquedyn.graph import GraphError, closed_neighbourhood, induced_subgraph
from cliquedyn.isomorphism import induced_images
from helpers import degree_seven_surface


def interior_support(g, m, depth):
    images = {ch.image for ch in find_standard_charts(g, m)}
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
    charts = find_standard_charts(patch6.graph, 2)
    assert charts
    for chart in charts:
        keys = {twisted.key() for twisted in recompositions(chart)}
        assert len(keys) == 6
        assert chart.key() == min(keys)


def test_no_triangles_of_side_two_in_octahedron(octa):
    assert find_standard_charts(octa, 2) == []


def test_charts_are_induced_isomorphisms(patch6):
    for chart in find_standard_charts(patch6.graph, 3)[:12]:
        coords = sorted(chart.mapping)
        for i, a in enumerate(coords):
            for b in coords[i + 1 :]:
                assert are_adjacent(a, b) == patch6.graph.has_edge(chart[a], chart[b])


def test_torus_facet_charts(t44):
    charts = find_standard_charts(t44, 1)
    assert len({ch.image for ch in charts}) == 32
    assert len(charts) == 32
    assert len({twisted.key() for ch in charts for twisted in recompositions(ch)}) == 192


def test_chart_symmetry_equivariance(patch6):
    sample = find_standard_charts(patch6.graph, 2)[0]
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
            charts = find_standard_charts(host, m)
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
    charts = find_standard_charts(octa, 0)
    assert sorted(ch[(0, 0, 0)] for ch in charts) == list(octa.vertices)


def test_extension_realises_all_directions(patch8):
    g = patch8.graph
    support = interior_support(g, 4, 3)
    ext = extend_chart(g, chart_of_support(g, support))
    for d in UNIT_STEPS:
        assert ext.translate_image(d) is not None
    assert ext.twisted_image() is None  # only defined for side 3


def test_extension_restriction_matches_base(patch8):
    g = patch8.graph
    support = interior_support(g, 3, 3)
    chart = chart_of_support(g, support)
    ext = extend_chart(g, chart)
    for c, v in chart.mapping.items():
        assert ext[c] == v
    assert ext.twisted_image() is not None


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
        for img in {ch.image for ch in find_standard_charts(g, 5)}
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
    """Developing each neighbour separately matches the joint extension on
    every shared offset."""
    from cliquedyn.hexgrid import add, delta_coords

    g = patch8.graph
    support = interior_support(g, 4, 3)
    chart = chart_of_support(g, support)
    ext = extend_chart(g, chart)
    for d in UNIT_STEPS:
        image = ext.translate_image(d)
        assert image is not None
        lone = chart_of_support(g, image)
        # align the lone chart with the extension through shared vertices
        for c in delta_coords(4):
            offset = add(c, d)
            assert ext[offset] in image
            assert lone.inverse[ext[offset]] is not None


def test_chart_serialization(patch6):
    chart = find_standard_charts(patch6.graph, 1)[0]
    obj = chart.to_dict()
    assert obj["m"] == 1 and len(obj["map"]) == 3


def test_chart_finder_matches_embedding_oracle(octa, icosa, t44, genus2):
    """The facet-anchored development and the generic backtracking search
    enumerate the same triangle images on every host family."""
    hosts = [octa, icosa, t44, genus2, gen_hex_patch(4).graph, gen_delta(5).graph]
    for host in hosts:
        for m in (1, 2, 3):
            charts = find_standard_charts(host, m)
            slow = set(induced_images(gen_delta(m).graph, host))
            assert {ch.image for ch in charts} == slow
            assert len(charts) == len(slow)


def test_chart_lists_are_computed_once_per_side():
    g = gen_hex_patch(4).graph
    charts = find_standard_charts(g, 2)
    assert find_standard_charts(g, 2) is charts
    assert find_standard_charts(g, 3) is not charts


def extension_images(g, support):
    """The triangle images the chart extension of ``support`` realises."""
    ext = extend_chart(g, chart_of_support(g, support))
    images = {ext.translate_image(d) for d in UNIT_STEPS} | {ext.twisted_image()}
    images.discard(None)
    return images


def brute_force_neighbours(g, support, m):
    hood = closed_neighbourhood(g, support)
    return set(induced_images(gen_delta(m).graph, induced_subgraph(g, hood))) - {support}


@pytest.mark.parametrize("m", [3, 4, 5])
def test_extension_matches_neighbour_triangles_on_the_grid(patch8, m):
    g = patch8.graph
    supports = [
        img
        for img in {ch.image for ch in find_standard_charts(g, m)}
        if min_boundary_distance(g, img) >= 3
    ]
    assert supports
    for support in supports:
        assert extension_images(g, support) == set(neighbour_triangles(g, support))


def test_neighbour_triangles_where_extension_conflicts(genus2):
    g = genus2
    for support in sorted({ch.image for ch in find_standard_charts(g, 3)}, key=sorted):
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
    for support in sorted({ch.image for ch in find_standard_charts(g, 6)}, key=sorted):
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
