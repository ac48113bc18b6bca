from __future__ import annotations

import pytest

from cliquedyn.cliques import max_cliques
from cliquedyn.graph import GraphError
from cliquedyn.hexgrid import (
    BASIS,
    SUM2_OFFSETS,
    UNIT_STEPS,
    add,
    build_lhg,
    classify_delta_inclusions,
    classify_triangle_coords,
    delta_coords,
    gen_delta,
    gen_hex_patch,
    gen_nabla,
    hex_distance,
    lhg_cliques_through_origin,
    lhg_expected_cliques,
    side_of,
)
from cliquedyn.io import graph_to_json
from cliquedyn.surface import facets


def test_patch_sizes():
    assert gen_hex_patch(0).graph.n == 1
    p1 = gen_hex_patch(1)
    assert p1.graph.n == 7 and p1.graph.edge_count == 12
    assert gen_hex_patch(2).graph.n == 19


def test_patch_interior_marking():
    p2 = gen_hex_patch(2)
    assert len(p2.interior_ids()) == 7


def test_delta_sizes():
    assert gen_delta(0).graph.n == 1
    d4 = gen_delta(4)
    assert d4.graph.n == 15 and d4.graph.edge_count == 30
    for m in range(1, 7):
        region = gen_delta(m)
        assert region.graph.n == (m + 1) * (m + 2) // 2
        assert region.graph.n - len(region.interior_ids()) == 3 * m


def test_delta2_has_one_inverted_facet():
    d2 = gen_delta(2)
    down = [
        f
        for f in facets(d2.graph)
        if classify_triangle_coords({d2.coord_of[v] for v in f})[0] == "down"
    ]
    assert len(down) == 1
    assert {d2.coord_of[v] for v in down[0]} == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}


def test_side_of_triangular_sizes():
    assert [side_of(size) for size in (1, 3, 6, 10)] == [0, 1, 2, 3]
    assert [side_of(size) for size in (2, 4, 5)] == [None, None, None]


def test_nabla_shapes():
    n1 = gen_nabla("1")
    assert set(n1.coords) == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}
    n2 = gen_nabla("2")
    assert classify_triangle_coords(set(n2.coords)) == ("down", (2, 2, 2))
    assert n2.graph.n == 6
    n3 = gen_nabla("3")
    assert n3.graph.n == 10
    assert all(max(c) <= 2 for c in n3.coords)
    assert classify_triangle_coords(set(n3.coords)) == ("down", (2, 2, 2))
    n1e = gen_nabla("1e", (1, 0, 0))
    assert set(n1e.coords) == {(2, 1, 0), (1, 1, 1), (2, 0, 1)}
    with pytest.raises(GraphError):
        gen_nabla("1e")
    with pytest.raises(GraphError):
        gen_nabla("7")


def test_triangle_inclusion_maps():
    # a side-m triangle sits in a larger one as the translate of its coordinates
    assert add((1, 1, 0), (0, 0, 0)) == (1, 1, 0)
    image = {add(c, (1, 0, 0)) for c in delta_coords(2)}
    assert image <= set(delta_coords(3))
    assert all(c[0] >= 1 for c in image)
    inner = {add(c, (1, 1, 1)) for c in delta_coords(1)}
    d4 = set(delta_coords(4))
    boundary = {c for c in d4 if min(c) == 0}
    assert inner == d4 - boundary


def test_hex_distance():
    assert hex_distance((0, 0, 0), (2, -1, -1)) == 2
    assert hex_distance((1, 0, -1), (1, 0, -1)) == 0


@pytest.mark.parametrize(
    "m,k,translates,inverted",
    [
        (1, 1, 3, 0),
        (2, 1, 4 - 1, 1),
        (3, 1, 3, 0),
        (2, 2, 6, 0),
        (3, 2, 6, 3),
        (4, 2, 6, 1),
        (5, 2, 6, 0),
    ],
)
def test_inclusion_classification_small(m, k, translates, inverted):
    labels = classify_delta_inclusions(m, k)
    ups = [lab for _, lab in labels if lab[0] == "translate"]
    downs = [lab for _, lab in labels if lab[0] != "translate"]
    assert len(ups) == translates
    assert len(downs) == inverted


def test_inclusion_exceptional_labels():
    labels = dict(classify_delta_inclusions(2, 1))
    down = [lab for lab in labels.values() if lab[0] != "translate"]
    assert down == [("nabla1",)]
    labels = dict(classify_delta_inclusions(3, 2))
    es = sorted(lab[1] for lab in labels.values() if lab[0] == "nabla1e")
    assert es == sorted(BASIS)
    labels = dict(classify_delta_inclusions(4, 2))
    assert ("nabla2",) in labels.values()


def test_lhg_shape():
    lhg = build_lhg()
    assert lhg.graph.n == 17
    assert lhg.graph.has_edge(lhg.origin, lhg.id_of[(6, (2, 2, 2))])


def test_lhg_template_vertex_neighbours():
    lhg = build_lhg()
    vid = lhg.id_of[(0, (-1, 1, 0))]
    nbrs = {lhg.labels[i] for i in lhg.graph.neighbors(vid)}
    assert nbrs == {
        (0, (0, 0, 0)),
        (0, (0, 1, -1)),
        (0, (-1, 0, 1)),
        (2, (1, 1, 0)),
        (2, (0, 2, 0)),
        (2, (0, 1, 1)),
        (4, (1, 2, 1)),
    }


def test_lhg_clique_families():
    lhg = build_lhg()
    found = lhg_cliques_through_origin(lhg)
    assert len(found) == 7
    assert sorted((len(c) for c in found), reverse=True) == [8, 7, 7, 7, 4, 4, 4]
    expected = lhg_expected_cliques()
    big = expected["gap6"]
    assert (6, (2, 2, 2)) in big and all((4, d) in big for d in ((2, 1, 1), (1, 2, 1), (1, 1, 2)))
    assert len(expected["gap2_100"]) == 4
    # the biggest family is exactly the closed neighbourhood of the deep vertex
    deep = lhg.id_of[(6, (2, 2, 2))]
    hood = {lhg.labels[i] for i in lhg.graph.neighbors(deep)} | {(6, (2, 2, 2))}
    assert hood == big


def test_lhg_cliques_match_brute_force():
    lhg = build_lhg()
    brute = [lhg.label_set(c) for c in max_cliques(lhg.graph) if lhg.origin in c]
    assert sorted(brute, key=sorted) == sorted(
        lhg_expected_cliques().values(), key=sorted
    )


def test_fixture_regeneration_is_bit_identical(fixtures_dir):
    regenerated = {
        "delta_4.json": gen_delta(4).graph,
        "nabla_1.json": gen_nabla("1").graph,
        "nabla_1e_100.json": gen_nabla("1e", (1, 0, 0)).graph,
        "nabla_2.json": gen_nabla("2").graph,
        "nabla_3.json": gen_nabla("3").graph,
        "lhg.json": build_lhg().graph,
    }
    for name, graph in regenerated.items():
        assert (fixtures_dir / name).read_text() == graph_to_json(graph)


def test_unit_steps_are_closed_under_negation():
    assert {tuple(-x for x in d) for d in UNIT_STEPS} == set(UNIT_STEPS)
    assert all(sum(d) == 0 for d in UNIT_STEPS)
    assert all(sum(d) == 2 for d in SUM2_OFFSETS)
