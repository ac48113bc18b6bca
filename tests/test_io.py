from __future__ import annotations

import re

import pytest

from cliquedyn.graph import GraphError
from cliquedyn.hexgrid import gen_delta
from cliquedyn.io import (
    edge_list_text,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
    to_dot,
)


def test_json_round_trip_is_byte_identical(octa):
    text = graph_to_json(octa)
    again = graph_to_json(graph_from_json(text))
    assert text == again


def test_json_round_trip_keeps_labels():
    d2 = gen_delta(2)
    g = graph_from_json(graph_to_json(d2.graph))
    assert g.labels is not None
    assert g.labels[d2.id_of[(1, 1, 0)]] == (1, 1, 0)
    assert graph_to_json(g) == graph_to_json(d2.graph)


def test_malformed_json_raises():
    with pytest.raises(GraphError):
        graph_from_json("{not json")
    with pytest.raises(GraphError):
        graph_from_json('{"vertices": [0, 1]}')


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"vertices": [null], "edges": []}', "vertices[0]"),
        ('{"vertices": [0, "1"], "edges": []}', "vertices[1]"),
        ('{"vertices": [0, 1], "edges": [[0, 1], [0]]}', "edges[1]"),
        ('{"vertices": [0, 1], "edges": [[0, 1.5]]}', "edges[0]"),
        ('{"vertices": [0], "edges": [], "labels": {"a": 1}}', "labels key 'a'"),
        ('{"vertices": [0], "edges": [], "labels": [1]}', "labels = [1]"),
        ('{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]], "name": 5}', "name = 5 is not a string"),
    ],
)
def test_malformed_entries_are_named(text, field):
    with pytest.raises(GraphError, match=re.escape(field)):
        graph_from_json(text)


def test_edge_list_round_trip(octa):
    text = edge_list_text(octa)
    g = parse_edge_list(text)
    assert g == octa


def test_edge_list_comments_and_isolated_vertices():
    g = parse_edge_list("# header\n1 2\n7  # isolated\n2 3\n")
    assert g.vertex_set == frozenset({1, 2, 3, 7})
    assert g.degree(7) == 0


def test_edge_list_rejects_junk():
    with pytest.raises(GraphError):
        parse_edge_list("1 2 3\n")
    with pytest.raises(GraphError):
        parse_edge_list("a b\n")


def test_dot_output_mentions_edges(octa):
    dot = to_dot(octa)
    assert dot.startswith("graph")
    assert "0 -- 2;" in dot
