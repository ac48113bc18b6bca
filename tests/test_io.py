from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedyn.graph import Graph, GraphError
from cliquedyn.hexgrid import gen_delta
from cliquedyn.io import (
    edge_list_text,
    graph_from_dict,
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
        # only the canonical decimal names an id, so no label is silently lost
        (
            '{"vertices": [1, 10], "edges": [[1, 10]], "labels": {"1": "a", "01": "b", "1_0": "c"}}',
            "labels key '01' is not a canonical integer id",
        ),
        ('{"vertices": [10], "edges": [], "labels": {"1_0": 1}}', "labels key '1_0'"),
        ('{"vertices": [0], "edges": [], "labels": {" 0 ": 1}}', "labels key ' 0 '"),
        ('{"vertices": [0], "edges": [], "labels": {"-0": 1}}', "labels key '-0'"),
        ('{"vertices": [0], "edges": [], "labels": [1]}', "labels = [1]"),
        ('{"vertices": [0], "edges": [], "labels": 0}', "labels = 0 is not an object"),
        ('{"vertices": [0], "edges": [], "labels": []}', "labels = [] is not an object"),
        ('{"vertices": [0], "edges": [], "labels": ""}', "labels = '' is not an object"),
        ('{"vertices": [0], "edges": [], "labels": false}', "labels = False is not an object"),
        ('{"vertices": [0], "edges": [], "labels": {"5": "x"}}', "labels key '5' names no vertex"),
        ('{"vertices": [0, 2], "edges": [], "labels": {"2": 1, "1": 1}}', "labels key '1' names"),
        # plain json keeps the last of two equal keys, silently losing the first
        ('{"vertices": [1], "edges": [], "labels": {"1": "a", "1": "b"}}', "repeated key '1'"),
        ('{"vertices": [1], "edges": [], "vertices": [2]}', "repeated key 'vertices'"),
        (
            '{"vertices": [1], "edges": [], "labels": {"1": {"x": 0, "y": 1, "x": 2}}}',
            "repeated key 'x' in a JSON object",
        ),
        ('{"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]], "name": 5}', "name = 5 is not a string"),
    ],
)
def test_malformed_entries_are_named(text, field):
    with pytest.raises(GraphError, match=re.escape(field)):
        graph_from_json(text)


SMALL_IDS = st.integers(-2, 5)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_IDS | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# id lists and lists of id pairs, some with arbitrary JSON values mixed in
ID_LISTS = st.lists(SMALL_IDS, max_size=8) | st.lists(SMALL_IDS | JSON_VALUES, max_size=6)
ID_PAIRS = st.lists(SMALL_IDS, min_size=2, max_size=2)
EDGE_LISTS = st.lists(ID_PAIRS, max_size=6) | st.lists(ID_PAIRS | JSON_VALUES, max_size=6)
LABELS = st.dictionaries(SMALL_IDS.map(str) | st.text(max_size=3), JSON_VALUES, max_size=3)
FIELDS = {
    "vertices": ID_LISTS | JSON_VALUES,
    "edges": EDGE_LISTS | JSON_VALUES,
    "labels": LABELS | JSON_VALUES,
    "name": st.text(max_size=4) | JSON_VALUES,
}


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({}, optional=FIELDS))
def test_the_json_reader_raises_only_short_graph_errors(obj):
    try:
        graph_from_json(json.dumps(obj))
    except GraphError as exc:
        assert len(str(exc)) <= 200


@settings(max_examples=100, deadline=None)
@given(ID_LISTS, EDGE_LISTS)
def test_the_dict_reader_agrees_with_the_model(vertices, edges):
    """Vertex and edge lists are checked by ``Graph`` alone."""
    try:
        expected = Graph(vertices, edges)
    except GraphError:
        expected = None
    try:
        got = graph_from_dict({"vertices": vertices, "edges": edges})
    except GraphError:
        got = None
    assert got == expected


BULK = list(range(10_000))


@pytest.mark.parametrize(
    "build",
    [
        lambda: graph_from_dict({"vertices": [BULK], "edges": []}),
        lambda: graph_from_dict({"vertices": [0, 1], "edges": [BULK]}),
        lambda: graph_from_dict({"vertices": [0], "edges": [], "labels": BULK}),
        lambda: graph_from_dict({"vertices": [0], "edges": [], "name": BULK}),
        lambda: graph_from_dict({"vertices": [0], "edges": [], "labels": {"1" * 10_000: 1}}),
        lambda: graph_from_json('{"' + "k" * 10_000 + '": 1, "' + "k" * 10_000 + '": 2}'),
        lambda: Graph([BULK]),
        lambda: Graph([0], [BULK]),
        lambda: Graph([0], [(0, [BULK] * 100)]),
    ],
    ids=["vertex", "edge", "labels", "name", "label-key", "repeated-key", "id", "pair", "endpoint"],
)
def test_input_errors_quote_a_bulky_value_briefly(build):
    """An error names the malformed entry without echoing all of it."""
    with pytest.raises(GraphError) as info:
        build()
    assert len(str(info.value)) <= 200


def test_edge_list_round_trip(octa):
    text = edge_list_text(octa)
    g = parse_edge_list(text)
    assert g == octa


@pytest.mark.parametrize("name", ["a\n5 6", "a\r\n5 6\n", "\n\n7", "x # y"])
def test_edge_list_round_trip_with_a_multi_line_name(name):
    """Every line of the name is a comment, so none reads back as an edge
    or a vertex."""
    g = Graph([0, 1, 2], [(0, 1)], name=name)
    assert parse_edge_list(edge_list_text(g)) == g


def test_edge_list_comments_and_isolated_vertices():
    g = parse_edge_list("# header\n1 2\n7  # isolated\n2 3\n")
    assert g.vertex_set == frozenset({1, 2, 3, 7})
    assert g.degree(7) == 0


def test_edge_list_rejects_junk():
    with pytest.raises(GraphError):
        parse_edge_list("1 2 3\n")
    with pytest.raises(GraphError):
        parse_edge_list("a b\n")
    with pytest.raises(GraphError, match="line 3: self-loop at vertex 1"):
        parse_edge_list("0 1\n# c\n1 1\n")


def test_dot_output_mentions_edges(octa):
    dot = to_dot(octa)
    assert dot.startswith("graph")
    assert "0 -- 2;" in dot


def test_dot_output_escapes_quotes_and_backslashes():
    g = Graph([0, 1, 2], [(0, 1)], name='a"b\\', labels={0: 'x"y', 1: "p\\q", 2: (1, 2)})
    lines = to_dot(g).splitlines()
    assert lines[:4] == [
        'graph "a\\"b\\\\" {',
        '  0 [label="x\\"y"];',
        '  1 [label="p\\\\q"];',
        '  2 [label="(1, 2)"];',
    ]


@pytest.mark.parametrize("depth", [900, 100_000])
def test_deeply_nested_labels_are_input_errors(depth):
    """The JSON parser and the label reader both recurse once per level."""
    label = "[" * depth + "]" * depth
    text = '{"vertices": [0], "edges": [], "labels": {"0": ' + label + "}}"
    with pytest.raises(GraphError, match="too deeply|recursion depth"):
        graph_from_json(text)
