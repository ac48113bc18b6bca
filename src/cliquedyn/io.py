"""Graph serialization: JSON, edge-list text, and DOT export.

The JSON writer is deterministic (sorted keys, fixed separators, trailing
newline, edges in ``Graph.edges`` order), so regenerating any committed
fixture the same way is bit-identical.  It is not canonical: two equal
graphs built from their edges in different orders may serialise
differently.

Reading JSON checks only its syntax (arrays, canonical label keys, a string
name); ``Graph.__init__`` is the one checker of ids, edges and label keys.
Of several faults the first syntax fault (vertices, edges, labels, name) is
named, else the first bad vertex, else edge, else label key.  ``read_file``
reads every graph or ball file and names the file in each error it raises.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Callable

from .graph import Graph, GraphError, brief_repr


def graph_to_dict(g: Graph) -> dict:
    out: dict = {
        "name": g.name,
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges()],
    }
    if g.labels:
        out["labels"] = {str(v): g.labels[v] for v in sorted(g.labels)}
    return out


def graph_to_json(g: Graph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True, separators=(",", ":")) + "\n"


def graph_from_dict(obj: dict) -> Graph:
    """Build a graph from its JSON object, naming the first malformed entry."""
    try:
        for key in ("vertices", "edges"):
            if not isinstance(obj.get(key), list):
                raise GraphError(f"{key} = {brief_repr(obj.get(key))} is not an array")
        labels = obj.get("labels", {})
        if not isinstance(labels, dict):
            raise GraphError(f"labels = {brief_repr(labels)} is not an object")
        try:
            labels = {id_key(k): _freeze_label(v) for k, v in labels.items()}
        except ValueError as exc:
            raise GraphError(f"labels {exc}") from None
        except RecursionError:
            raise GraphError("labels nest too deeply") from None
        name = obj.get("name", "")
        if not isinstance(name, str):
            raise GraphError(f"name = {brief_repr(name)} is not a string")
        return Graph(obj["vertices"], obj["edges"], name=name, labels=labels)
    except GraphError as exc:
        raise type(exc)(f"malformed graph object: {exc}") from None


def id_key(key: str) -> int:
    """The vertex id a JSON object key spells, raising ValueError unless the
    key is its canonical decimal ``str(v)``: ``"01"``, ``"1_0"`` and ``" 1 "``
    are refused, so no two keys name one id."""
    try:
        v = int(key)
    except ValueError:
        v = None
    if v is None or str(v) != key:
        raise ValueError(f"key {brief_repr(key)} is not a canonical integer id")
    return v


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for the ``json`` readers: the object of
    ``pairs``, raising ``GraphError`` on a repeated key, which plain
    ``json`` would resolve silently to its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise GraphError(f"repeated key {brief_repr(key)} in a JSON object")
    return obj


def _freeze_label(value):
    if isinstance(value, list):
        return tuple(_freeze_label(x) for x in value)
    return value


def json_object(text: str) -> dict:
    """The JSON object ``text`` spells, with no key repeated (``unique_keys``)."""
    try:
        obj = json.loads(text, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"text is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise GraphError("text is not a JSON object")
    return obj


def graph_from_json(text: str) -> Graph:
    obj = json_object(text)
    del text  # the graph is built without the file text held alive
    return graph_from_dict(obj)


def parse_edge_list(text: str) -> Graph:
    """One ``u v`` pair per line; lines with a single token declare an
    isolated vertex; ``#`` starts a comment.  A self-loop is named by its line."""
    vertices: set[int] = set()
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError as exc:
            raise GraphError(f"line {lineno}: {exc}") from exc
        if len(nums) == 1:
            vertices.add(nums[0])
        elif len(nums) == 2:
            if nums[0] == nums[1]:
                raise GraphError(f"line {lineno}: self-loop at vertex {nums[0]}")
            vertices.update(nums)
            edges.append((nums[0], nums[1]))
        else:
            raise GraphError(f"line {lineno}: expected 1 or 2 ids, got {len(nums)}")
    return Graph(vertices, edges)


def edge_list_text(g: Graph) -> str:
    # every line of the name is a comment, so none of them reads back as data
    lines = [f"# {line}" for line in g.name.splitlines()]
    touched = set()
    for u, v in g.edges():
        touched.add(u)
        touched.add(v)
        lines.append(f"{u} {v}")
    for v in g.vertices:
        if v not in touched:
            lines.append(str(v))
    return "\n".join(lines) + "\n"


def _dot_string(value) -> str:
    """``str(value)`` as a DOT quoted string, backslashes and quotes escaped."""
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph) -> str:
    lines = [f"graph {_dot_string(g.name or 'G')} {{"]
    for v in g.vertices:
        if g.labels and v in g.labels:
            lines.append(f"  {v} [label={_dot_string(g.labels[v])}];")
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_file(path: str | Path, kind: str, parse: Callable[[str], object]):
    """``parse`` of the text in the file at ``path``; each input error it
    raises names the file as ``{kind} file {path}``."""
    try:
        return parse(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise GraphError(f"{kind} file {path} is not UTF-8 text: {exc}") from None
    except GraphError as exc:
        raise type(exc)(f"{kind} file {path}: {exc}") from None


def load_graph(path: str | Path) -> Graph:
    """Load a graph from a ``.json`` or edge-list file, by extension."""
    parse = graph_from_json if Path(path).suffix == ".json" else parse_edge_list
    return read_file(path, "graph", parse)
