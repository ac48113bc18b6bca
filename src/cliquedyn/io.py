"""Graph serialization: JSON, edge-list text, and DOT export.

The JSON writer is deterministic (sorted keys, fixed separators, trailing
newline, edges in ``Graph.edges`` order), so regenerating any committed
fixture the same way is bit-identical.  It is not canonical: two equal
graphs built from their edges in different orders may serialise
differently.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graph import Graph, GraphError


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
        vertices = list(obj["vertices"])
        edges = list(obj["edges"])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph object: {exc}") from exc
    for i, v in enumerate(vertices):
        if type(v) is not int:
            raise GraphError(f"malformed graph object: vertices[{i}] = {v!r} is not an integer id")
    for i, e in enumerate(edges):
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(type(x) is int for x in e)):
            raise GraphError(f"malformed graph object: edges[{i}] = {e!r} is not an id pair")
    labels = obj.get("labels") or None
    if labels is not None:
        if not isinstance(labels, dict):
            raise GraphError(f"malformed graph object: labels = {labels!r} is not an object")
        labels = {_label_key(k): _freeze_label(v) for k, v in labels.items()}
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise GraphError(f"malformed graph object: name = {name!r} is not a string")
    return Graph(vertices, edges, name=name, labels=labels)


def _label_key(key: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise GraphError(
            f"malformed graph object: labels key {key!r} is not an integer id"
        ) from None


def _freeze_label(value):
    if isinstance(value, list):
        return tuple(_freeze_label(x) for x in value)
    return value


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise GraphError("graph JSON must be an object")
    return graph_from_dict(obj)


def parse_edge_list(text: str) -> Graph:
    """One ``u v`` pair per line; lines with a single token declare an
    isolated vertex; ``#`` starts a comment."""
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
            vertices.update(nums)
            edges.append((nums[0], nums[1]))
        else:
            raise GraphError(f"line {lineno}: expected 1 or 2 ids, got {len(nums)}")
    return Graph(vertices, edges)


def edge_list_text(g: Graph) -> str:
    lines = [f"# {g.name}"] if g.name else []
    touched = set()
    for u, v in g.edges():
        touched.add(u)
        touched.add(v)
        lines.append(f"{u} {v}")
    for v in g.vertices:
        if v not in touched:
            lines.append(str(v))
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    name = g.name or "G"
    lines = [f'graph "{name}" {{']
    for v in g.vertices:
        if g.labels and v in g.labels:
            lines.append(f'  {v} [label="{g.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path) -> Graph:
    """Load a graph from a ``.json`` or edge-list file, by extension."""
    p = Path(path)
    try:
        text = p.read_text()
    except UnicodeDecodeError as exc:
        raise GraphError(f"graph file {path} is not UTF-8 text: {exc}") from None
    if p.suffix == ".json":
        return graph_from_json(text)
    return parse_edge_list(text)
