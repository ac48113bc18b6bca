"""Immutable simple-graph data model.

Graphs are frozen after construction and all operations here are pure
functions, so values can be shared freely.  Data derived from a graph's
structure alone is memoised on the graph itself, since it can never go
stale: connectivity, the surface report, boundary distances, chart lists
and the canonical order.
Vertex ids are opaque integers; an id of any other type (``bool``,
``float`` and ``str`` included) is rejected, not converted.  Generator
metadata (for example lattice coordinates) travels in the optional
``labels`` mapping, which every structural operation ignores.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class GraphError(ValueError):
    """Malformed graph or invalid graph operation."""


class UnknownVertexError(GraphError):
    """A vertex id that does not belong to the graph."""


class Graph:
    """A finite undirected simple graph."""

    __slots__ = ("name", "labels", "_adj", "_vertices", "_edge_count", "_hash", "_memo")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
        name: str = "",
        labels: Mapping[int, object] | None = None,
    ):
        vs = list(vertices)
        for v in vs:
            if type(v) is not int:
                raise GraphError(f"vertex id {v!r} is not an integer")
        vs = sorted(set(vs))
        adj: dict[int, set[int]] = {v: set() for v in vs}
        m = 0
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edge ({u!r},{v!r}) has an endpoint that is not an integer id")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise UnknownVertexError(f"edge ({u},{v}) uses an unknown vertex")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self._adj: dict[int, frozenset[int]] = {v: frozenset(ns) for v, ns in adj.items()}
        self._vertices: tuple[int, ...] = tuple(vs)
        self._edge_count = m
        self.name = name
        self.labels = dict(labels) if labels else None
        self._hash: int | None = None
        # derived data computed once per graph, keyed by the deriving function
        self._memo: dict[str, object] = {}

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self._vertices)

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._vertices)

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        if u not in self._adj:
            raise UnknownVertexError(f"unknown vertex {u}")
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as pairs (u, v) with u < v, by increasing u; the v of one u
        come in the iteration order of its neighbour set, which depends on
        the order the edges were given in, so equal graphs may list them
        differently."""
        for u in self._vertices:
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def min_degree(self) -> int:
        return min((len(ns) for ns in self._adj.values()), default=0)

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def is_connected(self) -> bool:
        if "connected" not in self._memo:
            seen = set(self._vertices[:1])
            stack = list(seen)
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            self._memo["connected"] = len(seen) == len(self._vertices)
        return self._memo["connected"]

    # -- structural equality (name and labels excluded) -------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vertices, tuple(sorted(self.edges()))))
        return self._hash

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.edge_count}>"


# -- operations ------------------------------------------------------------


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """The subgraph induced on vertex set ``s``.

    A subgraph of a simple graph is simple, so the checks of
    ``Graph.__init__`` cannot fire here: the adjacency is cut straight out
    of ``g``'s.  This is the one place that builds a graph without them."""
    ss = frozenset(s)
    adj, labels = g._adj, g.labels
    for v in ss:
        if v not in adj:
            raise UnknownVertexError(f"unknown vertex {v}")
    h = Graph.__new__(Graph)
    h._vertices = tuple(sorted(ss))
    h._adj = {v: adj[v] & ss for v in h._vertices}
    h._edge_count = sum(map(len, h._adj.values())) // 2
    h.name = g.name
    h.labels = None
    if labels:
        h.labels = {v: labels[v] for v in h._vertices if v in labels} or None
    h._hash = None
    h._memo = {}
    return h


def closed_neighbourhood(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """``s`` together with every vertex adjacent to some member of ``s``."""
    ss = frozenset(s)
    out = set(ss)
    for v in ss:
        out |= g.neighbors(v)
    return frozenset(out)


def common_neighbourhood(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """``s`` together with the vertices adjacent to every member of ``s``.

    The members of ``s`` belong to the result even when they are not
    adjacent to each other.
    """
    ss = frozenset(s)
    if not ss:
        raise GraphError("common neighbourhood of an empty set is undefined")
    it = iter(ss)
    acc = set(g.neighbors(next(it)))
    for v in it:
        acc &= g.neighbors(v)
    return frozenset(acc | ss)

