"""Immutable simple-graph data model.

Graphs are frozen after construction and all operations here are pure
functions, so values can be shared freely.  Data derived from a graph's
structure alone can never go stale, so it is kept on the graph itself, and
``memoised`` is the one way to keep it: connectivity, the hash, the surface
report, the edge links and facets, boundary distances, chart lists and the
canonical order.
Vertex ids are opaque integers; an id of any other type (``bool``,
``float`` and ``str`` included) is rejected, not converted.  Generator
metadata (for example lattice coordinates) travels in the optional
``labels`` mapping, which every structural operation ignores.
``Graph.__init__`` is the one checker of ids, edges and label keys, for every
caller and file format; it names the first bad ``vertices[i]``, ``edges[i]`` or key.
"""

from __future__ import annotations

import functools
import reprlib
from typing import Callable, Iterable, Iterator, Mapping


class GraphError(ValueError):
    """Malformed graph or invalid graph operation."""


class UnknownVertexError(GraphError):
    """A vertex id that does not belong to the graph."""


class _BriefRepr(reprlib.Repr):
    """``repr`` for quoting input values in error messages: reprlib's limits
    on each container, string and nesting level, and at most 80 characters
    in all, so a malformed value is named without its bulk."""

    def repr(self, x) -> str:
        text = super().repr(x)
        return text if len(text) <= 80 else text[:77] + "..."


brief_repr = _BriefRepr().repr


def memoised(derive: Callable) -> Callable:
    """``derive(g, *args)``, computed once per graph and positional
    arguments and stored on ``g``; the stored value is shared, so callers
    must not modify it.  Every argument is part of the key, so a keyword
    argument is a ``TypeError``.  A call that raises stores nothing."""

    @functools.wraps(derive)
    def lookup(g, /, *args):
        key = (derive, *args) if args else derive
        try:
            return g._memo[key]
        except KeyError:
            pass  # derived outside the handler, so its errors carry no KeyError context
        value = g._memo[key] = derive(g, *args)
        return value

    return lookup


class Graph:
    """A finite undirected simple graph."""

    __slots__ = ("name", "labels", "_adj", "_vertices", "_edge_count", "_memo")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
        name: str = "",
        labels: Mapping[int, object] | None = None,
    ):
        vs = list(vertices)
        for i, v in enumerate(vs):
            if type(v) is not int:
                raise GraphError(f"vertices[{i}] = {brief_repr(v)} is not an integer id")
        adj: dict[int, set[int]] = {v: set() for v in sorted(set(vs))}
        m = 0
        for i, e in enumerate(edges):
            try:
                u, v = e
            except (TypeError, ValueError):
                u = v = None
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"edges[{i}] = {brief_repr(e)} is not a pair of integer ids")
            if u == v:
                raise GraphError(f"edges[{i}] = {brief_repr(e)} is a self-loop")
            if u not in adj or v not in adj:
                raise UnknownVertexError(f"edges[{i}] = {brief_repr(e)} uses an unknown vertex")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        for k in labels or ():
            if type(k) is not int or k not in adj:
                raise GraphError(f"labels key {brief_repr(str(k))} names no vertex")
        self._adj: dict[int, frozenset[int]] = {v: frozenset(ns) for v, ns in adj.items()}
        self._vertices: tuple[int, ...] = tuple(adj)
        self._edge_count = m
        self.name = name
        self.labels = dict(labels) if labels else None
        self._memo: dict[object, object] = {}  # see ``memoised``

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

    @memoised
    def is_connected(self) -> bool:
        seen = set(self._vertices[:1])
        stack = list(seen)
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._vertices)

    # -- structural equality (name and labels excluded) -------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    @memoised
    def __hash__(self) -> int:
        return hash((self._vertices, tuple(sorted(self.edges()))))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.edge_count}>"


# -- operations ------------------------------------------------------------


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """The subgraph induced on vertex set ``s``, unlabelled.

    A subgraph of a simple graph is simple, so the checks of
    ``Graph.__init__`` cannot fire here: the adjacency is cut straight out
    of ``g``'s.  This is the one place that builds a graph without them."""
    ss = frozenset(s)
    adj = g._adj
    for v in ss:
        if v not in adj:
            raise UnknownVertexError(f"unknown vertex {v}")
    h = Graph.__new__(Graph)
    h._vertices = tuple(sorted(ss))
    h._adj = {v: adj[v] & ss for v in h._vertices}
    h._edge_count = sum(map(len, h._adj.values())) // 2
    h.name = g.name
    h.labels = None
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

