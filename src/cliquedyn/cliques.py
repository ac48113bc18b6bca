"""Maximal clique enumeration, the clique graph, and iterated application.

Enumeration is Bron-Kerbosch with pivoting, with a hard cap on explored
search nodes; the iteration loop additionally caps the vertex count of
each iterate.  Divergent inputs grow without bound, so hitting a budget
is a first-class verdict rather than an error.

The pivot is the least vertex of P | X with the most neighbours in P
(Tomita et al. 2006), and the children are the vertices of P outside the
pivot's neighbourhood, in ascending order.  At the root P is every vertex,
so the root runs on sets: its pivot is the least vertex of largest degree.
Below it the search runs on bit masks (San Segundo et al. 2011) over a
frame, the closed neighbourhoods of a run of consecutive root children
grown until it holds more than ``FRAME_BITS`` vertices.  Frame vertex i is
bit i in ascending id order, and P, X and each neighbourhood within the
frame are Python ``int``s.  A mask is thus at most ``FRAME_BITS`` plus one
closed neighbourhood wide, however large the graph: a node costs
O(width / 30) digit operations, and building a frame costs about the sum
of its vertices' degrees.  Where nearby ids are neighbours, as in clique
graphs, whose cliques are numbered in sorted order, one frame serves many
children; where they are not and each child's search is a node or two (a
relabelled 6-regular torus, a star), the set search was faster.  Every call
counts as one search node, charged against ``NODE_BUDGET`` on entry, and
``clique_cap`` is checked as each clique is found, so the tree, the node
counts and the point where a budget trips are those of the set-based
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .graph import Graph, GraphError
from .isomorphism import BudgetError, canonical_hash, find_isomorphism, recursion_room

DEFAULT_VERTEX_BUDGET = 500_000
NODE_BUDGET = 10_000_000
FRAME_BITS = 256


def max_cliques(g: Graph, clique_cap: int | None = None) -> list[frozenset[int]]:
    """All maximal cliques, duplicate-free, sorted by their member lists.

    ``clique_cap`` bounds the number of cliques collected, so enumerations
    whose output alone would exhaust memory fail fast with a budget signal.
    """
    out: list[frozenset[int]] = []
    node_budget = NODE_BUDGET
    spent = 0
    # the current frame, ascending, and each member's neighbours in it as a
    # mask over those positions
    us: list[int] = []
    nb: list[int] = []

    def expand(r: list[int], p: int, x: int) -> None:
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise BudgetError(f"clique search exceeded {node_budget} nodes")
        if not p and not x:
            out.append(frozenset(r))
            if clique_cap is not None and len(out) > clique_cap:
                raise BudgetError(f"more than {clique_cap} maximal cliques")
            return
        # pivot: the least position with the most neighbours in p; none has
        # more than all of p, so the scan stops at the first that has them
        best, most = -1, p.bit_count()
        rest = p | x
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            count = (p & nb[u]).bit_count()
            if count > best:
                best, pivot = count, u
                if count == most:
                    break
            rest ^= low
        todo = p & ~nb[pivot]
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            expand(r + [us[v]], p & nb[v], x & nb[v])
            p ^= low
            x |= low
            todo ^= low

    if not g.n:  # k of the empty graph is empty: report no clique, not the empty set
        return out
    # the root, where p is every vertex and x is empty, runs on sets
    spent = 1
    if spent > node_budget:
        raise BudgetError(f"clique search exceeded {node_budget} nodes")
    adj = g._adj
    pivot = max(g.vertices, key=lambda u: len(adj[u]))  # the least of most degree
    skip = adj[pivot]
    kids = [v for v in g.vertices if v not in skip]
    start = 0
    # expand recurses once per clique member, and a clique has at most the
    # pivot's degree plus one members
    with recursion_room(len(skip) + 1):
        while start < len(kids):
            # the next frame: closed neighbourhoods of children, until it is full
            frame: set[int] = set()
            end = start
            while end < len(kids) and len(frame) <= FRAME_BITS:
                frame |= adj[kids[end]]
                frame.add(kids[end])
                end += 1
            us = sorted(frame)
            bit = {u: 1 << i for i, u in enumerate(us)}
            nb = [sum(map(bit.__getitem__, adj[u] & frame)) for u in us]  # sum of distinct bits
            first = kids[start]  # the children before it are done: they join x
            done = sum(bit[u] for u in us if u < first and u not in skip)
            for v in kids[start:end]:
                nv = nb[bit[v].bit_length() - 1]
                expand([v], nv & ~done, nv & done)
                done |= bit[v]
            start = end
    out.sort(key=sorted)
    return out


def intersection_edges(sets: Iterable[Iterable[int]]) -> set[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, of the sets that share a member:
    the edge rule of the clique graph."""
    holders: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        for v in s:
            holders.setdefault(v, []).append(i)
    edges: set[tuple[int, int]] = set()
    for ids in holders.values():
        edges.update(combinations(ids, 2))
    return edges


def clique_graph(g: Graph, clique_cap: int | None = None) -> Graph:
    """Graph on the maximal cliques of ``g``, adjacent when they intersect.

    The member list of each clique is recorded in the result's labels so
    clique vertices stay traceable to their supports.
    """
    cliques = max_cliques(g, clique_cap)
    return Graph(
        range(len(cliques)),
        intersection_edges(cliques),
        name=f"k({g.name})" if g.name else "",
        labels={i: tuple(sorted(c)) for i, c in enumerate(cliques)},
    )


@dataclass(frozen=True)
class TraceStep:
    n: int
    vertices: int
    edges: int
    digest: str

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": self.vertices,
            "edges": self.edges,
            "digest": self.digest,
        }


@dataclass
class IterationTrace:
    steps: list[TraceStep]
    verdict: str  # "converged" | "budget_exceeded" | "diverging_evidence"
    converged_at: int | None = None
    period: int | None = None
    detail: str = ""
    graphs: list[Graph] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        out = {
            "steps": [s.to_dict() for s in self.steps],
            "verdict": self.verdict,
        }
        if self.verdict == "converged":
            out["n"] = self.converged_at
            out["period"] = self.period
        if self.detail:
            out["detail"] = self.detail
        return out


def iterate_k(
    g: Graph, max_steps: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> IterationTrace:
    """Apply the clique graph operator repeatedly.

    Convergence is declared only after an isomorphic repeat is confirmed
    exactly; digests over all previous iterates catch periodic behaviour,
    not just fixed points.
    """
    if max_steps < 0:
        raise GraphError(f"number of steps must be non-negative, got {max_steps}")
    if vertex_budget < 0:
        raise GraphError(f"vertex budget must be non-negative, got {vertex_budget}")
    steps: list[TraceStep] = []
    graphs: list[Graph] = [g]
    seen: dict[str, list[int]] = {}
    current = g
    try:
        for n in range(max_steps + 1):
            digest = canonical_hash(current)
            repeats = [
                earlier
                for earlier in seen.get(digest, ())
                if find_isomorphism(graphs[earlier], current) is not None
            ]
            steps.append(TraceStep(n, current.n, current.edge_count, digest))
            if repeats:
                return IterationTrace(
                    steps,
                    "converged",
                    converged_at=repeats[0],
                    period=n - repeats[0],
                    graphs=graphs,
                )
            seen.setdefault(digest, []).append(n)
            if n == max_steps:
                break
            # more than vertex_budget cliques raise BudgetError
            current = clique_graph(current, clique_cap=vertex_budget)
            graphs.append(current)
    except BudgetError as exc:
        # steps holds the iterates already labeled, so this names the one
        # being built or labeled when the budget ran out
        detail = f"iterate {len(steps)}: {exc}"
        return IterationTrace(steps, "budget_exceeded", detail=detail, graphs=graphs)
    return IterationTrace(steps, "diverging_evidence", graphs=graphs)
