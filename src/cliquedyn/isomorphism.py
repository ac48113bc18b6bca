"""Exact isomorphism testing, canonical hashing, and induced-subgraph search.

The canonical form comes from individualisation-refinement search.  A
partition of the vertices is an ordered list of cells; a vertex's colour is
the index where its cell starts.  Refinement is splitter-queue colour
refinement (Cardon and Crochemore, 1982): a queued cell is a splitter, every
cell is split by its members' neighbour counts in that splitter, the
fragments are placed in count order, and all fragments but the first largest
are queued (all of them when the split cell was itself queued).  The result
is the coarsest equitable partition finer than the input.  The root starts
from one cell; a child starts from its parent's equitable partition with one
vertex of the first non-singleton cell individualised, and only that
singleton as splitter.

Each refinement records a trace: the start, neighbour counts and fragment
sizes of every split, in the order made.  The canonical leaf is the least
(trace sequence, adjacency code) over all discrete leaves, so a child whose
trace exceeds the best leaf's trace at its depth is abandoned mid-refinement
(McKay and Piperno, *Practical graph isomorphism II*, 2014), and automorphisms
found from equal codes prune sibling branches in one orbit.  A leaf whose
code equals the best leaf's also ends the walk below the depth d where the
two leaves' individualised prefixes part: the automorphism between them
fixes that prefix and maps the best leaf's branch at depth d, already
searched, onto the current one, so every leaf left below is the image of
one already seen.  The search is exponential in the worst case but exact;
the graphs handled here (lattice patches, small tori, iterated clique
graphs) keep the tree small.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter, deque
from contextlib import contextmanager
from itertools import chain
from typing import Iterator

from .graph import Graph, memoised

LABELING_BUDGET = 2_000_000  # work units one labeling may spend: vertices + 1 per search node


class BudgetError(RuntimeError):
    """A search or iteration budget was exhausted; the answer is unknown."""


@contextmanager
def recursion_room(depth: int) -> Iterator[None]:
    """Raise the recursion limit by ``depth`` frames inside the block: the
    searches recurse once per vertex they choose, to a depth the input
    bounds, which must not end in ``RecursionError``."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + depth)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class _Partition:
    """An ordered partition of the vertices 0..n-1.

    ``order`` lists the vertices cell by cell, ``cell[v]`` is the index in
    ``order`` where v's cell starts (v's colour) and ``size[s]`` is the size
    of the cell starting at s.
    """

    __slots__ = ("order", "cell", "size")

    def __init__(self, order: list[int], cell: list[int], size: list[int]):
        self.order = order
        self.cell = cell
        self.size = size

    @classmethod
    def unit(cls, n: int) -> _Partition:
        size = [0] * n
        size[0] = n
        return cls(list(range(n)), [0] * n, size)

    def individualised(self, v: int) -> _Partition:
        """A copy with v, which must not be a singleton, split off at the
        front of its cell."""
        s = self.cell[v]
        k = self.size[s]
        order, cell, size = self.order[:], self.cell[:], self.size[:]
        i = order.index(v, s)
        order[i] = order[s]
        order[s] = v
        for u in order[s + 1 : s + k]:
            cell[u] = s + 1
        size[s] = 1
        size[s + 1] = k - 1
        return _Partition(order, cell, size)

    def first_nonsingleton(self) -> int | None:
        size = self.size
        s = 0
        while s < len(size):
            if size[s] > 1:
                return s
            s += size[s]
        return None

    def refine(
        self, adj: list[list[int]], splitters: list[int], bound: list[tuple] | None = None
    ) -> list[tuple] | None:
        """Refine in place to the coarsest equitable partition finer than
        this one, and return the refinement trace.

        ``splitters`` are the starts of the queued cells; the partition must
        be equitable with respect to every other cell.  The trace holds one
        tuple per split: the cell's start, then (count, fragment size) for
        each fragment.  When ``bound`` is given, refinement stops and returns
        None as soon as the trace is known to exceed it.
        """
        order, cell, size = self.order, self.cell, self.size
        trace: list[tuple] = []
        queue = deque(splitters)
        queued = set(splitters)
        while queue:
            s = queue.popleft()
            queued.discard(s)
            if size[s] == 1:
                # a one-vertex splitter counts 1 for each of its neighbours
                counts = None
                reached = adj[order[s]]
            else:
                counts = reached = Counter(chain.from_iterable(adj[w] for w in order[s : s + size[s]]))
            hit: dict[int, list[int]] = {}
            for u in reached:
                c = cell[u]
                if size[c] > 1:
                    hit.setdefault(c, []).append(u)
            for c in sorted(hit):
                touched = hit[c]
                k = size[c]
                if counts is None:
                    # two fragments: the untouched members in cell order,
                    # then the touched ones, which take the new start first
                    # so that the scan for the untouched reads ``cell``
                    t = len(touched)
                    if t == k:
                        continue
                    f = c + k - t
                    for u in touched:
                        cell[u] = f
                    order[c:f] = [u for u in order[c : c + k] if cell[u] == c]
                    order[f : c + k] = touched
                    size[c] = k - t
                    size[f] = t
                    fresh = [f if c in queued or t <= k - t else c]
                    event = (c, 0, k - t, 1, t)
                else:
                    groups: dict[int, list[int]] = {}
                    for u in touched:
                        groups.setdefault(counts[u], []).append(u)
                    if len(touched) < k:
                        groups[0] = [u for u in order[c : c + k] if u not in counts]
                    if len(groups) == 1:
                        continue
                    event = [c]
                    starts = []
                    f = c
                    for key in sorted(groups):
                        frag = groups[key]
                        m = len(frag)
                        order[f : f + m] = frag
                        size[f] = m
                        if f != c:
                            for u in frag:
                                cell[u] = f
                        event += (key, m)
                        starts.append(f)
                        f += m
                    if c in queued:
                        fresh = starts[1:]
                    else:
                        largest = max(starts, key=size.__getitem__)
                        fresh = [f for f in starts if f != largest]
                    event = tuple(event)
                queue.extend(fresh)
                queued.update(fresh)
                trace.append(event)
                if bound is not None:
                    i = len(trace) - 1
                    if i >= len(bound) or event > bound[i]:
                        return None
                    if event < bound[i]:
                        bound = None
        return trace


def _code_from_discrete(adj: list[list[int]], order: list[int], cell: list[int]) -> tuple:
    """The adjacency code of a discrete partition: each position's sorted
    neighbour positions, position by position."""
    at = cell.__getitem__
    return tuple(tuple(sorted(map(at, adj[v]))) for v in order)


class _CanonSearch:
    """Individualisation-refinement search for the least (trace, code) leaf.

    Automorphisms discovered from equal-code leaves prune sibling branches:
    two members of a target cell in one orbit of the subgroup fixing the
    individualised prefix head isomorphic subtrees, so one suffices.  Such
    a leaf also sends the search back to the depth where its prefix parts
    from the best leaf's: the automorphism maps the earlier, fully searched
    branch there onto the current one.  The first least leaf in depth-first
    order is never skipped, since it would be the image of an earlier leaf
    with the same code, so the order found is the one a full walk finds.
    """

    MAX_GENERATORS = 64

    def __init__(self, adj: list[list[int]]):
        self.adj = adj
        self.budget = LABELING_BUDGET
        self.spent = 0
        # the best leaf so far: its code, vertex order, individualised
        # vertices and the traces along its path, one per depth; best is
        # None while no leaf is known to be a candidate for the least one
        self.best: tuple | None = None
        self.best_order: list[int] | None = None
        self.best_fixed: tuple[int, ...] = ()
        self.best_traces: list[list[tuple]] = []
        self.path: list[list[tuple]] = []
        # automorphisms as permutations, without their inverses: a finite
        # permutation's inverse is one of its powers, so an orbit is the
        # closure of a vertex under the generators alone
        self.generators: list[tuple[int, ...]] = []

    def run(self) -> list[int]:
        root = _Partition.unit(len(self.adj))
        self._charge()
        root.refine(self.adj, [0])
        with recursion_room(len(self.adj)):  # one level per individualised vertex
            self._descend(root, ())
        assert self.best_order is not None
        return self.best_order

    def _charge(self) -> None:
        self.spent += len(self.adj) + 1
        if self.spent > self.budget:
            raise BudgetError(
                f"canonical labeling exceeded its budget of {self.budget} "
                f"on a {len(self.adj)}-vertex graph"
            )

    def _descend(self, part: _Partition, fixed: tuple[int, ...]) -> int:
        """Search below ``part`` and return the depth the search goes on at:
        this node's own, or a shallower one after an automorphism leaf."""
        target = part.first_nonsingleton()
        if target is None:
            return self._leaf(part, fixed)
        depth = len(fixed)
        members = part.order[target : target + part.size[target]]
        if self._cell_interchangeable(members):
            members = members[:1]
        branched: set[int] = set()
        for v in members:
            # generators found inside earlier siblings prune later ones:
            # orbit-equivalent individualisations head isomorphic subtrees
            if branched and self._orbit_reaches(v, branched, fixed):
                continue
            branched.add(v)
            self._charge()
            child = part.individualised(v)
            bound = self.best_traces[depth] if self.best is not None else None
            trace = child.refine(self.adj, [target], bound)
            if trace is None:
                continue
            if bound is not None and trace != bound:
                # a smaller trace: every leaf below beats the best so far
                self.best = None
            del self.path[depth:]
            self.path.append(trace)
            back = self._descend(child, fixed + (v,))
            if back < depth:
                return back
        return depth

    def _leaf(self, part: _Partition, fixed: tuple[int, ...]) -> int:
        """Compare the leaf with the best one; return the depth the search
        goes on at: the leaf's own, or after an automorphism leaf the length
        of the prefix it shares with the best leaf."""
        order = part.order
        code = _code_from_discrete(self.adj, order, part.cell)
        if self.best is None or code < self.best:
            self.best = code
            self.best_order = order
            self.best_fixed = fixed
            self.best_traces = list(self.path)
            return len(fixed)
        if code != self.best:
            return len(fixed)
        if len(self.generators) < self.MAX_GENERATORS:
            # equal codes give an automorphism mapping the best leaf onto
            # this one; record it as a pruning generator
            perm = [0] * len(order)
            for i, v in enumerate(self.best_order):
                perm[v] = order[i]
            perm = tuple(perm)
            if perm not in self.generators:
                self.generators.append(perm)
        return next(d for d, (u, w) in enumerate(zip(fixed, self.best_fixed)) if u != w)

    def _cell_interchangeable(self, cell: list[int]) -> bool:
        """True when the cell's members are pairwise swappable by evident
        automorphisms: the cell induces an empty graph, a complete graph, a
        perfect matching, or a complete graph minus a perfect matching, and
        every member sees the same vertices outside the cell.  Swapping two
        members (together with their within-cell partners, if any) then
        extends to an automorphism fixing everything else."""
        members = set(cell)
        k = len(cell)
        inside = {v: members.intersection(self.adj[v]) for v in cell}
        degrees = {len(s) for s in inside.values()}
        if degrees not in ({0}, {1}, {k - 2}, {k - 1}):
            return False
        if degrees in ({1}, {k - 2}) and k % 2:
            return False
        outside_view = None
        for v in cell:
            out = frozenset(w for w in self.adj[v] if w not in members)
            if outside_view is None:
                outside_view = out
            elif out != outside_view:
                return False
        return True

    def _orbit_reaches(
        self, v: int, branched: set[int], fixed: tuple[int, ...]
    ) -> bool:
        """Does v's orbit under the prefix-fixing generators touch a vertex
        already branched at this node?"""
        gens = [perm for perm in self.generators if all(perm[u] == u for u in fixed)]
        if not gens:
            return False
        seen = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for perm in gens:
                w = perm[u]
                if w in branched:
                    return True
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return False


@memoised
def canonical_order(g: Graph) -> tuple[int, ...]:
    """A canonical vertex ordering: isomorphic graphs produce orderings under
    which their relabelled edge sets coincide."""
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    adj = [[idx[w] for w in g.neighbors(v)] for v in verts]
    if not verts:
        return ()
    return tuple(verts[i] for i in _CanonSearch(adj).run())


def canonical_key(g: Graph) -> bytes:
    """``n;`` and the edges as ``i-j`` (i < j) between canonical positions,
    in lexicographic order: each position's later neighbours, sorted, in
    turn."""
    order = canonical_order(g)
    pos = {v: i for i, v in enumerate(order)}
    rows = []
    for i, v in enumerate(order):
        rows.extend(f"{i}-{j}" for j in sorted(pos[w] for w in g.neighbors(v)) if j > i)
    return f"{g.n};{','.join(rows)}".encode()


def canonical_hash(g: Graph) -> str:
    """Digest equal for isomorphic graphs; different digests imply
    non-isomorphism.  Convergence claims must still confirm digest matches
    with :func:`find_isomorphism`."""
    return hashlib.sha256(canonical_key(g)).hexdigest()


def find_isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """An isomorphism g1 -> g2 as a vertex map, or None."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    if canonical_key(g1) != canonical_key(g2):
        return None
    mapping = dict(zip(canonical_order(g1), canonical_order(g2)))
    for u, v in g1.edges():
        if not g2.has_edge(mapping[u], mapping[v]):  # pragma: no cover
            raise AssertionError("canonical order produced an invalid witness")
    return mapping


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None


# -- induced subgraph search -------------------------------------------------


def _pattern_plan(pattern: Graph) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Search order: each vertex after the first lists its already-placed
    neighbours and non-neighbours."""
    verts = list(pattern.vertices)
    if not verts:
        return []
    start = max(verts, key=lambda v: (pattern.degree(v), -v))
    order = [start]
    placed = {start}
    while len(order) < len(verts):
        # prefer the vertex with the most placed neighbours (tight candidates)
        best = max(
            (v for v in verts if v not in placed),
            key=lambda v: (len(pattern.neighbors(v) & placed), pattern.degree(v), -v),
        )
        order.append(best)
        placed.add(best)
    plan = []
    for i, v in enumerate(order):
        before = order[:i]
        nbrs = tuple(w for w in before if pattern.has_edge(v, w))
        nons = tuple(w for w in before if not pattern.has_edge(v, w))
        plan.append((v, nbrs, nons))
    return plan


def induced_embeddings(pattern: Graph, host: Graph) -> Iterator[dict[int, int]]:
    """All injective maps pattern -> host whose image is an induced copy of
    the pattern.  Plain backtracking; used as the independent brute-force
    oracle for lattice classification results."""
    plan = _pattern_plan(pattern)
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def candidates(step: int) -> Iterator[int]:
        v, nbrs, nons = plan[step]
        if nbrs:
            pools = [host.neighbors(assignment[w]) for w in nbrs]
            pool = set(pools[0]).intersection(*pools[1:]) if len(pools) > 1 else set(pools[0])
        else:
            pool = set(host.vertices)
        dv = pattern.degree(v)
        for cand in sorted(pool):
            if cand in used or host.degree(cand) < dv:
                continue
            if any(host.has_edge(cand, assignment[w]) for w in nons):
                continue
            yield cand

    def rec(step: int) -> Iterator[dict[int, int]]:
        if step == len(plan):
            yield dict(assignment)
            return
        v = plan[step][0]
        for cand in candidates(step):
            assignment[v] = cand
            used.add(cand)
            yield from rec(step + 1)
            used.discard(cand)
            del assignment[v]

    yield from rec(0)


def induced_images(pattern: Graph, host: Graph) -> list[frozenset[int]]:
    """Distinct vertex sets of host inducing a copy of the pattern."""
    images = {frozenset(emb.values()) for emb in induced_embeddings(pattern, host)}
    return sorted(images, key=sorted)
