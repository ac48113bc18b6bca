"""Exact isomorphism testing, canonical hashing, and induced-subgraph search.

The canonical form is computed by colour refinement plus individualisation
backtracking, taking the lexicographically least adjacency code over all
refinement leaves.  That is exponential in the worst case but exact; the
graphs handled here (lattice patches, small tori, iterated clique graphs)
refine almost to discrete partitions, so the tree stays tiny.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from .graph import Graph

DEFAULT_BUDGET = 2_000_000


class BudgetError(RuntimeError):
    """A search or iteration budget was exhausted; the answer is unknown."""


# alias so that existing imports of the labeling layer's name keep working
BudgetExceededError = BudgetError


def _refine(adj: list[list[int]], colors: list[int]) -> list[int]:
    """Colour refinement to a stable (equitable) partition."""
    n = len(adj)
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v])))
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[sig[v]] for v in range(n)]
        if new == colors:
            return new
        colors = new


def _first_splittable_cell(colors: list[int]) -> list[int] | None:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    for c in sorted(cells):
        if len(cells[c]) > 1:
            return cells[c]
    return None


def _code_from_discrete(adj: list[list[int]], colors: list[int]) -> tuple:
    order = sorted(range(len(adj)), key=colors.__getitem__)
    pos = {v: i for i, v in enumerate(order)}
    edges = sorted(
        (pos[u], pos[w]) if pos[u] < pos[w] else (pos[w], pos[u])
        for u in range(len(adj))
        for w in adj[u]
        if u < w
    )
    return (tuple(edges), order)


class _CanonSearch:
    """Individualisation-refinement search for the least adjacency code.

    Automorphisms discovered from equal-code leaves prune sibling branches:
    two members of a target cell in one orbit of the subgroup fixing the
    individualised prefix head isomorphic subtrees, so one suffices.
    """

    MAX_GENERATORS = 64

    def __init__(self, adj: list[list[int]], budget: int):
        self.adj = adj
        self.budget = budget
        self.spent = 0
        self.best: tuple | None = None
        self.best_order: list[int] | None = None
        # pairs (permutation, inverse permutation)
        self.generators: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def run(self) -> list[int]:
        n = len(self.adj)
        self._descend(_refine(self.adj, [0] * n), ())
        assert self.best_order is not None
        return self.best_order

    def _descend(self, colors: list[int], fixed: tuple[int, ...]) -> None:
        self.spent += len(self.adj) + 1
        if self.spent > self.budget:
            raise BudgetError("canonical labeling budget exceeded")
        cell = _first_splittable_cell(colors)
        if cell is None:
            code, order = _code_from_discrete(self.adj, colors)
            if self.best is None or code < self.best:
                self.best = code
                self.best_order = order
            elif code == self.best and len(self.generators) < self.MAX_GENERATORS:
                # equal codes give an automorphism mapping the best leaf onto
                # this one; record it as a pruning generator
                perm = [0] * len(order)
                for i, v in enumerate(self.best_order):
                    perm[v] = order[i]
                if any(perm[v] != v for v in range(len(perm))):
                    inv = [0] * len(perm)
                    for v, w in enumerate(perm):
                        inv[w] = v
                    pair = (tuple(perm), tuple(inv))
                    if pair not in self.generators:
                        self.generators.append(pair)
            return
        base = max(colors) + 1
        members = cell if not self._cell_interchangeable(cell) else cell[:1]
        branched: set[int] = set()
        for v in members:
            # generators found inside earlier siblings prune later ones:
            # orbit-equivalent individualisations head isomorphic subtrees
            if branched and self._orbit_reaches(v, branched, fixed):
                continue
            branched.add(v)
            child = list(colors)
            child[v] = base
            self._descend(_refine(self.adj, child), fixed + (v,))

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
        gens = [gp for gp in self.generators if all(gp[0][u] == u for u in fixed)]
        if not gens:
            return False
        seen = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for perm, inv in gens:
                for w in (perm[u], inv[u]):
                    if w in branched:
                        return True
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
        return False


def canonical_order(g: Graph, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """A canonical vertex ordering: isomorphic graphs produce orderings under
    which their relabelled edge sets coincide.

    Computed once per graph; a later call returns the stored order without
    checking ``budget`` again."""
    if "canonical_order" in g._memo:
        return g._memo["canonical_order"]
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    adj = [[idx[w] for w in g.neighbors(v)] for v in verts]
    if not verts:
        return ()
    order = tuple(verts[i] for i in _CanonSearch(adj, budget).run())
    g._memo["canonical_order"] = order
    return order


def canonical_key(g: Graph, budget: int = DEFAULT_BUDGET) -> bytes:
    order = canonical_order(g, budget)
    pos = {v: i for i, v in enumerate(order)}
    edges = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges())
    payload = f"{g.n};" + ",".join(f"{u}-{v}" for u, v in edges)
    return payload.encode()


def canonical_hash(g: Graph, budget: int = DEFAULT_BUDGET) -> str:
    """Digest equal for isomorphic graphs; different digests imply
    non-isomorphism.  Convergence claims must still confirm digest matches
    with :func:`find_isomorphism`."""
    return hashlib.sha256(canonical_key(g, budget)).hexdigest()


def find_isomorphism(
    g1: Graph, g2: Graph, budget: int = DEFAULT_BUDGET
) -> dict[int, int] | None:
    """An isomorphism g1 -> g2 as a vertex map, or None."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    if canonical_key(g1, budget) != canonical_key(g2, budget):
        return None
    mapping = dict(zip(canonical_order(g1), canonical_order(g2)))
    for u, v in g1.edges():
        if not g2.has_edge(mapping[u], mapping[v]):  # pragma: no cover
            raise AssertionError("canonical order produced an invalid witness")
    return mapping


def is_isomorphic(g1: Graph, g2: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    return find_isomorphism(g1, g2, budget) is not None


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


def induced_embeddings(
    pattern: Graph, host: Graph, limit: int | None = None
) -> Iterator[dict[int, int]]:
    """All injective maps pattern -> host whose image is an induced copy of
    the pattern.  Plain backtracking; used as the independent brute-force
    oracle for lattice classification results."""
    plan = _pattern_plan(pattern)
    if not plan:
        yield {}
        return
    count = 0
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
        nonlocal count
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

    for emb in rec(0):
        yield emb
        count += 1
        if limit is not None and count >= limit:
            return


def induced_images(pattern: Graph, host: Graph) -> list[frozenset[int]]:
    """Distinct vertex sets of host inducing a copy of the pattern."""
    images = {frozenset(emb.values()) for emb in induced_embeddings(pattern, host)}
    return sorted(images, key=sorted)
