"""Truncated universal covers by facet unfolding, covering-map validation,
and the convergence decision procedure for finite inputs.

The cover ball is developed facet by facet from a seed facet at the base
vertex.  Around every lifted vertex the fan of lifted facets fills the
slots of the base neighbourhood cycle; two lifts are identified only when
a fan closes onto an existing slot, never because they happen to project
to the same base vertex.  That realises the simply connected development.

The development grows in rounds.  A round glues a facet across every open
edge (an edge in one facet) whose nearer end lies at distance < r, in
(distance of the nearer end, lo, hi) order, so the fans of the lifts inside
the radius close and no lift is born beyond it.  A lift's distance is fixed
at birth, one more than the nearer end of the edge it is glued across, so
following parents gives a path of that length; ``set_slot`` checks that
every edge joins lifts at most one layer apart, so no path is shorter.  The
distance is thus the development's graph distance.

Those fans hold the whole radius-r ball because inputs must have minimum
degree 6.  Every link is then a cycle of length >= 6, so the cover is
systolic (Januszkiewicz-Swiatkowski, Simplicial nonpositive curvature,
2006), and by its projection lemma the vertices of B_{r-1} adjacent to all
of a simplex in S_r span a non-empty simplex: every edge between two lifts
at distance r lies in a facet whose third lift is at distance r - 1.
Below degree 6 that fails; on the n = 4 antiprism-capped sphere a ring
vertex's radius-2 ball has such an edge whose facets both lie in S_2.
On degree >= 6 the lemma also puts no facet inside one sphere S_d (its
vertices and their projection would span a K4, which no link cycle holds),
so a facet glued across an edge of S_d leads one layer in or out.  That the
gluing order never skips a layer is checked, not proven.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .charts import find_standard_charts
from .graph import Graph, GraphError, induced_subgraph
from .io import graph_to_dict
from .surface import classify_vertex, validate_surface


class CoverError(GraphError):
    pass


@dataclass
class CoverBall:
    graph: Graph
    projection: dict[int, int]
    base_lift: int
    base_vertex: int
    radius: int

    def interior_ids(self) -> frozenset[int]:
        classes = validate_surface(self.graph).classes
        return frozenset(v for v, cls in classes.items() if cls.is_inner)

    def interior_graph(self) -> Graph:
        return induced_subgraph(self.graph, self.interior_ids())

    def to_dict(self) -> dict:
        return {
            "graph": graph_to_dict(self.graph),
            "projection": {str(k): v for k, v in sorted(self.projection.items())},
            "base_lift": self.base_lift,
            "base_vertex": self.base_vertex,
            "radius": self.radius,
        }


class _Unfolding:
    """The development so far: lifts, their fans, the open edges and every
    lift's exact graph distance from the base lift."""

    def __init__(self, g: Graph):
        self.g = g
        self.base: list[int] = []  # lift -> base vertex
        self.arc: list[dict[int, int]] = []  # lift -> base neighbour -> lift
        self.dist: list[int] = []
        # an edge in one facet, as (lo, hi) -> the third lift of that facet.
        # No edge gets a third facet: a base edge has two facet thirds, and
        # set_slot refuses a second lift in a slot, so add_facet can toggle.
        self.open: dict[tuple[int, int], int] = {}
        self.thirds: dict[tuple[int, int], list[int]] = {}  # base edge -> its facet thirds

    def new_lift(self, base_v: int, dist: int) -> int:
        self.base.append(base_v)
        self.arc.append({})
        self.dist.append(dist)
        return len(self.base) - 1

    def set_slot(self, lift: int, nbr_base: int, nbr_lift: int) -> None:
        cur = self.arc[lift].get(nbr_base)
        if cur is None:
            d, e = self.dist[lift], self.dist[nbr_lift]
            if abs(d - e) > 1:
                raise AssertionError(
                    f"unfolding joined lift {lift} at distance {d} "
                    f"to lift {nbr_lift} at distance {e}"
                )
            self.arc[lift][nbr_base] = nbr_lift
        elif cur != nbr_lift:
            raise CoverError("fan closure conflict; input is not a valid surface")

    def add_facet(self, a: int, b: int, c: int) -> None:
        for x, y, third in ((a, b, c), (a, c, b), (b, c, a)):
            e = (x, y) if x < y else (y, x)
            if self.open.pop(e, None) is None:
                self.open[e] = third

    def glue(self, la: int, lb: int) -> None:
        """Attach the missing facet across the lifted edge ``la < lb``."""
        seen_lift = self.open.get((la, lb))
        if seen_lift is None:
            return
        a, b = self.base[la], self.base[lb]
        thirds = self.thirds.get((a, b))
        if thirds is None:
            thirds = sorted(self.g.neighbors(a) & self.g.neighbors(b))
            if len(thirds) != 2:
                raise CoverError(f"base edge ({a},{b}) does not lie in two facets")
            self.thirds[(a, b)] = thirds
        c = thirds[0] if thirds[1] == self.base[seen_lift] else thirds[1]
        lc_a = self.arc[la].get(c)
        lc_b = self.arc[lb].get(c)
        if lc_a is not None and lc_b is not None and lc_a != lc_b:
            raise CoverError("incompatible fan closures; input is not a surface")
        lc = lc_a if lc_a is not None else lc_b
        if lc is None:
            lc = self.new_lift(c, min(self.dist[la], self.dist[lb]) + 1)
        self.set_slot(la, c, lc)
        self.set_slot(lb, c, lc)
        self.set_slot(lc, a, la)
        self.set_slot(lc, b, lb)
        self.add_facet(la, lb, lc)


def universal_cover_ball(g: Graph, base: int, r: int) -> CoverBall:
    """Unfold the universal cover around ``base`` (lift 0) out to graph distance ``r``."""
    if base not in g:
        raise CoverError(f"unknown base vertex {base}")
    if r < 0:
        raise CoverError("radius must be non-negative")
    report = validate_surface(g)
    if not report.is_locally_cyclic:
        raise CoverError("input is not locally cyclic")
    if report.min_degree < 6:
        raise CoverError(f"cover unfolding needs minimum degree 6, got {report.min_degree}")

    a = min(g.neighbors(base))
    seed = (base, a, min(g.neighbors(base) & g.neighbors(a)))
    unf = _Unfolding(g)
    for v in seed:
        unf.new_lift(v, 0 if v == base else 1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        unf.set_slot(i, seed[j], j)
        unf.set_slot(j, seed[i], i)
    unf.add_facet(0, 1, 2)

    dist = unf.dist
    while True:
        todo = sorted(
            (d, lo, hi) for lo, hi in unf.open if (d := min(dist[lo], dist[hi])) < r
        )
        if not todo:
            break
        for _, lo, hi in todo:
            unf.glue(lo, hi)

    # at r = 0 the seed facet's other two lifts lie outside the ball
    n = len(unf.base) if r else 1
    projection = dict(enumerate(unf.base[:n]))
    ball = Graph(
        range(n),
        [(i, j) for i in range(n) for j in set(unf.arc[i].values()) if i < j < n],
        name=f"cover_ball_{g.name or 'g'}_r{r}",
        labels=projection,
    )
    return CoverBall(
        graph=ball, projection=projection, base_lift=0, base_vertex=base, radius=r
    )


@dataclass
class CoveringMapReport:
    is_homomorphism: bool
    checked_vertices: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.is_homomorphism and not self.violations

    def to_dict(self) -> dict:
        return {
            "is_homomorphism": self.is_homomorphism,
            "checked_vertices": self.checked_vertices,
            "ok": self.ok,
            "violations": self.violations[:10],
        }


def validate_covering_map(
    p: dict[int, int], source: Graph, target: Graph
) -> CoveringMapReport:
    """Check the triangle covering conditions on the interior of the source.

    The map must be a graph homomorphism; at every interior source vertex
    it must restrict to an isomorphism between the vertex's closed
    neighbourhood and its image's, which gives unique edge and triangle
    lifting there."""
    for v in source.vertices:
        if v not in p or p[v] not in target:
            raise CoverError(f"map does not cover vertex {v}")
    stray = next((k for k in p if k not in source), None)
    if stray is not None:
        raise CoverError(f"projection key {stray} is not a vertex of the source graph")
    for u, v in source.edges():
        if p[v] not in target.neighbors(p[u]):
            raise CoverError(f"not a homomorphism on edge ({u},{v})")

    violations = []
    checked = 0
    # classified vertex by vertex: the full surface report adds boundary-edge and
    # connectivity passes this check does not need (slower on a 20388-lift ball)
    for v in source.vertices:
        if not classify_vertex(source, v).is_inner:
            continue
        checked += 1
        nbrs = source.neighbors(v)
        images = {p[w] for w in nbrs}
        if len(images) != len(nbrs):
            violations.append(f"edge lifting fails at {v}: neighbour images collide")
            continue
        if images != target.neighbors(p[v]):
            violations.append(f"degree mismatch at {v}")
            continue
        for a in nbrs:
            # p is injective on nbrs, so equal sets mean no pair (a, b) fails
            if {p[b] for b in source.neighbors(a) & nbrs} != target.neighbors(p[a]) & images:
                for b in nbrs:
                    if a < b and source.has_edge(a, b) != target.has_edge(p[a], p[b]):
                        violations.append(f"triangle lifting fails at {v} on ({a},{b})")
    if not checked:
        raise CoverError("source graph has no inner vertex to check")
    return CoveringMapReport(True, checked, violations)


# -- decision procedure ------------------------------------------------------


@dataclass
class Verdict:
    kind: str  # "divergent" | "convergent" | "unsupported"
    reason: str
    gates: dict

    def to_dict(self) -> dict:
        return {"verdict": self.kind, "reason": self.reason, "gates": self.gates}


def decide_finite(g: Graph) -> Verdict:
    """Convergence verdict for a finite graph, gated on the hypotheses the
    characterisation needs.

    Divergent iff locally cyclic and 6-regular; convergent for locally
    cyclic minimum degree exactly 6 but not regular, and for minimum
    degree 7 or more; anything else is unsupported rather than guessed
    (the octahedron diverges, but its degrees sit below the gate)."""
    gates: dict = {"connected": g.is_connected()}
    if not gates["connected"]:
        return Verdict("unsupported", "input is disconnected", gates)
    report = validate_surface(g)
    gates["locally_cyclic"] = report.is_locally_cyclic
    gates["min_degree"] = report.min_degree
    gates["max_degree"] = report.max_degree
    if not report.is_locally_cyclic:
        if g.n == 0:
            reason = "not locally cyclic: empty graph"
        elif report.invalid_vertices:
            reason = f"not locally cyclic: vertex {report.invalid_vertices[0]} has no cyclic neighbourhood"
        else:
            reason = f"not locally cyclic: boundary vertex {report.boundary.vertices[0]}"
        return Verdict("unsupported", reason, gates)
    if report.min_degree < 6:
        return Verdict(
            "unsupported", f"minimum degree {report.min_degree} < 6", gates
        )
    gates["regular"] = report.min_degree == report.max_degree
    if report.min_degree == 6 and gates["regular"]:
        return Verdict("divergent", "locally cyclic and 6-regular", gates)
    if report.min_degree == 6:
        return Verdict(
            "convergent", "locally cyclic, minimum degree 6, not 6-regular", gates
        )
    return Verdict(
        "convergent", f"minimum degree {report.min_degree} >= 7", gates
    )


def delta_embedding_bound(cb: CoverBall, m_max: int) -> int:
    """Largest side length whose triangle embeds in the cover ball interior.

    Returns m_max + 1 when even the side-(m_max) triangle embeds, meaning
    no bound was observed at this radius.  This is an observation at a
    finite radius, never a convergence certificate by itself."""
    if cb.radius < m_max + 1:
        raise CoverError(f"radius {cb.radius} too small for m_max {m_max}")
    interior = cb.interior_graph()
    best = next((m for m in range(m_max, 0, -1) if find_standard_charts(interior, m)), 0)
    return m_max + 1 if best == m_max else best
