"""Hexagonal-grid generators and lattice constants.

Coordinates are integer triples with a fixed component sum; two coordinates
are adjacent when their difference is one of the six unit steps.  Regions
carry their coordinates as vertex labels; the structural graph layer
ignores them.
"""

from __future__ import annotations

from itertools import permutations

from .cliques import max_cliques
from .graph import Graph, GraphError
from .isomorphism import induced_images

Coord = tuple[int, int, int]

# The six unit steps between grid neighbours, in rotational order.
UNIT_STEPS: tuple[Coord, ...] = (
    (1, -1, 0),
    (1, 0, -1),
    (0, 1, -1),
    (-1, 1, 0),
    (-1, 0, 1),
    (0, -1, 1),
)

# Offsets realising adjacency between triangle sizes m and m-2, m-4, m-6.
SUM2_OFFSETS: tuple[Coord, ...] = (
    (2, 0, 0),
    (1, 1, 0),
    (0, 2, 0),
    (0, 1, 1),
    (0, 0, 2),
    (1, 0, 1),
)
SUM4_OFFSETS: tuple[Coord, ...] = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
SUM6_OFFSETS: tuple[Coord, ...] = ((2, 2, 2),)
OFFSETS_BY_GAP: dict[int, tuple[Coord, ...]] = {
    0: UNIT_STEPS,
    2: SUM2_OFFSETS,
    4: SUM4_OFFSETS,
    6: SUM6_OFFSETS,
}

BASIS: tuple[Coord, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# The symmetric group on the three coordinates.
COORD_PERMUTATIONS: tuple[tuple[int, int, int], ...] = tuple(permutations(range(3)))


def apply_permutation(perm: tuple[int, int, int], c: Coord) -> Coord:
    return (c[perm[0]], c[perm[1]], c[perm[2]])


def add(a: Coord, b: Coord) -> Coord:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a: Coord, b: Coord) -> Coord:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def hex_distance(a: Coord, b: Coord) -> int:
    d = sub(a, b)
    return max(abs(d[0]), abs(d[1]), abs(d[2]))


class HexRegion:
    """A finite coordinate set together with its induced graph.

    Vertex ids are assigned in lexicographic coordinate order, so
    regeneration is deterministic.
    """

    def __init__(self, coords, name: str = ""):
        self.coords: tuple[Coord, ...] = tuple(sorted(set(coords)))
        if len({sum(c) for c in self.coords}) > 1:
            raise GraphError("region coordinates must share one component sum")
        self.id_of: dict[Coord, int] = {c: i for i, c in enumerate(self.coords)}
        self.coord_of: dict[int, Coord] = dict(enumerate(self.coords))
        edges = []
        cset = set(self.coords)
        for c in self.coords:
            for d in UNIT_STEPS:
                w = add(c, d)
                if w in cset and c < w:
                    edges.append((self.id_of[c], self.id_of[w]))
        self.graph = Graph(
            range(len(self.coords)),
            edges,
            name=name,
            labels={i: c for i, c in enumerate(self.coords)},
        )

    def interior_ids(self) -> frozenset[int]:
        """Vertices with all six lattice neighbours inside the region."""
        cset = set(self.coords)
        return frozenset(
            self.id_of[c]
            for c in self.coords
            if all(add(c, d) in cset for d in UNIT_STEPS)
        )


def side_of(size: int) -> int | None:
    """Side length of the triangular patch with ``size`` vertices, or None
    when no triangle has that many."""
    m = 0
    while (m + 1) * (m + 2) // 2 < size:
        m += 1
    return m if (m + 1) * (m + 2) // 2 == size else None


def delta_coords(m: int) -> list[Coord]:
    """Coordinates of the side-m triangular patch, lexicographically."""
    if m < 0:
        raise GraphError("side length must be non-negative")
    return [
        (a, b, m - a - b) for a in range(m + 1) for b in range(m - a + 1)
    ]


def flipped_delta_coords(m: int, apex: Coord) -> list[Coord]:
    """The inverted side-m triangle ``apex - c`` for c in the upright one."""
    return sorted(sub(apex, c) for c in delta_coords(m))


def gen_delta(m: int) -> HexRegion:
    return HexRegion(delta_coords(m), name=f"delta_{m}")


def gen_hex_patch(radius: int) -> HexRegion:
    """All grid coordinates within the given distance of the origin."""
    if radius < 0:
        raise GraphError("radius must be non-negative")
    coords = [
        (a, b, -a - b)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
        if hex_distance((a, b, -a - b), (0, 0, 0)) <= radius
    ]
    return HexRegion(coords, name=f"hex_patch_{radius}")


def gen_nabla(kind: str, e: Coord | None = None) -> HexRegion:
    """The exceptional inverted triangles and the extended domain of side 3.

    kind "1": inverted side-1 triangle centred in the side-2 patch;
    kind "1e": its three translates inside the side-3 patch (needs ``e``);
    kind "2": inverted side-2 triangle centred in the side-4 patch;
    kind "3": inverted side-3 triangle overlapping the side-3 patch.
    """
    if kind == "1":
        side, apex = 1, (1, 1, 1)
    elif kind == "1e":
        if e not in BASIS:
            raise GraphError("kind '1e' needs a unit basis vector e")
        side, apex = 1, add((1, 1, 1), e)
    elif kind == "2":
        side, apex = 2, (2, 2, 2)
    elif kind == "3":
        side, apex = 3, (2, 2, 2)
    else:
        raise GraphError(f"unknown nabla kind {kind!r}")
    coords = flipped_delta_coords(side, apex)
    name = f"nabla_{kind}" + (f"_{e[0]}{e[1]}{e[2]}" if kind == "1e" else "")
    return HexRegion(coords, name=name)


# -- classification oracle ---------------------------------------------------


def classify_triangle_coords(coords: frozenset[Coord] | set[Coord]) -> tuple[str, Coord] | None:
    """Identify a coordinate set as an upright or inverted lattice triangle.

    Returns ("up", base_offset) or ("down", apex), else None.
    """
    cs = set(coords)
    m = side_of(len(cs))
    if m is None:
        return None
    lo = (
        min(c[0] for c in cs),
        min(c[1] for c in cs),
        min(c[2] for c in cs),
    )
    if cs == {add(c, lo) for c in delta_coords(m)}:
        return ("up", lo)
    hi = (
        max(c[0] for c in cs),
        max(c[1] for c in cs),
        max(c[2] for c in cs),
    )
    if cs == set(flipped_delta_coords(m, hi)):
        return ("down", hi)
    return None


def classify_delta_inclusions(m: int, k: int) -> list[tuple[frozenset[Coord], tuple]]:
    """Enumerate every induced side-(m-k) triangle inside the side-m patch by
    brute-force embedding search and label each one.

    Labels are ("translate", offset) for upright translates and
    ("nabla1",), ("nabla1e", e), ("nabla2",) for the inverted exceptions.
    Raises if any subgraph resists labeling.
    """
    if k not in (1, 2) or m < k:
        raise GraphError("supported gaps are 1 and 2 with m >= k")
    host = gen_delta(m)
    pattern = gen_delta(m - k)
    out: list[tuple[frozenset[Coord], tuple]] = []
    for image in induced_images(pattern.graph, host.graph):
        coords = frozenset(host.coord_of[i] for i in image)
        shape = classify_triangle_coords(coords)
        if shape is None:
            raise AssertionError(f"unlabeled triangle-shaped subgraph: {sorted(coords)}")
        kind, anchor = shape
        if kind == "up":
            if any(x < 0 for x in anchor):
                raise AssertionError(f"translate offset escapes the patch: {anchor}")
            out.append((coords, ("translate", anchor)))
        else:
            if k == 1 and m == 2 and anchor == (1, 1, 1):
                out.append((coords, ("nabla1",)))
            elif k == 2 and m == 3 and sub(anchor, (1, 1, 1)) in BASIS:
                out.append((coords, ("nabla1e", sub(anchor, (1, 1, 1)))))
            elif k == 2 and m == 4 and anchor == (2, 2, 2):
                out.append((coords, ("nabla2",)))
            else:
                raise AssertionError(f"unexpected inverted triangle at apex {anchor}")
    out.sort(key=lambda item: sorted(item[0]))
    return out


# -- the 17-vertex local adjacency template ----------------------------------

LhgLabel = tuple[int, Coord]


class LocalHexagonalGraph:
    """Template graph describing every possible adjacency around a
    top-level triangle: one centre vertex, six same-level translates, and
    the lower-level triangles at gaps 2, 4, and 6."""

    def __init__(self) -> None:
        labels: list[LhgLabel] = [(0, (0, 0, 0))]
        labels += [(0, d) for d in UNIT_STEPS]
        labels += [(2, d) for d in SUM2_OFFSETS]
        labels += [(4, d) for d in SUM4_OFFSETS]
        labels += [(6, d) for d in SUM6_OFFSETS]
        labels.sort()
        self.labels: tuple[LhgLabel, ...] = tuple(labels)
        self.id_of: dict[LhgLabel, int] = {lab: i for i, lab in enumerate(labels)}
        edges = []
        for i, (gi, xi) in enumerate(labels):
            for j, (gj, xj) in enumerate(labels):
                if j <= i:
                    continue
                if self._adjacent((gi, xi), (gj, xj)):
                    edges.append((i, j))
        self.graph = Graph(
            range(len(labels)),
            edges,
            name="local_hexagonal_graph",
            labels={i: lab for i, lab in enumerate(labels)},
        )

    @staticmethod
    def _adjacent(a: LhgLabel, b: LhgLabel) -> bool:
        (ga, xa), (gb, xb) = a, b
        if ga > gb:
            (ga, xa), (gb, xb) = (gb, xb), (ga, xa)
        gap = gb - ga
        if gap not in OFFSETS_BY_GAP:
            return False
        return sub(xb, xa) in OFFSETS_BY_GAP[gap]

    @property
    def origin(self) -> int:
        return self.id_of[(0, (0, 0, 0))]

    def label_set(self, ids) -> frozenset[LhgLabel]:
        return frozenset(self.labels[i] for i in ids)


def build_lhg() -> LocalHexagonalGraph:
    return LocalHexagonalGraph()


def lhg_expected_cliques() -> dict[str, frozenset[LhgLabel]]:
    """The clique families through the centre vertex, built from their
    closed-form descriptions."""
    out: dict[str, frozenset[LhgLabel]] = {}
    out["gap6"] = frozenset(
        [(0, (0, 0, 0))]
        + [(2, d) for d in ((1, 1, 0), (0, 1, 1), (1, 0, 1))]
        + [(4, d) for d in SUM4_OFFSETS]
        + [(6, (2, 2, 2))]
    )
    for e in BASIS:
        members = [(0, sub(e, f)) for f in BASIS]
        members += [(2, add(e, f)) for f in BASIS]
        members += [(4, add(e, (1, 1, 1)))]
        out[f"gap4_{e[0]}{e[1]}{e[2]}"] = frozenset(members)
    for e in BASIS:
        members = [(0, sub(f, e)) for f in BASIS]
        members += [(2, sub((1, 1, 1), e))]
        out[f"gap2_{e[0]}{e[1]}{e[2]}"] = frozenset(members)
    return out


def lhg_cliques_through_origin(lhg: LocalHexagonalGraph | None = None):
    """Enumerate the maximal cliques through the centre vertex by brute
    force and check they match the expected families exactly."""
    lhg = lhg or build_lhg()
    found = [
        lhg.label_set(c) for c in max_cliques(lhg.graph) if lhg.origin in c
    ]
    expected = lhg_expected_cliques()
    if sorted(found, key=sorted) != sorted(expected.values(), key=sorted):
        raise AssertionError("clique families through the origin do not match")
    return sorted(found, key=sorted)
