"""Aggregated verification suites with machine-readable reports.

Each suite replays one of the structural facts the library relies on,
through an independent route (brute-force enumeration, random sampling,
or a second implementation), and reports pass/fail with witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import charts as charts_mod
from . import hexgrid
from .covers import universal_cover_ball, validate_covering_map
from .generators import hex_torus
from .geometric import verify_geometric_equivalence
from .graph import GraphError
from .isomorphism import find_isomorphism
from .surface import (
    disc_discharge_check,
    edge_facets,
    facet_edges,
    facets,
    link_walk,
    maximal_straight_paths,
)


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"suite": self.name, "ok": self.ok, **self.detail}


def _require(ok: bool, message: str) -> None:
    """Reject a parameter with which a suite would crash, fail for want of
    room, or pass with nothing checked."""
    if not ok:
        raise GraphError(message)


def expected_straight_walks(m: int) -> set[tuple]:
    """The nine coordinate walks of the three straight families inside the
    side-m patch: the boundary side, the line one step above it, and the
    line two steps above, each under all coordinate permutations."""
    families = [
        tuple((m - t, t, 0) for t in range(m + 1)),
        tuple((m - 1 - t, t, 1) for t in range(m)),
        tuple((m - 2 - t, t, 2) for t in range(m - 1)),
    ]
    out = set()
    for fam in families:
        for perm in hexgrid.COORD_PERMUTATIONS:
            walk = tuple(hexgrid.apply_permutation(perm, c) for c in fam)
            out.add(min(walk, walk[::-1]))
    return out


def straight_paths_suite(m_lo: int = 4, m_hi: int = 8) -> SuiteResult:
    _require(m_lo >= 4, f"straight-paths needs side lengths of at least 4, got {m_lo}")
    counts = {}
    ok = True
    for m in range(m_lo, m_hi + 1):
        region = hexgrid.gen_delta(m)
        found = maximal_straight_paths(region.graph, m - 2)
        found_coords = {
            min(w, w[::-1])
            for w in (
                tuple(region.coord_of[v] for v in walk) for walk in found
            )
        }
        expected = expected_straight_walks(m)
        counts[m] = len(found)
        if found_coords != expected or len(found) != 9:
            ok = False
    return SuiteResult("straight-paths", ok, {"counts": counts})


def inclusion_suite(m_lo: int = 1, m_hi: int = 8) -> SuiteResult:
    """Brute-force triangle inclusion classification against the expected
    exceptional counts."""
    _require(m_lo >= 1, f"inclusion needs side lengths of at least 1, got {m_lo}")
    detail = {}
    ok = True
    for m in range(m_lo, m_hi + 1):
        for k in (1, 2):
            if m < k or m - k < 0:
                continue
            labels = hexgrid.classify_delta_inclusions(m, k)
            translates = sum(1 for _, lab in labels if lab[0] == "translate")
            inverted = [lab for _, lab in labels if lab[0] != "translate"]
            expected_translates = 3 if k == 1 else 6
            expected_inverted = 0
            if k == 1 and m == 2:
                expected_inverted = 1
            if k == 2 and m == 3:
                expected_inverted = 3
            if k == 2 and m == 4:
                expected_inverted = 1
            good = translates == expected_translates and len(inverted) == expected_inverted
            detail[f"m{m}k{k}"] = {
                "translates": translates,
                "inverted": len(inverted),
            }
            ok = ok and good
    return SuiteResult("inclusion", ok, {"cases": detail})


def lhg_suite() -> SuiteResult:
    lhg = hexgrid.build_lhg()
    try:
        found = hexgrid.lhg_cliques_through_origin(lhg)
    except AssertionError as exc:
        return SuiteResult("lhg", False, {"error": str(exc)})
    sizes = sorted((len(c) for c in found), reverse=True)
    ok = lhg.graph.n == 17 and len(found) == 7 and sizes == [8, 7, 7, 7, 4, 4, 4]
    return SuiteResult("lhg", ok, {"cliques": len(found), "sizes": sizes})


def chart_extension_suite(radius: int = 8, seed: int = 7, trials: int = 12) -> SuiteResult:
    """Neighbour counts for interior triangles, and for each sampled
    triangle the images its chart extension realises (the six unit
    translates, plus the twisted copy at side 3) against the triangles
    ``neighbour_triangles`` reads off the chart list."""
    # side-5 triangles at distance 3 from the rim need radius 7
    _require(radius >= 7, f"chart-extension needs radius at least 7, got {radius}")
    rng = random.Random(seed)
    patch = hexgrid.gen_hex_patch(radius)
    g = patch.graph
    failures = []
    counts = {}
    for m in (3, 4, 5):
        supports = [
            ch.image
            for ch in charts_mod.find_standard_charts(g, m)
            if charts_mod.min_boundary_distance(g, ch.image) >= 3
        ]
        if not supports:
            failures.append(f"no interior triangles of side {m}")
            continue
        sample = rng.sample(sorted(supports, key=sorted), min(trials, len(supports)))
        expect = 7 if m == 3 else 6
        for sup in sample:
            nbrs = charts_mod.neighbour_triangles(g, sup)
            counts.setdefault(m, set()).add(len(nbrs))
            if len(nbrs) != expect:
                failures.append(f"side {m} triangle has {len(nbrs)} neighbours")
            ext = charts_mod.extend_chart(g, charts_mod.chart_of_support(g, sup))
            images = {ext.translate_image(d) for d in hexgrid.UNIT_STEPS}
            images.add(ext.twisted_image())
            images.discard(None)
            if images != set(nbrs):
                failures.append(
                    f"side {m} triangle at {min(sup)}: extension realises {len(images)}"
                    f" images, neighbour_triangles finds {len(nbrs)}"
                )
    counts = {m: sorted(v) for m, v in counts.items()}
    return SuiteResult(
        "chart-extension",
        not failures,
        {"seed": seed, "counts": counts, "failures": failures[:5]},
    )


def equivalence_suite(radius: int = 12, n_max: int = 3) -> SuiteResult:
    _require(n_max >= 0, f"equivalence needs n of at least 0, got {n_max}")
    # below radius n + 4, level n + 1 has at most one vertex inside the margin n + 3
    _require(
        radius >= n_max + 4,
        f"equivalence at n = {n_max} needs radius at least {n_max + 4}, got {radius}",
    )
    patch = hexgrid.gen_hex_patch(radius)
    results = {}
    ok = True
    for n in range(n_max + 1):
        rep = verify_geometric_equivalence(patch.graph, n)
        results[n] = rep.to_dict()
        ok = ok and rep.ok
    return SuiteResult("equivalence", ok, {"levels": results})


def cover_suite(radius: int = 4) -> SuiteResult:
    # the radius-0 ball is one lift with no inner vertex to check
    _require(radius >= 1, f"cover needs radius at least 1, got {radius}")
    torus = hex_torus(4, 4)
    ball = universal_cover_ball(torus, base=0, r=radius)
    patch = hexgrid.gen_hex_patch(radius)
    same = find_isomorphism(ball.graph, patch.graph) is not None
    proj = validate_covering_map(ball.projection, ball.graph, torus)
    return SuiteResult(
        "cover",
        same and proj.ok,
        {"ball_matches_patch": same, "projection_ok": proj.ok},
    )


def random_disc_walk(
    patch: hexgrid.HexRegion, rng: random.Random, max_facets: int = 24
) -> tuple[int, ...]:
    """A simple closed walk bounding a random facet-connected disc kept away
    from the patch rim."""
    g = patch.graph
    all_facets = [f for f in facets(g) if charts_mod.min_boundary_distance(g, f) >= 2]
    incidence = edge_facets(all_facets)

    while True:
        region = {rng.randrange(len(all_facets))}
        target = rng.randrange(1, max_facets)
        for _ in range(target):
            frontier = set()
            for fi in region:
                for e in facet_edges(all_facets[fi]):
                    frontier.update(incidence[e])
            frontier -= region
            if not frontier:
                break
            region.add(rng.choice(sorted(frontier)))
        walk = _rim_walk([all_facets[fi] for fi in region])
        if walk is not None:
            return walk


def _rim_walk(region_facets) -> tuple[int, ...] | None:
    nbr: dict[int, list[int]] = {}
    for e, held in edge_facets(region_facets).items():
        if len(held) == 1:
            u, v = e
            nbr.setdefault(u, []).append(v)
            nbr.setdefault(v, []).append(u)
    if any(len(ws) != 2 for ws in nbr.values()):
        return None
    # a 2-regular rim is one cycle exactly when the walk covers it
    cycle = link_walk(nbr, min(nbr))
    if len(cycle) != len(nbr):
        return None
    return cycle + cycle[:1]


def discharge_suite(radius: int = 8, count: int = 100, seed: int = 2024) -> SuiteResult:
    # the random discs keep off the rim: radius 2 leaves no facet to start from
    _require(radius >= 3, f"discharge needs radius at least 3, got {radius}")
    _require(count >= 1, f"discharge needs count at least 1, got {count}")
    rng = random.Random(seed)
    patch = hexgrid.gen_hex_patch(radius)
    residuals = set()
    for _ in range(count):
        walk = random_disc_walk(patch, rng)
        residuals.add(disc_discharge_check(patch.graph, walk))
    return SuiteResult(
        "discharge",
        residuals == {0},
        {"count": count, "seed": seed, "residuals": sorted(residuals)},
    )


SUITES = {
    "straight-paths": straight_paths_suite,
    "inclusion": inclusion_suite,
    "lhg": lhg_suite,
    "chart-extension": chart_extension_suite,
    "equivalence": equivalence_suite,
    "cover": cover_suite,
    "discharge": discharge_suite,
}


def run_suites(names, **overrides) -> list[SuiteResult]:
    """Run the named suites (``["all"]`` for every suite), passing each the
    parameters it takes; a parameter that no chosen suite takes is an input
    error, not silently dropped."""
    if "all" in names and names != ["all"]:
        raise GraphError("suite 'all' cannot be combined with other suites")
    chosen = list(SUITES) if names == ["all"] else names
    for i, name in enumerate(chosen):
        if name not in SUITES:
            raise GraphError(f"unknown suite {name!r}")
        if name in chosen[:i]:
            raise GraphError(f"suite {name!r} is named twice")
    given = {k: v for k, v in overrides.items() if v is not None}
    if "m" in given:
        m = given.pop("m")
        given.setdefault("m_lo", m)
        given.setdefault("m_hi", m)
    params = {}
    for name in chosen:
        code = SUITES[name].__code__
        params[name] = code.co_varnames[: code.co_argcount]
    for key in given:
        if not any(key in p for p in params.values()):
            option = {"m_lo": "m", "m_hi": "m", "n_max": "n"}.get(key, key)
            raise GraphError(f"--{option} is not a parameter of {', '.join(chosen)}")
    return [
        SUITES[name](**{k: v for k, v in given.items() if k in params[name]})
        for name in chosen
    ]
