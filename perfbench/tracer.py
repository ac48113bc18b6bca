"""Run one cliquedyn CLI job with spans around each layer's entry points.

    python3 perfbench/tracer.py SPANS_OUT SPAWN_TIME -- CLI_ARGS...

Wraps the public functions in ``ENTRY_POINTS`` wherever the package binds
them, runs ``cliquedyn.cli.main(CLI_ARGS)`` and writes, as JSON to
``SPANS_OUT``, each span name's call count and self seconds (its duration
minus the time its child spans cover), the work counters, and
``startup_s``: wall seconds from ``SPAWN_TIME`` (the parent's ``time.time()``
just before it started this process) to the end of ``import cliquedyn.cli``.

Only layer entry points are wrapped.  Hot helpers such as
``hexgrid.are_adjacent`` (millions of calls) are not, because the wrapper
would cost more than the work; their time shows as their caller's self time.
An entry point that no longer exists makes the job fail, so a refactor that
renames one shows up as a failed job rather than as a silent zero.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _charts_span(args, kwargs) -> str:
    m = kwargs["m"] if "m" in kwargs else args[1]
    return f"charts.find_standard_charts.m{m}"


def _count_len(counter):
    def hook(counters, args, kwargs, result):
        counters[counter] += len(result)

    return hook


def _count_level_graph(counters, args, kwargs, result):
    counters["geometric.level_vertices"] += len(result)
    counters["geometric.level_edges"] += result.edge_count()


def _count_labelled(counters, args, kwargs, result):
    counters["isomorphism.labelled_vertices"] += len(result)


def _count_iterate(counters, args, kwargs, result):
    counters["cliques.iterate_vertices"] += result.n


def _count_lifts(counters, args, kwargs, result):
    counters["covers.lifts"] += result.graph.n


def _count_bytes(counters, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    counters["io.bytes_read"] += os.path.getsize(path)


# (module, attribute or Class.method, span name or namer, counter hook)
ENTRY_POINTS = [
    ("cliquedyn.cli", "main", "cli.main", None),
    ("cliquedyn.charts", "find_standard_charts", _charts_span, _count_len("charts.charts_found")),
    ("cliquedyn.geometric", "GeoBuilder.build", "geometric.build", _count_level_graph),
    ("cliquedyn.geometric", "c_map", "geometric.c_map", None),
    ("cliquedyn.geometric", "verify_geometric_equivalence", "geometric.verify", None),
    ("cliquedyn.cliques", "max_cliques", "cliques.max_cliques", _count_len("cliques.cliques_found")),
    ("cliquedyn.cliques", "clique_graph", "cliques.clique_graph", _count_iterate),
    ("cliquedyn.cliques", "iterate_k", "cliques.iterate_k", None),
    ("cliquedyn.isomorphism", "canonical_order", "isomorphism.canonical_order", _count_labelled),
    ("cliquedyn.isomorphism", "canonical_hash", "isomorphism.canonical_hash", None),
    ("cliquedyn.isomorphism", "find_isomorphism", "isomorphism.find_isomorphism", None),
    ("cliquedyn.covers", "universal_cover_ball", "covers.universal_cover_ball", _count_lifts),
    ("cliquedyn.covers", "validate_covering_map", "covers.validate_covering_map", None),
    ("cliquedyn.covers", "decide_finite", "covers.decide_finite", None),
    ("cliquedyn.surface", "validate_surface", "surface.validate_surface", None),
    ("cliquedyn.surface", "classify_vertex", "surface.classify_vertex", None),
    ("cliquedyn.surface", "facets", "surface.facets", None),
    ("cliquedyn.surface", "boundary_distance", "surface.boundary_distance", None),
    ("cliquedyn.graph", "induced_subgraph", "graph.induced_subgraph", None),
    ("cliquedyn.io", "load_graph", "io.load_graph", _count_bytes),
    ("cliquedyn.io", "graph_from_json", "io.graph_from_json", None),
    ("cliquedyn.io", "graph_from_dict", "io.graph_from_dict", None),
    ("cliquedyn.io", "graph_to_dict", "io.graph_to_dict", None),
    ("cliquedyn.io", "graph_to_json", "io.graph_to_json", None),
]


_COUNTERS = (
    "charts.charts_found",
    "geometric.level_vertices",
    "geometric.level_edges",
    "cliques.cliques_found",
    "cliques.iterate_vertices",
    "isomorphism.labelled_vertices",
    "covers.lifts",
    "io.bytes_read",
)


class Tracer:
    """Span totals kept in memory: name -> [calls, self seconds]."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.counters: dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self._open: list[float] = []  # child seconds of each open span

    def wrap(self, fn, span, hook):
        totals, counters, open_spans = self.totals, self.counters, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                name = span if isinstance(span, str) else span(args, kwargs)
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - child
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = [
            m for name, m in sys.modules.items() if name == "cliquedyn" or name.startswith("cliquedyn.")
        ]
        for module, path, span, hook in ENTRY_POINTS:
            owner = sys.modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            traced = self.wrap(original, span, hook)
            setattr(owner, attr, traced)
            if classes:
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def main(argv: list[str]) -> int:
    out, spawned, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT SPAWN_TIME -- CLI_ARGS...")
    import cliquedyn.cli

    startup = time.time() - float(spawned)
    tracer = Tracer()
    tracer.install()
    try:
        return cliquedyn.cli.main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump({"startup_s": startup, "spans": tracer.totals, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
