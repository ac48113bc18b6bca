"""The benchmark tracer wraps layer entry points by name; a refactor that
renames one should fail here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from cliquedyn import charts, cli, covers, surface
from cliquedyn import io as gio
from cliquedyn.geometric import GeoBuilder
from cliquedyn.hexgrid import gen_hex_patch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_every_traced_entry_point_resolves(tracer):
    for module, path, _span, _hook in tracer.ENTRY_POINTS:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{module}.{path}"


def test_level_graph_counter_reads_a_built_level_graph(tracer):
    gg = GeoBuilder(gen_hex_patch(5).graph).build(2, 1)
    counters = Counter()
    tracer._count_level_graph(counters, (), {}, gg)
    assert counters == {
        "geometric.level_vertices": len(gg),
        "geometric.level_edges": gg.graph.edge_count,
    }
    assert len(gg) > 0 and gg.graph.edge_count > 0


def test_every_required_span_is_traced(tracer):
    """A workload whose required span no entry point emits could only fail
    as an incorrect traced run.  Span namers take the call's args and
    kwargs; the only one names find_standard_charts by its side length m."""
    emitted = set()
    for _module, _path, span, _hook in tracer.ENTRY_POINTS:
        if isinstance(span, str):
            emitted.add(span)
        else:
            emitted.update(span((), {"m": m}) for m in range(1, 10))
    for workload in _load("workloads").WORKLOADS.values():
        missing = set(workload.required_spans) - emitted
        assert not missing, f"{workload.name}: {sorted(missing)}"


def test_classify_vertex_reads_its_link_through_induced_subgraph(monkeypatch, t44):
    """``graph.induced_subgraph`` is a required ``cover-decide`` span; every
    call there comes from classifying a vertex."""
    calls = []
    real = surface.induced_subgraph

    def counted(g, s):
        calls.append(s)
        return real(g, s)

    monkeypatch.setattr(surface, "induced_subgraph", counted)
    assert surface.classify_vertex(t44, 0).is_inner
    assert len(calls) >= 1 and calls[0] == t44.neighbors(0)


def test_decide_and_cover_validate_read_through_the_traced_io_spans(monkeypatch, tmp_path, t44):
    """``io.load_graph`` and ``io.graph_from_dict`` are required
    ``cover-decide`` spans: ``decide`` on a ``.json`` file and ``cover
    validate`` must each call both."""
    torus, ball = tmp_path / "t.json", tmp_path / "ball.json"
    torus.write_text(gio.graph_to_json(t44))
    assert cli.main(["cover", "build", str(torus), "--radius", "2", "--out", str(ball)]) == 0
    calls = Counter()
    for name in ("load_graph", "graph_from_dict"):
        real = getattr(gio, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(gio, name, counted)
    for argv in (["decide", str(torus)], ["cover", "validate", str(ball), "--target", str(torus)]):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls["load_graph"] >= 1 and calls["graph_from_dict"] >= 1, argv


def test_cover_validate_classifies_only_target_vertices(monkeypatch, tmp_path, t44):
    """On a valid ball, ``cover validate`` classifies no lift and each base
    vertex at most once.  ``surface.classify_vertex`` and
    ``graph.induced_subgraph`` are required ``cover-decide`` spans, so both
    must still be entered there."""
    torus, ball = tmp_path / "t.json", tmp_path / "ball.json"
    torus.write_text(gio.graph_to_json(t44))
    assert cli.main(["cover", "build", str(torus), "--radius", "3", "--out", str(ball)]) == 0
    classified, induced = [], []
    classify, induce = covers.classify_vertex, surface.induced_subgraph
    monkeypatch.setattr(covers, "classify_vertex", lambda g, v: classified.append((g, v)) or classify(g, v))
    monkeypatch.setattr(surface, "induced_subgraph", lambda g, s: induced.append(s) or induce(g, s))
    assert cli.main(["cover", "validate", str(ball), "--target", str(torus)]) == 0
    assert all(g == t44 for g, _ in classified)
    vertices = [v for _, v in classified]
    assert 1 <= len(vertices) == len(set(vertices)) <= t44.n
    assert induced


def test_memoised_entry_points_count_every_call(monkeypatch, tracer):
    """Memoised entry points stay module attributes under their own names,
    so the tracer wraps them, and a memo hit still counts as a call."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "cliquedyn"]
    for mod in package:
        for key, value in list(vars(mod).items()):
            monkeypatch.setattr(mod, key, value)  # restored after the test
    for module, path, _span, _hook in tracer.ENTRY_POINTS:
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    spans = tracer.Tracer()
    spans.install()
    g = gen_hex_patch(3).graph
    assert charts.find_standard_charts(g, 3, 0) is charts.find_standard_charts(g, 3, 0)
    assert spans.totals["charts.find_standard_charts.m3"][0] == 2
    counted = spans.totals["surface.validate_surface"][0]
    assert surface.validate_surface(g) is surface.validate_surface(g)
    assert spans.totals["surface.validate_surface"][0] == counted + 2
