"""The benchmark tracer wraps layer entry points by name; a refactor that
renames one should fail here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from cliquedyn.geometric import GeoBuilder
from cliquedyn.hexgrid import gen_hex_patch

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
