"""The benchmark's recorded expectations are invariants of the library: a
change that moves a lift count or a checked-vertex count should fail here,
not only as an incorrect benchmark run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from cliquedyn.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_cover_jobs_meet_their_recorded_counts(tmp_path, capsys, monkeypatch):
    """Genus-2 at radius 16 from one of ``GENUS2_BASES`` and the 7-regular
    surface at radius 8, built and validated as the ``cover-decide``
    workload runs them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    jobs = [j for j in workloads.setup("cover-decide", 1, tmp_path) if j.kind.startswith("cover")]
    counts = [j.expect.get("lifts", j.expect.get("checked_vertices")) for j in jobs]
    assert counts == [20388, 13567, 11173, 4264]
    for job in jobs:
        code = main(list(job.args))
        assert workloads.check(job, code, capsys.readouterr().out) == []
