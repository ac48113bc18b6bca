from __future__ import annotations

import json

import pytest

from cliquedyn import cli, lemmas
from cliquedyn.cli import main
from cliquedyn.isomorphism import BudgetError
from cliquedyn.io import graph_from_json, graph_to_json, load_graph
from cliquedyn.surface import facets


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_torus_counts(tmp_path, capsys):
    out = tmp_path / "t44.json"
    code, _, _ = run(capsys, "generate", "torus", "4", "4", "--out", str(out))
    assert code == 0
    g = load_graph(out)
    assert g.n == 16 and g.edge_count == 48
    assert len(facets(g)) == 32
    assert g.n - g.edge_count + len(facets(g)) == 0  # torus euler count


def test_generate_rejects_small_torus(capsys):
    code, _, err = run(capsys, "generate", "torus", "3", "3")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["hex-patch"], 1),
        (["delta"], 1),
        (["torus", "5"], 2),
        (["octahedron", "1"], 0),
    ],
)
def test_generate_checks_parameter_count(capsys, argv, expected):
    code, _, err = run(capsys, "generate", *argv)
    assert code == 2
    assert f"generator {argv[0]} takes {expected} parameter(s)" in err


@pytest.mark.parametrize("argv", [["torus", "4", "x"], ["hex-patch", "2.5"], ["delta", "three"]])
def test_generate_names_a_non_integer_parameter(capsys, argv):
    code, _, err = run(capsys, "generate", *argv)
    assert code == 2
    assert f"generator {argv[0]} takes integer parameters, got {argv[-1]!r}" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"vertices":[null],"edges":[]}', "vertices[0]"),
        ('{"vertices":[0,1],"edges":[[0]]}', "edges[0]"),
        ('{"vertices":[0],"edges":[],"labels":{"a":1}}', "labels key 'a'"),
        ('{"vertices":[0],"edges":[],"labels":[1]}', "labels = [1]"),
        ('{"vertices":[0,1],"edges":[[0,1,2]]}', "edges[0] = [0, 1, 2]"),
        ('{"vertices":[0,1],"edges":[null]}', "edges[0] = None"),
        # a bad vertex is named before a bad edge, a bad edge before bad
        # labels, and bad labels before a self-loop or an unknown vertex
        ('{"vertices":[0,"a"],"edges":[[0]]}', "vertices[1]"),
        ('{"vertices":[0,1],"edges":[[0,1],[0]],"labels":{"a":1}}', "edges[1] = [0]"),
        ('{"vertices":[0],"edges":[[0,0]],"labels":{"a":1}}', "labels key 'a'"),
        ('{"vertices":[0],"edges":[[0,5]],"labels":[1]}', "labels = [1]"),
        ('{"vertices":[0,1,2],"edges":[[0,1],[1,2]],"name":5}', "name = 5 is not a string"),
        # bad labels are named before a bad name
        ('{"vertices":[0],"edges":[],"labels":[1],"name":5}', "labels = [1]"),
    ],
)
def test_malformed_graph_file_exits_2(tmp_path, capsys, text, field):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("analyze", "decide", "iterate"):
        code, _, err = run(capsys, command, str(bad))
        assert code == 2 and f"malformed graph object: {field}" in err


def test_library_errors_exit_2(tmp_path, capsys):
    torus = tmp_path / "t.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    code, _, err = run(capsys, "geometric", "verify", str(torus), "--n", "0")
    assert code == 2 and "bounded patch" in err  # GeoError
    code, _, err = run(capsys, "cover", "build", str(torus), "--base", "99")
    assert code == 2 and "unknown base vertex" in err  # CoverError


def test_generate_delta_matches_fixture(fixtures_dir, capsys):
    code, out, _ = run(capsys, "generate", "delta", "4")
    assert code == 0
    assert out == (fixtures_dir / "delta_4.json").read_text()


def test_generate_octahedron(capsys):
    code, out, _ = run(capsys, "generate", "octahedron")
    g = graph_from_json(out)
    assert code == 0 and g.n == 6 and g.edge_count == 12


def test_generate_round_trip_bytes(tmp_path, capsys):
    for argv in (
        ["generate", "hex-patch", "3"],
        ["generate", "delta", "5"],
        ["generate", "nabla", "3"],
        ["generate", "icosahedron"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert graph_to_json(graph_from_json(out)) == out


def test_generate_dot_format(capsys):
    code, out, _ = run(capsys, "generate", "octahedron", "--format", "dot")
    assert code == 0 and out.startswith("graph")


def test_analyze(tmp_path, capsys):
    out = tmp_path / "octa.json"
    run(capsys, "generate", "octahedron", "--out", str(out))
    code, text, _ = run(capsys, "analyze", str(out))
    assert code == 0
    report = json.loads(text)
    assert report["is_locally_cyclic"] and report["min_degree"] == 4
    code, text, _ = run(capsys, "analyze", str(out), "--format", "text")
    assert code == 0 and "locally cyclic: True" in text


def test_cliquegraph_cli(tmp_path, capsys):
    octa = tmp_path / "octa.json"
    run(capsys, "generate", "octahedron", "--out", str(octa))
    code, out, _ = run(capsys, "cliquegraph", str(octa))
    assert code == 0
    kg = graph_from_json(out)
    assert kg.n == 8 and kg.edge_count == 24


def test_generate_text_format(capsys):
    code, out, _ = run(capsys, "generate", "octahedron", "--format", "text")
    assert code == 0
    from cliquedyn.io import parse_edge_list

    g = parse_edge_list(out)
    assert g.n == 6 and g.edge_count == 12


def test_decide_torus_and_icosahedron(tmp_path, capsys):
    torus = tmp_path / "t.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    code, out, _ = run(capsys, "decide", str(torus))
    assert code == 0 and out.splitlines()[0] == "Divergent"

    icosa = tmp_path / "i.json"
    run(capsys, "generate", "icosahedron", "--out", str(icosa))
    code, out, _ = run(capsys, "decide", str(icosa))
    assert code == 0
    assert out.splitlines()[0] == "Unsupported: minimum degree 5 < 6"


def test_decide_genus2_fixture(fixtures_dir, capsys):
    code, out, _ = run(capsys, "decide", str(fixtures_dir / "genus2_delta6.json"))
    assert code == 0 and out.splitlines()[0] == "Convergent"
    payload = json.loads(out.splitlines()[1])
    assert payload["gates"]["min_degree"] == 6 and not payload["gates"]["regular"]


def test_decide_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "decide", str(bad))
    assert code == 2 and "error" in err


def test_iterate_trace_lines(tmp_path, capsys):
    torus = tmp_path / "t.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    code, out, _ = run(capsys, "iterate", str(torus), "--steps", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [ln["vertices"] for ln in lines[:3]] == [16, 32, 48]
    assert all("digest" in ln for ln in lines[:3])
    assert lines[-1]["verdict"] == "diverging_evidence"


def test_empty_graph_cli(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices":[],"edges":[]}')
    code, out, _ = run(capsys, "cliquegraph", str(empty))
    assert code == 0 and graph_from_json(out).n == 0
    code, out, _ = run(capsys, "iterate", str(empty))
    summary = json.loads(out.splitlines()[-1])
    assert code == 0
    assert (summary["verdict"], summary["n"], summary["period"]) == ("converged", 0, 1)
    code, out, _ = run(capsys, "analyze", str(empty))
    assert code == 0 and json.loads(out)["is_locally_cyclic"] is False
    code, out, _ = run(capsys, "decide", str(empty))
    verdict = json.loads(out.splitlines()[-1])
    assert code == 0 and out.startswith("Unsupported: not locally cyclic: empty graph")
    assert verdict["gates"]["locally_cyclic"] is False


def test_iterate_budget_env(tmp_path, capsys, monkeypatch):
    torus = tmp_path / "t.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    monkeypatch.setenv("CLIQUE_BUDGET_VERTICES", "20")
    code, out, _ = run(capsys, "iterate", str(torus), "--steps", "4")
    assert code == 3
    assert json.loads(out.splitlines()[-1])["verdict"] == "budget_exceeded"
    monkeypatch.setenv("CLIQUE_BUDGET_VERTICES", "abc")
    code, _, err = run(capsys, "iterate", str(torus), "--steps", "4")
    assert code == 2 and "CLIQUE_BUDGET_VERTICES must be an integer, got 'abc'" in err
    monkeypatch.setenv("CLIQUE_BUDGET_VERTICES", "-3")
    code, out, err = run(capsys, "iterate", str(torus), "--steps", "4")
    assert (code, out, err) == (2, "", "error: CLIQUE_BUDGET_VERTICES must be non-negative, got -3\n")


def test_geometric_verify_cli(tmp_path, capsys):
    patch = tmp_path / "p.json"
    run(capsys, "generate", "hex-patch", "8", "--out", str(patch))
    code, out, _ = run(capsys, "geometric", "verify", str(patch), "--n", "0")
    assert code == 0 and json.loads(out)["ok"]


def test_geometric_verify_names_a_host_too_small_to_check(tmp_path, capsys):
    disc = tmp_path / "disc.json"
    disc.write_text('{"vertices":[0,1,2,3],"edges":[[0,1],[1,2],[2,3],[3,0],[0,2]]}')
    code, out, err = run(capsys, "geometric", "verify", str(disc), "--n", "1")
    assert (code, out) == (2, "")
    assert "host too small: no level-2 vertex lies at least 4 from the boundary" in err


def test_geometric_build_cli(tmp_path, capsys):
    patch = tmp_path / "p.json"
    run(capsys, "generate", "hex-patch", "4", "--out", str(patch))
    code, out, _ = run(capsys, "geometric", "build", str(patch), "--n", "1", "--margin", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] and payload["edges"]


def test_cover_build_and_validate_cli(tmp_path, capsys):
    torus = tmp_path / "t.json"
    ball = tmp_path / "ball.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    code, _, _ = run(
        capsys, "cover", "build", str(torus), "--radius", "3", "--base", "0", "--out", str(ball)
    )
    assert code == 0
    code, out, _ = run(capsys, "cover", "validate", str(ball), "--target", str(torus))
    assert code == 0 and json.loads(out)["ok"]


def test_cover_validate_rejects_a_ball_with_no_inner_vertex(tmp_path, capsys):
    """The radius-0 ball is one lift: nothing can be checked, so it is an
    input error rather than a valid covering."""
    torus = tmp_path / "t.json"
    ball = tmp_path / "ball.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    code, _, _ = run(
        capsys, "cover", "build", str(torus), "--radius", "0", "--base", "0", "--out", str(ball)
    )
    assert code == 0
    code, out, err = run(capsys, "cover", "validate", str(ball), "--target", str(torus))
    message = f"error: ball file {ball}: source graph has no inner vertex to check\n"
    assert (code, out, err) == (2, "", message)


def test_cover_validate_detects_folding(tmp_path, capsys):
    octa = tmp_path / "o.json"
    run(capsys, "generate", "octahedron", "--out", str(octa))
    ball = {
        "graph": json.loads(graph_to_json(load_graph(octa))),
        "projection": {"0": 0, "1": 0, "2": 2, "3": 2, "4": 4, "5": 4},
    }
    ball_file = tmp_path / "fold.json"
    ball_file.write_text(json.dumps(ball))
    code, out, _ = run(capsys, "cover", "validate", str(ball_file), "--target", str(octa))
    assert code == 1 and not json.loads(out)["ok"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj.pop("graph"), "has no 'graph' object"),
        (lambda obj: obj.pop("projection"), "has no 'projection' object"),
        (lambda obj: obj["projection"].update({"a": 0}), "projection keys must be vertex ids"),
        (lambda obj: obj["projection"].update({"0": [0]}), "projection values must be vertex ids"),
        (
            lambda obj: obj["projection"].update({"9999": 0}),
            "projection key 9999 is not a vertex of the source graph",
        ),
        (lambda obj: "{broken", "is not JSON"),  # replaces the whole file
    ],
)
def test_cover_validate_names_a_malformed_ball(tmp_path, capsys, edit, message):
    torus = tmp_path / "t.json"
    ball = tmp_path / "ball.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    run(capsys, "cover", "build", str(torus), "--radius", "2", "--out", str(ball))
    obj = json.loads(ball.read_text())
    text = edit(obj)
    ball.write_text(text if isinstance(text, str) else json.dumps(obj))
    code, _, err = run(capsys, "cover", "validate", str(ball), "--target", str(torus))
    assert code == 2 and message in err and f"ball file {ball}" in err


def test_cover_validate_requires_target(tmp_path, capsys):
    torus = tmp_path / "t.json"
    ball = tmp_path / "ball.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    run(capsys, "cover", "build", str(torus), "--radius", "2", "--out", str(ball))
    code, out, err = run(capsys, "cover", "validate", str(ball))
    assert code == 2 and out == "" and "requires --target" in err


def test_verify_lemmas_cli(capsys):
    code, out, _ = run(capsys, "verify-lemmas", "lhg", "straight-paths")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(ln["ok"] for ln in lines)
    assert {ln["suite"] for ln in lines} == {"lhg", "straight-paths"}


def test_verify_lemmas_labeling_budget_exits_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise BudgetError("canonical labeling budget exceeded")

    monkeypatch.setattr(lemmas, "find_isomorphism", exhausted)
    code, _, err = run(capsys, "verify-lemmas", "cover")
    assert code == 3 and "budget exceeded" in err


def test_verify_lemmas_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit):
        main(["verify-lemmas", "lhg", "--jobs", "2"])


def test_verify_lemmas_unknown_suite(capsys):
    code, _, err = run(capsys, "verify-lemmas", "nope")
    assert code == 2 and err == "error: unknown suite 'nope'\n"


def test_undecodable_files_are_named(tmp_path, capsys):
    torus = tmp_path / "t.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    for name in ("bad.json", "bad.txt"):
        bad = tmp_path / name
        bad.write_bytes(b"\xff{}")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2 and f"error: graph file {bad} is not UTF-8 text" in err
    code, _, err = run(capsys, "cover", "validate", str(bad), "--target", str(torus))
    assert code == 2 and f"error: ball file {bad} is not JSON" in err


def test_library_bugs_propagate(tmp_path, capsys, monkeypatch):
    torus = tmp_path / "t.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))

    def broken(g):
        raise KeyError(0)

    monkeypatch.setattr(cli, "decide_finite", broken)
    with pytest.raises(KeyError):
        main(["decide", str(torus)])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-lemmas", "discharge", "--radius", "2"], "discharge needs radius at least 3, got 2"),
        (["verify-lemmas", "discharge", "--count", "0"], "discharge needs count at least 1, got 0"),
        (
            ["verify-lemmas", "straight-paths", "--m", "3"],
            "straight-paths needs side lengths of at least 4, got 3",
        ),
        (["verify-lemmas", "inclusion", "--m", "0"], "inclusion needs side lengths of at least 1, got 0"),
        (["verify-lemmas", "equivalence", "--n", "-1"], "equivalence needs n of at least 0, got -1"),
        (
            ["verify-lemmas", "equivalence", "--n", "2", "--radius", "5"],
            "equivalence at n = 2 needs radius at least 6, got 5",
        ),
        (
            ["verify-lemmas", "chart-extension", "--radius", "0"],
            "chart-extension needs radius at least 7, got 0",
        ),
        (["iterate", "TORUS", "--steps", "-1"], "number of steps must be non-negative, got -1"),
        (["verify-lemmas", "chart-extension", "--count", "0"], "--count is not a parameter of chart-extension"),
        (["verify-lemmas", "lhg", "inclusion", "--n", "1"], "--n is not a parameter of lhg, inclusion"),
        (
            ["iterate", "TORUS", "--budget-vertices", "-1"],
            "--budget-vertices must be non-negative, got -1",
        ),
        (["generate", "torus", "4", "4", "--e", "010"], "--e is a parameter of nabla 1e only"),
        (["generate", "nabla", "1", "--e", "010"], "--e is a parameter of nabla 1e only"),
        (["verify-lemmas", "all", "lhg"], "suite 'all' cannot be combined with other suites"),
        (["verify-lemmas", "lhg", "lhg"], "suite 'lhg' is named twice"),
        (["verify-lemmas", "cover", "--radius", "0"], "cover needs radius at least 1, got 0"),
        (
            ["geometric", "verify", "TORUS", "--n", "1", "--margin", "0"],
            "margin 0 is below the safe bound 4",
        ),
    ],
)
def test_out_of_range_parameters_exit_2(tmp_path, capsys, argv, message):
    torus = tmp_path / "t.json"
    run(capsys, "generate", "torus", "4", "4", "--out", str(torus))
    argv = [str(torus) if a == "TORUS" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
