"""Command-line front end.

Exit codes: 0 success or verdict, 1 verification failure, 2 input error,
3 budget exceeded.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as gio
from . import lemmas
from .cliques import DEFAULT_VERTEX_BUDGET, clique_graph, iterate_k
from .covers import CoverError, decide_finite, universal_cover_ball, validate_covering_map
from .generators import hex_torus, icosahedron, octahedron
from .geometric import GeoBuilder, verify_geometric_equivalence
from .graph import GraphError
from .hexgrid import gen_delta, gen_hex_patch, gen_nabla
from .isomorphism import BudgetError
from .surface import validate_surface

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# number of positional parameters each generator takes
GENERATOR_PARAMS = {
    "hex-patch": 1,
    "delta": 1,
    "nabla": 1,
    "torus": 2,
    "octahedron": 0,
    "icosahedron": 0,
}


GRAPH_WRITERS = {"json": gio.graph_to_json, "dot": gio.to_dot, "text": gio.edge_list_text}


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the ``--out`` file, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_basis(text: str):
    table = {"100": (1, 0, 0), "010": (0, 1, 0), "001": (0, 0, 1)}
    if text not in table:
        raise GraphError("--e must be one of 100, 010, 001")
    return table[text]


def _int_param(kind: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphError(f"generator {kind} takes integer parameters, got {text!r}") from None


def cmd_generate(args) -> int:
    kind = args.kind
    if len(args.params) != GENERATOR_PARAMS[kind]:
        raise GraphError(
            f"generator {kind} takes {GENERATOR_PARAMS[kind]} parameter(s),"
            f" got {len(args.params)}"
        )
    if args.e is not None and (kind, args.params) != ("nabla", ["1e"]):
        raise GraphError("--e is a parameter of nabla 1e only")
    if kind == "hex-patch":
        g = gen_hex_patch(_int_param(kind, args.params[0])).graph
    elif kind == "delta":
        g = gen_delta(_int_param(kind, args.params[0])).graph
    elif kind == "nabla":
        e = _parse_basis(args.e) if args.e else None
        g = gen_nabla(args.params[0], e).graph
    elif kind == "torus":
        p, q = (_int_param(kind, x) for x in args.params)
        if p < 4 or q < 4:
            raise GraphError("torus sides must be at least 4")
        g = hex_torus(p, q)
    elif kind == "octahedron":
        g = octahedron()
    elif kind == "icosahedron":
        g = icosahedron()
    else:  # pragma: no cover - argparse restricts choices
        raise GraphError(f"unknown generator {kind}")
    _emit(GRAPH_WRITERS[args.format](g), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = gio.load_graph(args.file)
    report = validate_surface(g)
    if args.format == "text":
        print(f"locally cyclic: {report.is_locally_cyclic}")
        print(f"boundary vertices: {report.boundary.n}")
        print(f"degree range: [{report.min_degree}, {report.max_degree}]")
    else:
        print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_cliquegraph(args) -> int:
    g = gio.load_graph(args.file)
    kg = clique_graph(g)
    _emit(GRAPH_WRITERS[args.format](kg), args.out)
    return EXIT_OK


def _vertex_budget(args) -> int:
    """The ``--budget-vertices`` flag, else ``CLIQUE_BUDGET_VERTICES``, else
    the default; a negative budget is an input error naming its source."""
    name, budget = "--budget-vertices", args.budget_vertices
    if budget is None:
        name, env = "CLIQUE_BUDGET_VERTICES", os.environ.get("CLIQUE_BUDGET_VERTICES")
        if not env:
            return DEFAULT_VERTEX_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise GraphError(f"{name} must be an integer, got {env!r}") from None
    if budget < 0:
        raise GraphError(f"{name} must be non-negative, got {budget}")
    return budget


def cmd_iterate(args) -> int:
    g = gio.load_graph(args.file)
    trace = iterate_k(g, args.steps, vertex_budget=_vertex_budget(args))
    for step in trace.steps:
        print(json.dumps(step.to_dict(), sort_keys=True))
    summary = {k: v for k, v in trace.to_dict().items() if k != "steps"}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_BUDGET if trace.verdict == "budget_exceeded" else EXIT_OK


def cmd_geometric(args) -> int:
    g = gio.load_graph(args.file)
    if args.action == "build":
        gg = GeoBuilder(g).build(args.n, margin=args.margin or 0)
        _emit(json.dumps(gg.to_dict(), sort_keys=True) + "\n", args.out)
        return EXIT_OK
    report = verify_geometric_equivalence(g, args.n, margin=args.margin)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_cover(args) -> int:
    if args.action == "build":
        g = gio.load_graph(args.file)
        ball = universal_cover_ball(g, base=args.base, r=args.radius)
        _emit(json.dumps(ball.to_dict(), sort_keys=True) + "\n", args.out)
        return EXIT_OK
    if args.target is None:
        raise GraphError("cover validate requires --target, the base graph file")
    with open(args.file) as fh:
        try:
            ball_obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise GraphError(f"ball file {args.file} is not JSON: {exc}") from None
    for key in ("graph", "projection"):
        if not isinstance(ball_obj, dict) or not isinstance(ball_obj.get(key), dict):
            raise GraphError(f"ball file {args.file} has no {key!r} object")
    source = gio.graph_from_dict(ball_obj["graph"])
    try:
        projection = {int(k): v for k, v in ball_obj["projection"].items()}
    except ValueError:
        raise GraphError(f"ball file {args.file}: projection keys must be vertex ids") from None
    if any(type(v) is not int for v in projection.values()):
        raise GraphError(f"ball file {args.file}: projection values must be vertex ids")
    target = gio.load_graph(args.target)
    try:
        report = validate_covering_map(projection, source, target)
    except CoverError as exc:
        raise CoverError(f"ball file {args.file}: {exc}") from None
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_decide(args) -> int:
    g = gio.load_graph(args.file)
    verdict = decide_finite(g)
    if verdict.kind == "unsupported":
        print(f"Unsupported: {verdict.reason}")
    else:
        print(verdict.kind.capitalize())
    print(json.dumps(verdict.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    results = lemmas.run_suites(
        args.suites,
        seed=args.seed,
        radius=args.radius,
        count=args.count,
        n_max=args.n_max,
        m=args.m,
    )
    ok = True
    for res in results:
        print(json.dumps(res.to_dict(), sort_keys=True))
        ok = ok and res.ok
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquedyn",
        description="Clique graph dynamics on locally cyclic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", help="write to a file instead of stdout")
        p.add_argument(
            "--format", choices=("json", "dot", "text"), default="json"
        )

    p = sub.add_parser("generate", help="emit a named graph")
    p.add_argument("kind", choices=tuple(GENERATOR_PARAMS))
    p.add_argument("params", nargs="*", help="generator parameters")
    p.add_argument("--e", help="basis direction for nabla 1e (100|010|001)")
    add_output(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("analyze", help="surface classification report")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("cliquegraph", help="graph of maximal cliques")
    p.add_argument("file")
    add_output(p)
    p.set_defaults(fn=cmd_cliquegraph)

    p = sub.add_parser("iterate", help="iterate the clique operator")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--budget-vertices", type=int, default=None)
    p.set_defaults(fn=cmd_iterate)

    p = sub.add_parser("geometric", help="level graph build / verification")
    p.add_argument("action", choices=("build", "verify"))
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--margin", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_geometric)

    p = sub.add_parser("cover", help="universal cover ball build / validation")
    p.add_argument("action", choices=("build", "validate"))
    p.add_argument("file", help="graph file (build) or ball file (validate)")
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--target", help="base graph file for validation")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("decide", help="convergence verdict for a finite graph")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("verify-lemmas", help="run verification suites")
    p.add_argument("suites", nargs="+", help="suite names or 'all'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument(
        "--m", type=int, default=None, help="single side length for inclusion and straight-paths"
    )
    p.add_argument(
        "--n", "--n-max", type=int, default=None, dest="n_max", help="top level for equivalence"
    )
    p.set_defaults(fn=cmd_verify_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
